"""Independent brute-force references and the cross-check suite.

The reference computations here (partition enumeration with hook filters,
raw s-sets, explicit permutation counting, the Motzkin recurrence) work
only on :class:`~stcores.partition.Partition` values and raw integer sets,
never on the abacus or coordinate internals, so agreement with the library
paths is meaningful evidence.  :func:`enumerated_moment_sums` visits every
enumerated core and is the reference for the dynamic program behind
:func:`stcores.stats.moment_sum` and :func:`stcores.stats.average_size`.
:func:`check_average` and :func:`verify_cyclic_sum_identities` put each
side of a closed form into an :class:`IdentityReport`.

:func:`run_verify_suite` executes every structural invariant of the package
at a requested scale and streams one report per check, in row order.  A
check is a row (name, params, cases, witness_of): ``cases`` is a lazy
iterable of argument tuples and ``witness_of(*case)`` returns None or a
witness string naming a counterexample.  Failures come back as reports with
witnesses, not exceptions, and the remaining checks still run.  Each
randomized check draws from a generator of its own, so the rows run through
:mod:`stcores.runner`, shared with a child process made by ``os.fork``, in
any split.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from . import betaset, coords, enumeration, errors, formulas, runner, stats
from .partition import Partition, _Frozen

PARTITION_CAP = 40
# The seed of the randomized checks of run_verify_suite.
SEED = 2718


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, descending lexicographic order."""
    yield from _partitions(n, n, [])


def _partitions(rem: int, mx: int, acc: list[int]) -> Iterator[Partition]:
    """acc followed by each partition of rem into parts <= mx."""
    if rem == 0:
        yield Partition(acc)
        return
    for first in range(min(rem, mx), 0, -1):
        acc.append(first)
        yield from _partitions(rem - first, first, acc)
        acc.pop()


def enum_partitions_up_to(n_max: int) -> Iterator[Partition]:
    """Every partition of every n <= n_max (at most PARTITION_CAP), each
    exactly once."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > PARTITION_CAP:
        raise errors.CapExceededError(f"n_max={n_max} exceeds cap={PARTITION_CAP}")
    return itertools.chain.from_iterable(partitions_of(n) for n in range(n_max + 1))


def brute_st_cores(moduli: Iterable[int], n_max: int) -> list[Partition]:
    """Partitions of size <= n_max with no hook length divisible by any of
    the moduli, by direct inspection of every hook of every partition."""
    ms = sorted(set(moduli))
    out = []
    for p in enum_partitions_up_to(n_max):
        hooks = p.hook_lengths()
        if all(h % m for m in ms for h in hooks):
            out.append(p)
    return out


def s_set_of(p: Partition, s: int) -> frozenset[int]:
    """The set (B + s) \\ B computed from the parts alone (raw window
    arithmetic, no abacus code)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    length = len(p)
    window = [
        (p.parts[i - 1] if i <= length else 0) - i for i in range(1, length + s + 1)
    ]
    present = set(window)
    return frozenset(x + s for x in window if x + s not in present)


def brute_stab_count(
    sset: Iterable[int], t: int, s: int, self_conjugate: bool = False
) -> int:
    """Count permutations of the s-set that preserve residues mod t (and,
    for the self-conjugate action, commute with m -> s-1-m), by explicit
    enumeration of all |sset|! permutations."""
    elems = sorted(set(sset))
    if len(elems) != s or sum(elems) != s * (s - 1) // 2:
        raise errors.InvalidSSetError("expected one element per class mod s, summing to s(s-1)/2")
    if len({x % s for x in elems}) != s:
        raise errors.InvalidSSetError("elements must cover every residue class mod s")
    if self_conjugate and {s - 1 - x for x in elems} != set(elems):
        raise errors.InvalidSSetError("self-conjugate counting needs a symmetric s-set")
    if s > 8:
        raise errors.TooLargeError(f"refusing {s}! permutations (s > 8)")
    reflect = {x: s - 1 - x for x in elems}
    count = 0
    for perm in itertools.permutations(elems):
        f = dict(zip(elems, perm))
        if any((f[x] - x) % t for x in elems):
            continue
        if self_conjugate and any(f[reflect[x]] != s - 1 - f[x] for x in elems):
            continue
        count += 1
    return count


def motzkin_number(n: int) -> int:
    """Motzkin numbers by the convolution recurrence
    M_n = M_{n-1} + sum_k M_k M_{n-2-k}."""
    ms = [1, 1]
    while len(ms) <= n:
        j = len(ms)
        ms.append(ms[j - 1] + sum(ms[k] * ms[j - 2 - k] for k in range(j - 1)))
    return ms[n]


def _scaled_inverse_stab(rec: enumeration.CoreRecord, scale: int, self_conjugate: bool) -> int:
    """D / stab(rec), exactly (InvariantError if stab does not divide D)."""
    w, rem = divmod(scale, enumeration._stab(rec, self_conjugate))
    if rem:
        raise errors.InvariantError(f"stabilizer of z={rec.z.z} does not divide {scale}")
    return w


def enumerated_moment_sums(
    s: int, t: int, e: int, weighted: bool = False, self_conjugate: bool = False
) -> list[Fraction]:
    """[sum of w(core) * |core|^r for r = 0..e], w = 1 or w = 1/stab, summed
    over every enumerated core: the reference for :func:`stats.moment_sum`
    and :func:`stats.average_size`."""
    records = (enumeration.iter_sc_st_cores if self_conjugate else enumeration.iter_st_cores)(s, t)
    scale = stats._weight_denominator(s, self_conjugate) if weighted else 1
    sums = [0] * (e + 1)
    for rec in records:
        w = _scaled_inverse_stab(rec, scale, self_conjugate) if weighted else 1
        for r in range(e + 1):
            sums[r] += w * rec.size**r
    return [Fraction(v, scale) for v in sums]


class IdentityReport(_Frozen):
    """Both sides of one checked identity, plus enough context to rerun it."""

    __slots__ = ("name", "params", "lhs", "rhs")
    name: str
    params: dict
    lhs: Fraction
    rhs: Fraction

    def __init__(self, name: str, params: dict, lhs: Fraction, rhs: Fraction):
        self.__setstate__((name, params, lhs, rhs))

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def check_average(s: int, t: int, weighted: bool = False, self_conjugate: bool = False) -> IdentityReport:
    name = ("weighted-" if weighted else "") + ("sc-" if self_conjugate else "") + "average-size"
    return IdentityReport(
        name=name,
        params={"s": s, "t": t},
        lhs=stats.average_size(s, t, weighted, self_conjugate),
        rhs=stats.expected_average(s, t, weighted, self_conjugate),
    )


def verify_cyclic_sum_identities(s: int, t: int) -> list[IdentityReport]:
    """Evaluate the seven special cyclic sums over the (s,t)-core z-tuples
    by enumeration and compare with the closed forms, exactly.

    Exponential family (f carries the multinomial weight s!/prod(z_j!)):
      constant  -> t^s / t
      linear    -> s t^(s-1) / t        for f = multinom * (1/t) sum z_i
      quadratic -> s(s-1) t^(s-2) / t   for (1/t) sum z_i(z_i-1), and equally
                                        for (1/t) sum z_i z_{i+r}, r != 0

    Ordinary family (no weight):
      constant       -> C(s+t-1, t-1) / t
      linear         -> C(s+t-1, t)   / t
      square quad    -> 2 C(s+t-1, t+1) / t
      mixed quad     -> C(s+t-1, t+1) / t   for each r != 0 mod t
    """
    formulas._require_coprime(s, t)
    zs = [rec.z.z for rec in enumeration.iter_st_cores(s, t)]

    def rot_products(r: int):
        return lambda z: sum(a * b for a, b in zip(z, z[r:] + z[:r]))

    quad = s * (s - 1) * t ** max(s - 2, 0)  # s(s-1) vanishes for s = 1
    mixed = math.comb(s + t - 1, t + 1)
    # (name, extra params, integer statistic of z, t * exponential rhs, t * ordinary rhs)
    rows = [
        ("constant", {}, lambda z: t, t**s, math.comb(s + t - 1, t - 1)),
        ("linear", {}, sum, s * t ** (s - 1), math.comb(s + t - 1, t)),
        ("quadratic-square", {}, lambda z: sum(v * (v - 1) for v in z), quad, 2 * mixed),
        *(("quadratic-mixed", {"r": r}, rot_products(r), quad, mixed) for r in range(1, t)),
    ]
    families = (("exp", [formulas.multinomial(s, z) for z in zs]), ("ord", [1] * len(zs)))
    return [
        IdentityReport(
            f"{family}-{name}",
            {"s": s, "t": t, **extra},
            Fraction(sum(w * stat(z) for w, z in zip(weights, zs)), t),
            Fraction(rhs[k], t),
        )
        for k, (family, weights) in enumerate(families)
        for name, extra, stat, *rhs in rows
    ]


def _residue_multiset(values: Iterable[int], t: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(v % t for v in values).items()))


# Witnesses of the checks that take more than one expression.  Each returns
# None when the case satisfies the invariant, else a string naming the case.


def _rim_removal_results(p: Partition, t: int, memo: dict[Partition, frozenset[Partition]]) -> frozenset[Partition]:
    """Every partition left when rim t-hooks are removed from p in any order
    until none remains; ``memo`` keeps the results of one t."""
    got = memo.get(p)
    if got is not None:
        return got
    cells = [cell for cell, h in zip(p.cells(), p.hook_lengths()) if h == t]
    if not cells:
        res = frozenset([p])
    else:
        acc: set[Partition] = set()
        for cell in cells:
            acc |= _rim_removal_results(p.remove_rim_hook(*cell), t, memo)
        res = frozenset(acc)
    memo[p] = res
    return res


def _removal_witness(p: Partition, t: int, memo: dict) -> str | None:
    res = _rim_removal_results(p, t, memo)
    if len(res) != 1 or next(iter(res)) != p.t_core_by_diagram(t):
        return f"p={p.parts}, t={t}: results={sorted(q.parts for q in res)}"
    return None


def _push_witness(p: Partition, s: int, b: betaset.BetaSet) -> str | None:
    pushed = betaset.s_push(b, s)
    ok = (
        betaset.charge(pushed, s) == betaset.charge(b, s)
        and betaset.is_s_core(pushed, s)
        and betaset.s_push(pushed, s) == pushed
    )
    return None if ok else f"p={p.parts}, s={s}"


def _charge_a_witness(s: int, p: Partition) -> str | None:
    # a_coords reads the charge; each a_i - s must be its class's top bead.
    b = betaset.beta_from_partition(p)
    a = betaset.a_coords(p, s)
    if any(v - s not in b or v in b for v in a.a):
        return f"p={p.parts}, s={s}"
    if frozenset(a.a) != betaset.s_set(b, s):
        return f"p={p.parts}, s={s}: a-set != (B+s)\\B"
    return None


def _conjugate_charge_witness(p: Partition, s: int, b: betaset.BetaSet, cb: betaset.BetaSet) -> str | None:
    c, cc = betaset.charge(b, s), betaset.charge(cb, s)
    if any(cc[i] != -c[(-1 - i) % s] for i in range(s)):
        return f"p={p.parts}, s={s}"
    return None


def _conjugate_s_set_witness(s: int, p: Partition) -> str | None:
    a = betaset.a_coords(p, s)
    q = p.conjugate()
    ac = betaset.a_coords(q, s)
    if any(ac.a[i] != s - 1 - a.a[(-1 - i) % s] for i in range(s)):
        return f"p={p.parts}, s={s}"
    if coords.is_self_conjugate_a(a) != (p == q):
        return f"p={p.parts}, s={s}: symmetry mismatch"
    return None


def _core_closure_witness(s: int, t: int, p: Partition) -> str | None:
    q = betaset.t_core(p, t)
    if not betaset.is_s_core(betaset.beta_from_partition(q), s):
        return f"p={p.parts}, s={s}, t={t}: core not closed"
    if _residue_multiset(s_set_of(p, s), t) != _residue_multiset(s_set_of(q, s), t):
        return f"p={p.parts}, s={s}, t={t}: s-set residues moved"
    return None


def _s_set_t_set_witness(s: int, t: int, p: Partition) -> str | None:
    sset = s_set_of(p, s)
    at = betaset.a_coords(betaset.t_core(p, t), t)
    for j in range(t):
        num = at.a[j] - (at.a[(j + s) % t] - s)
        lhs = sum(1 for x in sset if (x - s) % t == j)
        if num % t or lhs != num // t:
            return f"p={p.parts}, s={s}, t={t}, j={j}"
    return None


def _faithful_witness(s: int, t: int, p: Partition, q: Partition) -> str | None:
    same_residues = _residue_multiset(s_set_of(p, s), t) == _residue_multiset(s_set_of(q, s), t)
    same_core = betaset.t_core(p, t) == betaset.t_core(q, t)
    if same_residues != same_core:
        return f"p={p.parts}, q={q.parts}, s={s}, t={t}"
    return None


def _st_core_witness(s: int, t: int, p: Partition) -> str | None:
    a = betaset.a_coords(p, t)
    z = coords.a_to_z(a, s)
    truth = betaset.is_s_core(betaset.beta_from_partition(p), s)
    if coords.is_st_core_a(a, s) != truth or z.is_nonnegative() != truth:
        return f"p={p.parts}, s={s}, t={t}"
    return None


def _z_residue_witness(s: int, t: int, k: int, p: Partition) -> str | None:
    sset = s_set_of(p, s)
    z = coords.a_to_z(betaset.a_coords(betaset.t_core(p, t), t), s)
    for j in range(t):
        if z.z[j] != sum(1 for x in sset if (x - s) % t == (s * j + k) % t):
            return f"p={p.parts}, s={s}, t={t}, j={j}"
    return None


def _sc_transfer_witness(s: int, t: int, p: Partition) -> str | None:
    a = betaset.a_coords(p, t)
    z = coords.a_to_z(a, s)
    symmetric_a = coords.is_self_conjugate_a(a)
    if symmetric_a != all(z.z[i] == z.z[(-i) % t] for i in range(t)):
        return f"p={p.parts}, s={s}, t={t}"
    if symmetric_a != p.is_self_conjugate():
        return f"p={p.parts}, s={s}, t={t}: a-symmetry vs partition"
    return None


def _count_witness(s: int, t: int) -> str | None:
    if len(list(enumeration.iter_st_cores(s, t))) != formulas.count_st(s, t):
        return f"(s,t)=({s},{t}) general count"
    if len(list(enumeration.iter_sc_st_cores(s, t))) != formulas.count_sc(s, t):
        return f"(s,t)=({s},{t}) self-conjugate count"
    return None


def _orbit_rep_witness(s: int, t: int, comp: tuple[int, ...]) -> str | None:
    hits = [r for r in range(t) if sum(j * v for j, v in enumerate(comp[r:] + comp[:r])) % t == 0]
    if len(hits) != 1 or hits[0] != enumeration.canonical_cyclic_rep(comp):
        return f"x={comp}, s={s}, t={t}, hits={hits}"
    return None


def _sc_subset_witness(s: int, t: int) -> str | None:
    general = {r.partition for r in enumeration.iter_st_cores(s, t)}
    sc = [r.partition for r in enumeration.iter_sc_st_cores(s, t)]
    if not all(p.is_self_conjugate() for p in sc):
        return f"(s,t)=({s},{t}): non-self-conjugate output"
    if set(sc) != {p for p in general if p.is_self_conjugate()}:
        return f"(s,t)=({s},{t}): subset mismatch"
    return None


def _triple_witness(m: int, d: int) -> str | None:
    # This check sets the peak memory of the process that runs it in a
    # default verify run, so it keeps one set of parts tuples: each sym partition is
    # checked for divisible hooks as it arrives, and each asym one is
    # discarded from the set.
    want = formulas.count_triple(m, d)
    moduli = (m, m + d, m + 2 * d)
    sym_parts: set[tuple[int, ...]] = set()
    n_sym = 0
    for rec in enumeration.iter_triple_sym(m, d):
        p = rec.partition
        if any(h % mod == 0 for h in p.hook_lengths() for mod in moduli):
            return f"(m,d)=({m},{d}): {p.parts} has a divisible hook"
        sym_parts.add(p.parts)
        n_sym += 1
    distinct = len(sym_parts)
    n_asym = 0
    for rec in enumeration.iter_triple_asym(m, d):
        sym_parts.discard(rec.partition.parts)
        n_asym += 1
    if n_sym != want or n_asym != want or distinct != want or sym_parts:
        return f"(m,d)=({m},{d}): counts {n_sym}/{n_asym} vs {want}"
    return None


def _average_witness(weighted: bool, self_conjugate: bool, s: int, t: int) -> str | None:
    # The average alone would miss a DP that sums each cyclic orbit of
    # compositions instead of its one core: that scales both moments by t.
    rep = check_average(s, t, weighted, self_conjugate)
    mass = stats.moment_sum(s, t, 0, weighted, self_conjugate)
    ref_mass, ref_first = enumerated_moment_sums(s, t, 1, weighted, self_conjugate)
    if rep.passed and (mass, rep.lhs) == (ref_mass, ref_first / ref_mass):
        return None
    return (
        f"(s,t)=({s},{t}): average {rep.lhs}, closed form {rep.rhs}, enumerated {ref_first / ref_mass};"
        f" mass {mass}, enumerated {ref_mass}"
    )


def _asymmetry_witness() -> str | None:
    lhs = stats.average_size(2, 3, weighted=True)
    rhs = stats.average_size(3, 2, weighted=True)
    return None if lhs != rhs else f"weighted average symmetric at (2,3): {lhs}"


def _stab_witness(s: int, t: int, self_conjugate: bool, rec: enumeration.CoreRecord) -> str | None:
    sset = s_set_of(rec.partition, s)
    if enumeration._stab(rec, self_conjugate) != brute_stab_count(sset, t, s, self_conjugate=self_conjugate):
        return f"(s,t)=({s},{t}), p={rec.partition.parts}" + (" (sc)" if self_conjugate else "")
    return None


def _size_witness(s: int, t: int, rec: enumeration.CoreRecord) -> str | None:
    # The record's a and size come from prefix sums.  a_to_z reads
    # differences of a and is injective, so it maps rec.a back to rec.z
    # exactly when rec.a = z_to_a(rec.z).
    p = rec.partition
    c = betaset.charge(betaset.beta_from_partition(p), t)
    if (
        coords.a_to_z(rec.a, s) == rec.z
        and betaset.size_from_a(rec.a) == rec.size == p.size
        and betaset.size_from_c(c) == rec.size
    ):
        return None
    return f"(s,t)=({s},{t}), p={p.parts}"


def _oracle_witness(s: int, t: int) -> str | None:
    # Olsson and Stanton: the largest (s,t)-core has size (s^2-1)(t^2-1)/24,
    # and no other (s,t)-core has that size.
    largest = (s * s - 1) * (t * t - 1) // 24
    enum_parts = {r.partition for r in enumeration.iter_st_cores(s, t)}
    if {p for p in enum_parts if p.size <= largest} != set(brute_st_cores({s, t}, largest)):
        return f"(s,t)=({s},{t}): set mismatch at size <= {largest}"
    top = sorted(p.size for p in enum_parts if p.size >= largest)
    return None if top == [largest] else f"(s,t)=({s},{t}): enumerated sizes {top} at or above {largest}"


def _randomized(name: str, params: dict, cases_of: Callable[[random.Random], Iterable[tuple]], witness_of) -> tuple:
    """The row of a randomized check.  ``cases_of(rng)`` draws its cases from a
    generator seeded from SEED and the check's name alone, made at the first
    draw in whichever process runs the check, so no other row moves them."""
    return name, params, (case for seed in [f"{SEED}/{name}"] for case in cases_of(random.Random(seed))), witness_of


def run_verify_suite(
    s_max: int = 5,
    t_max: int = 6,
    n_max: int = 20,
    *,
    trials: int = 60,
) -> Iterable[runner.VerifyReport]:
    """Every structural cross-check at the given scale, as reports that
    stream in row order when iterated.

    Each sub-check keeps its own documented size cap (for instance, size <= 12
    for exhaustive hook multisets); the requested bounds clamp those caps
    rather than extend them.  Each randomized check draws from a generator
    of its own, seeded from SEED and the check's name, so each check is
    reproducible on its own, in either process.  Raises ValueError, at the
    call, when s_max or t_max is below 1.  When iteration starts, up to two
    processes claim the checks from one pipe (see :mod:`stcores.runner`).
    """
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    mod_max = max(s_max, t_max)
    half, quarter = max(1, trials // 2), max(1, trials // 4)
    n12, n14, n15, n20 = (min(k, n_max) for k in (12, 14, 15, 20))
    sum9, sum12, sum14 = (min(k, s_max + t_max) for k in (9, 12, 14))
    all_parts = list(enum_partitions_up_to(n20))

    def parts_upto(k: int) -> Iterator[Partition]:
        return (p for p in all_parts if p.size <= k)

    def coprime_pairs(limit_sum: int = s_max + t_max) -> list[tuple[int, int]]:
        return [
            (s, t)
            for s in range(1, s_max + 1)
            for t in range(1, t_max + 1)
            if math.gcd(s, t) == 1 and s + t <= limit_sum
        ]

    def random_sc_t_core(rng: random.Random, t: int, s: int) -> Partition:
        # symmetric by construction: random u, unfolded through z to a
        tail = [rng.randint(-3, 3) for _ in range(t // 2)]
        u = coords.UTuple(t, s, (s // 2 - sum(tail), *tail))
        return betaset.partition_from_a(coords.z_to_a(coords.u_to_z(u)))

    def random_u(rng: random.Random, s: int, t: int) -> coords.UTuple:
        cuts = sorted(rng.randint(0, s // 2) for _ in range(t // 2))
        u_entries = [b - a for a, b in zip([0] + cuts, cuts + [s // 2])]
        if len(u_entries) > 1 and rng.getrandbits(1):
            # exercise the general (possibly negative) lattice too
            i, j = rng.sample(range(len(u_entries)), 2)
            delta = rng.randint(1, 4)
            u_entries[i] += delta
            u_entries[j] -= delta
        return coords.UTuple(t, s, tuple(u_entries))

    def random_s_cases(rng: random.Random) -> Iterator[tuple[int, Partition]]:
        return ((s, betaset.random_s_core(s, rng)) for s in range(1, mod_max + 1) for _ in range(trials))

    def random_st_cases(rng: random.Random) -> Iterator[tuple[int, int, Partition]]:
        mods = range(1, mod_max + 1)
        return ((s, t, betaset.random_s_core(s, rng)) for s in mods for t in mods for _ in range(quarter))

    pairs = coprime_pairs()
    oracle_pairs = [(s, t) for s, t in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)] if s <= s_max and t <= t_max]

    # Every row is (name, params, cases, witness_of).  The cases are lazy, so a
    # randomized check draws only while it runs, and per-partition work
    # (beta-set, hooks, conjugate, rim-removal memo) rides along in them.
    rows = [
        # --- partition module -------------------------------------------
        ("conjugate-involution", {"n_max": n20}, ((p,) for p in parts_upto(n20)),
         lambda p: f"p={p.parts}" if p.conjugate().conjugate() != p else None),
        ("hook-multiset-conjugation-invariant", {"n_max": n12}, ((p,) for p in parts_upto(n12)),
         lambda p: f"p={p.parts}" if sorted(p.hook_lengths()) != sorted(p.conjugate().hook_lengths()) else None),
        ("diagram-core-kills-divisible-hooks", {"n_max": n12, "t_max": t_max},
         ((p, t, p.t_core_by_diagram(t)) for p in parts_upto(n12) for t in range(1, t_max + 1)),
         lambda p, t, q: f"p={p.parts}, t={t} -> {q.parts}" if any(h % t == 0 for h in q.hook_lengths()) else None),
        ("rim-removal-order-independence", {"n_max": n12, "t_max": min(5, t_max)},
         ((p, t, memo) for t in range(2, min(5, t_max) + 1) for memo in [{}] for p in parts_upto(n12)),
         _removal_witness),
        # --- betaset module ---------------------------------------------
        ("beta-round-trip", {"n_max": n20}, ((p,) for p in parts_upto(n20)),
         lambda p: f"p={p.parts}" if betaset.partition_from_beta(betaset.beta_from_partition(p)) != p else None),
        ("hook-count-matches-beta-difference", {"n_max": n12, "s_max": min(6, mod_max)},
         ((p, s, b, hooks) for p in parts_upto(n12)
          for b, hooks in [(betaset.beta_from_partition(p), p.hook_lengths())] for s in range(1, min(6, mod_max) + 1)),
         lambda p, s, b, hooks: f"p={p.parts}, s={s}" if betaset.hook_count(b, s) != hooks.count(s) else None),
        ("push-preserves-charge-and-idempotent", {"n_max": n14, "s_max": mod_max},
         ((p, s, b) for p in parts_upto(n14) for b in [betaset.beta_from_partition(p)] for s in range(1, mod_max + 1)),
         _push_witness),
        ("diagram-vs-abacus-core", {"n_max": n14, "t_max": min(6, mod_max)},
         ((p, t) for p in parts_upto(n14) for t in range(1, min(6, mod_max) + 1)),
         lambda p, t: f"p={p.parts}, t={t}" if betaset.t_core(p, t) != p.t_core_by_diagram(t) else None),
        _randomized("charge-to-a-translation", {"s_max": mod_max, "trials": trials}, random_s_cases, _charge_a_witness),
        ("conjugate-charge-negation", {"n_max": n14, "s_max": mod_max},
         ((p, s, b, cb) for p in parts_upto(n14) for b in [betaset.beta_from_partition(p)]
          for cb in [betaset.conjugate_beta(b)] for s in range(1, mod_max + 1)),
         _conjugate_charge_witness),
        ("core-commutes-with-conjugation", {"n_max": n15, "s_max": min(5, mod_max)},
         ((p, s) for p in parts_upto(n15) for s in range(1, min(5, mod_max) + 1)),
         lambda p, s: f"p={p.parts}, s={s}" if betaset.t_core(p.conjugate(), s) != betaset.t_core(p, s).conjugate() else None),
        _randomized("conjugate-s-set-reflection", {"s_max": mod_max, "trials": trials}, random_s_cases,
                    _conjugate_s_set_witness),
        _randomized("t-core-preserves-s-core", {"mod_max": mod_max}, random_st_cases, _core_closure_witness),
        _randomized("s-set-t-set-interaction", {"mod_max": mod_max}, random_st_cases, _s_set_t_set_witness),
        _randomized("faithful-invariant", {"mod_max": min(6, mod_max)},
                    lambda rng: ((s, t, p, rng.choice([betaset.random_s_core(s, rng), betaset.t_core(p, t)]))
                                 for s in range(1, min(6, mod_max) + 1) for t in range(1, min(6, mod_max) + 1)
                                 if math.gcd(s, t) == 1 for _ in range(quarter) for p in [betaset.random_s_core(s, rng)]),
                    _faithful_witness),
        # --- coords module ----------------------------------------------
        _randomized("a-z-round-trip", {"pairs": len(pairs), "trials": trials},
                    lambda rng: ((s, t, betaset.a_coords(betaset.random_s_core(t, rng), t))
                                 for s, t in pairs for _ in range(half)),
                    lambda s, t, a: f"a={a.a}, s={s}, t={t}" if coords.z_to_a(coords.a_to_z(a, s)) != a else None),
        _randomized("z-u-round-trip", {"pairs": len(pairs), "trials": trials},
                    lambda rng: ((s, t, random_u(rng, s, t)) for s, t in pairs for _ in range(half)),
                    lambda s, t, u: f"u={u.u}, s={s}, t={t}" if coords.z_to_u(coords.u_to_z(u)) != u else None),
        _randomized("st-core-iff-z-nonnegative", {"pairs": len(pairs)},
                    lambda rng: ((s, t, betaset.random_s_core(t, rng)) for s, t in pairs for _ in range(half)),
                    _st_core_witness),
        _randomized("z-counts-s-set-residues", {"pairs": len(pairs)},
                    lambda rng: ((s, t, k, betaset.random_s_core(s, rng)) for s, t in pairs
                                 for k in [coords.shift_constant(s, t)] for _ in range(half)),
                    _z_residue_witness),
        _randomized("self-conjugacy-transfer", {"pairs": len(pairs)},
                    lambda rng: ((s, t, random_sc_t_core(rng, t, s) if rng.getrandbits(1)
                                  else betaset.random_s_core(t, rng)) for s, t in pairs for _ in range(half)),
                    _sc_transfer_witness),
        # --- enumeration module -----------------------------------------
        ("count-closed-forms", {"pairs": len(pairs)}, pairs, _count_witness),
        ("cyclic-orbit-unique-representative", {"sum_max": sum14},
         ((s, t, comp) for s, t in coprime_pairs(sum14) for comp in enumeration.iter_weak_compositions(s, t)),
         _orbit_rep_witness),
        ("sc-enumeration-is-symmetric-subset", {"pairs": len(pairs)}, pairs, _sc_subset_witness),
        ("triple-enumerations-agree", {"sum_max": sum12},
         ((m, d) for m in range(1, sum12) for d in range(1, sum12 - m + 1) if math.gcd(m, d) == 1),
         _triple_witness),
        ("motzkin-column", {"m_max": sum12}, ((m,) for m in range(1, sum12 + 1)),
         lambda m: f"m={m}" if formulas.count_triple(m, 1) != motzkin_number(m) else None),
        # --- stats module -----------------------------------------------
        *(
            (f"average-size-{'weighted' if weighted else 'unweighted'}-{'sc' if self_conjugate else 'general'}",
             {"pairs": len(pairs)}, pairs, functools.partial(_average_witness, weighted, self_conjugate))
            for weighted in (False, True)
            for self_conjugate in (False, True)
        ),
        ("weighted-average-asymmetry", {"pair": [2, 3]}, [()] if s_max >= 3 and t_max >= 3 else [],
         _asymmetry_witness),
        ("stabilizer-formula-vs-brute", {"sum_max": sum9},
         ((s, t, self_conjugate, rec) for s, t in coprime_pairs(sum9) for self_conjugate in (False, True)
          for rec in (enumeration.iter_sc_st_cores if self_conjugate else enumeration.iter_st_cores)(s, t)),
         _stab_witness),
        ("size-formulas-triple-agreement", {"pairs": len(pairs)},
         ((s, t, rec) for s, t in pairs for rec in enumeration.iter_st_cores(s, t)),
         _size_witness),
        ("oracle-enumeration-equivalence", {"pairs_run": len(oracle_pairs)}, oracle_pairs, _oracle_witness),
        ("cyclic-sum-identities", {"sum_max": sum14},
         ((s, t, rep) for s, t in coprime_pairs(sum14) for rep in verify_cyclic_sum_identities(s, t)),
         lambda s, t, rep: None if rep.passed else f"{rep.name} at (s,t)=({s},{t}): {rep.lhs} != {rep.rhs}"),
    ]
    return runner._Reports(runner._stream_reports(rows))
