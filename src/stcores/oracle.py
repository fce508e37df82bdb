"""Independent brute-force references and the cross-check suite.

The reference computations here (partition enumeration with hook filters,
raw s-sets, explicit permutation counting, the Motzkin recurrence) work
only on :class:`~stcores.partition.Partition` values and raw integer sets,
never on the abacus or coordinate internals, so agreement with the library
paths is meaningful evidence.

:func:`run_verify_suite` executes every structural invariant of the package
at a requested scale and returns one report per check; failures come back
as reports with witnesses, not exceptions.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import betaset, coords, enumeration, errors, stats
from .partition import Partition

PARTITION_CAP = 40


@dataclass(frozen=True)
class VerifyReport:
    check: str
    params: dict
    passed: bool
    witness: str | None = None
    counts: dict | None = None

    def __post_init__(self):
        # a witness is meaningful only for failures
        if self.passed and self.witness is not None:
            object.__setattr__(self, "witness", None)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "witness": self.witness,
        }


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, descending lexicographic order."""

    def rec(rem: int, mx: int, acc: list[int]) -> Iterator[Partition]:
        if rem == 0:
            yield Partition(acc)
            return
        for first in range(min(rem, mx), 0, -1):
            acc.append(first)
            yield from rec(rem - first, first, acc)
            acc.pop()

    yield from rec(n, n, [])


def enum_partitions_up_to(n_max: int, cap: int = PARTITION_CAP) -> Iterator[Partition]:
    """Every partition of every n <= n_max, each exactly once."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > cap:
        raise errors.CapExceededError(f"n_max={n_max} exceeds cap={cap}")
    return itertools.chain.from_iterable(partitions_of(n) for n in range(n_max + 1))


def brute_st_cores(moduli: Iterable[int], n_max: int, cap: int = PARTITION_CAP) -> list[Partition]:
    """Partitions of size <= n_max with no hook length divisible by any of
    the moduli, by direct inspection of every hook of every partition."""
    ms = sorted(set(moduli))
    out = []
    for p in enum_partitions_up_to(n_max, cap):
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


def _residue_multiset(values: Iterable[int], t: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(v % t for v in values).items()))


def run_verify_suite(
    s_max: int = 5,
    t_max: int = 6,
    n_max: int = 20,
    *,
    seed: int = 2718,
    trials: int = 60,
) -> list[VerifyReport]:
    """Run every structural cross-check at the given scale.

    Each sub-check keeps its own documented size cap (for instance, size <= 12
    for exhaustive hook multisets); the requested bounds clamp those caps
    rather than extend them.  Randomized checks draw from a fixed-seed
    generator, so output is reproducible byte for byte.
    """
    rng = random.Random(seed)
    mod_max = max(s_max, t_max)
    reports: list[VerifyReport] = []

    def report(check: str, params: dict, passed: bool, witness: str | None, checked: int) -> None:
        reports.append(
            VerifyReport(check, params, passed, witness if not passed else None, {"checked": checked})
        )

    all_parts = list(enum_partitions_up_to(min(20, n_max)))

    def parts_upto(k: int) -> list[Partition]:
        return [p for p in all_parts if p.size <= k]

    def coprime_pairs(limit_sum: int | None = None) -> list[tuple[int, int]]:
        out = []
        for s in range(1, s_max + 1):
            for t in range(1, t_max + 1):
                if math.gcd(s, t) != 1:
                    continue
                if limit_sum is not None and s + t > limit_sum:
                    continue
                out.append((s, t))
        return out

    # --- partition module ------------------------------------------------

    def chk_conjugate_involution() -> None:
        witness, n = None, 0
        for p in parts_upto(min(20, n_max)):
            n += 1
            if p.conjugate().conjugate() != p:
                witness = f"p={p.parts}"
                break
        report("conjugate-involution", {"n_max": min(20, n_max)}, witness is None, witness, n)

    def chk_hook_multiset_conjugation() -> None:
        witness, n = None, 0
        for p in parts_upto(min(12, n_max)):
            n += 1
            if sorted(p.hook_lengths()) != sorted(p.conjugate().hook_lengths()):
                witness = f"p={p.parts}"
                break
        report("hook-multiset-conjugation-invariant", {"n_max": min(12, n_max)}, witness is None, witness, n)

    def chk_diagram_core_hooks() -> None:
        witness, n = None, 0
        for p in parts_upto(min(12, n_max)):
            for t in range(1, t_max + 1):
                n += 1
                q = p.t_core_by_diagram(t)
                if any(h % t == 0 for h in q.hook_lengths()):
                    witness = f"p={p.parts}, t={t} -> {q.parts}"
                    break
            if witness:
                break
        report("diagram-core-kills-divisible-hooks", {"n_max": min(12, n_max), "t_max": t_max}, witness is None, witness, n)

    def chk_removal_order_independence() -> None:
        witness, n = None, 0
        for t in range(2, min(5, t_max) + 1):
            memo: dict[Partition, frozenset[Partition]] = {}

            def results(p: Partition) -> frozenset[Partition]:
                got = memo.get(p)
                if got is not None:
                    return got
                cells = [(r, c) for r, c in p.cells() if p.hook_length(r, c) == t]
                if not cells:
                    res = frozenset([p])
                else:
                    acc: set[Partition] = set()
                    for cell in cells:
                        acc |= results(p.remove_rim_hook(*cell))
                    res = frozenset(acc)
                memo[p] = res
                return res

            for p in parts_upto(min(12, n_max)):
                n += 1
                res = results(p)
                if len(res) != 1 or next(iter(res)) != p.t_core_by_diagram(t):
                    witness = f"p={p.parts}, t={t}: results={sorted(q.parts for q in res)}"
                    break
            if witness:
                break
        report("rim-removal-order-independence", {"n_max": min(12, n_max), "t_max": min(5, t_max)}, witness is None, witness, n)

    # --- betaset module ---------------------------------------------------

    def chk_beta_round_trip() -> None:
        witness, n = None, 0
        for p in parts_upto(min(20, n_max)):
            n += 1
            if betaset.partition_from_beta(betaset.beta_from_partition(p)) != p:
                witness = f"p={p.parts}"
                break
        report("beta-round-trip", {"n_max": min(20, n_max)}, witness is None, witness, n)

    def chk_hook_count_bijection() -> None:
        witness, n = None, 0
        for p in parts_upto(min(12, n_max)):
            b = betaset.beta_from_partition(p)
            hooks = p.hook_lengths()
            for s in range(1, min(6, mod_max) + 1):
                n += 1
                if betaset.hook_count(b, s) != sum(1 for h in hooks if h == s):
                    witness = f"p={p.parts}, s={s}"
                    break
            if witness:
                break
        report("hook-count-matches-beta-difference", {"n_max": min(12, n_max), "s_max": min(6, mod_max)}, witness is None, witness, n)

    def chk_push_preserves_charge() -> None:
        witness, n = None, 0
        for p in parts_upto(min(14, n_max)):
            b = betaset.beta_from_partition(p)
            for s in range(1, mod_max + 1):
                n += 1
                pushed = betaset.s_push(b, s)
                ok = (
                    betaset.charge(pushed, s) == betaset.charge(b, s)
                    and betaset.is_s_core(pushed, s)
                    and betaset.s_push(pushed, s) == pushed
                )
                if not ok:
                    witness = f"p={p.parts}, s={s}"
                    break
            if witness:
                break
        report("push-preserves-charge-and-idempotent", {"n_max": min(14, n_max), "s_max": mod_max}, witness is None, witness, n)

    def chk_diagram_vs_abacus() -> None:
        witness, n = None, 0
        for p in parts_upto(min(14, n_max)):
            for t in range(1, min(6, mod_max) + 1):
                n += 1
                if betaset.t_core(p, t) != p.t_core_by_diagram(t):
                    witness = f"p={p.parts}, t={t}"
                    break
            if witness:
                break
        report("diagram-vs-abacus-core", {"n_max": min(14, n_max), "t_max": min(6, mod_max)}, witness is None, witness, n)

    def chk_charge_a_translation() -> None:
        witness, n = None, 0
        for s in range(1, mod_max + 1):
            for _ in range(trials):
                n += 1
                p = betaset.random_s_core(s, rng)
                b = betaset.beta_from_partition(p)
                a = betaset.a_coords(p, s)
                c = betaset.charge(b, s)
                if any(a.a[i] != i - s * c.c[(-1 - i) % s] for i in range(s)):
                    witness = f"p={p.parts}, s={s}"
                    break
                if a.as_set() != betaset.s_set(b, s):
                    witness = f"p={p.parts}, s={s}: a-set != (B+s)\\B"
                    break
            if witness:
                break
        report("charge-to-a-translation", {"s_max": mod_max, "trials": trials}, witness is None, witness, n)

    def chk_conjugate_charge() -> None:
        witness, n = None, 0
        for p in parts_upto(min(14, n_max)):
            b = betaset.beta_from_partition(p)
            cb = betaset.conjugate_beta(b)
            for s in range(1, mod_max + 1):
                n += 1
                c, cc = betaset.charge(b, s), betaset.charge(cb, s)
                if any(cc.c[i] != -c.c[(-1 - i) % s] for i in range(s)):
                    witness = f"p={p.parts}, s={s}"
                    break
            if witness:
                break
        report("conjugate-charge-negation", {"n_max": min(14, n_max), "s_max": mod_max}, witness is None, witness, n)

    def chk_core_commutes_conjugation() -> None:
        witness, n = None, 0
        for p in parts_upto(min(15, n_max)):
            for s in range(1, min(5, mod_max) + 1):
                n += 1
                if betaset.t_core(p.conjugate(), s) != betaset.t_core(p, s).conjugate():
                    witness = f"p={p.parts}, s={s}"
                    break
            if witness:
                break
        report("core-commutes-with-conjugation", {"n_max": min(15, n_max), "s_max": min(5, mod_max)}, witness is None, witness, n)

    def chk_conjugate_s_set() -> None:
        witness, n = None, 0
        for s in range(1, mod_max + 1):
            for _ in range(trials):
                n += 1
                p = betaset.random_s_core(s, rng)
                a = betaset.a_coords(p, s)
                ac = betaset.a_coords(p.conjugate(), s)
                if any(ac.a[i] != s - 1 - a.a[(-1 - i) % s] for i in range(s)):
                    witness = f"p={p.parts}, s={s}"
                    break
                if coords.is_self_conjugate_a(a) != (p == p.conjugate()):
                    witness = f"p={p.parts}, s={s}: symmetry mismatch"
                    break
            if witness:
                break
        report("conjugate-s-set-reflection", {"s_max": mod_max, "trials": trials}, witness is None, witness, n)

    def chk_core_closure() -> None:
        witness, n = None, 0
        for s in range(1, mod_max + 1):
            for t in range(1, mod_max + 1):
                for _ in range(max(1, trials // 4)):
                    n += 1
                    p = betaset.random_s_core(s, rng)
                    q = betaset.t_core(p, t)
                    if not betaset.is_s_core(betaset.beta_from_partition(q), s):
                        witness = f"p={p.parts}, s={s}, t={t}: core not closed"
                        break
                    if _residue_multiset(s_set_of(p, s), t) != _residue_multiset(s_set_of(q, s), t):
                        witness = f"p={p.parts}, s={s}, t={t}: s-set residues moved"
                        break
                if witness:
                    break
            if witness:
                break
        report("t-core-preserves-s-core", {"mod_max": mod_max}, witness is None, witness, n)

    def chk_s_set_t_set_interaction() -> None:
        witness, n = None, 0
        for s in range(1, mod_max + 1):
            for t in range(1, mod_max + 1):
                for _ in range(max(1, trials // 4)):
                    n += 1
                    p = betaset.random_s_core(s, rng)
                    sset = s_set_of(p, s)
                    at = betaset.a_coords(betaset.t_core(p, t), t)
                    for j in range(t):
                        num = at.a[j] - (at.a[(j + s) % t] - s)
                        lhs = sum(1 for x in sset if (x - s) % t == j)
                        if num % t or lhs != num // t:
                            witness = f"p={p.parts}, s={s}, t={t}, j={j}"
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        report("s-set-t-set-interaction", {"mod_max": mod_max}, witness is None, witness, n)

    def chk_faithful_invariant() -> None:
        witness, n = None, 0
        for s in range(1, min(6, mod_max) + 1):
            for t in range(1, min(6, mod_max) + 1):
                if math.gcd(s, t) != 1:
                    continue
                for _ in range(max(1, trials // 4)):
                    n += 1
                    p = betaset.random_s_core(s, rng)
                    q = rng.choice([betaset.random_s_core(s, rng), betaset.t_core(p, t)])
                    same_residues = _residue_multiset(s_set_of(p, s), t) == _residue_multiset(s_set_of(q, s), t)
                    same_core = betaset.t_core(p, t) == betaset.t_core(q, t)
                    if same_residues != same_core:
                        witness = f"p={p.parts}, q={q.parts}, s={s}, t={t}"
                        break
                if witness:
                    break
            if witness:
                break
        report("faithful-invariant", {"mod_max": min(6, mod_max)}, witness is None, witness, n)

    # --- coords module ----------------------------------------------------

    def random_t_core(t: int) -> Partition:
        return betaset.random_s_core(t, rng)

    def chk_a_z_round_trip() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            for _ in range(max(1, trials // 2)):
                n += 1
                a = betaset.a_coords(random_t_core(t), t)
                z = coords.a_to_z(a, s)
                if coords.z_to_a(z) != a:
                    witness = f"a={a.a}, s={s}, t={t}"
                    break
            if witness:
                break
        report("a-z-round-trip", {"pairs": len(coprime_pairs()), "trials": trials}, witness is None, witness, n)

    def chk_z_u_round_trip() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            tp = t // 2
            for _ in range(max(1, trials // 2)):
                n += 1
                cuts = sorted(rng.randint(0, s // 2) for _ in range(tp))
                u_entries = [b - a for a, b in zip([0] + cuts, cuts + [s // 2])]
                if len(u_entries) > 1 and rng.random() < 0.5:
                    # exercise the general (possibly negative) lattice too
                    i, j = rng.sample(range(len(u_entries)), 2)
                    delta = rng.randint(1, 4)
                    u_entries[i] += delta
                    u_entries[j] -= delta
                u = coords.UTuple(t, s, tuple(u_entries))
                z = coords.u_to_z(u)
                if coords.z_to_u(z) != u:
                    witness = f"u={u.u}, s={s}, t={t}"
                    break
            if witness:
                break
        report("z-u-round-trip", {"pairs": len(coprime_pairs()), "trials": trials}, witness is None, witness, n)

    def chk_st_core_iff_z_nonneg() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            for _ in range(max(1, trials // 2)):
                n += 1
                p = random_t_core(t)
                a = betaset.a_coords(p, t)
                z = coords.a_to_z(a, s)
                truth = betaset.is_s_core(betaset.beta_from_partition(p), s)
                if coords.is_st_core_a(a, s) != truth or z.is_nonnegative() != truth:
                    witness = f"p={p.parts}, s={s}, t={t}"
                    break
            if witness:
                break
        report("st-core-iff-z-nonnegative", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    def chk_z_counts_s_set_residues() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            k = coords.shift_constant(s, t)
            for _ in range(max(1, trials // 2)):
                n += 1
                p = betaset.random_s_core(s, rng)
                sset = s_set_of(p, s)
                z = coords.a_to_z(betaset.a_coords(betaset.t_core(p, t), t), s)
                for j in range(t):
                    if z.z[j] != sum(1 for x in sset if (x - s) % t == (s * j + k) % t):
                        witness = f"p={p.parts}, s={s}, t={t}, j={j}"
                        break
                if witness:
                    break
            if witness:
                break
        report("z-counts-s-set-residues", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    def random_sc_t_core(t: int, s: int) -> Partition:
        # symmetric by construction: random u, unfolded through z to a
        tail = [rng.randint(-3, 3) for _ in range(t // 2)]
        u = coords.UTuple(t, s, (s // 2 - sum(tail), *tail))
        return betaset.partition_from_a(coords.z_to_a(coords.u_to_z(u)))

    def chk_self_conjugate_transfer() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            for _ in range(max(1, trials // 2)):
                n += 1
                p = random_sc_t_core(t, s) if rng.random() < 0.5 else random_t_core(t)
                a = betaset.a_coords(p, t)
                z = coords.a_to_z(a, s)
                symmetric_z = all(z.z[i] == z.z[(-i) % t] for i in range(t))
                if coords.is_self_conjugate_a(a) != symmetric_z:
                    witness = f"p={p.parts}, s={s}, t={t}"
                    break
                if coords.is_self_conjugate_a(a) != (p == p.conjugate()):
                    witness = f"p={p.parts}, s={s}, t={t}: a-symmetry vs partition"
                    break
            if witness:
                break
        report("self-conjugacy-transfer", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    # --- enumeration module -------------------------------------------------

    def chk_count_closed_forms() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            n += 1
            if len(enumeration.enum_st_cores(s, t)) != enumeration.count_st(s, t):
                witness = f"(s,t)=({s},{t}) general count"
                break
            if len(enumeration.enum_sc_st_cores(s, t)) != enumeration.count_sc(s, t):
                witness = f"(s,t)=({s},{t}) self-conjugate count"
                break
        report("count-closed-forms", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    def chk_cyclic_orbit_unique_rep() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs(limit_sum=min(14, s_max + t_max)):
            for comp in enumeration.iter_weak_compositions(s, t):
                n += 1
                hits = [
                    r
                    for r in range(t)
                    if sum(j * comp[(r + j) % t] for j in range(t)) % t == 0
                ]
                if len(hits) != 1 or hits[0] != enumeration.canonical_cyclic_rep(comp):
                    witness = f"x={comp}, s={s}, t={t}, hits={hits}"
                    break
            if witness:
                break
        report("cyclic-orbit-unique-representative", {"sum_max": min(14, s_max + t_max)}, witness is None, witness, n)

    def chk_sc_subset() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            n += 1
            general = {r.partition for r in enumeration.enum_st_cores(s, t)}
            sc = [r.partition for r in enumeration.enum_sc_st_cores(s, t)]
            if not all(p.is_self_conjugate() for p in sc):
                witness = f"(s,t)=({s},{t}): non-self-conjugate output"
                break
            if set(sc) != {p for p in general if p.is_self_conjugate()}:
                witness = f"(s,t)=({s},{t}): subset mismatch"
                break
        report("sc-enumeration-is-symmetric-subset", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    def chk_triple_enumerations() -> None:
        witness, n = None, 0
        limit = min(12, s_max + t_max)
        for m in range(1, limit):
            for d in range(1, limit - m + 1):
                if math.gcd(m, d) != 1:
                    continue
                n += 1
                sym = enumeration.enum_triple_sym(m, d)
                asym = enumeration.enum_triple_asym(m, d)
                want = enumeration.count_triple(m, d)
                sym_parts = {r.partition for r in sym}
                if len(sym) != want or len(asym) != want or sym_parts != {r.partition for r in asym}:
                    witness = f"(m,d)=({m},{d}): counts {len(sym)}/{len(asym)} vs {want}"
                    break
                moduli = (m, m + d, m + 2 * d)
                bad = next(
                    (
                        p
                        for p in sym_parts
                        if any(h % mod == 0 for mod in moduli for h in p.hook_lengths())
                    ),
                    None,
                )
                if bad is not None:
                    witness = f"(m,d)=({m},{d}): {bad.parts} has a divisible hook"
                    break
            if witness:
                break
        report("triple-enumerations-agree", {"sum_max": limit}, witness is None, witness, n)

    def chk_motzkin_column() -> None:
        witness, n = None, 0
        m_max = min(12, s_max + t_max)
        for m in range(1, m_max + 1):
            n += 1
            if enumeration.count_triple(m, 1) != motzkin_number(m):
                witness = f"m={m}"
                break
        report("motzkin-column", {"m_max": m_max}, witness is None, witness, n)

    # --- stats module -------------------------------------------------------

    def chk_averages() -> None:
        for weighted in (False, True):
            for self_conjugate in (False, True):
                witness, n = None, 0
                for s, t in coprime_pairs():
                    n += 1
                    rep = stats.check_average(s, t, weighted, self_conjugate)
                    if not rep.passed:
                        witness = f"(s,t)=({s},{t}): {rep.lhs} != {rep.rhs}"
                        break
                report(
                    f"average-size-{'weighted' if weighted else 'unweighted'}-{'sc' if self_conjugate else 'general'}",
                    {"pairs": len(coprime_pairs())},
                    witness is None,
                    witness,
                    n,
                )

    def chk_weighted_asymmetry() -> None:
        ok = True
        witness = None
        if s_max >= 3 and t_max >= 3:
            lhs = stats.average_size(2, 3, weighted=True)
            rhs = stats.average_size(3, 2, weighted=True)
            ok = lhs != rhs
            if not ok:
                witness = f"weighted average symmetric at (2,3): {lhs}"
        report("weighted-average-asymmetry", {"pair": [2, 3]}, ok, witness, 1)

    def chk_stab_vs_brute() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs(limit_sum=min(9, s_max + t_max)):
            if s > 8:
                continue
            for rec in enumeration.enum_st_cores(s, t):
                n += 1
                sset = s_set_of(rec.partition, s)
                if stats.stab_size(rec.z) != brute_stab_count(sset, t, s):
                    witness = f"(s,t)=({s},{t}), p={rec.partition.parts}"
                    break
            if witness:
                break
            for rec in enumeration.enum_sc_st_cores(s, t):
                n += 1
                sset = s_set_of(rec.partition, s)
                got = stats.stab_size_sc(coords.z_to_u(rec.z))
                if got != brute_stab_count(sset, t, s, self_conjugate=True):
                    witness = f"(s,t)=({s},{t}), p={rec.partition.parts} (sc)"
                    break
            if witness:
                break
        report("stabilizer-formula-vs-brute", {"sum_max": min(9, s_max + t_max)}, witness is None, witness, n)

    def chk_size_formulas() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs():
            for rec in enumeration.enum_st_cores(s, t):
                n += 1
                p = rec.partition
                c = betaset.charge(betaset.beta_from_partition(p), t)
                ok = (
                    stats.size_from_a(rec.a) == rec.size == p.size
                    and stats.size_from_c(c) == rec.size
                )
                if not ok:
                    witness = f"(s,t)=({s},{t}), p={p.parts}"
                    break
            if witness:
                break
        report("size-formulas-triple-agreement", {"pairs": len(coprime_pairs())}, witness is None, witness, n)

    def chk_oracle_equivalence() -> None:
        witness, n = None, 0
        for s, t in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
            if s > s_max or t > t_max:
                continue
            n += 1
            enum_parts = {r.partition for r in enumeration.enum_st_cores(s, t)}
            bound = max((p.size for p in enum_parts), default=0)
            brute = brute_st_cores({s, t}, bound + s + t)
            if {p for p in brute if p.size <= bound} != enum_parts:
                witness = f"(s,t)=({s},{t}): set mismatch at size <= {bound}"
                break
            stray = [p for p in brute if p.size > bound]
            if stray:
                witness = f"(s,t)=({s},{t}): unexpected core {stray[0].parts}"
                break
        report("oracle-enumeration-equivalence", {"pairs_run": n}, witness is None, witness, n)

    def chk_cyclic_sums() -> None:
        witness, n = None, 0
        for s, t in coprime_pairs(limit_sum=min(14, s_max + t_max)):
            for rep in stats.verify_cyclic_sum_identities(s, t):
                n += 1
                if not rep.passed:
                    witness = f"{rep.name} at (s,t)=({s},{t}): {rep.lhs} != {rep.rhs}"
                    break
            if witness:
                break
        report("cyclic-sum-identities", {"sum_max": min(14, s_max + t_max)}, witness is None, witness, n)

    checks = [
        chk_conjugate_involution,
        chk_hook_multiset_conjugation,
        chk_diagram_core_hooks,
        chk_removal_order_independence,
        chk_beta_round_trip,
        chk_hook_count_bijection,
        chk_push_preserves_charge,
        chk_diagram_vs_abacus,
        chk_charge_a_translation,
        chk_conjugate_charge,
        chk_core_commutes_conjugation,
        chk_conjugate_s_set,
        chk_core_closure,
        chk_s_set_t_set_interaction,
        chk_faithful_invariant,
        chk_a_z_round_trip,
        chk_z_u_round_trip,
        chk_st_core_iff_z_nonneg,
        chk_z_counts_s_set_residues,
        chk_self_conjugate_transfer,
        chk_count_closed_forms,
        chk_cyclic_orbit_unique_rep,
        chk_sc_subset,
        chk_triple_enumerations,
        chk_motzkin_column,
        chk_averages,
        chk_weighted_asymmetry,
        chk_stab_vs_brute,
        chk_size_formulas,
        chk_oracle_equivalence,
        chk_cyclic_sums,
    ]
    for chk in checks:
        chk()
    return reports
