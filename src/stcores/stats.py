"""Exact sizes, stabilizer orders, weighted averages, and identity checks.

All statistics are exact: sizes are integers, averages are
``fractions.Fraction`` values (arbitrary precision, always reduced), and
every comparison against a closed form is an equality test, never a
tolerance.

Averages and moment sums visit no core.  They come from one dynamic
program over the prefix sums P_l of z, in which the size is a quadratic
form and the weight D/stab a product of binomials, with O(s^3 t^2 e^2)
integer operations for the moments up to e.  The sum over every
enumerated core is kept in :mod:`stcores.oracle` as the reference the
dynamic program is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .betaset import CTuple
# The size identity of the prefix sums, shared with z_to_a and the records.
from .coords import UTuple, ZTuple, _require_coprime, _scaled_size, _x, z_to_u
from .enumeration import CoreRecord, iter_st_cores, multinomial
from .errors import InvariantError, NegativeEntryError, NonzeroChargeError


def size_from_c(c: CTuple) -> int:
    """Size of the t-core with these charge coordinates:

        |core| = sum_i ( (t/2) c_i^2 - ((t-1)/2 - i) c_i ),

    valid for zero-sum charge tuples (NonzeroChargeError otherwise).
    """
    t = c.s
    if c.total != 0:
        raise NonzeroChargeError(f"size formula needs a zero-sum charge tuple, got total {c.total}")
    total = sum(
        Fraction(t, 2) * v * v - (Fraction(t - 1, 2) - i) * v
        for i, v in enumerate(c.c)
    )
    if total.denominator != 1 or total < 0:
        raise InvariantError(f"size formula gives {total} for c={c.c}")
    return int(total)


def stab_size(z: ZTuple) -> int:
    """Stabilizer order of an s-core under the residue-preserving action:
    the product of the factorials of its z-coordinates."""
    if not z.is_nonnegative():
        raise NegativeEntryError("stabilizer formula needs z >= 0 (an (s,t)-core)")
    return math.prod(map(math.factorial, z.z))


def stab_size_sc(u: UTuple) -> int:
    """Self-conjugate stabilizer order: 2^{u_0} * prod u_i! for odd t,
    2^{u_0 + u_{t'}} * prod u_i! for even t."""
    if not u.is_nonnegative():
        raise NegativeEntryError("stabilizer formula needs u >= 0")
    twos = u.u[0] if u.t % 2 == 1 else u.u[0] + u.u[-1]
    return math.prod(map(math.factorial, u.u)) << twos


def _stab(rec: CoreRecord, self_conjugate: bool) -> int:
    return stab_size_sc(z_to_u(rec.z)) if self_conjugate else stab_size(rec.z)


def _weight_denominator(s: int, self_conjugate: bool) -> int:
    """D = s!, or s'! 2^{s'} with s' = floor(s/2) for self-conjugate cores:
    every stabilizer divides D, so 1/stab = (D/stab) / D."""
    return math.factorial(s // 2) << (s // 2) if self_conjugate else math.factorial(s)


def attach_stabilizers(records: Iterable[CoreRecord], self_conjugate: bool = False) -> Iterator[CoreRecord]:
    """Lazily fill the ``stab`` field of each record (self-conjugate records
    get the symmetric-action stabilizer computed from their u-coordinates)."""
    for r in records:
        yield r.with_stab(_stab(r, self_conjugate))


def _axpy(acc: list[list[int]] | None, w: int, sums: list[list[int]]) -> list[list[int]]:
    """acc + w * sums, entry by entry; None is zero.  Updates acc in place."""
    if acc is None:
        return [[w * v for v in row] for row in sums]
    for a, row in zip(acc, sums):
        a.extend([0] * (len(row) - len(a)))
        a[: len(row)] = [x + w * v for x, v in zip(a, row)]
    return acc


def _moved(sums: list[list[int]], g: int, d: int) -> list[list[int]]:
    """From the sums of w * G^k to those of w * (G + g)^k, each S raised by d."""
    out = []
    for k, row in enumerate(sums):
        for j in range(k):
            c = math.comb(k, j) * g ** (k - j)
            row = [a + c * v for a, v in zip(row, sums[j])]
        out.append([0] * d + row)
    return out


def _path_sums(
    n: int,
    e: int,
    start: int,
    g0: int,
    levels: Iterable[tuple[Callable[[int, int], int], Callable[[int], tuple[int, int]]]],
    last: Callable[[int], int],
) -> list[list[int]]:
    """sums[k][S] = sum of w * G^k, k <= e, over the lattice paths
    start = q_0 <= q_1 <= ... <= n that end with that S.

    Each level is a pair (step, add): the step q -> r multiplies w by
    step(q, r), then add(r) = (g, d) adds g to G and d to S.  A path starts
    with w = 1, G = g0 and S = 0, and its end q multiplies w by last(q).  The
    tables are lists indexed by q, then k, then S, one level at a time.
    """
    table: list = [None] * (n + 1)
    table[start] = [[g0**k] for k in range(e + 1)]
    for step, add in levels:
        new: list = [None] * (n + 1)
        for q, sums in enumerate(table):
            if sums is not None:
                for r in range(q, n + 1):
                    new[r] = _axpy(new[r], step(q, r), sums)
        table = [None if sums is None else _moved(sums, *add(r)) for r, sums in enumerate(new)]
    out = None
    for q, sums in enumerate(table):
        if sums is not None:
            out = _axpy(out, last(q), sums)
    return out


def _unit(*_: int) -> int:
    return 1


def _cores(s: int, t: int, sums: list[list[int]]) -> list[tuple[int, list[int]]]:
    """The (S, [sums[k][S] for each k]) of the (s,t)-cores: a z >= 0 with
    sum s is one iff S = -s (mod t), because sum_j j z_j = (t-1)s - S."""
    return [(S, [row[S] for row in sums]) for S in range(-s % t, len(sums[0]), t)]


def _general_sums(s: int, t: int, e: int, weighted: bool) -> list[tuple[int, list[int]]]:
    """Walk P_0 = 0 <= P_1 <= ... <= P_t = s.  The step to P_{l+1} chooses
    z_l and multiplies w by C(P_{l+1}, z_l), so w = s!/prod z_j! = D/stab."""
    step = (lambda q, r: math.comb(r, r - q)) if weighted else _unit
    levels = [(step, lambda r, l=l: (_x(s, t, l, r) ** 2, r)) for l in range(1, t)]
    sums = _path_sums(s, e, 0, _x(s, t, 0, 0) ** 2, levels, lambda q: step(q, s))
    return _cores(s, t, sums)


def _sc_sums(s: int, t: int, e: int, weighted: bool) -> list[tuple[int, list[int]]]:
    """Symmetric z (z_i = z_{-i}) with z_0 = s (mod 2), one DP over
    z_1..z_h per z_0 = 2 u_0 + s mod 2.

    With Q_i = z_1 + ... + z_i, the prefix sums come in pairs
    P_{i+1} = z_0 + Q_i and P_{t-i} = s - Q_i, whose S-part z_0 + s is fixed;
    P_0 = 0, P_1 = z_0 and, for odd t, the middle P_{(t+1)/2} = z_0 + m with
    m = (s - z_0)/2 are fixed too.  The state is u_0 + Q_i <= s' = floor(s/2),
    and w = D/stab_sc = s'!/(u_0! prod_i u_i!) * 2^{Q_h} is built from the
    steps z_i, each weighing C(u_0 + Q_i, z_i) 2^{z_i}, and a last factor:
    for odd t the step to Q_h = m, for even t the choice of the (even)
    middle entry z_{t/2} = 2(s' - u_0 - Q_h), weighing C(s', s' - u_0 - Q_h).
    """
    sp, pairs = s // 2, max(t - 2, 0) // 2
    step = (lambda q, r: math.comb(r, r - q) << (r - q)) if weighted else _unit
    out = []
    for u0 in range(sp + 1) if t > 1 else [sp]:
        z0 = 2 * u0 + s % 2
        fixed = [(0, 0), (1, z0)][:t]
        if t % 2 and t > 1:
            fixed.append(((t + 1) // 2, z0 + sp - u0))
        levels = [
            (step, lambda r, i=i: (_x(s, t, i + 1, z0 + r - u0) ** 2 + _x(s, t, t - i, s - r + u0) ** 2, 0))
            for i in range(1, pairs + 1)
        ]
        last = (lambda q: step(q, sp)) if t % 2 else (lambda q: math.comb(sp, sp - q)) if weighted else _unit
        sums = _path_sums(sp, e, u0, sum(_x(s, t, l, p) ** 2 for l, p in fixed), levels, last)
        out.append((sum(p for _, p in fixed) + pairs * (z0 + s), [row[0] for row in sums]))
    return out


def _scaled_moments(s: int, t: int, e: int, weighted: bool, self_conjugate: bool) -> list[int]:
    """sum of w * (24t |core|)^r for r = 0..e, with w = D/stab or w = 1."""
    _require_coprime(s, t)
    out = [0] * (e + 1)
    for S, col in (_sc_sums if self_conjugate else _general_sums)(s, t, e, weighted):
        # 24t |core| = 3G + c with G = sum_l x_l^2, so its r-th power expands binomially
        c = _scaled_size(t, S, 0)
        terms = [3**k * v for k, v in enumerate(col)]
        for r in range(e + 1):
            out[r] += sum(math.comb(r, k) * c ** (r - k) * terms[k] for k in range(r + 1))
    return out


def average_size(s: int, t: int, weighted: bool = False, self_conjugate: bool = False) -> Fraction:
    """Exact average of |core| over the (s,t)-cores (or the self-conjugate
    ones), optionally weighted by inverse stabilizer order.

    Closed forms (all verified by the test suite):
      unweighted, either family: (s-1)(t-1)(s+t+1)/24
      weighted, general:         (s-1)(t^2-1)/24
      weighted, self-conjugate:  the same for odd t, (s-1)(t^2+2)/24 for even t
    """
    mass, first = _scaled_moments(s, t, 1, weighted, self_conjugate)
    return Fraction(first, 24 * t * mass)


def expected_average(s: int, t: int, weighted: bool = False, self_conjugate: bool = False) -> Fraction:
    """The closed form that :func:`average_size` must equal."""
    _require_coprime(s, t)
    if not weighted:
        return Fraction((s - 1) * (t - 1) * (s + t + 1), 24)
    if self_conjugate and t % 2 == 0:
        return Fraction((s - 1) * (t * t + 2), 24)
    return Fraction((s - 1) * (t * t - 1), 24)


def moment_sum(s: int, t: int, e: int, weighted: bool = False, self_conjugate: bool = False) -> Fraction:
    """sum of w(core) * |core|^e, with w = 1 or w = 1/stab.  Exact; the
    zeroth unweighted moment is the count."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    num = _scaled_moments(s, t, e, weighted, self_conjugate)[e]
    scale = _weight_denominator(s, self_conjugate) if weighted else 1
    return Fraction(num, scale * (24 * t) ** e)


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one checked identity, plus enough context to rerun it."""

    name: str
    params: dict
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def check_average(s: int, t: int, weighted: bool = False, self_conjugate: bool = False) -> IdentityReport:
    name = ("weighted-" if weighted else "") + ("sc-" if self_conjugate else "") + "average-size"
    return IdentityReport(
        name=name,
        params={"s": s, "t": t},
        lhs=average_size(s, t, weighted, self_conjugate),
        rhs=expected_average(s, t, weighted, self_conjugate),
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
    _require_coprime(s, t)
    zs = [rec.z.z for rec in iter_st_cores(s, t)]

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
    families = (("exp", [multinomial(s, z) for z in zs]), ("ord", [1] * len(zs)))
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
