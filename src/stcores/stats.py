"""Exact average sizes and moment sums of the (s,t)-cores, by one dynamic
program, with their closed forms.

All statistics are exact: sizes are integers, averages are
``fractions.Fraction`` values (arbitrary precision, always reduced), and
every comparison against a closed form is an equality test, never a
tolerance.  The module imports only :mod:`math`, :mod:`fractions`, the
errors and the integer forms of :mod:`stcores.formulas`, so ``cores avg``
builds no coordinate object.

Averages and moment sums visit no core.  One dynamic program over the
prefix sums P_l sums every weak composition z of s, core or not, and
divides by t: the t rotations of z share its size, a quadratic form in P_l,
and its weight D/stab, a product of binomials, and one of them is a core.
That is O(s^2 t e^2) integer operations for the moments up to e, for
self-conjugate cores too.  The sum over every enumerated core, weighted
by the stabilizer orders of :mod:`stcores.coords`, is kept in
:mod:`stcores.oracle` as the reference it is checked against, with the
identity reports of :func:`~stcores.oracle.check_average`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvariantError, NonzeroChargeError
# The size identity of the prefix sums, shared with z_to_a and the records.
from .formulas import _require_coprime, _x


def size_from_c(c) -> int:
    """Size of the t-core with the zero-sum charge coordinates c, a
    :class:`~stcores.betaset.CTuple` (NonzeroChargeError otherwise):

        |core| = sum_i ( (t/2) c_i^2 - ((t-1)/2 - i) c_i ) = t sum_i c_i^2 / 2 + sum_i i c_i

    in integers: the (t-1)/2 terms sum to 0, and sum_i c_i^2 = sum_i c_i (mod 2).
    """
    t = c.s
    if c.total != 0:
        raise NonzeroChargeError(f"size formula needs a zero-sum charge tuple, got total {c.total}")
    total = t * sum(v * v for v in c.c) // 2 + sum(i * v for i, v in enumerate(c.c))
    if total < 0:
        raise InvariantError(f"size formula gives {total} for c={c.c}")
    return total


def _weight_denominator(s: int, self_conjugate: bool) -> int:
    """D = s!, or s'! 2^{s'} with s' = floor(s/2) for self-conjugate cores:
    every stabilizer divides D, so 1/stab = (D/stab) / D."""
    return math.factorial(s // 2) << (s // 2) if self_conjugate else math.factorial(s)


def _cells(G: int, S: int, e: int) -> list[list[int]]:
    """The start cells G^a * S^b, 2a + b <= 2e, that the moments up to e read."""
    return [[G**a * S**b for b in range(2 * (e - a) + 1)] for a in range(e + 1)]


def _axpy(acc: list[list[int]] | None, w: int, sums: list[list[int]]) -> list[list[int]]:
    """acc + w * sums, entry by entry; None is zero.  Updates acc in place."""
    if acc is None:
        return [[w * v for v in row] for row in sums]
    for a, row in zip(acc, sums):
        a[:] = [x + w * v for x, v in zip(a, row)]
    return acc


def _moved(sums: list[list[int]], g: int, d: int) -> list[list[int]]:
    """From the sums of w * G^a * S^b to those of w * (G + g)^a * (S + d)^b,
    in place, by a Taylor shift along each axis."""
    for k in range(1, len(sums)):
        for a in range(len(sums) - 1, k - 1, -1):
            sums[a] = [x + g * v for x, v in zip(sums[a], sums[a - 1])]
    for row in sums if d else ():
        for k in range(1, len(row)):
            for b in range(len(row) - 1, k - 1, -1):
                row[b] += d * row[b - 1]
    return sums


def _path_sums(init: list, levels: range, step, add, last) -> list[list[int]]:
    """sums[a][b] = sum of w * G^a * S^b over the lattice paths
    q_0 <= q_1 <= ... < len(init) that start from the cells init[q_0]
    (None: no path starts at q_0).  At each level l the step q -> r
    multiplies w by step(q, r), then add(l, r) = (g, d) adds g to G and d to
    S; the end q of a path multiplies w by last(q).  The shift keeps the
    cells closed."""
    n = len(init)
    table = init
    for l in levels:
        new: list = [None] * n
        for q, sums in enumerate(table):
            if sums is not None:
                for r in range(q, n):
                    new[r] = _axpy(new[r], step(q, r), sums)
        table = [None if sums is None else _moved(sums, *add(l, r)) for r, sums in enumerate(new)]
    out = None
    for q, sums in enumerate(table):
        if sums is not None:
            out = _axpy(out, last(q), sums)
    return out


def _general_sums(s: int, t: int, e: int, weighted: bool) -> tuple[list[list[int]], int]:
    """Walk P_0 = 0 <= P_1 <= ... <= P_t = s over every weak composition z
    of s, core or not.  The step to P_{l+1} chooses z_l and multiplies w by
    C(P_{l+1}, z_l), so w = s!/prod z_j! = D/stab.  Returned with t, the
    size of each rotation orbit, which holds one core."""
    step = (lambda q, r: math.comb(r, r - q)) if weighted else (lambda q, r: 1)
    init = _cells(_x(s, t, 0, 0) ** 2, 0, e)  # G = x_0^2, S = 0
    sums = _path_sums([init] + [None] * s, range(1, t), step, lambda l, r: (_x(s, t, l, r) ** 2, r), lambda q: step(q, s))
    return sums, t


def _sc_sums(s: int, t: int, e: int, weighted: bool) -> tuple[list[list[int]], int]:
    """Symmetric z (z_i = z_{-i}) with z_0 = 2 u_0 + s mod 2, in one DP over
    z_1..z_h whose state u_0 + Q_i, Q_i = z_1 + ... + z_i, starts at u_0.

    The prefix sums pair up as P_{i+1} = z_0 + Q_i and P_{t-i} = s - Q_i; the
    rest (0, z_0 and the odd-t middle z_0 + s' - u_0, s' = floor(s/2)) and S
    are fixed per u_0.  At a state, u_0 moves both x of a pair by -2t u_0
    from u_0 = 0, where they add up to -2((t-2)s + t (s mod 2)), so u_0 adds
    8t u_0 (t u_0 + t (s mod 2) + (t-2)s) to each pair's G: init[u_0] holds
    it with the fixed levels and S.  w = D/stab_sc = s'! 2^{Q_h}/(u_0! prod u_i!)
    is the product of steps C(u_0 + Q_i, z_i) 2^{z_i} and a last factor: for
    odd t the step to Q_h = s' - u_0, for even t C(s', s' - u_0 - Q_h) for
    the middle z_{t/2} = 2(s' - u_0 - Q_h).
    """
    sp, pairs, odd = s // 2, max(t - 2, 0) // 2, s % 2
    step = (lambda q, r: math.comb(r, r - q) << (r - q)) if weighted else (lambda q, r: 1)
    init: list = [None] * (sp + 1)
    for u0 in range(sp + 1) if t > 1 else [sp]:
        z0 = 2 * u0 + odd
        fixed = [(0, 0), (1, z0), ((t + 1) // 2, z0 + sp - u0)][: t if t % 2 else 2]
        G = sum(_x(s, t, l, p) ** 2 for l, p in fixed) + 8 * t * u0 * pairs * (t * (u0 + odd) + (t - 2) * s)
        S = sum(p for _, p in fixed) + pairs * (z0 + s)
        init[u0] = _cells(G, S, e)
    last = (lambda q: step(q, sp)) if t % 2 else (lambda q: math.comb(sp, sp - q)) if weighted else (lambda q: 1)
    return _path_sums(init, range(1, pairs + 1), step,
                      lambda i, r: (_x(s, t, i + 1, odd + r) ** 2 + _x(s, t, t - i, s - r) ** 2, 0), last), 1


def _scaled_moments(s: int, t: int, e: int, weighted: bool, self_conjugate: bool) -> list[int]:
    """sum of w * (24t |core|)^r for r = 0..e, with w = D/stab or w = 1."""
    _require_coprime(s, t)
    sums, orbit = (_sc_sums if self_conjugate else _general_sums)(s, t, e, weighted)
    # 24t |core| = 3G - 12t S^2 - t(t^2 - 1) (formulas._scaled_size), so its
    # r-th power is a trinomial sum over the sums of w * G^i * S^(2j)
    cg, cs, c = 3, -12 * t, -t * (t * t - 1)
    out = []
    for r in range(e + 1):
        total = sum(math.comb(r, i) * math.comb(r - i, j) * cg**i * cs**j * c ** (r - i - j) * sums[i][2 * j]
                    for i in range(r + 1) for j in range(r - i + 1))
        moment, rem = divmod(total, orbit)
        if rem:
            raise InvariantError(f"a sum over the compositions, {total}, is not a multiple of {orbit}")
        out.append(moment)
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
