"""Changes of variables among a-, z-, and u-coordinates.

Fix t >= 1 and s >= 1 coprime to t.  The a-coordinates of a t-core transform
into z-coordinates via

    z_j = (a_{s*j + k} - a_{s*(j+1) + k} + s) / t,    k = (s+1)(t-1)/2,

with indices mod t.  The map is an affine bijection between all t-cores
(a-side: sum t(t-1)/2, congruences a_i = i mod t) and integer tuples with
sum s and sum(j * z_j) = 0 mod t; the (s,t)-cores are exactly the tuples
with every z_j >= 0.  All divisions are exact by construction; a remainder
means corrupted invariants and raises InvariantError.

The inverse map reads a off the prefix sums P_l = z_0 + ... + z_{l-1}
(:func:`~stcores.formulas._x`, :func:`_a_from_prefix`).  The enumerated
records and the dynamic program of :mod:`stcores.stats` use the same
identities, and :func:`a_to_z`, which reads differences of a, is the
independent check on them.

u-coordinates fold the symmetric z-tuples (z_i = z_{-i}) of self-conjugate
cores down to floor(t/2) + 1 entries summing to floor(s/2).

The stabilizer orders behind the weighted averages are products of
factorials of these coordinates (:func:`stab_size`, :func:`stab_size_sc`).
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul
from typing import Sequence

from .betaset import ATuple
from .errors import (
    InvalidZError,
    InvariantError,
    NegativeEntryError,
    NotCoprimeError,
    NotSymmetricError,
)
# The size form of the prefix sums, shared with the records and the DP.
from .formulas import _require_coprime, _x
from .partition import _Frozen


def shift_constant(s: int, t: int) -> int:
    """k = (s+1)(t-1)/2, an integer whenever gcd(s, t) = 1."""
    num = (s + 1) * (t - 1)
    if num % 2:
        raise NotCoprimeError(f"k = (s+1)(t-1)/2 is not an integer for s={s}, t={t}")
    return num // 2


class ZTuple(_Frozen):
    """t integers summing to s with sum(j * z_j) = 0 mod t.

    Entries may be negative (general t-cores); the (s,t)-core subset is the
    componentwise nonnegative one.
    """

    __slots__ = ("t", "s", "z")
    t: int
    s: int
    z: tuple[int, ...]

    def __init__(self, t: int, s: int, z: tuple[int, ...]):
        _require_coprime(s, t)
        if len(z) != t:
            raise InvalidZError(f"expected {t} entries, got {len(z)}")
        if sum(z) != s:
            raise InvalidZError(f"entries sum to {sum(z)}, expected {s}")
        if sum(map(mul, range(t), z)) % t != 0:
            raise InvalidZError("sum(j * z_j) is not 0 mod t")
        self.__setstate__((t, s, z))

    def is_nonnegative(self) -> bool:
        return min(self.z) >= 0

    def to_json_dict(self) -> dict:
        return {"t": self.t, "s": self.s, "z": list(self.z)}


class UTuple(_Frozen):
    """Folded coordinates for self-conjugate t-cores: floor(t/2) + 1 integers
    summing to floor(s/2)."""

    __slots__ = ("t", "s", "u")
    t: int
    s: int
    u: tuple[int, ...]

    def __init__(self, t: int, s: int, u: tuple[int, ...]):
        _require_coprime(s, t)
        if len(u) != t // 2 + 1:
            raise InvalidZError(f"expected {t // 2 + 1} entries, got {len(u)}")
        if sum(u) != s // 2:
            raise InvalidZError(f"entries sum to {sum(u)}, expected {s // 2}")
        self.__setstate__((t, s, u))

    def is_nonnegative(self) -> bool:
        return min(self.u) >= 0

    def to_json_dict(self) -> dict:
        return {"t": self.t, "s": self.s, "u": list(self.u)}


def a_to_z(a: ATuple, s: int) -> ZTuple:
    """Forward change of variables; s must be coprime to the modulus of a."""
    t = a.t
    _require_coprime(s, t)
    k = shift_constant(s, t)
    z = []
    for j in range(t):
        num = a.a[(s * j + k) % t] - a.a[(s * (j + 1) + k) % t] + s
        if num % t:
            raise InvariantError(f"a-coordinates of {a.a} do not divide exactly at j={j}")
        z.append(num // t)
    return ZTuple(t, s, tuple(z))


def _a_layout(s: int, t: int, k: int) -> list[tuple[int, int]]:
    """The per-(s,t) index layout of :func:`_a_from_prefix`: for each
    a-index i, the level l with (k + ls) mod t = i and x_l at P_l = 0."""
    levels = [0] * t
    for l in range(t):
        levels[(k + l * s) % t] = l
    return [(_x(s, t, l, 0), l) for l in levels]


def _a_from_prefix(layout: list[tuple[int, int]], prefix: list[int], S: int) -> tuple[list[int], tuple[int, ...]]:
    """The x_l and the a-coordinates of the t-core whose z has the prefix
    sums ``prefix`` (P_0..P_t) and S = P_0 + ... + P_{t-1}, both listed by
    a-index: 2a_{(k + ls) mod t} = x_l + 2S + t - 1
    (:func:`~stcores.formulas._x`).  The sum is even whenever
    k = (s+1)(t-1)/2 is an integer."""
    t = len(layout)
    tt = 2 * t
    x = [x0 - tt * prefix[l] for x0, l in layout]
    shift = 2 * S + t - 1
    return x, tuple([(v + shift) >> 1 for v in x])


def z_to_a(z: ZTuple) -> ATuple:
    """Inverse change of variables, in O(t), from the prefix sums of z
    (:func:`_a_from_prefix`)."""
    t, s = z.t, z.s
    prefix = list(accumulate(z.z, initial=0))
    _, a = _a_from_prefix(_a_layout(s, t, shift_constant(s, t)), prefix, sum(prefix) - s)
    return ATuple(t, a)


def is_st_core_a(a: ATuple, s: int) -> bool:
    """Whether the t-core with these a-coordinates is also an s-core:
    a_i >= a_{i+s} - s for every i mod t."""
    t = a.t
    return all(a.a[i] >= a.a[(i + s) % t] - s for i in range(t))


def is_self_conjugate_a(a: ATuple) -> bool:
    """Self-conjugacy in a-coordinates: a_i + a_{-1-i} = t - 1 for all i."""
    t = a.t
    return all(a.a[i] + a.a[(-1 - i) % t] == t - 1 for i in range(t))


def z_to_u(z: ZTuple) -> UTuple:
    """Fold a symmetric z-tuple into u-coordinates.

    Requires z_i = z_{-i}; the ZTuple invariants then make z_{t/2} even for
    even t (sum(j * z_j) = 0 mod t pairs j with t - j) and z_0 = s mod 2.
    Odd t: u_0 = floor(z_0 / 2), u_i = z_i.  Even t: the middle entry halves
    as well, u_{t/2} = z_{t/2} / 2.
    """
    t, s = z.t, z.s
    tp = t // 2
    for i in range(t):
        if z.z[i] != z.z[(-i) % t]:
            raise NotSymmetricError(f"z[{i}] != z[{t - i}]")
    if t % 2 == 1:
        u = (z.z[0] // 2,) + z.z[1 : tp + 1]
    else:
        u = (z.z[0] // 2,) + z.z[1:tp] + (z.z[tp] // 2,)
    return UTuple(t, s, u)


def _unfold(t: int, s: int, u: Sequence[int]) -> tuple[int, ...]:
    """The symmetric z of the floor(t/2) + 1 u-coordinates ``u``: z_0 =
    2u_0 + (s mod 2), z_i = z_{t-i} = u_i for 0 < i < t/2, and for even t
    the middle entry z_{t/2} = 2u_{t/2}."""
    head = 2 * u[0] + s % 2
    if t % 2:
        return (head, *u[1:], *u[:0:-1])
    tp = t // 2
    return (head, *u[1:tp], 2 * u[tp], *u[tp - 1 : 0 : -1])


def u_to_z(u: UTuple) -> ZTuple:
    """Unfold u-coordinates; exact inverse of :func:`z_to_u`."""
    return ZTuple(u.t, u.s, _unfold(u.t, u.s, u.u))


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
