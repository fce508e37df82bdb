"""Exact sizes, stabilizer orders, weighted averages, and identity checks.

All statistics are exact: sizes are integers, averages are
``fractions.Fraction`` values (arbitrary precision, always reduced), and
every comparison against a closed form is an equality test, never a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

# size_from_a lives next to ATuple so that enumeration can use it; it is
# re-exported here with the other size formula.
from .betaset import CTuple, size_from_a  # noqa: F401
from .coords import UTuple, ZTuple, _require_coprime, z_to_u
from .enumeration import CoreRecord, iter_sc_st_cores, iter_st_cores, multinomial
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


def attach_stabilizers(records: Iterable[CoreRecord], self_conjugate: bool = False) -> Iterator[CoreRecord]:
    """Lazily fill the ``stab`` field of each record (self-conjugate records
    get the symmetric-action stabilizer computed from their u-coordinates)."""
    for r in records:
        yield r.with_stab(_stab(r, self_conjugate))


def _family(s: int, t: int, self_conjugate: bool) -> tuple[Iterator[CoreRecord], int]:
    """The family's records and D = s!, or s'! 2^{s'} with s' = floor(s/2) for
    self-conjugate cores: every stabilizer divides D, so 1/stab = (D/stab) / D."""
    if self_conjugate:
        return iter_sc_st_cores(s, t), math.factorial(s // 2) << (s // 2)
    return iter_st_cores(s, t), math.factorial(s)


def _scaled_inverse_stab(rec: CoreRecord, scale: int, self_conjugate: bool) -> int:
    """D / stab(rec), exactly (InvariantError if stab does not divide D)."""
    w, rem = divmod(scale, _stab(rec, self_conjugate))
    if rem:
        raise InvariantError(f"stabilizer of z={rec.z.z} does not divide {scale}")
    return w


def average_size(s: int, t: int, weighted: bool = False, self_conjugate: bool = False) -> Fraction:
    """Exact average of |core| over the (s,t)-cores (or the self-conjugate
    ones), optionally weighted by inverse stabilizer order.

    Closed forms (all verified by the test suite):
      unweighted, either family: (s-1)(t-1)(s+t+1)/24
      weighted, general:         (s-1)(t^2-1)/24
      weighted, self-conjugate:  the same for odd t, (s-1)(t^2+2)/24 for even t
    """
    records, scale = _family(s, t, self_conjugate)
    num = den = 0
    for rec in records:
        w = _scaled_inverse_stab(rec, scale, self_conjugate) if weighted else 1
        num += w * rec.size
        den += w
    return Fraction(num, den)


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
    records, scale = _family(s, t, self_conjugate)
    num = sum((_scaled_inverse_stab(rec, scale, self_conjugate) if weighted else 1) * rec.size**e for rec in records)
    return Fraction(num, scale if weighted else 1)


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
