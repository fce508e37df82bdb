"""Integer closed forms that visit no core: coprimality, the size form of the
prefix sums, and the counts.

This module imports only :mod:`math` and :mod:`stcores.errors`, so that
``cores count`` and ``cores avg`` start without the coordinate classes.
The size form is the one identity that :func:`stcores.coords.z_to_a`, the
enumerated records and the dynamic program of :mod:`stcores.stats` share.
"""

import math

from .errors import CoreError, InvariantError, NotCoprimeError


def _require_coprime(s: int, t: int) -> None:
    if s < 1 or t < 1:
        raise ValueError(f"moduli must be >= 1, got {s} and {t}")
    if math.gcd(s, t) != 1:
        raise NotCoprimeError(f"{s} and {t} must be coprime")


def _x(s: int, t: int, l: int, p: int) -> int:
    """x_l = (2l - t + 1)s - 2t P_l, for the prefix sum P_l = z_0 + ... + z_{l-1}.

    With S = P_0 + ... + P_{t-1}, the a-coordinates are
    2a_{(k + ls) mod t} = x_l + 2S + t - 1, so that

        24t |core| = 3 sum_l x_l^2 - 12t S^2 - t(t^2 - 1)

    (:func:`_scaled_size`).
    """
    return (2 * l - t + 1) * s - 2 * t * p


def _scaled_size(t: int, S: int, g: int) -> int:
    """24t |core| of the t-core with g = sum_l x_l^2 and S = sum_l P_l."""
    return 3 * g - 12 * t * S * S - t * (t * t - 1)


def count_st(s: int, t: int) -> int:
    """Number of (s,t)-cores: C(s+t, t) / (s+t).  The division is exact:
    t C(s+t, t) = (s+t) C(s+t-1, t-1), and s+t is coprime to t."""
    _require_coprime(s, t)
    return math.comb(s + t, t) // (s + t)


def count_sc(s: int, t: int) -> int:
    """Number of self-conjugate (s,t)-cores: C(floor(s/2)+floor(t/2), floor(t/2))."""
    _require_coprime(s, t)
    return math.comb(s // 2 + t // 2, t // 2)


def multinomial(n: int, ks: tuple[int, ...]) -> int:
    """n! / prod(k_i!) for a weak composition of n."""
    out = 1
    rem = n
    for v in ks:
        out *= math.comb(rem, v)
        rem -= v
    if rem:
        raise CoreError(f"parts {tuple(ks)} do not sum to {n}")
    return out


def count_triple(m: int, d: int) -> int:
    """Number of (m, m+d, m+2d)-cores:
    (1/(m+d)) * sum_i multinom(m+d; i, i+d, m-2i).

    The i = 0 term is C(m+d, d), and each next term is the last times the
    exact ratio (m-2i)(m-2i-1) / ((i+1)(i+1+d)): one product and one
    division per term."""
    _require_coprime(m, d)
    t = m + d
    term = total = math.comb(t, d)
    for i in range(m // 2):
        term, rem = divmod(term * (m - 2 * i) * (m - 2 * i - 1), (i + 1) * (i + 1 + d))
        if rem:
            raise InvariantError(f"count_triple({m}, {d}): the ratio after term {i} leaves a remainder")
        total += term
    if total % t:
        raise InvariantError(f"multinomial sum {total} is not divisible by {t}")
    return total // t
