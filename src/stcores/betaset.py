"""Beta-sets (the abacus), charge, pushes, and a-coordinates.

The beta-set of a partition is B = {part_i - i : i >= 1}, an infinite set of
integers that is cofinite below and finite above.  We store the canonical
finite encoding: ``members`` = B restricted to the nonnegatives, ``gaps`` =
the negatives missing from B.  The empty partition has both empty, and a
pair encodes a partition exactly when |members| = |gaps| (total charge 0).
Unequal sizes encode a general "good" set, which several operations here
(charge, pushes, hook counts, s-sets) accept as well.

``BetaSet.__contains__`` tests one position, and :func:`s_set` reads the
encoding for set operations by membership tests, with no window of
positions.  The a-coordinates of an s-core come from its charge.

Residue classes are always taken with the nonnegative convention, i.e.
``x % s`` lies in 0..s-1 even for negative x, matching Python's ``%``.

A charge is a plain tuple whose length is the modulus s.  ``BetaSet`` and
``ATuple`` subclass ``partition._Frozen``.
"""

from __future__ import annotations

import random
from typing import Iterable

from .errors import InvariantError, NonzeroChargeError, NotACoreError
from .partition import Partition, _Frozen, _require_ints


class BetaSet(_Frozen):
    """Canonical finite encoding of a beta-set / good set."""

    __slots__ = ("members", "gaps")
    members: tuple[int, ...]
    gaps: tuple[int, ...]

    def __init__(self, members: Iterable[int] = (), gaps: Iterable[int] = ()):
        members, gaps = tuple(members), tuple(gaps)
        _require_ints(members, ValueError, "members")
        _require_ints(gaps, ValueError, "gaps")
        ms = tuple(sorted(set(members)))
        gs = tuple(sorted(set(gaps)))
        if ms and ms[0] < 0:
            raise ValueError(f"members must be >= 0, got {ms[0]}")
        if gs and gs[-1] > -1:
            raise ValueError(f"gaps must be <= -1, got {gs[-1]}")
        self.__setstate__((ms, gs))

    @property
    def total_charge(self) -> int:
        """|gaps| - |members|; zero exactly for beta-sets of partitions."""
        return len(self.gaps) - len(self.members)

    def __contains__(self, x: int) -> bool:
        """Membership in the encoded infinite set B."""
        return x in self.members if x >= 0 else x not in self.gaps

    def to_json_dict(self) -> dict:
        return {"members": list(self.members), "gaps": list(self.gaps)}


class ATuple(_Frozen):
    """An s-set in coordinate form: t = len(a) integers a_0..a_{t-1} with
    a_i = i (mod t) summing to t(t-1)/2.

    The set {a_i} is the s-set (B + t) \\ B of a t-core; as a set it carries
    one representative per residue class mod t.
    """

    __slots__ = ("a",)
    a: tuple[int, ...]
    t = property(lambda self: len(self.a))

    def __init__(self, a: tuple[int, ...]):
        t = len(a)
        if t < 1:
            raise ValueError("modulus must be >= 1")
        _require_ints(a, ValueError, "a")
        # One list comparison; the loop names the first offender.
        if [v % t for v in a] != list(range(t)):
            for i, v in enumerate(a):
                if v % t != i % t:
                    raise ValueError(f"a[{i}] = {v} is not congruent to {i} mod {t}")
        want = t * (t - 1) // 2
        if sum(a) != want:
            raise ValueError(f"entries sum to {sum(a)}, expected {want}")
        self.__setstate__((a,))

    def to_json(self) -> list[int]:
        return list(self.a)


def size_from_a(a: ATuple) -> int:
    """Size of the t-core with these a-coordinates, from the quadratic form

        24t * |core| = 3 * sum_i (2 a_i - (t-1))^2 - t(t^2 - 1),

    in integers.  Raises InvariantError unless the right side is a
    nonnegative multiple of 24t (anything else means corrupted invariants).
    """
    t = a.t
    num = 3 * sum((2 * v - (t - 1)) ** 2 for v in a.a) - t * (t * t - 1)
    size, rem = divmod(num, 24 * t)
    if rem or size < 0:
        raise InvariantError(f"size formula gives {num}/{24 * t} for a={a.a}")
    return size


def size_from_c(c: tuple[int, ...]) -> int:
    """Size of the t-core with the zero-sum charge tuple c, t = len(c)
    (NonzeroChargeError otherwise):

        |core| = sum_i ( (t/2) c_i^2 - ((t-1)/2 - i) c_i ) = t sum_i c_i^2 / 2 + sum_i i c_i

    in integers: the (t-1)/2 terms sum to 0, and sum_i c_i^2 = sum_i c_i (mod 2).
    """
    if not c:
        raise ValueError("modulus must be >= 1")
    t = len(c)
    if sum(c) != 0:
        raise NonzeroChargeError(f"size formula needs a zero-sum charge tuple, got total {sum(c)}")
    total = t * sum(v * v for v in c) // 2 + sum(i * v for i, v in enumerate(c))
    if total < 0:
        raise InvariantError(f"size formula gives {total} for c={c}")
    return total


def beta_from_partition(p: Partition) -> BetaSet:
    """Canonical encoding of B = {part_i - i}."""
    n = len(p)
    betas = {p.parts[i] - (i + 1) for i in range(n)}
    members = [b for b in betas if b >= 0]
    gaps = [x for x in range(-n, 0) if x not in betas]
    return BetaSet(members, gaps)


def partition_from_beta(b: BetaSet) -> Partition:
    """Inverse of :func:`beta_from_partition`: the beads x_1 > x_2 > ...,
    the members and then the negatives in [min(gaps), -1] that are not
    gaps, give the parts x_i + i.

    The beads strictly descend, so the parts decrease weakly, and charge
    zero keeps the last one positive: with n = -min(gaps) beads, the last
    is a member or a non-gap above min(gaps), so it is at least 1 - n.
    The parts need none of the checks of the Partition constructor, as in
    :func:`partition_from_a`.

    Raises NonzeroChargeError when the encoding does not have charge zero
    (such encodings belong to shifted good sets, not partitions).
    """
    if b.total_charge != 0:
        raise NonzeroChargeError(f"total charge is {-b.total_charge}, expected 0")
    gaps = set(b.gaps)
    lo = b.gaps[0] if b.gaps else 0
    beads = [*reversed(b.members), *(x for x in range(-1, lo - 1, -1) if x not in gaps)]
    return Partition._unchecked(tuple([x + i for i, x in enumerate(beads, start=1)]))


def charge(b: BetaSet, s: int) -> tuple[int, ...]:
    """Per-residue-class bead displacement, as a tuple of s integers.

    c_{s,i} counts gaps minus members in the class -1-i (mod s); the tuple
    sums to the total charge (zero exactly for beta-sets of partitions) and
    is preserved by s-pushes.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    c = [0] * s
    for g in b.gaps:
        c[(-1 - g) % s] += 1
    for m in b.members:
        c[(-1 - m) % s] -= 1
    return tuple(c)


def hook_count(b: BetaSet, s: int) -> int:
    """Number of rim s-hooks, |B \\ (B + s)|: the shift by s adds s
    positions net, so this is |s_set(b, s)| - s."""
    return len(s_set(b, s)) - s


def is_s_core(b: BetaSet, s: int) -> bool:
    """The closure criterion: B - s lies within B, i.e. no rim s-hooks."""
    return hook_count(b, s) == 0


def _beta_from_class_maxima(maxima: list[int], s: int) -> BetaSet:
    """Encoding of the down-set whose class-rho maximum is maxima[rho]."""
    members: list[int] = []
    gaps: list[int] = []
    for rho in range(s):
        m = maxima[rho]
        if m >= 0:
            members.extend(range(m, -1, -s))
        else:
            gaps.extend(range(m + s, 0, s))
    return BetaSet(members, gaps)


def s_push(b: BetaSet, s: int) -> BetaSet:
    """Slide every bead down within its residue class until no gaps remain
    below it.

    The result is the beta-set of the s-core and carries the same charge
    s-tuple.  Works for any good set, not just charge zero.
    """
    c = charge(b, s)
    maxima = [rho - s - s * c[(-1 - rho) % s] for rho in range(s)]
    return _beta_from_class_maxima(maxima, s)


def a_from_charge(c: tuple[int, ...]) -> ATuple:
    """a-coordinates of the s-core with zero-sum charge tuple c, s = len(c):
    a_i = i - s * c_{(-1-i) mod s}.  Raises NonzeroChargeError when c does
    not sum to zero."""
    if sum(c) != 0:
        raise NonzeroChargeError(f"a-coordinates need a zero-sum charge tuple, got total {sum(c)}")
    s = len(c)
    return ATuple(tuple(i - s * c[(-1 - i) % s] for i in range(s)))


def t_core(p: Partition, t: int) -> Partition:
    """The t-core via the abacus: pushing beads keeps the charge, and the
    charge determines the core's a-coordinates."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return partition_from_a(a_from_charge(charge(beta_from_partition(p), t)))


def a_coords(p: Partition, s: int) -> ATuple:
    """a-coordinates of an s-core: a_i = s + max(B in class i mod s), which
    the charge gives as a_i = i - s * c_{(-1-i) mod s} (:func:`a_from_charge`).

    The resulting set {a_i} equals (B + s) \\ B.  Raises NotACoreError when p
    still has rim s-hooks.
    """
    b = beta_from_partition(p)
    if not is_s_core(b, s):
        raise NotACoreError(f"{p!r} is not a {s}-core")
    return a_from_charge(charge(b, s))


def partition_from_a(a: ATuple) -> Partition:
    """Partition of the t-core with the given a-coordinates, read off the
    abacus.

    Class i mod t holds beads at a_i - t, a_i - 2t, ..., so a position x is a
    bead exactly when x < a_{x mod t}.  Every position below m = min(a) is a
    bead and m itself is not.  Listing the beads in (m, max(a) - t] in
    descending order, b_1 > b_2 > ... > b_n, the parts are b_i + i; charge
    zero makes m = -n, so these parts are positive and every later one is 0.
    The walk visits max(a) - t - m positions in descending order and needs no
    sort.

    The beads strictly descend, so b_i + i >= b_{i+1} + (i + 1) and the
    parts decrease weakly; they are all positive when the last one is, as
    charge zero makes it.  That one comparison stands in for the checks of
    the Partition constructor.  It fails, with InvariantError, only for an
    ``a`` of nonzero charge, which ATuple rejects.
    """
    t, av = a.t, a.a
    beads = [x for x in range(max(av) - t, min(av), -1) if x < av[x % t]]
    parts = tuple([x + i for i, x in enumerate(beads, start=1)])
    if parts and parts[-1] < 1:
        raise InvariantError(f"a={av} gives the parts {parts}, whose last is not positive")
    return Partition._unchecked(parts)


def s_set(b: BetaSet, s: int) -> frozenset[int]:
    """(B + s) \\ B by membership tests on the encoding: m + s for each
    member m with m + s not a member, each x in [0, s) that is not a member
    and whose x - s is not a gap, and each gap g whose g - s is not a gap.

    For an s-core this is the s-set {a_i}, with exactly one element per
    residue class mod s.  In general the set has s + hook_count(b, s)
    elements (the upward shift adds one net element per class).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    members, gaps = set(b.members), set(b.gaps)
    out = {m + s for m in members if m + s not in members}
    for x in range(s):
        if x not in members and x - s not in gaps:
            out.add(x)
    for g in gaps:
        if g - s not in gaps:
            out.add(g)
    return frozenset(out)


def conjugate_beta(b: BetaSet) -> BetaSet:
    """Beta-set of the conjugate: x is in the result iff -1-x is not in B.

    On the canonical encoding this is the swap members <-> gaps under the
    involution x -> -1-x.
    """
    return BetaSet(
        members=(-1 - g for g in b.gaps),
        gaps=(-1 - m for m in b.members),
    )


def random_s_core(s: int, rng: random.Random, bound: int = 5) -> Partition:
    """Random s-core: charge coordinates uniform on [-bound, bound]^s
    conditioned on zero sum, then converted.

    Draws s - 1 entries and sets the last to minus their sum, redrawing
    when it falls outside [-bound, bound]; each zero-sum point of the box
    comes from exactly one draw.  Charge tuples parameterize s-cores
    uniquely, so this covers every s-core in the box.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    while True:
        c = [rng.randint(-bound, bound) for _ in range(s - 1)]
        last = -sum(c)
        if -bound <= last <= bound:
            break
    return partition_from_a(a_from_charge((*c, last)))
