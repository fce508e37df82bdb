"""Exhaustive generation of (s,t)-cores and friends, with their stabilizers.

For coprime s, t the (s,t)-cores correspond to the nonnegative integer
tuples z of length t with sum s and sum(j * z_j) = 0 mod t.  The
(m, m+d, m+2d)-cores are the same kind of tuple with entries in {-1, 0, 1},
or nonnegative with no two cyclically adjacent zeros.  One generator,
:func:`_iter_z`, visits exactly these lattice points in lexicographic order:
a depth-first search, run on an explicit stack, guided by one table of the
weighted residues each suffix can still reach, keyed by the sum left and
whether the entry before the suffix and z_0 are zero (the cyclic pair), so
it never builds a tuple it would have to throw away.

Each record is built from the prefix sums P_l = z_0 + ... + z_{l-1}
(:func:`_records`) by the one z -> a step of :mod:`stcores.coords`, which
:func:`~stcores.coords.z_to_a` takes too: the a-coordinates are affine in
P_l and the size is a quadratic form in P_l
(:func:`~stcores.formulas._x`), the same form the dynamic program of
:mod:`stcores.stats` sums.  The records are tested against the forward
map :func:`~stcores.coords.a_to_z`, which reads differences of a, and
against :func:`~stcores.betaset.size_from_a`.

Each cyclic rotation orbit of a weak composition holds exactly one tuple
with the congruence (:func:`canonical_cyclic_rep`): hence the counting
formulas of :mod:`stcores.formulas`, and the division by t in
:mod:`stcores.stats`.

The ``iter_*`` functions stream records lazily, in lexicographic order of
z.  :func:`attach_stabilizers` fills in each record's stabilizer order from
:func:`~stcores.coords.stab_size` or :func:`~stcores.coords.stab_size_sc`.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import accumulate, combinations_with_replacement
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from . import coords
from .betaset import ATuple, partition_from_a
from .coords import ZTuple, _unfold
from .errors import InvariantError
from .formulas import _require_coprime, _scaled_size
from .partition import Partition, _Frozen


class CoreRecord(_Frozen):
    """One core as its z- and a-coordinates and its size.  ``stab`` stays
    None until a stabilizer is attached.

    The partition is derived, not stored: :attr:`partition` rebuilds it from
    ``a`` on every access, so statistics that need only ``size`` never pay
    for a Young diagram.  Bind it once when it is used more than once.
    Equality and hashing see ``z``, ``a``, ``size`` and ``stab``; ``a``
    determines the partition.
    """

    __slots__ = ("z", "a", "size", "stab")
    z: ZTuple
    a: ATuple
    size: int
    stab: int | None

    def __init__(self, z: ZTuple, a: ATuple, size: int, stab: int | None = None):
        self.__setstate__((z, a, size, stab))

    @property
    def partition(self) -> Partition:
        return partition_from_a(self.a)

    def with_stab(self, stab: int) -> "CoreRecord":
        """A new record with this ``stab``; this one is left unchanged."""
        return CoreRecord(self.z, self.a, self.size, stab)

    def to_json_dict(self) -> dict:
        d = {
            "z": list(self.z.z),
            "a": list(self.a.a),
            "parts": self.partition.to_json(),
            "size": self.size,
        }
        if self.stab is not None:
            d["stab"] = self.stab
        return d


def _stab(rec: CoreRecord, self_conjugate: bool) -> int:
    """The stabilizer order of a record, by the formula of its family."""
    return coords.stab_size_sc(coords.z_to_u(rec.z)) if self_conjugate else coords.stab_size(rec.z)


def attach_stabilizers(records: Iterable[CoreRecord], self_conjugate: bool = False) -> Iterator[CoreRecord]:
    """Lazily fill the ``stab`` field of each record (self-conjugate records
    get the symmetric-action stabilizer computed from their u-coordinates)."""
    for r in records:
        yield r.with_stab(_stab(r, self_conjugate))


def _records(s: int, t: int, zs: Iterable[tuple[int, ...]]) -> Iterator[CoreRecord]:
    """The record of each t-core z in ``zs`` (raw tuples with sum s): its
    a-coordinates read off the prefix sums by
    :func:`~stcores.coords._a_from_prefix` and its size by
    :func:`~stcores.formulas._scaled_size`, in O(t) operations.

    Each record is validated once, here, on values the leaf already holds,
    and any failure raises InvariantError.  The z checks: t + 1 prefix sums
    ending at s, the (s, t) asked for, and ZTuple's S + s = 0 (mod t), since
    sum_j j z_j = (t-1)s - S.  The a checks of ATuple: a_i = i (mod t),
    one comparison with a list built once per (s, t), and sum(a) =
    t(t-1)/2.  The size check of :func:`~stcores.betaset.size_from_a`: 24t
    divides the scaled size into a nonnegative integer.  The checked
    values then become the ZTuple and ATuple without a second validation.
    """
    # the z -> a step of z_to_a, looked up in coords when the stream starts
    layout, step = coords._a_layout(s, t), coords._a_from_prefix
    residues, a_sum = list(range(t)), t * (t - 1) // 2
    t24 = 24 * t
    for z in zs:
        prefix = list(accumulate(z, initial=0))
        S = sum(prefix) - s
        if len(prefix) != t + 1 or prefix[-1] != s or (S + s) % t:
            raise InvariantError(f"z={z} is not {t} entries summing to {s} with sum(j * z_j) = 0 mod {t}")
        x, a = step(layout, prefix, S)
        if [v % t for v in a] != residues or sum(a) != a_sum:
            raise InvariantError(f"a={a} from z={z} breaks a_i = i mod {t} or sum(a) = {a_sum}")
        num = _scaled_size(t, S, sum(map(mul, x, x)))
        size, rem = divmod(num, t24)
        if rem or size < 0:
            raise InvariantError(f"size formula gives {num}/{t24} for a={a}")
        yield CoreRecord(ZTuple._unchecked(z), ATuple._unchecked(a), size)


def iter_weak_compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``k`` parts, lexicographic order:
    the gaps between k - 1 sorted cut points in 0..total, whose
    lexicographic order is that of the compositions."""
    if k < 1:
        raise ValueError("need at least one part")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    for cuts in combinations_with_replacement(range(total + 1), k - 1):
        # through a list: on CPython 3.11, tuple() of a bare map (no length
        # hint) left one ~100-byte block per composition allocated
        yield tuple([*map(sub, cuts + (total,), (0,) + cuts)])


def canonical_cyclic_rep(x: Sequence[int]) -> int:
    """Index r of the unique rotation (x_r, ..., x_{r+t-1}) satisfying
    sum(j * x_{r+j}) = 0 mod t.

    Exists and is unique because rotating by one step shifts the weighted
    sum by -s mod t, and s = sum(x) is invertible mod t.
    """
    t = len(x)
    s = sum(x)
    _require_coprime(s, t)
    w = sum(j * v for j, v in enumerate(x)) % t
    return (pow(s % t, -1, t) * w) % t


def _iter_z(total: int, t: int, values: range, no_zero_pair: bool = False) -> Iterator[tuple[int, ...]]:
    """Every z in ``values``^t with sum ``total`` and sum(j * z_j) = 0 mod t,
    lazily and in lexicographic order.  With ``no_zero_pair`` (for nonnegative
    ``values``) also z_j + z_{j+1} >= 1 for every j, indices mod t.

    One residue table, ``reach[pos][rem, zero_before, zero_first]``, filled
    by a loop from the last position up, maps the sum left and whether
    z_{pos-1} and z_0 are 0 to the bitmask of the residues sum_{j >= pos}
    j * z_j mod t that some valid suffix reaches; the flag of z_0 carries
    the cyclic pair (z_{t-1}, z_0).  The search enters a prefix only when
    the bit of the residue it still owes is set, so every prefix it enters
    ends in an output tuple, and the last entry is forced.  It runs on an
    explicit stack, and each state's candidate entries are computed once.
    """
    vmin, vmax, last = values.start, values.stop - 1, t - 1
    flags = (False, True) if no_zero_pair else (False,)

    def span(pos: int, rem: int, zero_before: bool, zero_first: bool) -> range:
        # the entries at pos that leave a sum positions pos + 1.. can carry
        lo = max(vmin, 1) if zero_before or zero_first and pos == last else vmin
        return range(max(lo, rem - (last - pos) * vmax), min(vmax, rem - (last - pos) * vmin) + 1)

    reach: list = [None] * t + [{(0, zb, zf): 1 for zb in flags for zf in flags}]
    low = high = 0  # the sums that positions pos.. can carry
    for pos in range(last, 0, -1):
        nxt, row, low, high = reach[pos + 1], {}, low + vmin, high + vmax
        for rem in range(max(low, total - pos * vmax), min(high, total - pos * vmin) + 1):
            for zero_before in flags:
                for zero_first in flags:
                    mask = 0
                    for v in span(pos, rem, zero_before, zero_first):
                        m, k = nxt[rem - v, no_zero_pair and v == 0, zero_first], pos * v % t
                        mask |= m << k | m >> (t - k)
                    row[rem, zero_before, zero_first] = mask & ((1 << t) - 1)
        reach[pos] = row

    @cache
    def options(pos: int, rem: int, need: int, zero_before: bool, zero_first: bool) -> list[int]:
        # the entries at pos whose prefix the search enters; z_0 sets zero_first
        nxt, found = reach[pos + 1], []
        for v in span(pos, rem, zero_before, zero_first):
            zero = no_zero_pair and v == 0
            if nxt[rem - v, zero, zero_first if pos else zero] >> (need - pos * v) % t & 1:
                found.append(v)
        return found

    z = [0] * t
    stack = [(0, total, 0, False, iter(options(0, total, 0, False, False)))]
    while stack:
        pos, rem, need, zero_first, entries = stack[-1]
        if pos >= last - 1:
            # each entry completes a tuple: z_last is forced (or is v, at t = 1)
            stack.pop()
            for v in entries:
                z[last], z[pos] = rem - v, v
                yield tuple(z)
            continue
        v = next(entries, None)
        if v is None:
            stack.pop()
            continue
        z[pos], zero = v, no_zero_pair and v == 0
        zero_first, rem, need = zero_first if pos else zero, rem - v, (need - pos * v) % t
        stack.append((pos + 1, rem, need, zero_first, iter(options(pos + 1, rem, need, zero, zero_first))))


def iter_st_cores(s: int, t: int) -> Iterator[CoreRecord]:
    """Stream all (s,t)-cores in lexicographic order of z.  Arguments are
    validated eagerly."""
    _require_coprime(s, t)
    return _records(s, t, _iter_z(s, t, range(s + 1)))


def iter_sc_st_cores(s: int, t: int) -> Iterator[CoreRecord]:
    """Stream all self-conjugate (s,t)-cores via u-coordinates: weak
    compositions of floor(s/2) into floor(t/2) + 1 parts, unfolded.  The
    unfolding keeps lexicographic order: z_0 and z_1..z_{floor(t/2)} are
    increasing functions of u_0 and u_1..u_{floor(t/2)}, and the remaining
    entries are determined by those."""
    _require_coprime(s, t)
    return _records(s, t, map(partial(_unfold, t, s), iter_weak_compositions(s // 2, t // 2 + 1)))


def iter_triple_sym(m: int, d: int) -> Iterator[CoreRecord]:
    """(m, m+d, m+2d)-cores as (m+d)-cores: extended z-coordinates with
    parameter s = d take values in {-1, 0, 1}."""
    _require_coprime(m, d)
    t = m + d
    return _records(d, t, _iter_z(d, t, range(-1, 2)))


def iter_triple_asym(m: int, d: int) -> Iterator[CoreRecord]:
    """(m, m+d, m+2d)-cores as (m+d, m)-cores: nonnegative z with the cyclic
    no-two-adjacent-zeros condition z_j + z_{j+1} >= 1."""
    _require_coprime(m, d)
    s, t = m + d, m
    return _records(s, t, _iter_z(s, t, range(s + 1), no_zero_pair=True))
