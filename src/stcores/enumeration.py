"""Exhaustive generation of (s,t)-cores and friends, with their stabilizers.

For coprime s, t the (s,t)-cores correspond to the nonnegative integer
tuples z of length t with sum s and sum(j * z_j) = 0 mod t.  The
(m, m+d, m+2d)-cores are the same kind of tuple with entries in {-1, 0, 1},
or nonnegative with no two cyclically adjacent zeros.  One generator,
:func:`_iter_z`, visits exactly these lattice points in lexicographic order:
a depth-first search, run on an explicit stack, guided by a table of the
weighted residues each suffix can still reach, so it never builds a tuple
it would have to throw away.

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

from functools import partial
from itertools import accumulate, combinations_with_replacement
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from . import coords
from .betaset import ATuple, partition_from_a
from .coords import ZTuple, _unfold, shift_constant
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
    and any failure raises InvariantError.  The z checks of ZTuple: t + 1
    prefix sums ending at s, and S + s = 0 (mod t), since
    sum_j j z_j = (t-1)s - S.  The a checks of ATuple: a_i = i (mod t),
    one comparison with a list built once per (s, t), and sum(a) =
    t(t-1)/2.  The size check of :func:`~stcores.betaset.size_from_a`: 24t
    divides the scaled size into a nonnegative integer.  The checked
    values then become the ZTuple and ATuple without a second validation.
    """
    # the z -> a step of z_to_a, looked up in coords when the stream starts
    layout, step = coords._a_layout(s, t, shift_constant(s, t)), coords._a_from_prefix
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
        yield CoreRecord(ZTuple._unchecked(t, s, z), ATuple._unchecked(t, a), size)


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
    lazily and in lexicographic order.  With ``no_zero_pair`` (for
    nonnegative ``values``) also z_j + z_{j+1} >= 1 for every j, indices
    mod t.

    A completion table, built bottom-up, maps (position, whether the entry
    before it is zero, remaining sum) to a bitmask of the residues
    sum_{j >= position} j * z_j mod t that some valid suffix reaches.  The
    search enters a prefix only when the bit of the residue that prefix
    still needs is set, so every prefix it enters ends in at least one
    output tuple, and the last entry is forced.  The cyclic pair
    (z_{t-1}, z_0) is covered by a second table in which z_{t-1} must be
    nonzero, used when z_0 = 0.  The search keeps the candidate entries of
    each open position on an explicit stack; each state's candidate list is
    computed once.
    """
    vmin, vmax = values.start, values.stop - 1
    full = (1 << t) - 1
    # Sums that positions pos..t-1 can carry, given the entries before them.
    rlo = [max((t - pos) * vmin, total - pos * vmax) for pos in range(t + 1)]
    rhi = [min((t - pos) * vmax, total - pos * vmin) for pos in range(t + 1)]
    # Smallest entry allowed after a nonzero entry and after a zero entry.
    floor = (vmin, max(vmin, 1) if no_zero_pair else vmin)

    def completions(last_nonzero: bool) -> list:
        # reach[pos][prev_zero][rem] = bitmask of reachable suffix residues
        end = {0: 1}
        reach: list = [None] * t + [(end, end)]
        for pos in range(t - 1, 0, -1):
            nxt, lo, hi = reach[pos + 1], rlo[pos + 1], rhi[pos + 1]
            rows = []
            for prev_zero in (False, True) if no_zero_pair else (False,):
                lowest = floor[prev_zero]
                if last_nonzero and pos == t - 1:
                    lowest = max(lowest, 1)
                row = {}
                for rem in range(rlo[pos], rhi[pos] + 1):
                    mask = 0
                    for v in range(max(lowest, rem - hi), min(vmax, rem - lo) + 1):
                        m = nxt[v == 0][rem - v]
                        k = pos * v % t
                        mask |= (m << k | m >> (t - k)) & full
                    row[rem] = mask
                rows.append(row)
            reach[pos] = (rows[0], rows[-1])
        return reach

    memo: dict = {}

    def candidates(reach: list, pos: int, rem: int, need: int, prev_zero: bool) -> list[int]:
        """The entries at ``pos`` whose prefix the search enters, computed
        once per state."""
        key = (reach is wrap, pos, rem, need, prev_zero)
        found = memo.get(key)
        if found is None:
            rows = reach[pos + 1]
            memo[key] = found = [
                v
                for v in range(max(floor[prev_zero], rem - rhi[pos + 1]), min(vmax, rem - rlo[pos + 1]) + 1)
                if rows[v == 0][rem - v] >> (need - pos * v) % t & 1
            ]
        return found

    last = t - 1
    z = [0] * t
    # rems[pos], needs[pos]: the sum and the residue positions pos.. still owe
    rems = [0] * t
    needs = [0] * t
    free = completions(False)
    wrap = completions(True) if no_zero_pair else free
    for first in range(total - rhi[1], total - rlo[1] + 1):
        reach = wrap if first == 0 else free
        if not reach[1][first == 0][total - first] & 1:
            continue
        if t < 3:
            yield (first, total - first)[:t]
            continue
        z[0] = first
        rems[1], needs[1] = total - first, 0
        stack = [iter(candidates(reach, 1, total - first, 0, first == 0))]
        while stack:
            pos = len(stack)
            if pos == last - 1:
                # each candidate here completes a tuple: the last entry is forced
                rem = rems[pos]
                for v in stack.pop():
                    z[pos], z[last] = v, rem - v
                    yield tuple(z)
                continue
            for v in stack[-1]:
                break
            else:
                stack.pop()
                continue
            z[pos] = v
            rems[pos + 1] = rem = rems[pos] - v
            needs[pos + 1] = need = (needs[pos] - pos * v) % t
            stack.append(iter(candidates(reach, pos + 1, rem, need, v == 0)))


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
