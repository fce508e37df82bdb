import itertools
import math

import pytest

from stcores import (
    ATuple,
    InvariantError,
    NotCoprimeError,
    Partition,
    ZTuple,
    canonical_cyclic_rep,
    count_triple,
    iter_sc_st_cores,
    iter_st_cores,
    iter_triple_asym,
    iter_triple_sym,
    iter_weak_compositions,
    motzkin_number,
    partition_from_a,
)
from stcores.betaset import size_from_a
from stcores.coords import a_to_z
from stcores.enumeration import _iter_z, _records


def test_weak_compositions_lex_and_complete():
    comps = list(iter_weak_compositions(3, 3))
    assert comps[0] == (0, 0, 3)
    assert comps == sorted(comps)
    assert len(comps) == math.comb(3 + 2, 2)
    assert all(sum(c) == 3 for c in comps)
    for total in range(6):
        for k in range(1, 6):
            brute = [c for c in itertools.product(range(total + 1), repeat=k) if sum(c) == total]
            assert list(iter_weak_compositions(total, k)) == brute, (total, k)
    with pytest.raises(ValueError):
        list(iter_weak_compositions(3, 0))


@pytest.mark.parametrize("k", [1, 2])
def test_weak_compositions_refuse_a_negative_total(k):
    # one part draws no cut point from the empty range(total + 1), two parts draw one
    with pytest.raises(ValueError, match="^total must be >= 0, got -1$"):
        list(iter_weak_compositions(-1, k))


def test_weak_compositions_do_not_recurse_per_part():
    # 1001 parts: one nested generator per part would pass the recursion limit
    assert [r.to_json_dict() for r in iter_sc_st_cores(1, 2001)] == [
        {"z": [1] + [0] * 2000, "a": list(range(2001)), "parts": [], "size": 0}
    ]


def test_canonical_cyclic_rep_examples():
    assert canonical_cyclic_rep((0, 2, 0)) == 1
    assert canonical_cyclic_rep((0, 1, 1)) == 0


def test_canonical_cyclic_rep_is_unique_in_orbit():
    for comp in iter_weak_compositions(4, 5):
        t = 5
        hits = [
            r
            for r in range(t)
            if sum(j * comp[(r + j) % t] for j in range(t)) % t == 0
        ]
        assert hits == [canonical_cyclic_rep(comp)]


def test_rotation_orbits_have_full_size():
    # coprimality rules out periodic compositions, so every orbit has t members
    for total, t in [(4, 5), (5, 3), (7, 4)]:
        for comp in iter_weak_compositions(total, t):
            rotations = {comp[r:] + comp[:r] for r in range(t)}
            assert len(rotations) == t


def test_canonical_cyclic_rep_needs_coprimality():
    with pytest.raises(NotCoprimeError):
        canonical_cyclic_rep((1, 1, 0, 0))  # sum 2, length 4


def test_enum_st_cores_small_cases():
    recs = list(iter_st_cores(2, 3))
    assert [r.partition for r in recs] == [Partition(), Partition([1])]
    assert [r.size for r in recs] == [0, 1]
    assert len(list(iter_st_cores(3, 4))) == 5
    assert [r.partition for r in iter_st_cores(1, 6)] == [Partition()]


def test_enum_st_cores_sorted_by_z():
    zs = [r.z.z for r in iter_st_cores(4, 5)]
    assert zs == sorted(zs)


ST_PAIRS = [(s, t) for s in range(1, 14) for t in range(1, 15 - s) if math.gcd(s, t) == 1]
TRIPLE_PAIRS = [(m, d) for m in range(1, 11) for d in range(1, 12 - m) if math.gcd(m, d) == 1]


def _congruent(z):
    return sum(j * v for j, v in enumerate(z)) % len(z) == 0


def test_iterators_yield_strictly_increasing_z():
    # the documented order of every stream: nothing sorts the records
    for factory, pairs in (
        (iter_st_cores, ST_PAIRS),
        (iter_sc_st_cores, ST_PAIRS),
        (iter_triple_sym, TRIPLE_PAIRS),
        (iter_triple_asym, TRIPLE_PAIRS),
    ):
        for a, b in pairs:
            zs = [rec.z.z for rec in factory(a, b)]
            assert all(x < y for x, y in zip(zs, zs[1:])), (factory.__name__, a, b)


def test_iter_z_matches_brute_filter():
    for s, t in ST_PAIRS:
        brute = [z for z in iter_weak_compositions(s, t) if _congruent(z)]
        assert list(_iter_z(s, t, range(s + 1))) == brute, (s, t)

    signed = {}
    for m, d in TRIPLE_PAIRS:
        t = m + d
        if t not in signed:
            signed[t] = list(itertools.product((-1, 0, 1), repeat=t))
        brute = [z for z in signed[t] if sum(z) == d and _congruent(z)]
        assert list(_iter_z(d, t, range(-1, 2))) == brute, ("sym", m, d)

        s, t = m + d, m
        brute = [
            z
            for z in iter_weak_compositions(s, t)
            if _congruent(z) and all(z[j] + z[(j + 1) % t] >= 1 for j in range(t))
        ]
        assert list(_iter_z(s, t, range(s + 1), no_zero_pair=True)) == brute, ("asym", m, d)


def test_enum_rejects_non_coprime():
    with pytest.raises(NotCoprimeError):
        iter_st_cores(2, 4)
    with pytest.raises(NotCoprimeError):
        iter_sc_st_cores(2, 4)
    with pytest.raises(ValueError):
        iter_st_cores(0, 3)


def test_iterators_validate_before_first_yield():
    for factory in (iter_st_cores, iter_sc_st_cores, iter_triple_sym, iter_triple_asym):
        for args in ((2, 4), (3, 6)):
            with pytest.raises(NotCoprimeError):
                factory(*args)


def test_enum_sc_small_cases():
    assert {r.partition for r in iter_sc_st_cores(2, 3)} == {Partition(), Partition([1])}
    assert len(list(iter_sc_st_cores(3, 4))) == 3
    assert [r.partition for r in iter_sc_st_cores(1, 9)] == [Partition()]


def test_enum_sc_is_self_conjugate_subset_of_general():
    for s, t in [(2, 3), (3, 4), (4, 5), (5, 4), (3, 8)]:
        general = {r.partition for r in iter_st_cores(s, t)}
        sc = {r.partition for r in iter_sc_st_cores(s, t)}
        assert sc == {p for p in general if p.is_self_conjugate()}


def test_triple_enumerations_small_cases():
    sym = list(iter_triple_sym(2, 1))
    asym = list(iter_triple_asym(2, 1))
    assert {r.partition for r in sym} == {r.partition for r in asym}
    assert len(sym) == 2
    # (2,3,4)-cores coincide with the (2,3)-cores here
    assert {r.partition for r in sym} == {Partition(), Partition([1])}

    assert len(list(iter_triple_sym(3, 1))) == 4
    assert {r.partition for r in iter_triple_sym(3, 1)} == {
        r.partition for r in iter_triple_asym(3, 1)
    }
    assert len(list(iter_triple_sym(3, 2))) == 6
    assert [r.partition for r in iter_triple_asym(1, 4)] == [Partition()]


def test_triple_outputs_have_no_divisible_hooks():
    for m, d in [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2)]:
        moduli = (m, m + d, m + 2 * d)
        for rec in iter_triple_sym(m, d):
            hooks = rec.partition.hook_lengths()
            assert all(h % mod for mod in moduli for h in hooks)


def test_triple_rejects_non_coprime():
    with pytest.raises(NotCoprimeError):
        iter_triple_sym(2, 4)
    with pytest.raises(NotCoprimeError):
        iter_triple_asym(3, 6)
    with pytest.raises(NotCoprimeError):
        count_triple(2, 2)


def test_motzkin_column():
    for m in range(1, 13):
        assert count_triple(m, 1) == motzkin_number(m)


def test_record_serialization():
    recs = list(iter_st_cores(2, 3))
    assert recs[0].to_json_dict() == {"z": [0, 1, 1], "a": [0, 1, 2], "parts": [], "size": 0}
    assert recs[1].to_json_dict() == {"z": [2, 0, 0], "a": [3, 1, -1], "parts": [1], "size": 1}
    with_stab = recs[1].with_stab(2)
    assert with_stab.to_json_dict()["stab"] == 2


def test_all_views_describe_the_same_core():
    from stcores import partition_from_a, z_to_a

    for rec in iter_st_cores(4, 5):
        assert z_to_a(rec.z) == rec.a
        assert partition_from_a(rec.a) == rec.partition
        assert rec.partition.size == rec.size


def test_record_size_matches_partition_size_in_every_family():
    for factory, pairs in (
        (iter_st_cores, ST_PAIRS),
        (iter_sc_st_cores, ST_PAIRS),
        (iter_triple_sym, TRIPLE_PAIRS),
        (iter_triple_asym, TRIPLE_PAIRS),
    ):
        for a, b in pairs:
            for rec in factory(a, b):
                assert rec.size == rec.partition.size, (factory.__name__, a, b, rec.z.z)


def test_records_equal_the_z_to_a_reference():
    # Prefix-sum records against the forward map a_to_z, which reads
    # differences of a and is injective (so a_to_z(rec.a) = rec.z says
    # rec.a = z_to_a(rec.z)), and against size_from_a, bounded by the
    # (s, t) of each family's z-tuples.  The {-1, 0, 1} tuples of iter_triple_sym
    # grow like Motzkin numbers (208,915 at s + t <= 16), so they stop at 12.
    families = (
        (iter_st_cores, lambda s, t: (s, t), 16, 4505),
        (iter_sc_st_cores, lambda s, t: (s, t), 16, 577),
        (iter_triple_sym, lambda m, d: (d, m + d), 12, 3969),
        (iter_triple_asym, lambda m, d: (m + d, m), 16, 1175),
    )
    for factory, st_of, bound, cores in families:
        checked = 0
        for x in range(1, bound):
            for y in range(1, bound):
                if math.gcd(x, y) != 1 or sum(st_of(x, y)) > bound:
                    continue
                s, t = st_of(x, y)
                for rec in factory(x, y):
                    # through the validating constructors, not the record's own tuples
                    a = ATuple(t, rec.a.a)
                    assert a_to_z(a, s) == ZTuple(t, s, rec.z.z), (factory.__name__, x, y, rec.z.z)
                    assert size_from_a(a) == rec.size, (factory.__name__, x, y, rec.z.z)
                    checked += 1
        assert checked == cores, factory.__name__


def test_records_check_every_z_at_the_leaf():
    s, t = 2, 3
    assert [r.z.z for r in _records(s, t, [(0, 1, 1), (2, 0, 0)])] == [(0, 1, 1), (2, 0, 0)]
    # the z check's own message, not the a check that a bad residue also trips
    z_message = r"is not 3 entries summing to 2 with sum\(j \* z_j\) = 0 mod 3"
    for z in (
        (0, 1, 1, 0),  # four entries, t = 3
        (0, 1),  # two entries
        (1, 1, 1),  # sums to 3, not s = 2
        (1, 1, 0),  # sum(j * z_j) = 1 mod 3
        (0, 2, 0),  # sum(j * z_j) = 2 mod 3
    ):
        with pytest.raises(InvariantError, match=z_message):
            list(_records(s, t, [z]))


def test_records_check_the_a_coordinates_at_the_leaf(monkeypatch):
    # a wrong shift constant permutes the a-coordinates off their residues
    import stcores.enumeration

    shift = stcores.enumeration.shift_constant
    monkeypatch.setattr(stcores.enumeration, "shift_constant", lambda s, t: shift(s, t) + 1)
    for factory in (iter_st_cores, iter_sc_st_cores, iter_triple_sym, iter_triple_asym):
        with pytest.raises(InvariantError, match="a_i = i mod"):
            list(factory(3, 2))


def test_partition_from_a_rejects_a_nonpositive_last_part():
    assert partition_from_a(ATuple(2, (4, -3))) == Partition([3, 2, 1])
    # residues right, but the entries sum to -1, not t(t-1)/2 = 1: the bead
    # walk ends in the part 0
    with pytest.raises(InvariantError, match="last is not positive"):
        partition_from_a(ATuple._unchecked(2, (-2, 1)))


def test_with_stab_returns_a_new_record_and_leaves_the_original():
    rec = next(iter_st_cores(2, 3))
    stabbed = rec.with_stab(2)
    assert rec.stab is None and stabbed.stab == 2 and stabbed != rec
    assert (stabbed.z, stabbed.a, stabbed.size) == (rec.z, rec.a, rec.size)
    assert rec == next(iter_st_cores(2, 3))
