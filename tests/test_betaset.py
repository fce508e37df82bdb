import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import stcores.betaset
from stcores import (
    ATuple,
    BetaSet,
    CoreRecord,
    NonzeroChargeError,
    NotACoreError,
    Partition,
    UTuple,
    ZTuple,
    a_coords,
    beta_from_partition,
    charge,
    conjugate_beta,
    hook_count,
    is_s_core,
    partition_from_a,
    partition_from_beta,
    random_s_core,
    s_push,
    s_set,
    t_core,
)
from stcores.betaset import _beta_from_class_maxima, a_from_charge, size_from_a

partitions = st.lists(st.integers(min_value=1, max_value=10), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)
moduli = st.integers(min_value=1, max_value=6)


@given(partitions)
def test_beta_set_membership_is_the_set_of_p_i_minus_i(p):
    # B = {p_i - i : i >= 1} with p_i = 0 past the last part
    n = len(p)
    window = range(-n - 3, (p.parts[0] if n else 0) + 3)
    want = {(p.parts[i - 1] if i <= n else 0) - i for i in range(1, n + 5)}
    b = beta_from_partition(p)
    assert [x for x in window if x in b] == [x for x in window if x in want]


def test_beta_set_membership_builds_no_set(monkeypatch):
    b = beta_from_partition(Partition([4, 2, 2, 1]))

    def no_set(*args):
        raise AssertionError("membership built a set")

    monkeypatch.setattr(stcores.betaset, "set", no_set, raising=False)
    assert [x for x in range(-6, 5) if x in b] == [-6, -5, -3, -1, 0, 3]


def test_beta_from_partition_examples():
    assert beta_from_partition(Partition()) == BetaSet()
    b = beta_from_partition(Partition([3, 2, 2]))
    assert b.members == (0, 2) and b.gaps == (-3, -2)
    b = beta_from_partition(Partition([5, 5]))
    assert b.members == (3, 4) and b.gaps == (-2, -1)
    assert repr(b) == "BetaSet(members=(3, 4), gaps=(-2, -1))"
    assert hash(b) == hash(BetaSet([4, 3], [-1, -2])) and b == BetaSet([4, 3], [-1, -2])


def _random_good_sets(seed, count, charge_zero=False):
    """Seeded encodings with entries in [-16, 16); of any charge unless
    ``charge_zero``."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(0, 8)
        members = rng.sample(range(16), k)
        gaps = rng.sample(range(-16, 0), k if charge_zero else rng.randint(0, 8))
        yield BetaSet(members, gaps)


def test_s_set_and_hook_count_on_good_sets_of_any_charge():
    for b in _random_good_sets(17, 400):
        for s in range(1, 9):
            window = {y for y in range(-16, 16 + s) if y - s in b and y not in b}
            assert s_set(b, s) == window, (b, s)
            assert hook_count(b, s) == len(window) - s, (b, s)


def test_beta_from_partition_inverts_partition_from_beta():
    for b in _random_good_sets(19, 400, charge_zero=True):
        assert beta_from_partition(partition_from_beta(b)) == b


def test_s_set_rejects_s_below_1():
    b = beta_from_partition(Partition([2]))
    for s in (0, -1):
        with pytest.raises(ValueError, match="s must be >= 1"):
            s_set(b, s)


def test_partition_from_beta_examples():
    assert partition_from_beta(BetaSet()) == Partition()
    assert partition_from_beta(BetaSet([0, 2], [-2, -3])).parts == (3, 2, 2)
    assert partition_from_beta(BetaSet([3, 4], [-1, -2])).parts == (5, 5)


def test_partition_from_beta_rejects_nonzero_charge():
    with pytest.raises(NonzeroChargeError):
        partition_from_beta(BetaSet([0], []))


def test_a_from_charge_rejects_a_nonzero_sum():
    with pytest.raises(NonzeroChargeError, match="^a-coordinates need a zero-sum charge tuple, got total 1$"):
        a_from_charge((1, 0, 0))
    assert a_from_charge((0, 0, 0)) == ATuple((0, 1, 2))


def test_betaset_validates_sign_ranges():
    with pytest.raises(ValueError):
        BetaSet([-1], [])
    with pytest.raises(ValueError):
        BetaSet([], [0])


@given(partitions)
def test_beta_round_trip(p):
    assert partition_from_beta(beta_from_partition(p)) == p


def test_charge_examples():
    assert charge(beta_from_partition(Partition()), 4) == (0, 0, 0, 0)
    assert charge(beta_from_partition(Partition([5, 5])), 4) == (0, 1, 0, -1)
    # the 4-core (1,1) carries the same charge as (5,5)
    assert charge(beta_from_partition(Partition([1, 1])), 4) == (0, 1, 0, -1)


@given(partitions, moduli)
def test_charge_sums_to_zero(p, s):
    assert sum(charge(beta_from_partition(p), s)) == 0


def test_is_s_core_examples():
    for s in range(1, 8):
        assert is_s_core(beta_from_partition(Partition()), s)
    assert not is_s_core(beta_from_partition(Partition([5, 5])), 4)
    assert is_s_core(beta_from_partition(Partition([1, 1])), 4)


def test_hook_count_matches_diagram_exhaustively():
    # every partition of size <= 12, every s <= 6
    from stcores import enum_partitions_up_to

    for p in enum_partitions_up_to(12):
        hooks = p.hook_lengths()
        b = beta_from_partition(p)
        for s in range(1, 7):
            assert hook_count(b, s) == sum(1 for h in hooks if h == s)


def test_s_push_examples():
    assert s_push(beta_from_partition(Partition([5, 5])), 4) == beta_from_partition(
        Partition([1, 1])
    )
    core = beta_from_partition(Partition([2, 1]))  # a 4-core
    assert s_push(core, 4) == core
    assert s_push(beta_from_partition(Partition([3, 2, 2])), 1) == BetaSet()


@given(partitions, moduli)
def test_s_push_preserves_charge_and_idempotent(p, s):
    b = beta_from_partition(p)
    pushed = s_push(b, s)
    assert charge(pushed, s) == charge(b, s)
    assert is_s_core(pushed, s)
    assert s_push(pushed, s) == pushed


def test_t_core_examples():
    assert t_core(Partition([5, 5]), 4).parts == (1, 1)
    assert t_core(Partition([2, 1]), 4).parts == (2, 1)
    assert t_core(Partition([5, 5]), 3) == Partition([5, 5]).t_core_by_diagram(3)


@given(partitions, moduli)
def test_t_core_agrees_with_diagram_oracle(p, t):
    assert t_core(p, t) == p.t_core_by_diagram(t)


def test_t_core_matches_push_path():
    from stcores.oracle import enum_partitions_up_to

    for p in enum_partitions_up_to(12):
        for t in range(1, 7):
            assert t_core(p, t) == partition_from_beta(s_push(beta_from_partition(p), t)), (p, t)


def test_a_coords_examples():
    assert a_coords(Partition(), 3).a == (0, 1, 2)
    assert a_coords(Partition([1]), 3).a == (3, 1, -1)
    with pytest.raises(NotACoreError):
        a_coords(Partition([5, 5]), 4)


def test_a_coords_equal_s_set():
    rng = random.Random(99)
    for s in range(1, 7):
        for _ in range(30):
            p = random_s_core(s, rng)
            b = beta_from_partition(p)
            assert frozenset(a_coords(p, s).a) == s_set(b, s)


def test_charge_a_translation_on_random_cores():
    # a_i = i - s * c_{-1-i} for s-cores
    rng = random.Random(7)
    for s in range(1, 7):
        for _ in range(30):
            p = random_s_core(s, rng)
            a = a_coords(p, s)
            c = charge(beta_from_partition(p), s)
            assert all(a.a[i] == i - s * c[(-1 - i) % s] for i in range(s))


def test_partition_from_a_round_trip():
    rng = random.Random(5)
    for s in range(1, 7):
        for _ in range(30):
            p = random_s_core(s, rng)
            assert partition_from_a(a_coords(p, s)) == p


def test_partition_from_a_inverts_a_coords_on_every_small_core():
    from stcores import enum_partitions_up_to

    parts = list(enum_partitions_up_to(20))
    for t in range(1, 8):
        cores = [p for p in parts if is_s_core(beta_from_partition(p), t)]
        assert cores and all(partition_from_a(a_coords(p, t)) == p for p in cores), t


def test_partition_from_a_matches_class_maxima_path():
    rng = random.Random(6)
    for t in range(1, 9):
        for _ in range(60):
            a = a_coords(random_s_core(t, rng, bound=4), t)
            maxima = [0] * t
            for v in a.a:
                maxima[v % t] = v - t
            via_beta = partition_from_beta(_beta_from_class_maxima(maxima, t))
            assert partition_from_a(a) == via_beta, (t, a.a)
            assert size_from_a(a) == via_beta.size


class _CountedReads(tuple):
    """A tuple that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_partition_from_a_reads_a_once_per_position_it_walks():
    reads = []
    for p, t in [(Partition([5, 5]), 3), (Partition([4, 2, 1]), 5), (Partition([3, 1, 1]), 2)]:
        core = t_core(p, t)
        a = _CountedReads(a_coords(core, t).a)
        assert partition_from_a(ATuple._unchecked(a)) == core
        assert a.reads == max(a) - t - min(a), (p, t)
        reads.append(a.reads)
    assert reads == [1, 6, 1]


def test_atuple_validation():
    with pytest.raises(ValueError, match=r"a\[2\] = 1 is not congruent to 2 mod 3"):
        ATuple((0, 1, 1))  # wrong congruence
    with pytest.raises(ValueError):
        ATuple((3, 1, 2))  # wrong sum
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        ATuple(())


def test_z_and_a_tuples_store_only_their_entries():
    z, a = ZTuple((0, 1, 1)), ATuple((3, 1, -1))
    assert (ZTuple.__slots__, ATuple.__slots__) == (("z",), ("a",))
    assert (z.t, z.s, a.t) == (3, 2, 3)
    assert ZTuple._unchecked((2, 0, 0)).s == 2 and ATuple._unchecked((0, 1)).t == 2
    for x, name in ((z, "t"), (z, "s"), (a, "t")):
        with pytest.raises(AttributeError):
            setattr(x, name, 4)
    assert z.to_json_dict() == {"t": 3, "s": 2, "z": [0, 1, 1]}


_Z, _A = (0, 1, 1), (0, 1, 2)


@pytest.mark.parametrize("make, different, fields, text", [
    # one field: copy and pickle must not unpack it
    (lambda: Partition([2, 1, 0]), Partition([2, 2]), ("parts",), "Partition(parts=(2, 1))"),
    (lambda: BetaSet([4, 3], [-1, -2]), BetaSet([3, 4], [-3, -1]), ("members", "gaps"),
     "BetaSet(members=(3, 4), gaps=(-2, -1))"),
    (lambda: ATuple((3, 1, -1)), ATuple((0, 1, 2)), ("a",), "ATuple(a=(3, 1, -1))"),
    (lambda: ZTuple(_Z), ZTuple((2, 0, 0)), ("z",), "ZTuple(z=(0, 1, 1))"),
    (lambda: UTuple(3, 2, (0, 1)), UTuple(3, 2, (1, 0)), ("t", "s", "u"), "UTuple(t=3, s=2, u=(0, 1))"),
    # differs only in stab, the field with a default
    (lambda: CoreRecord(ZTuple(_Z), ATuple(_A), 0), CoreRecord(ZTuple(_Z), ATuple(_A), 0, 1),
     ("z", "a", "size", "stab"),
     "CoreRecord(z=ZTuple(z=(0, 1, 1)), a=ATuple(a=(0, 1, 2)), size=0, stab=None)"),
], ids=["Partition", "BetaSet", "ATuple", "ZTuple", "UTuple", "CoreRecord"])
def test_value_classes_compare_hash_and_show_their_fields_and_refuse_assignment(make, different, fields, text):
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y) and not x != y
    assert x != different and not x == different
    assert repr(x) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(different, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y and repr(x) == text
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert type(x)._unchecked(*x.__getstate__()) == x


def test_value_classes_differ_across_classes_and_unchecked_builds_the_same_value():
    # equal fields but different classes
    assert ZTuple._unchecked((0, 1)) != ATuple((0, 1))
    assert ATuple._unchecked(_A) == ATuple(_A)
    assert ZTuple._unchecked(_Z) == ZTuple(_Z)
    assert CoreRecord(ZTuple(_Z), ATuple(_A), 0) == CoreRecord(ZTuple(_Z), ATuple(_A), 0, None)


def test_conjugate_beta_examples():
    assert conjugate_beta(BetaSet()) == BetaSet()
    assert conjugate_beta(beta_from_partition(Partition([3, 2, 2]))) == beta_from_partition(
        Partition([3, 3, 1])
    )
    assert conjugate_beta(beta_from_partition(Partition([1, 1]))) == beta_from_partition(
        Partition([2])
    )


@given(partitions)
def test_conjugate_beta_matches_partition_conjugate(p):
    assert conjugate_beta(beta_from_partition(p)) == beta_from_partition(p.conjugate())


@given(partitions, moduli)
def test_conjugate_charge_negation(p, s):
    b = beta_from_partition(p)
    c = charge(b, s)
    cc = charge(conjugate_beta(b), s)
    assert all(cc[i] == -c[(-1 - i) % s] for i in range(s))


@given(partitions, st.integers(min_value=1, max_value=5))
def test_core_commutes_with_conjugation(p, s):
    assert t_core(p.conjugate(), s) == t_core(p, s).conjugate()


def test_conjugate_s_set_reflection_and_symmetry():
    rng = random.Random(11)
    for s in range(1, 7):
        for _ in range(30):
            p = random_s_core(s, rng)
            a = a_coords(p, s)
            ac = a_coords(p.conjugate(), s)
            assert all(ac.a[i] == s - 1 - a.a[(-1 - i) % s] for i in range(s))
            symmetric = frozenset(a.a) == frozenset(s - 1 - x for x in a.a)
            assert symmetric == (p == p.conjugate())


def test_t_core_of_s_core_is_still_s_core():
    rng = random.Random(13)
    for s in range(1, 7):
        for t in range(1, 7):
            for _ in range(10):
                p = random_s_core(s, rng, bound=10 * t)
                q = t_core(p, t)
                assert is_s_core(beta_from_partition(q), s)


def _s_set_residues(p, s, t):
    from collections import Counter

    from stcores import s_set_of

    return Counter(x % t for x in s_set_of(p, s))


def test_same_t_core_iff_same_s_set_residues():
    # the s-set residues mod t pin down the t-core exactly (coprime s, t)
    rng = random.Random(23)
    for s, t in [(2, 3), (3, 4), (4, 5), (5, 6), (5, 2)]:
        for _ in range(25):
            p, q = random_s_core(s, rng), random_s_core(s, rng)
            same_residues = _s_set_residues(p, s, t) == _s_set_residues(q, s, t)
            assert same_residues == (t_core(p, t) == t_core(q, t))
            # a core and its own t-core always match
            assert _s_set_residues(p, s, t) == _s_set_residues(t_core(p, t), s, t)


class _CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.randint_calls = 0

    def randint(self, a, b):
        self.randint_calls += 1
        return super().randint(a, b)


def test_random_s_core_draws_all_but_one_entry():
    rng = _CountingRandom(3)
    for _ in range(1000):
        random_s_core(6, rng)
    assert rng.randint_calls < 20_000, rng.randint_calls


def test_random_s_core_is_uniform_on_zero_sum_charges():
    from collections import Counter

    rng = random.Random(29)
    seen = Counter(charge(beta_from_partition(random_s_core(3, rng, bound=1)), 3) for _ in range(7000))
    assert len(seen) == 7 and all(sum(c) == 0 for c in seen)
    assert all(800 <= n <= 1200 for n in seen.values()), seen


def test_random_s_core_takes_bound_0_and_rejects_a_negative_bound():
    for s in (1, 3):
        assert random_s_core(s, random.Random(0), bound=0) == Partition()
        with pytest.raises(ValueError, match="bound"):
            random_s_core(s, random.Random(0), bound=-1)
