import copy
import pickle

import pytest
from hypothesis import given, strategies as st

import stcores.partition
from stcores import ATuple, BetaSet, InvalidZError, NonMonotoneError, OutOfDiagramError, Partition, UTuple, ZTuple

partitions = st.lists(st.integers(min_value=1, max_value=10), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_constructor_strips_trailing_zeros():
    assert Partition([]).parts == ()
    assert Partition([0, 0]).parts == ()
    assert Partition([3, 2, 2, 0, 0]).parts == (3, 2, 2)
    assert Partition(v for v in (4, 1, 0)).parts == (4, 1)


def test_constructor_rejects_increasing():
    with pytest.raises(NonMonotoneError, match="parts increase at index 1: 2 < 3"):
        Partition([2, 3])
    with pytest.raises(NonMonotoneError, match="parts increase at index 1: 1 < 2"):
        Partition([1, 2])
    with pytest.raises(NonMonotoneError, match="parts increase at index 2: 2 < 3"):
        Partition([2, 2, 3])
    with pytest.raises(NonMonotoneError, match="part 2 is 0, expected"):
        Partition([3, 0, 2])
    with pytest.raises(NonMonotoneError):
        Partition([3, -1])


@pytest.mark.parametrize("make, error, message", [
    (lambda: Partition([2, 1.5]), NonMonotoneError, "part 2 is 1.5, expected a positive integer"),
    (lambda: Partition([True]), NonMonotoneError, "part 1 is True, expected a positive integer"),
    # trailing zeros are dropped, but they must be ints too
    (lambda: Partition([1, 0, 0.0]), NonMonotoneError, "part 3 is 0.0, expected a positive integer"),
    (lambda: Partition(["a"]), NonMonotoneError, "part 1 is 'a', expected a positive integer"),
    (lambda: BetaSet([1.5], [-1]), ValueError, r"members\[0\] = 1.5 is not an integer"),
    # checked before the set, which would merge True into 1
    (lambda: BetaSet([1, True]), ValueError, r"members\[1\] = True is not an integer"),
    (lambda: BetaSet([0], [-1.0]), ValueError, r"gaps\[0\] = -1.0 is not an integer"),
    (lambda: ATuple((0.0, 1)), ValueError, r"a\[0\] = 0.0 is not an integer"),
    (lambda: ZTuple((1.0, 0)), InvalidZError, r"z\[0\] = 1.0 is not an integer"),
    (lambda: UTuple(3, 2, (0, False)), InvalidZError, r"u\[1\] = False is not an integer"),
    (lambda: UTuple(3, 2, (1.0, 0)), InvalidZError, r"u\[0\] = 1.0 is not an integer"),
], ids=["Partition-float", "Partition-bool", "Partition-trailing-float", "Partition-str", "BetaSet-float",
        "BetaSet-bool", "BetaSet-gap", "ATuple", "ZTuple", "UTuple-bool", "UTuple-float"])
def test_value_classes_refuse_entries_that_are_not_ints(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


def test_only_an_invalid_partition_enters_the_loop_that_names_its_fault(monkeypatch):
    entered = []
    monkeypatch.setattr(stcores.partition, "enumerate", lambda ps: entered.append(ps) or enumerate(ps), raising=False)
    assert Partition((3, 1)).parts == (3, 1) and entered == []
    with pytest.raises(NonMonotoneError):
        Partition((1, 3))
    assert entered == [(1, 3)]
    # the other value classes check their int entries without the loop too
    BetaSet([1], [-1])
    ATuple((0, 1))
    ZTuple((1, 0))
    UTuple(3, 2, (0, 1))
    assert entered == [(1, 3)]


def test_conjugate_examples():
    assert Partition().conjugate() == Partition()
    assert Partition([3, 2, 2]).conjugate().parts == (3, 3, 1)
    assert Partition([5, 5]).conjugate().parts == (2, 2, 2, 2, 2)


@given(partitions)
def test_conjugate_is_involution(p):
    assert p.conjugate().conjugate() == p


@given(partitions)
def test_conjugate_preserves_hook_multiset(p):
    assert sorted(p.hook_lengths()) == sorted(p.conjugate().hook_lengths())


def test_hook_length_examples():
    assert Partition([5, 5]).hook_length(1, 3) == 4
    assert Partition([1]).hook_length(1, 1) == 1
    assert Partition([3, 2, 2]).hook_length(1, 1) == 5


def test_hook_length_outside_diagram():
    with pytest.raises(OutOfDiagramError):
        Partition([3, 2, 2]).hook_length(1, 4)
    with pytest.raises(OutOfDiagramError):
        Partition([3, 2, 2]).hook_length(4, 1)


def test_remove_rim_hook_chain_from_figure():
    # (5,5): strip the rim 4-hook at (1,3), then the remaining one at (1,2)
    step1 = Partition([5, 5]).remove_rim_hook(1, 3)
    assert step1.parts == (4, 2)
    assert step1.remove_rim_hook(1, 2).parts == (1, 1)


def test_remove_rim_hook_at_corner_cell():
    # (1,1) of (4,2) carries the rim 5-hook, not the 4-hook
    assert Partition([4, 2]).hook_length(1, 1) == 5
    assert Partition([4, 2]).remove_rim_hook(1, 1).parts == (1,)


def test_remove_rim_hook_single_cell():
    assert Partition([1]).remove_rim_hook(1, 1) == Partition()


@given(partitions, st.data())
def test_remove_rim_hook_drops_size_by_hook_length(p, data):
    if not len(p):
        return
    cells = list(p.cells())
    r, c = data.draw(st.sampled_from(cells))
    smaller = p.remove_rim_hook(r, c)
    assert smaller.size == p.size - p.hook_length(r, c)


def test_t_core_by_diagram_examples():
    assert Partition([5, 5]).t_core_by_diagram(4).parts == (1, 1)
    assert Partition().t_core_by_diagram(7) == Partition()
    assert Partition([3, 2, 2]).t_core_by_diagram(1) == Partition()


@given(partitions, st.integers(min_value=1, max_value=6))
def test_t_core_by_diagram_kills_divisible_hooks(p, t):
    core = p.t_core_by_diagram(t)
    assert all(h % t for h in core.hook_lengths())


def test_serialization():
    assert Partition([3, 2, 2]).to_json() == [3, 2, 2]
    assert Partition().to_json() == []


def test_ordering_and_hash():
    a, b = Partition([2, 1]), Partition([2, 1])
    assert a == b and hash(a) == hash(b) and not a < b
    assert Partition([1]) < Partition([2]) < Partition([2, 1])
    # a Partition orders only against a Partition
    with pytest.raises(TypeError):
        Partition([1]) < 5


def test_a_partition_in_a_set_cannot_be_changed_and_copies_whole():
    p = Partition([2, 1])
    seen = {p}
    for name in ("parts", "_parts"):
        with pytest.raises(AttributeError):
            setattr(p, name, (3,))
    assert Partition([2, 1]) in seen and Partition([3]) not in seen
    # one field: the copies must not take its tuple apart
    assert copy.copy(p).parts == pickle.loads(pickle.dumps(p)).parts == (2, 1)
