import copy
import functools
import gc
import math
import operator
import pickle
from fractions import Fraction

import pytest

import stcores.betaset
import stcores.coords
import stcores.enumeration
import stcores.formulas
import stcores.oracle
import stcores.stats
from stcores import (
    BetaSet,
    CapExceededError,
    IdentityReport,
    InvalidSSetError,
    Partition,
    TooLargeError,
    UTuple,
    VerifyReport,
    brute_st_cores,
    brute_stab_count,
    count_sc,
    count_st,
    enum_partitions_up_to,
    iter_st_cores,
    iter_triple_sym,
    moment_sum,
    motzkin_number,
    run_verify_suite,
    s_set_of,
)
from stcores.oracle import PARTITION_CAP, _oracle_witness, _removal_witness, enumerated_moment_sums


def test_enum_partitions_counts():
    assert [p.parts for p in enum_partitions_up_to(0)] == [()]
    assert sum(1 for _ in enum_partitions_up_to(3)) == 7  # p(0..3) = 1,1,2,3
    assert sum(1 for _ in enum_partitions_up_to(10)) == 139
    with pytest.raises(CapExceededError):
        enum_partitions_up_to(41)
    enum_partitions_up_to(PARTITION_CAP)  # the cap itself is allowed


def test_partition_cap_and_verify_seed_are_constants():
    with pytest.raises(TypeError):
        enum_partitions_up_to(5, 10)
    with pytest.raises(TypeError):
        brute_st_cores({2, 3}, 5, 10)
    with pytest.raises(TypeError):
        run_verify_suite(1, 1, 2, seed=1)


def test_enum_partitions_each_exactly_once():
    seen = list(enum_partitions_up_to(8))
    assert len(seen) == len(set(seen))
    assert all(p.size <= 8 for p in seen)


def test_brute_st_cores_examples():
    assert {p for p in brute_st_cores({2, 3}, 5)} == {Partition(), Partition([1])}
    # no partition of size <= 2 can reach a hook of 4
    assert len(brute_st_cores({4}, 2)) == 4
    sym = {r.partition for r in iter_triple_sym(2, 1)}
    bound = max(p.size for p in sym) if sym else 0
    assert set(brute_st_cores({2, 3, 4}, bound)) == sym


def test_s_set_of_examples():
    assert s_set_of(Partition(), 2) == frozenset({0, 1})
    assert s_set_of(Partition([1]), 2) == frozenset({2, -1})
    # (B+s)\B has s elements exactly on s-cores
    assert len(s_set_of(Partition([5, 5]), 4)) == 4 + 2  # two rim 4-hooks


def test_brute_stab_count_examples():
    assert brute_stab_count({0, 1}, 3, 2) == 1
    assert brute_stab_count({2, -1}, 3, 2) == 2
    # t = 1 collapses every residue: s! in general, 2^(s//2) * (s//2)! symmetric
    sset = s_set_of(Partition(), 4)
    assert brute_stab_count(sset, 1, 4) == math.factorial(4)
    assert brute_stab_count(sset, 1, 4, self_conjugate=True) == 2**2 * math.factorial(2)


def test_brute_stab_count_guards():
    with pytest.raises(TooLargeError):
        brute_stab_count(set(range(9)), 2, 9)
    with pytest.raises(InvalidSSetError):
        brute_stab_count({0, 4}, 3, 2)  # wrong sum
    with pytest.raises(InvalidSSetError):
        brute_stab_count({6, -2, -1}, 2, 3, self_conjugate=True)  # not symmetric
    for sset, t, s in (({0, 1, 2}, 0, 3), ({0, 1, 2}, -3, 3), (set(), 1, 0)):
        with pytest.raises(ValueError, match=f"^moduli must be >= 1, got s={s} and t={t}$"):
            brute_stab_count(sset, t, s)


def test_motzkin_numbers():
    assert [motzkin_number(n) for n in range(8)] == [1, 1, 2, 4, 9, 21, 51, 127]
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        motzkin_number(-1)


def test_stab_formula_matches_brute_on_all_small_pairs():
    from stcores import iter_sc_st_cores, stab_size, stab_size_sc, z_to_u

    for s in range(1, 9):
        for t in range(1, 9):
            if s + t > 9 or math.gcd(s, t) != 1:
                continue
            for rec in iter_st_cores(s, t):
                sset = s_set_of(rec.partition, s)
                assert stab_size(rec.z) == brute_stab_count(sset, t, s)
            for rec in iter_sc_st_cores(s, t):
                sset = s_set_of(rec.partition, s)
                assert stab_size_sc(z_to_u(rec.z)) == brute_stab_count(
                    sset, t, s, self_conjugate=True
                )


def test_enumerated_moment_sums_match_the_dp():
    for s, t in [(4, 5), (5, 4), (3, 8), (7, 2)]:
        for weighted in (False, True):
            for sc in (False, True):
                want = [moment_sum(s, t, e, weighted, sc) for e in range(4)]
                assert enumerated_moment_sums(s, t, 3, weighted, sc) == want, (s, t, weighted, sc)


def test_moment_sums_and_their_reference_share_one_weight_denominator(monkeypatch):
    denominator = stcores.stats._weight_denominator
    assert (denominator(5, False), denominator(5, True)) == (120, 8)  # 5!, 2! * 2^2
    seen = []

    def spy(s, self_conjugate):
        seen.append((s, self_conjugate))
        return denominator(s, self_conjugate)

    monkeypatch.setattr(stcores.stats, "_weight_denominator", spy)
    for sc in (False, True):
        assert enumerated_moment_sums(5, 4, 1, True, sc) == [moment_sum(5, 4, e, True, sc) for e in range(2)]
    assert seen == [(5, False)] * 3 + [(5, True)] * 3


def test_rim_removal_memo_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for t in range(2, 6):
            memo = {}
            for p in enum_partitions_up_to(12):
                assert _removal_witness(p, t, memo) is None
        del memo, p
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_run_verify_suite_trivial_scale():
    reports = list(run_verify_suite(1, 1, 4))
    assert reports and all(r.passed for r in reports)
    assert all(r.witness is None for r in reports)


# (check, cases checked) of run_verify_suite(3, 3, 8, trials=10), in order
SUITE_SHAPE = [
    ("conjugate-involution", 67),
    ("hook-multiset-conjugation-invariant", 67),
    ("diagram-core-kills-divisible-hooks", 201),
    ("rim-removal-order-independence", 134),
    ("beta-round-trip", 67),
    ("hook-count-matches-beta-difference", 201),
    ("push-preserves-charge-and-idempotent", 201),
    ("diagram-vs-abacus-core", 201),
    ("charge-to-a-translation", 30),
    ("conjugate-charge-negation", 201),
    ("core-commutes-with-conjugation", 201),
    ("conjugate-s-set-reflection", 30),
    ("t-core-preserves-s-core", 18),
    ("s-set-t-set-interaction", 18),
    ("faithful-invariant", 14),
    ("a-z-round-trip", 35),
    ("z-u-round-trip", 35),
    ("st-core-iff-z-nonnegative", 35),
    ("z-counts-s-set-residues", 35),
    ("self-conjugacy-transfer", 35),
    ("count-closed-forms", 7),
    ("cyclic-orbit-unique-representative", 18),
    ("sc-enumeration-is-symmetric-subset", 7),
    ("triple-enumerations-agree", 11),
    ("motzkin-column", 6),
    ("average-size-unweighted-general", 7),
    ("average-size-unweighted-sc", 7),
    ("average-size-weighted-general", 7),
    ("average-size-weighted-sc", 7),
    ("weighted-average-asymmetry", 1),
    ("stabilizer-formula-vs-brute", 18),
    ("size-formulas-triple-agreement", 9),
    ("oracle-enumeration-equivalence", 1),
    ("cyclic-sum-identities", 54),
]


def test_run_verify_suite_small_scale():
    reports = list(run_verify_suite(3, 3, 8, trials=10))
    assert reports and all(r.passed for r in reports), [
        (r.check, r.witness) for r in reports if not r.passed
    ]
    assert [(r.check, r.counts["checked"]) for r in reports] == SUITE_SHAPE


@pytest.mark.parametrize("bounds, checked", [((2, 3, 6), 0), ((3, 2, 6), 0), ((3, 3, 6), 1)])
def test_asymmetry_check_has_no_case_outside_its_range(bounds, checked):
    rep = {r.check: r for r in run_verify_suite(*bounds, trials=4)}["weighted-average-asymmetry"]
    assert rep.passed and rep.counts["checked"] == checked


@pytest.mark.parametrize("s, t, largest", [(2, 3, 1), (2, 5, 3), (3, 4, 5), (3, 5, 8), (4, 5, 15)])
def test_each_oracle_pair_has_one_largest_core_of_the_olsson_stanton_size(s, t, largest):
    sizes = sorted(r.size for r in iter_st_cores(s, t))
    assert sizes[-1] == largest == (s * s - 1) * (t * t - 1) // 24 and sizes.count(largest) == 1
    assert _oracle_witness(s, t) is None


@pytest.mark.parametrize("s_max, t_max", [(2, 3), (5, 6)])
def test_pair_ranged_checks_run_every_pair_their_caps_allow(s_max, t_max):
    reports = {r.check: r for r in run_verify_suite(s_max, t_max, 4, trials=4)}
    pairs = [(s, t) for s in range(1, s_max + 1) for t in range(1, t_max + 1) if math.gcd(s, t) == 1]
    # every core of both families, over the pairs with s + t <= 9
    cores = sum(count_st(s, t) + count_sc(s, t) for s, t in pairs if s + t <= 9)
    assert reports["stabilizer-formula-vs-brute"].counts == {"checked": cores}
    reference = [pair for pair in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)] if pair in pairs]
    rep = reports["oracle-enumeration-equivalence"]
    assert rep.params == {"pairs_run": len(reference)} and rep.counts == {"checked": len(reference)}


@pytest.mark.parametrize(
    "bounds, name",
    [((0, 3, 8), "s_max"), ((-1, 3, 8), "s_max"), ((0, 0, 0), "s_max"), ((3, 0, 8), "t_max")],
    ids=["s_max=0", "s_max=-1", "all-zero", "t_max=0"],
)
def test_run_verify_suite_rejects_bounds_below_1(bounds, name):
    with pytest.raises(ValueError, match=name):
        run_verify_suite(*bounds)


def _flip_gap_sign(orig):
    return lambda b: BetaSet(members=(-g for g in b.gaps), gaps=(-1 - m for m in b.members))


def _reverse_u(orig):
    def z_to_u(z):
        u = orig(z)
        return UTuple(u.t, u.s, u.u[::-1])

    return z_to_u


def _bead_walk(is_bead, a):
    """partition_from_a with the bead test ``is_bead(x, a_{x mod t})``."""
    t, av = a.t, a.a
    beads = [x for x in range(max(av) - t, min(av), -1) if is_bead(x, av[x % t])]
    return Partition(x + i for i, x in enumerate(beads, start=1))


def test_bead_walk_with_the_library_test_is_partition_from_a():
    for t in range(1, 8):
        for rec in (r for s in range(1, 9) if math.gcd(s, t) == 1 for r in iter_st_cores(s, t)):
            assert _bead_walk(operator.lt, rec.a) == stcores.betaset.partition_from_a(rec.a)


def _misplace_a(orig):
    """The z -> a step moved to a valid but wrong a: a_0 + t and a_1 - t keep
    every residue and the sum, so the leaf guards pass."""

    def step(layout, prefix, S):
        x, a = orig(layout, prefix, S)
        t = len(a)
        return (x, (a[0] + t, a[1] - t, *a[2:])) if t >= 2 else (x, a)

    return step


def _layout_of_k_plus_1(orig):
    """The layout of k + 1: level l moves from a-index i to i + 1 mod t."""

    def _a_layout(s, t):
        layout = orig(s, t)
        return layout[-1:] + layout[:-1]

    return _a_layout


def _negate_charge(orig):
    def charge(b, s):
        return tuple(-v for v in orig(b, s))

    return charge


def _drop_negative_elements(orig):
    def s_set(b, s):
        return frozenset(x for x in orig(b, s) if x >= 0)

    return s_set


def _drop_largest_core(orig):
    def iter_st_cores(s, t):
        records = list(orig(s, t))
        largest = max(r.size for r in records)
        return (r for r in records if r.size < largest)

    return iter_st_cores


# (module, attribute, make the faulty replacement from the original,
#  check that must fail, start of its witness).  A fault whose witness
#  starts with an exception name makes a library call raise; the runner
#  turns that into the check's failure.
FAULTS = {
    "conjugate_beta-gap-sign": (stcores.betaset, "conjugate_beta", _flip_gap_sign, "conjugate-charge-negation", "p="),
    "z_to_u-reversed": (stcores.coords, "z_to_u", _reverse_u, "z-u-round-trip", "u="),
    "stab_size-constant": (stcores.coords, "stab_size", lambda orig: lambda z: 1, "stabilizer-formula-vs-brute", "(s,t)="),
    "stab_size-constant-weights": (
        stcores.coords,
        "stab_size",
        lambda orig: lambda z: 1,
        "average-size-weighted-general",
        "(s,t)=",
    ),
    "stab_size_sc-constant": (stcores.coords, "stab_size_sc", lambda orig: lambda u: 1, "average-size-weighted-sc", "(s,t)="),
    # The records' size, 24t |core| from the prefix sums, one core too large.
    "record-size-plus-1": (
        stcores.enumeration,
        "_scaled_size",
        lambda orig: lambda t, S, g: orig(t, S, g) + 24 * t,
        "size-formulas-triple-agreement",
        "(s,t)=",
    ),
    # partition_from_a counts the positions x = a_{x mod t} as beads too.
    "partition_from_a-bead-test-le": (
        stcores.betaset,
        "partition_from_a",
        lambda orig: functools.partial(_bead_walk, operator.le),
        "diagram-vs-abacus-core",
        "p=",
    ),
    "charge-negated": (stcores.betaset, "charge", _negate_charge, "charge-to-a-translation", "p="),
    # The one reading of the encoding for set operations loses the gaps g
    # of (B + s) \ B, and hook_count, which counts it, with them.
    "s_set-negative-dropped": (
        stcores.betaset,
        "s_set",
        _drop_negative_elements,
        "hook-count-matches-beta-difference",
        "p=",
    ),
    "shift_constant-plus-1": (
        stcores.coords,
        "shift_constant",
        lambda orig: lambda s, t: orig(s, t) + 1,
        "a-z-round-trip",
        "InvalidZError: ",
    ),
    # The a-index layout of k + 1 in place of k, in z_to_a and the records
    # alike: the records' a-coordinates one step off their residues, caught
    # by the leaf guard of the records, before any count is compared.
    "a_layout-k-plus-1": (
        stcores.coords,
        "_a_layout",
        _layout_of_k_plus_1,
        "count-closed-forms",
        "InvariantError: ",
    ),
    "dp-x-off-by-one": (
        stcores.stats,
        "_x",
        lambda orig: lambda s, t, l, p: orig(s, t, l + 1, p),
        "average-size-unweighted-general",
        "(s,t)=",
    ),
    # The DP sums every composition; without the division by t it returns t
    # times each moment, which leaves the averages unchanged (the cyclic-orbit
    # lemma), so only the mass comparison sees it.
    "dp-orbit-division-dropped": (
        stcores.stats,
        "_general_sums",
        lambda orig: lambda s, t, e, weighted: (orig(s, t, e, weighted)[0], 1),
        "average-size-unweighted-general",
        "(s,t)=",
    ),
    # The one z -> a step, wrong alike in z_to_a and the records, so that
    # comparing the two cannot see it; a_to_z, which reads differences of a, does.
    "a_from_prefix-valid-but-wrong": (
        stcores.coords,
        "_a_from_prefix",
        _misplace_a,
        "size-formulas-triple-agreement",
        "(s,t)=",
    ),
    # The brute force up to the Olsson-Stanton size (s^2-1)(t^2-1)/24 finds
    # the core the enumeration lost.
    "iter_st_cores-largest-dropped": (
        stcores.enumeration,
        "iter_st_cores",
        _drop_largest_core,
        "oracle-enumeration-equivalence",
        "(s,t)=",
    ),
    "t_core-identity": (
        stcores.betaset,
        "t_core",
        lambda orig: lambda p, t: p,
        "s-set-t-set-interaction",
        "NotACoreError: ",
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_injected_fault_is_caught_with_witness(monkeypatch, fault):
    module, name, make, check, witness_start = FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    reports = run_verify_suite(4, 5, 12, trials=10)
    assert [r.check for r in reports] == [shape[0] for shape in SUITE_SHAPE]
    failed = {r.check: r.witness for r in reports if not r.passed}
    assert check in failed, sorted(failed)
    assert failed[check].startswith(witness_start), failed[check]


def test_report_json_shape():
    rep = next(iter(run_verify_suite(1, 1, 2)))
    assert set(rep.to_json_dict()) == {"check", "params", "pass", "witness"}


@pytest.mark.parametrize("make, different, text", [
    (lambda: IdentityReport("c", {"s": 2}, Fraction(1, 2), Fraction(1, 2)),
     IdentityReport("c", {"s": 2}, Fraction(1, 2), Fraction(1)),
     "IdentityReport(name='c', params={'s': 2}, lhs=Fraction(1, 2), rhs=Fraction(1, 2))"),
    (lambda: VerifyReport("c", {"s": 2}, None, {"checked": 3}), VerifyReport("c", {"s": 2}, None, {"checked": 4}),
     "VerifyReport(check='c', params={'s': 2}, witness=None, counts={'checked': 3})"),
], ids=["IdentityReport", "VerifyReport"])
def test_reports_compare_and_show_their_fields_refuse_assignment_and_copy_whole(make, different, text):
    # Each differs from its `different` in its last field only.  A report
    # holds its params as a dict, so it is compared but never hashed.
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert x != different and not x == different
    assert repr(x) == text
    for name in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(different, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y and repr(x) == text
    assert copy.copy(x) == x and copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    assert type(x)._unchecked(*x.__getstate__()) == x


def test_report_passes_exactly_without_a_witness():
    assert VerifyReport.__slots__ == ("check", "params", "witness", "counts")
    ok, bad = VerifyReport("c", {}, None, {"checked": 3}), VerifyReport("c", {}, "w", {"checked": 1})
    assert (ok.passed, bad.passed) == (True, False)
    assert ok.to_json_dict() == {"check": "c", "params": {}, "pass": True, "witness": None}
    assert bad.to_json_dict() == {"check": "c", "params": {}, "pass": False, "witness": "w"}
