import itertools
import math
import random
from fractions import Fraction

import pytest

import stcores.formulas
import stcores.stats
from stcores import (
    ATuple,
    InvariantError,
    NegativeEntryError,
    NonzeroChargeError,
    NotCoprimeError,
    Partition,
    UTuple,
    ZTuple,
    attach_stabilizers,
    average_size,
    beta_from_partition,
    canonical_cyclic_rep,
    charge,
    check_average,
    count_sc,
    count_st,
    expected_average,
    iter_sc_st_cores,
    iter_st_cores,
    iter_weak_compositions,
    moment_sum,
    random_s_core,
    size_from_a,
    size_from_c,
    stab_size,
    stab_size_sc,
    verify_cyclic_sum_identities,
    z_to_u,
)
from stcores.formulas import multinomial


def test_size_from_a_examples():
    assert size_from_a(ATuple(3, (0, 1, 2))) == 0
    assert size_from_a(ATuple(3, (3, 1, -1))) == 1


def test_size_from_a_rejects_corrupted_coordinates():
    # bypass ATuple validation: the entries sum to 6, not t(t-1)/2 = 3
    with pytest.raises(InvariantError):
        size_from_a(ATuple._unchecked(3, (0, 1, 5)))


def test_size_from_a_cross_check_on_enumeration():
    for rec in iter_st_cores(4, 5):
        assert size_from_a(rec.a) == rec.partition.size


def test_size_from_c_examples():
    assert size_from_c((0, 0, 0, 0)) == 0
    c = charge(beta_from_partition(Partition([1, 1])), 4)
    assert type(c) is tuple and c == (0, 1, 0, -1)
    assert size_from_c(c) == 2


def test_size_from_c_rejects_nonzero_charge():
    with pytest.raises(NonzeroChargeError):
        size_from_c((1, 0, 0))
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        size_from_c(())


def test_size_from_c_is_size_from_a_on_every_small_zero_sum_charge():
    from stcores.betaset import a_from_charge

    for t in range(1, 5):
        for c in itertools.product(range(-2, 3), repeat=t):
            if sum(c) == 0:
                assert size_from_c(c) == size_from_a(a_from_charge(c)), c


def test_size_formulas_triple_agree_on_random_cores():
    rng = random.Random(3)
    for t in range(1, 7):
        for _ in range(80):
            p = random_s_core(t, rng)
            from stcores import a_coords

            assert (
                size_from_a(a_coords(p, t))
                == size_from_c(charge(beta_from_partition(p), t))
                == p.size
            )


def test_stab_size_examples():
    assert stab_size(ZTuple(3, 2, (0, 1, 1))) == 1
    assert stab_size(ZTuple(3, 2, (2, 0, 0))) == 2
    assert stab_size(ZTuple(4, 5, (5, 0, 0, 0))) == math.factorial(5)


def test_stab_size_rejects_negative_entries():
    with pytest.raises(NegativeEntryError):
        stab_size(ZTuple(3, 2, (-1, 0, 3)))


def test_stab_size_sc_examples():
    assert stab_size_sc(UTuple(3, 2, (0, 1))) == 1
    assert stab_size_sc(UTuple(2, 3, (0, 1))) == 2
    assert stab_size_sc(UTuple(2, 3, (1, 0))) == 2


def test_stab_size_sc_rejects_negative_entries():
    with pytest.raises(NegativeEntryError):
        stab_size_sc(UTuple(3, 4, (3, -1)))


def test_attach_stabilizers():
    recs = attach_stabilizers(iter_st_cores(2, 3))
    assert [r.stab for r in recs] == [1, 2]
    sc = attach_stabilizers(iter_sc_st_cores(3, 2), self_conjugate=True)
    assert sorted(r.stab for r in sc) == [2, 2]


def test_attach_stabilizers_is_lazy():
    def records():
        yield from iter_st_cores(2, 3)
        raise RuntimeError("read past the records")

    stream = attach_stabilizers(records())
    assert [next(stream).stab, next(stream).stab] == [1, 2]
    with pytest.raises(RuntimeError):
        next(stream)


def test_average_size_examples():
    assert average_size(2, 3) == Fraction(1, 2)
    assert average_size(2, 3, weighted=True) == Fraction(1, 3)
    assert average_size(3, 2, weighted=True, self_conjugate=True) == Fraction(1, 2)
    assert average_size(3, 4, weighted=True) == Fraction(5, 4)


def test_average_size_matches_closed_forms_to_sum_24():
    # s + t = 24 has up to 104,006 general cores per pair; the DP visits none
    for s in range(1, 24):
        for t in range(1, 25 - s):
            if math.gcd(s, t) != 1:
                continue
            for weighted in (False, True):
                for sc in (False, True):
                    rep = check_average(s, t, weighted, sc)
                    assert rep.passed, (s, t, weighted, sc, rep.lhs, rep.rhs)


def test_zeroth_moment_is_the_count_beyond_enumeration():
    for s, t in [(19, 20), (20, 19), (13, 14), (40, 41), (41, 40)]:
        assert moment_sum(s, t, 0) == count_st(s, t)
        assert moment_sum(s, t, 0, self_conjugate=True) == count_sc(s, t)


def test_weighted_masses_are_closed_forms_beyond_enumeration():
    # sum of 1/stab: t^(s-1)/s! over the (s,t)-cores, t^s'/(s'! 2^s') with
    # s' = floor(s/2) over the self-conjugate ones
    pairs = [(s, t) for s in range(1, 40) for t in range(1, 41 - s) if math.gcd(s, t) == 1]
    for s, t in pairs:
        sp = s // 2
        assert moment_sum(s, t, 0, weighted=True) == Fraction(t ** (s - 1), math.factorial(s)), (s, t)
        assert moment_sum(s, t, 0, True, True) == Fraction(t**sp, math.factorial(sp) << sp), (s, t)
    assert len(pairs) == 489


def test_rotations_share_size_form_and_weight_and_hold_one_core():
    # The cyclic-orbit lemma behind the DP, which sums every composition and
    # divides by t: on each weak composition z, not only on cores, the size
    # form 24t |core| of the prefix sums and the weight s!/prod z_j! are the
    # same for all t rotations, and exactly one rotation is a core.
    seen = 0
    for s in range(1, 9):
        for t in range(1, 9):
            if math.gcd(s, t) != 1:
                continue
            for z in iter_weak_compositions(s, t):
                rotations = [z[r:] + z[:r] for r in range(t)]
                forms, weights, cores = set(), set(), []
                for r, y in enumerate(rotations):
                    prefix = list(itertools.accumulate(y, initial=0))[:t]
                    g = sum(stcores.formulas._x(s, t, l, p) ** 2 for l, p in enumerate(prefix))
                    forms.add(stcores.formulas._scaled_size(t, sum(prefix), g))
                    weights.add(multinomial(s, y))
                    if sum(j * v for j, v in enumerate(y)) % t == 0:
                        cores.append(r)
                assert len(forms) == len(weights) == 1, (s, t, z)
                assert cores == [canonical_cyclic_rep(z)], (s, t, z)
                seen += 1
    assert seen == 11634


def test_start_cells_hold_g_a_s_b_for_2a_plus_b_at_most_2e():
    cells = stcores.stats._cells
    assert [len(row) for row in cells(5, 7, 3)] == [7, 5, 3, 1]
    assert cells(2, 3, 1) == [[1, 3, 9], [2]]
    assert cells(4, 0, 1) == [[1, 0, 0], [4]]  # S = 0 with 0**0 == 1, as _general_sums starts


def test_a_sum_over_compositions_not_divisible_by_t_raises(monkeypatch):
    general = stcores.stats._general_sums
    assert general(2, 3, 0, False) == ([[6]], 3)  # 3 rotations of each of the 2 cores

    def one_more(s, t, e, weighted):
        sums, orbit = general(s, t, e, weighted)
        sums[0][0] += 1
        return sums, orbit

    monkeypatch.setattr(stcores.stats, "_general_sums", one_more)
    with pytest.raises(InvariantError, match="7, is not a multiple of 3"):
        moment_sum(2, 3, 0)


def test_unweighted_variance_is_the_ekhad_zeilberger_closed_form():
    # Var |core| = st(s-1)(t-1)(s+t)(s+t+1)/1440 over the (s,t)-cores
    # (Ekhad and Zeilberger, arXiv:1508.07637), from one DP run to e = 2.
    pairs = [(s, t) for s in range(1, 24) for t in range(1, 25 - s) if math.gcd(s, t) == 1]
    for s, t in pairs:
        m0, m1, m2 = stcores.stats._scaled_moments(s, t, 2, False, False)
        variance = (Fraction(m2, m0) - Fraction(m1, m0) ** 2) / (24 * t) ** 2
        assert variance == Fraction(s * t * (s - 1) * (t - 1) * (s + t) * (s + t + 1), 1440), (s, t)
    assert len(pairs) == 179


def test_bad_arguments_raise_before_the_dp(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(stcores.stats, "_path_sums", no_dp)
    for sc in (False, True):
        with pytest.raises(ValueError, match="got 0 and 5"):
            average_size(0, 5, self_conjugate=sc)
        with pytest.raises(NotCoprimeError, match="4 and 6 must be coprime"):
            average_size(4, 6, self_conjugate=sc)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            moment_sum(2, 3, -1, self_conjugate=sc)


def test_a_self_conjugate_moment_is_one_walk(monkeypatch):
    # every u_0 = 0..floor(s/2) starts in the same walk
    walk = stcores.stats._path_sums
    calls = []
    monkeypatch.setattr(stcores.stats, "_path_sums", lambda *args: calls.append(args) or walk(*args))
    for s, t, weighted in [(9, 10, True), (10, 9, False), (15, 16, True), (7, 1, True), (1, 2, False)]:
        calls.clear()
        moment_sum(s, t, 2, weighted, self_conjugate=True)
        assert len(calls) == 1, (s, t)


def test_expected_average_parity_split():
    assert expected_average(3, 2, weighted=True, self_conjugate=True) == Fraction(
        (3 - 1) * (4 + 2), 24
    )
    assert expected_average(2, 3, weighted=True, self_conjugate=True) == Fraction(
        (2 - 1) * (9 - 1), 24
    )


def test_closed_forms_name_bad_moduli():
    for f in (expected_average, verify_cyclic_sum_identities):
        with pytest.raises(ValueError, match="got 0 and 5"):
            f(0, 5)
        with pytest.raises(NotCoprimeError, match="2 and 4 must be coprime"):
            f(2, 4)


def test_unweighted_average_is_symmetric_weighted_is_not():
    assert average_size(2, 3) == average_size(3, 2)
    assert average_size(2, 3, weighted=True) != average_size(3, 2, weighted=True)


def test_moment_sum_examples():
    from stcores import count_st

    assert moment_sum(2, 3, 0) == count_st(2, 3)
    assert moment_sum(2, 3, 1) == 1
    assert moment_sum(2, 3, 2) == 1
    assert moment_sum(5, 4, 0, self_conjugate=True) == 6  # count of the sc family
    # weighted zeroth moment is the stabilizer-mass, here 1 + 1/2
    assert moment_sum(2, 3, 0, weighted=True) == Fraction(3, 2)
    # first moments divided by zeroth reproduce the averages
    for s, t in [(2, 3), (3, 4), (4, 5)]:
        for weighted in (False, True):
            for sc in (False, True):
                ratio = moment_sum(s, t, 1, weighted, sc) / moment_sum(s, t, 0, weighted, sc)
                assert ratio == average_size(s, t, weighted, sc)


def test_cyclic_sum_identities_spot_values():
    reports = {
        (r.name, r.params.get("r")): r for r in verify_cyclic_sum_identities(2, 3)
    }
    assert reports[("ord-constant", None)].lhs == Fraction(2)
    assert reports[("ord-constant", None)].rhs == Fraction(math.comb(4, 2), 3)
    assert reports[("exp-constant", None)].lhs == Fraction(3)
    assert reports[("exp-constant", None)].rhs == Fraction(9, 3)

    linear34 = next(
        r for r in verify_cyclic_sum_identities(3, 4) if r.name == "ord-linear"
    )
    assert linear34.rhs == Fraction(15, 4)
    assert linear34.passed


def test_cyclic_sum_identities_all_pass_small():
    for s in range(1, 7):
        for t in range(1, 7):
            if math.gcd(s, t) != 1:
                continue
            assert all(r.passed for r in verify_cyclic_sum_identities(s, t))


def test_moment_sum_matches_per_core_fraction_sum():
    for s in range(1, 12):
        for t in range(1, 13 - s):
            if math.gcd(s, t) != 1:
                continue
            general = [(rec.size, stab_size(rec.z)) for rec in iter_st_cores(s, t)]
            sc = [(rec.size, stab_size_sc(z_to_u(rec.z))) for rec in iter_sc_st_cores(s, t)]
            for e in range(4):
                for self_conjugate, rows in ((False, general), (True, sc)):
                    got = moment_sum(s, t, e, weighted=True, self_conjugate=self_conjugate)
                    assert got == sum(Fraction(size**e, stab) for size, stab in rows), (s, t, e)
                    got = moment_sum(s, t, e, self_conjugate=self_conjugate)
                    assert got == sum(size**e for size, _ in rows), (s, t, e)
