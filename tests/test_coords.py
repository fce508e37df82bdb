import itertools
import math
import random

import pytest

from stcores import (
    ATuple,
    InvalidZError,
    InvariantError,
    NotCoprimeError,
    NotSymmetricError,
    Partition,
    UTuple,
    ZTuple,
    a_coords,
    a_to_z,
    beta_from_partition,
    canonical_cyclic_rep,
    is_s_core,
    is_self_conjugate_a,
    is_st_core_a,
    iter_st_cores,
    random_s_core,
    shift_constant,
    u_to_z,
    z_to_a,
    z_to_u,
)

COPRIME_PAIRS_9 = [
    (s, t) for s in range(1, 10) for t in range(1, 10) if math.gcd(s, t) == 1
]


def test_a_to_z_examples():
    assert a_to_z(ATuple(3, (0, 1, 2)), 2).z == (0, 1, 1)  # empty partition
    assert a_to_z(ATuple(3, (3, 1, -1)), 2).z == (2, 0, 0)  # partition (1)


def test_z_to_a_examples():
    assert z_to_a(ZTuple(3, 2, (0, 1, 1))).a == (0, 1, 2)
    assert z_to_a(ZTuple(3, 2, (2, 0, 0))).a == (3, 1, -1)


def test_ztuple_validation():
    with pytest.raises(InvalidZError):
        ZTuple(3, 2, (1, 1, 0))  # sum(j * z_j) = 1 mod 3
    with pytest.raises(InvalidZError):
        ZTuple(3, 2, (1, 1, 1))  # sums to 3, not 2
    with pytest.raises(InvalidZError, match="^expected 3 entries, got 2$"):
        ZTuple(3, 2, (1, 1))
    with pytest.raises(NotCoprimeError):
        ZTuple(4, 2, (0, 2, 0, 0))


def test_shift_constant_is_integral():
    for s, t in COPRIME_PAIRS_9:
        k = shift_constant(s, t)
        assert 2 * k == (s + 1) * (t - 1)


def test_a_z_round_trip_500_random_inputs_per_pair():
    rng = random.Random(42)
    for s, t in COPRIME_PAIRS_9:
        for _ in range(500):
            a = a_coords(random_s_core(t, rng), t)
            assert z_to_a(a_to_z(a, s)) == a


def test_is_st_core_a_examples():
    assert is_st_core_a(ATuple(3, (0, 1, 2)), 2)
    assert is_st_core_a(ATuple(3, (3, 1, -1)), 2)


def test_is_st_core_a_matches_beta_criterion_on_random_4_cores():
    rng = random.Random(17)
    for _ in range(200):
        p = random_s_core(4, rng)
        a = a_coords(p, 4)
        truth = is_s_core(beta_from_partition(p), 3)
        assert is_st_core_a(a, 3) == truth
        assert a_to_z(a, 3).is_nonnegative() == truth


def test_is_self_conjugate_a_examples():
    assert is_self_conjugate_a(ATuple(3, (0, 1, 2)))  # empty
    assert is_self_conjugate_a(ATuple(3, (3, 1, -1)))  # (1)
    assert a_coords(Partition([2]), 3).a == (0, 4, -1)
    assert not is_self_conjugate_a(ATuple(3, (0, 4, -1)))  # (2)' = (1,1)


def test_z_to_u_examples():
    assert z_to_u(ZTuple(3, 2, (0, 1, 1))).u == (0, 1)
    assert z_to_u(ZTuple(2, 3, (1, 2))).u == (0, 1)
    assert z_to_u(ZTuple(2, 3, (3, 0))).u == (1, 0)


def test_z_to_u_rejects_asymmetric():
    with pytest.raises(NotSymmetricError, match=r"^z\[1\] != z\[2\]$"):
        z_to_u(ZTuple(3, 2, (-1, 0, 3)))


def test_z_to_u_folds_every_symmetric_z_in_a_box():
    # For a symmetric z, sum(j * z_j) = 0 (mod t) makes z_{t/2} even for even
    # t, and then sum(z) = s makes z_0 = s (mod 2): every symmetric ZTuple folds.
    for t in range(1, 9):
        folded = 0
        for head in itertools.product(range(-2, 5), repeat=t // 2 + 1):
            z = (*head, *head[1 : (t + 1) // 2][::-1])
            s = sum(z)
            if not 1 <= s <= 8 or math.gcd(s, t) != 1:
                continue
            try:
                zt = ZTuple(t, s, z)
            except InvalidZError:
                continue
            assert u_to_z(z_to_u(zt)) == zt
            folded += 1
        assert folded, t


def test_u_to_z_examples():
    assert u_to_z(UTuple(3, 2, (0, 1))).z == (0, 1, 1)
    assert u_to_z(UTuple(2, 3, (0, 1))).z == (1, 2)
    assert u_to_z(UTuple(2, 3, (1, 0))).z == (3, 0)


def test_utuple_validation():
    with pytest.raises(InvalidZError):
        UTuple(3, 2, (1, 1))  # sums to 2, expected floor(2/2) = 1
    with pytest.raises(InvalidZError, match="^expected 2 entries, got 3$"):
        UTuple(3, 2, (0, 1, 0))
    with pytest.raises(NotCoprimeError):
        UTuple(2, 4, (0, 2))


def test_z_u_round_trip_500_random_inputs_per_pair():
    rng = random.Random(43)
    for s, t in COPRIME_PAIRS_9:
        tp = t // 2
        for _ in range(500):
            tail = [rng.randint(-4, 4) for _ in range(tp)]
            u = UTuple(t, s, (s // 2 - sum(tail), *tail))
            z = u_to_z(u)
            assert all(z.z[i] == z.z[(-i) % t] for i in range(t))
            assert z_to_u(z) == u


def test_self_conjugacy_transfers_between_a_and_z():
    rng = random.Random(44)
    for s, t in COPRIME_PAIRS_9:
        for _ in range(50):
            a = a_coords(random_s_core(t, rng), t)
            z = a_to_z(a, s)
            assert is_self_conjugate_a(a) == all(
                z.z[i] == z.z[(-i) % t] for i in range(t)
            )


def _z_to_a_telescoping(z):
    """Reference O(t^2) inverse: every entry from its own telescoping sum
    a_{k + l*s} = ((t-1) + sum_j ((t-1) - 2j) * z_{j+l}) / 2."""
    t, s, k = z.t, z.s, shift_constant(z.s, z.t)
    a = [0] * t
    for ell in range(t):
        doubled = (t - 1) + sum(((t - 1) - 2 * j) * z.z[(j + ell) % t] for j in range(t))
        assert doubled % 2 == 0
        a[(k + ell * s) % t] = doubled // 2
    return ATuple(t, tuple(a))


COPRIME_PAIRS_14 = [
    (s, t) for s in range(1, 14) for t in range(1, 15 - s) if math.gcd(s, t) == 1
]


def test_z_to_a_matches_telescoping_form_on_every_st_core():
    for s, t in COPRIME_PAIRS_14:
        for rec in iter_st_cores(s, t):
            assert z_to_a(rec.z) == _z_to_a_telescoping(rec.z), (s, t, rec.z.z)


def test_z_to_a_matches_telescoping_form_on_random_general_z():
    rng = random.Random(45)
    for s, t in COPRIME_PAIRS_14:
        for _ in range(200):
            head = [rng.randint(-5, 5) for _ in range(t - 1)]
            x = (*head, s - sum(head))
            r = canonical_cyclic_rep(x)
            z = ZTuple(t, s, x[r:] + x[:r])
            assert z_to_a(z) == _z_to_a_telescoping(z), (s, t, z.z)
            assert a_to_z(z_to_a(z), s) == z


def test_shift_constant_rejects_two_even_moduli():
    with pytest.raises(NotCoprimeError):
        shift_constant(2, 4)


def test_coordinate_changes_reject_corrupted_inputs():
    # a_2 = 3 is not congruent to 2 mod 3, so the division by t is inexact
    with pytest.raises(InvariantError):
        a_to_z(ATuple._unchecked(3, (0, 1, 3)), 2)
    # s = t = 2 is not coprime, so k = (s+1)(t-1)/2 is not an integer
    with pytest.raises(NotCoprimeError):
        z_to_a(ZTuple._unchecked(2, 2, (1, 1)))
