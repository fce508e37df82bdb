import math
from types import SimpleNamespace

import pytest

import stcores.formulas
from stcores import CoreError, InvariantError, NotCoprimeError, count_sc, count_st, count_triple
from stcores.formulas import _require_coprime, multinomial


def test_counts_examples():
    assert count_st(2, 3) == 2
    assert count_st(4, 5) == 14
    assert count_st(3, 4) == 5
    assert count_sc(3, 4) == 3
    assert count_triple(2, 1) == 2
    assert count_triple(3, 1) == 4
    assert count_triple(3, 2) == 6
    with pytest.raises(NotCoprimeError):
        count_st(6, 4)
    with pytest.raises(NotCoprimeError):
        count_sc(6, 4)


def test_count_matches_both_closed_forms():
    for s in range(1, 8):
        for t in range(1, 8):
            if math.gcd(s, t) != 1:
                continue
            n = count_st(s, t)
            assert n == math.comb(s + t, t) // (s + t)
            assert n == math.comb(s + t - 1, t - 1) // t
    for m in range(1, 80):
        for d in range(1, 6):
            if math.gcd(m, d) == 1:
                total = sum(multinomial(m + d, (i, i + d, m - 2 * i)) for i in range(m // 2 + 1))
                assert count_triple(m, d) * (m + d) == total, (m, d)


def test_count_triple_raises_invariant_error_on_an_inexact_final_division(monkeypatch):
    # with every binomial 1, the sum for (m, d) = (1, 1) is 1, not a multiple of m + d = 2
    monkeypatch.setattr(stcores.formulas, "math", SimpleNamespace(comb=lambda n, k: 1, gcd=math.gcd))
    with pytest.raises(InvariantError, match="multinomial sum 1 is not divisible by 2"):
        count_triple(1, 1)


def test_multinomial_rejects_parts_with_wrong_sum():
    assert multinomial(4, (1, 1, 2)) == 12
    with pytest.raises(CoreError):
        multinomial(4, (1, 1))


def test_require_coprime_names_the_bad_moduli():
    for s, t in [(1, 1), (2, 3), (10, 9)]:
        assert _require_coprime(s, t) is None
    for s, t in [(0, 5), (5, 0), (-1, 2)]:
        with pytest.raises(ValueError, match=f"moduli must be >= 1, got {s} and {t}$"):
            _require_coprime(s, t)
    with pytest.raises(NotCoprimeError, match="4 and 6 must be coprime"):
        _require_coprime(4, 6)


@pytest.mark.parametrize("s, t", [(True, 2), (2, True), (2.0, 3), (3, 2.0), ("2", 3)])
def test_require_coprime_refuses_moduli_that_are_not_ints(s, t):
    with pytest.raises(ValueError, match=f"^moduli must be integers, got {s!r} and {t!r}$"):
        _require_coprime(s, t)


def test_counts_refuse_a_bool_modulus():
    with pytest.raises(ValueError, match="^moduli must be integers, got True and 2$"):
        count_st(True, 2)
