"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line with its runtime (visible under
``pytest -s``) and enforces the stated wall-clock budget.
"""

import math
import time
from fractions import Fraction

import stcores as sc

BUDGETS = {1: 10, 2: 10, 3: 10, 4: 10, 5: 30, 6: 60, 7: 60, 8: 10}


def _coprime_pairs(total: int) -> list[tuple[int, int]]:
    return [
        (s, t)
        for s in range(1, total)
        for t in range(1, total)
        if s + t <= total and math.gcd(s, t) == 1
    ]


def _finish(num: int, started: float, desc: str) -> None:
    elapsed = time.time() - started
    assert elapsed <= BUDGETS[num], f"criterion {num} took {elapsed:.1f}s (budget {BUDGETS[num]}s)"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.2f}s): {desc}")


def test_criterion_1_counting():
    started = time.time()
    for s, t in _coprime_pairs(18):
        assert len(list(sc.iter_st_cores(s, t))) == math.comb(s + t, t) // (s + t)
        assert len(list(sc.iter_sc_st_cores(s, t))) == math.comb(s // 2 + t // 2, t // 2)
    _finish(1, started, "enumeration counts match both closed forms for all coprime s+t <= 18")


def test_criterion_2_unweighted_averages():
    started = time.time()
    for s, t in _coprime_pairs(16):
        expected = Fraction((s - 1) * (t - 1) * (s + t + 1), 24)
        assert sc.average_size(s, t) == expected
        assert sc.average_size(s, t, self_conjugate=True) == expected
    _finish(2, started, "unweighted average size is (s-1)(t-1)(s+t+1)/24 on both families, s+t <= 16")


def test_criterion_3_weighted_average():
    started = time.time()
    assert sc.average_size(2, 3, weighted=True) == Fraction(1, 3)
    assert sc.average_size(3, 4, weighted=True) == Fraction(5, 4)
    for s, t in _coprime_pairs(16):
        assert sc.average_size(s, t, weighted=True) == Fraction((s - 1) * (t * t - 1), 24)
    _finish(3, started, "stabilizer-weighted average size is (s-1)(t^2-1)/24, s+t <= 16")


def test_criterion_4_weighted_self_conjugate_average():
    started = time.time()
    assert sc.average_size(3, 2, weighted=True, self_conjugate=True) == Fraction(1, 2)
    for s, t in _coprime_pairs(16):
        expected = Fraction(
            (s - 1) * (t * t + 2) if t % 2 == 0 else (s - 1) * (t * t - 1), 24
        )
        assert sc.average_size(s, t, weighted=True, self_conjugate=True) == expected
    _finish(4, started, "weighted self-conjugate average matches the parity-split closed form, s+t <= 16")


def test_criterion_5_triple_progression_cores():
    started = time.time()
    for m in range(1, 12):
        for d in range(1, 12 - m + 1):
            if math.gcd(m, d) != 1:
                continue
            count = sum(
                math.comb(m + d, i) * math.comb(m + d - i, i + d)
                for i in range(m // 2 + 1)
            )
            assert count % (m + d) == 0
            count //= m + d
            sym = list(sc.iter_triple_sym(m, d))
            asym = list(sc.iter_triple_asym(m, d))
            assert len(sym) == len(asym) == count == sc.count_triple(m, d)
            assert {r.partition for r in sym} == {r.partition for r in asym}
    for m in range(1, 13):
        assert sc.count_triple(m, 1) == sc.motzkin_number(m)
    _finish(5, started, "both triple enumerations agree with the multinomial count (m+d <= 12); d=1 column is Motzkin")


def test_criterion_6_oracle_equivalence():
    started = time.time()
    for s, t in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
        enum_parts = {r.partition for r in sc.iter_st_cores(s, t)}
        bound = max(p.size for p in enum_parts)
        brute = sc.brute_st_cores({s, t}, bound + s + t)
        assert {p for p in brute if p.size <= bound} == enum_parts
        assert all(p.size <= bound for p in brute)
    _finish(6, started, "parameterized enumeration equals brute-force hook filtering for the five reference pairs")


def test_criterion_7_structural_invariants():
    started = time.time()
    reports = {r.check: r for r in sc.run_verify_suite(5, 6, 20)}
    required = [
        "push-preserves-charge-and-idempotent",
        "conjugate-charge-negation",
        "core-commutes-with-conjugation",
        "t-core-preserves-s-core",
        "faithful-invariant",
        "s-set-t-set-interaction",
        "stabilizer-formula-vs-brute",
    ]
    for name in required:
        assert name in reports, f"suite lacks check {name}"
        assert reports[name].passed, f"{name}: {reports[name].witness}"
    failing = [r.check for r in reports.values() if not r.passed]
    assert not failing, f"failing checks: {failing}"
    _finish(7, started, f"all {len(reports)} structural checks pass in run_verify_suite(5, 6, 20)")


def test_criterion_8_cyclic_sum_identities():
    started = time.time()
    names = set()
    for s, t in _coprime_pairs(14):
        for rep in sc.verify_cyclic_sum_identities(s, t):
            assert rep.passed, f"{rep.name} at (s,t)=({s},{t}): {rep.lhs} != {rep.rhs}"
            names.add(rep.name)
    assert names == {
        "exp-constant",
        "exp-linear",
        "exp-quadratic-square",
        "exp-quadratic-mixed",
        "ord-constant",
        "ord-linear",
        "ord-quadratic-square",
        "ord-quadratic-mixed",
    }
    _finish(8, started, "all seven special cyclic-sum identities hold exactly for coprime s+t <= 14")
