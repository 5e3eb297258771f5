"""Unit-fraction solver and gap-certificate tests.

The independent oracle here is an interval scanner: it decides whether
any n-term sum lands in an open interval by branching only while the
lower end stays positive (once it drops to zero or below, a tail of
huge denominators always fits). It shares no code with the gap
recursion it audits.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commprob import egyptian
from commprob.egyptian import (
    GapCertificate,
    UnitFractionMultiset,
    candidate_gap,
    descend,
    is_limit_point,
    max_below,
    solve_exact,
)
from commprob.errors import NoElementBelow, SearchBudgetExceeded


def interval_has_sum(n: int, lo: Fraction, hi: Fraction, min_den: int = 1) -> bool:
    """Does some sum of exactly n unit fractions with denominators >= min_den
    land strictly inside (lo, hi)?"""
    if hi <= 0:
        return False
    if lo < 0:
        lo = Fraction(0)
    if n == 1:
        x_min = max(min_den, hi.denominator // hi.numerator + 1)
        if lo == 0:
            return True  # 1/x_min already fits
        x_max = -(-lo.denominator // lo.numerator) - 1  # largest x with 1/x > lo
        return x_min <= x_max
    if lo == 0:
        # 1/d < hi for some admissible d, then a tail of tiny fractions
        return True
    d_min = max(min_den, hi.denominator // hi.numerator + 1)
    d_max = (n * lo.denominator) // lo.numerator  # need n/d > lo
    for d in range(d_min, d_max + 1):
        if interval_has_sum(n - 1, lo - Fraction(1, d), hi - Fraction(1, d), d):
            return True
    return False


def naive_pairs(q: Fraction, lo: int = 1) -> set[tuple[int, int]]:
    """Two-term representations by a plain loop (small q only)."""
    out = set()
    if q <= 0:
        return out
    x = max(lo, q.denominator // q.numerator + 1)
    while Fraction(1, x) * 2 >= q:
        rest = q - Fraction(1, x)
        if rest > 0 and rest.numerator == 1 and rest.denominator >= x:
            out.add((rest.denominator, x))
        x += 1
    return out


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solver_examples():
    assert [m.terms for m in solve_exact(1, Fraction(1, 2))] == [(2,)]
    assert [m.terms for m in solve_exact(3, 1)] == [(3, 3, 3), (4, 4, 2), (6, 3, 2)]
    assert solve_exact(2, 3) == []
    assert [m.terms for m in solve_exact(2, 2)] == [(1, 1)]
    assert solve_exact(1, 0) == []
    with pytest.raises(ValueError):
        solve_exact(0, 1)


def test_solver_sums_are_exact():
    for n in (1, 2, 3, 4):
        for q in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(1, 6)):
            for m in solve_exact(n, q):
                assert m.value == q
                assert len(m.terms) == n


def test_solver_two_term_against_naive():
    for q in (Fraction(1, 2), Fraction(10, 21), Fraction(2, 9), Fraction(1, 12)):
        got = {m.terms for m in solve_exact(2, q)}
        assert got == naive_pairs(q)


def test_solver_output_sorted_lex():
    sols = [m.terms for m in solve_exact(3, Fraction(1, 2))]
    assert sols == sorted(sols)


def fraction_solutions(n: int, q: Fraction, lo: int = 1) -> list[tuple[int, ...]]:
    """All non-decreasing n-tuples from lo up with unit fractions summing
    to q, by a plain Fraction recursion over the largest remaining term."""
    if n == 1:
        return [(q.denominator,)] if q.numerator == 1 and q.denominator >= lo else []
    out: list[tuple[int, ...]] = []
    if q <= 0:
        return out
    d = max(lo, -(-q.denominator // q.numerator))
    while Fraction(n, d) >= q:
        out += [(d,) + rest for rest in fraction_solutions(n - 1, q - Fraction(1, d), d)]
        d += 1
    return out


def test_solver_matches_a_fraction_recursion():
    # the solver keeps each two-term x with ax - b dividing b^2 for the
    # remainder a/b; here every admissible denominator is tried instead
    for n, max_den in ((1, 12), (2, 12), (3, 12), (4, 7)):
        for b in range(1, max_den + 1):
            for a in range(1, 2 * b + 1):
                q = Fraction(a, b)
                want = sorted(t[::-1] for t in fraction_solutions(n, q))
                got = solve_exact(n, q)
                assert [m.terms for m in got] == want, (n, q)
                assert got == [UnitFractionMultiset(m.terms) for m in got]


def test_solve_budget_counts_each_denominator_tried(monkeypatch):
    # 4 terms summing to 2/11 try exactly 40 779 denominators
    monkeypatch.setattr(egyptian, "SEARCH_BUDGET", 40_779)
    assert len(solve_exact(4, Fraction(2, 11))) == 1308
    monkeypatch.setattr(egyptian, "SEARCH_BUDGET", 40_778)
    with pytest.raises(SearchBudgetExceeded, match="4-term solve of 2/11"):
        solve_exact(4, Fraction(2, 11))


def test_deepest_walk_let_through_reports_its_budget(monkeypatch):
    """The depth check lets through half the recursion limit, and there a
    budget spent at the deepest node is still a SearchBudgetExceeded."""
    n = sys.getrecursionlimit() // 2
    for search, unit in ((max_below, 1), (solve_exact, 2)):
        with pytest.raises(SearchBudgetExceeded, match="half the recursion limit"):
            search(n + 1, Fraction(n + 1))
        monkeypatch.setattr(egyptian, "SEARCH_BUDGET", n - unit)
        with pytest.raises(SearchBudgetExceeded, match="passed its budget"):
            search(n, Fraction(n))  # the first path nests n deep


# ---------------------------------------------------------------------------
# gap certificates
# ---------------------------------------------------------------------------


def test_max_below_examples():
    cert = max_below(1, Fraction(1, 2))
    assert cert.max_below == Fraction(1, 3) and cert.epsilon == Fraction(1, 6)
    cert = max_below(2, 1)
    assert cert.max_below == Fraction(5, 6) and cert.witness.terms == (3, 2)
    cert = max_below(2, Fraction(1, 2))
    assert cert.max_below == Fraction(10, 21)
    assert cert.epsilon == Fraction(1, 42)
    assert cert.witness.terms == (7, 3)


def test_max_below_probe_above_range():
    # the whole of S_2 lies below 10
    cert = max_below(2, 10)
    assert cert.max_below == 2 and cert.witness.terms == (1, 1)


def test_certificate_invariants():
    cert = max_below(3, Fraction(4, 9))
    assert cert.witness.value == cert.max_below
    assert cert.epsilon == cert.l - cert.max_below > 0
    assert cert.search_trace
    with pytest.raises(NoElementBelow):
        max_below(2, 0)
    with pytest.raises(ValueError):
        max_below(0, 1)


def test_certificates_verified_by_interval_scan():
    # probe denominators and values stay modest so the scan's certified
    # branch bounds stay affordable; 50 probes, term counts cycling 1..3
    rng = random.Random(20260810)
    probes = [Fraction(1, 2), Fraction(1), Fraction(5, 8), Fraction(2, 9)]
    while len(probes) < 50:
        den = rng.randrange(6, 17)
        num = rng.randrange(max(1, -(-den // 3)), den)
        probes.append(Fraction(num, den))
    for i, l in enumerate(probes):
        n = 1 + i % 3
        cert = max_below(n, l)
        v = cert.max_below
        assert not interval_has_sum(n, v, l), (n, l)
        # and the witness itself is found just below: (v - delta, l) is hit
        assert interval_has_sum(n, v - Fraction(1, 10**6), l), (n, l)
    # 4-term probes: each is a few hundred search nodes
    for l in (Fraction(2, 3), Fraction(9, 8), Fraction(7, 6), Fraction(1, 2), Fraction(5, 8)):
        v = max_below(4, l).max_below
        assert not interval_has_sum(4, v, l), (4, l)
        assert interval_has_sum(4, v - Fraction(1, 10**6), l), (4, l)


# every l = a/b in [1/3, 2) with b <= 12
_PROPERTY_PROBES = sorted(
    {Fraction(a, b) for b in range(1, 13) for a in range(1, 2 * b)
     if Fraction(1, 3) <= Fraction(a, b) < 2}
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), l=st.sampled_from(_PROPERTY_PROBES))
def test_max_below_leaves_empty_gap(n, l):
    cert = max_below(n, l)
    assert not interval_has_sum(n, cert.max_below, l)


def test_search_trace_counts_nodes():
    cert = max_below(4, Fraction(3, 4))
    (line,) = cert.search_trace
    assert line.startswith("terms=4 probe=3/4 branches=")
    assert int(line.rsplit("=", 1)[1]) > 1
    assert max_below(4, Fraction(3, 4)).search_trace == cert.search_trace
    assert "search_trace" not in cert.to_json_dict()


def test_descend_examples():
    assert descend(1, 1, 3) == [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    assert descend(2, 1, 3) == [Fraction(5, 6), Fraction(3, 4), Fraction(7, 10)]
    first, second = descend(2, Fraction(13, 24), 2)
    assert first == Fraction(1, 2) + Fraction(1, 25)  # largest 1/2 + 1/k fit
    assert second < first


def test_descend_consecutive_gaps_empty():
    for n in (1, 2, 3):
        vals = descend(n, Fraction(9, 10), 4)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for a, b in zip(vals, vals[1:]):
            assert not interval_has_sum(n, b, a)


def test_gap_monotone_in_term_count():
    # n <= 3 on random probes; n = 4 on fixed probes where the previous
    # level's gap (hence the branch range 1/gap) stays affordable
    rng = random.Random(99)
    for _ in range(20):
        den = rng.randrange(6, 17)
        l = Fraction(rng.randrange(max(1, -(-den // 3)), den), den)
        values = [max_below(n, l).max_below for n in (1, 2, 3)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    for l in (Fraction(3, 2), Fraction(11, 7), Fraction(33, 20), 2, 3):
        values = [max_below(n, l).max_below for n in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_is_limit_point():
    assert is_limit_point(2, Fraction(1, 2)).m == 1
    res = is_limit_point(3, Fraction(10, 21))
    assert res.is_limit_point and res.m == 2 and res.witness.terms == (7, 3)
    assert not is_limit_point(2, Fraction(5, 6))
    assert is_limit_point(4, 0).is_limit_point


def test_descend_values_are_limit_points_one_level_up():
    for q in descend(2, 1, 4):
        assert is_limit_point(3, q)


# ---------------------------------------------------------------------------
# candidate spectrum
# ---------------------------------------------------------------------------


def test_candidate_gap_values():
    q = candidate_gap(2, Fraction(5, 8))
    assert q.result.max_below == Fraction(13, 21)
    assert q.result.epsilon == Fraction(1, 168)
    assert q.result.witness.value == Fraction(13, 21)

    q = candidate_gap(2, Fraction(1, 2))
    assert q.result.max_below == Fraction(83, 168)
    assert q.result.epsilon == Fraction(1, 168)


def test_candidate_gap_index_one():
    # index 1 has no unit-fraction terms: the only candidate is 1
    q = candidate_gap(1, 2)
    assert q.result.max_below == 1
    assert q.result.witness.terms == (1,)


def test_candidate_gap_no_value_below():
    with pytest.raises(NoElementBelow):
        candidate_gap(1, 1)
    with pytest.raises(NoElementBelow):
        candidate_gap(2, Fraction(1, 4))  # 1/4 is the least candidate at index 2
    with pytest.raises(NoElementBelow):
        candidate_gap(2, Fraction(1, 5))
    # just above the floor the best candidate still sits above s = 0
    q = candidate_gap(2, Fraction(1, 3))
    assert Fraction(1, 4) < q.result.max_below < Fraction(1, 3)


def test_candidate_gap_epsilon_positive_always():
    # probes chosen so the inner probe 4l - 1 keeps a modest value and
    # denominator (branch ranges grow like the inverse of lower gaps)
    rng = random.Random(5)
    for _ in range(25):
        den = rng.randrange(6, 15)
        inner = Fraction(rng.randrange(-(-den // 3), 2 * den), den)
        l = (1 + inner) / 4
        q = candidate_gap(2, l)
        assert q.result.epsilon > 0
        assert q.result.max_below < l


def test_candidate_gap_cross_checked_by_scan():
    """No candidate value (1/4)(1+s), s in S_m, m <= 3, inside the gap."""
    for l in (Fraction(5, 8), Fraction(1, 2), Fraction(3, 7)):
        res = candidate_gap(2, l).result
        lo = 4 * res.max_below - 1
        hi = 4 * l - 1
        for m in (1, 2, 3):
            assert not interval_has_sum(m, lo, hi), (l, m)


def test_multiset_validation():
    with pytest.raises(ValueError):
        UnitFractionMultiset((2, 3))  # increasing
    with pytest.raises(ValueError):
        UnitFractionMultiset((3, 0))
    assert UnitFractionMultiset((4, 2)).value == Fraction(3, 4)


def test_certificate_validation():
    with pytest.raises(ValueError):
        GapCertificate(
            n=1,
            l=Fraction(1, 2),
            max_below=Fraction(1, 3),
            epsilon=Fraction(1, 7),  # wrong width
            witness=UnitFractionMultiset((3,)),
        )
    with pytest.raises(ValueError):
        GapCertificate(
            n=1,
            l=Fraction(1, 2),
            max_below=Fraction(1, 3),
            epsilon=Fraction(1, 6),
            witness=UnitFractionMultiset((4,)),  # wrong witness
        )
