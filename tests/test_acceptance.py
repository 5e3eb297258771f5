"""Acceptance suite.

One test per acceptance criterion, every comparison exact (tolerance
zero), each printing a single pass/fail line (run with ``-s`` to see
them live). Oracles here are independent re-implementations: a
nested-loop unit-fraction enumerator in plain integers, an interval
scanner for gap certificates, and the closed-form value tables.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

from commprob.catalog import (
    EntryFilter,
    entry_from_family,
    ingest,
    scan_interval,
    survey,
)
from commprob.egyptian import candidate_gap, max_below, solve_exact
from commprob.families import FamilySpec, make
from commprob.groups import (
    abelian_normal_subgroups,
    center,
    derived_subgroup,
    direct_product,
    fitting_subgroup,
    index_two_subgroups,
    is_abelian,
    quotient,
    subgroup_table,
)
from commprob.probability import (
    abelian_decomposition,
    erdos_turan_holds,
    pr_by_classes,
    pr_direct,
    verify_special_forms,
)

from oracles import element_orders
from test_egyptian import interval_has_sum

DATA = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"{label} took {elapsed:.1f}s >= {budget_s}s"
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS ({time.perf_counter() - start:.1f}s)")


# ---------------------------------------------------------------------------
# independent oracle: nested-loop unit-fraction enumeration, integers only
# ---------------------------------------------------------------------------


def _pairs(num: int, den: int, lo: int) -> list[tuple[int, int]]:
    """1/x + 1/y = num/den with lo <= x <= y, by a plain bounded loop."""
    res = []
    x = max(lo, den // num + 1)
    while num * x <= 2 * den:
        t = num * x - den
        if t > 0 and (den * x) % t == 0:
            y = (den * x) // t
            if y >= x:
                res.append((x, y))
        x += 1
    return res


def naive_solutions(n: int, num: int, den: int) -> set[tuple[int, ...]]:
    """All non-increasing n-term representations of num/den (n <= 4)."""
    g = gcd(num, den)
    num, den = num // g, den // g
    out: set[tuple[int, ...]] = set()
    if num <= 0:
        return out
    if n == 1:
        if num == 1:
            out.add((den,))
        return out
    if n == 2:
        for x, y in _pairs(num, den, 1):
            out.add((y, x))
        return out
    if n == 3:
        d1 = -(-den // num)
        while num * d1 <= 3 * den:
            rn, rd = num * d1 - den, den * d1
            if rn > 0:
                for x, y in _pairs(rn, rd, d1):
                    out.add((y, x, d1))
            d1 += 1
        return out
    if n == 4:
        d1 = -(-den // num)
        while num * d1 <= 4 * den:
            rn1, rd1 = num * d1 - den, den * d1
            if rn1 > 0:
                g1 = gcd(rn1, rd1)
                n1, e1 = rn1 // g1, rd1 // g1
                d2 = max(d1, -(-e1 // n1))
                while n1 * d2 <= 3 * e1:
                    rn2, rd2 = n1 * d2 - e1, e1 * d2
                    if rn2 > 0:
                        for x, y in _pairs(rn2, rd2, d2):
                            out.add((y, x, d2, d1))
                    d2 += 1
            d1 += 1
        return out
    raise ValueError("oracle supports n <= 4")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_01_paper_value_table():
    with criterion("known value table (dihedral 2..30, polyhedral)", budget_s=5.0):
        for n in range(2, 31):
            table, spec = make(FamilySpec("dihedral", (n,)))
            want = Fraction(n + 6, 4 * n) if n % 2 == 0 else Fraction(n + 3, 4 * n)
            assert spec.expected_pr == want
            assert pr_direct(table) == want, f"D{n}"
        for fam, params, want in [
            ("alternating", (4,), Fraction(1, 3)),
            ("symmetric", (4,), Fraction(5, 24)),
            ("alternating", (5,), Fraction(1, 12)),
        ]:
            table, _ = make(FamilySpec(fam, params))
            assert pr_direct(table) == want, fam


def test_02_dual_evaluators(corpus128):
    with criterion("dual evaluator agreement on corpus(128)", budget_s=60.0):
        assert len(corpus128) >= 80
        for table, spec in corpus128:
            assert pr_direct(table) == pr_by_classes(table), spec.name


def test_03_multiplicativity(corpus128):
    with criterion("multiplicativity on 50 random pairs"):
        rng = random.Random(20260810)
        done = 0
        while done < 50:
            (ta, sa), (tb, sb) = rng.sample(corpus128, 2)
            if ta.order * tb.order > 4096:
                continue
            prod = direct_product(ta, tb)
            assert pr_direct(prod) == pr_direct(ta) * pr_direct(tb), (
                sa.name,
                sb.name,
            )
            done += 1


def test_04_central_pgroup_formula(corpus128):
    from commprob.probability import pr_central_pgroup_formula

    with criterion("central p-group closed form vs brute force"):
        es27, _ = make(FamilySpec("extraspecial", (3, 1)))
        value, _ = pr_central_pgroup_formula(es27)
        assert value == Fraction(11, 27)

        checked = 0
        for table, spec in corpus128:
            if table.order > 125:
                continue
            p = _prime_power_base(table.order)
            if p not in (2, 3, 5):
                continue
            if not set(derived_subgroup(table).members) <= set(center(table).members):
                continue
            value, _ = pr_central_pgroup_formula(table)
            assert value == pr_direct(table), spec.name
            checked += 1
        assert checked >= 40


def _prime_power_base(n: int) -> int | None:
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def test_05_special_forms(named):
    with criterion("special structural forms (D4, S3, D8)"):
        d4 = {m.pattern: m for m in verify_special_forms(named["d4"])}
        hit = d4["derived2-central-quotient-elementary"]
        assert hit.match and hit.predicted == Fraction(5, 8) and "s=1" in hit.note

        s3 = {m.pattern: m for m in verify_special_forms(named["s3"])}
        assert s3["derived3-central-quotient-s3"].match
        assert s3["derived3-central-quotient-s3"].predicted == Fraction(1, 2)

        d8 = {m.pattern: m for m in verify_special_forms(named["d8"])}
        hit = d8["derived4-central2"]
        assert hit.match and hit.predicted == Fraction(7, 16) and "s=0" in hit.note
        assert pr_direct(named["d8"]) == Fraction(14, 32)


def test_06_abelian_decomposition(corpus64):
    with criterion("unit-fraction decomposition over abelian normal subgroups"):
        pairs = 0
        for table, spec in corpus64:
            for H in abelian_normal_subgroups(table):
                form = abelian_decomposition(table, H)  # asserts internally
                assert form.pr == pr_direct(table)
                assert 1 <= len(form.x_list) <= form.index**2
                assert form.x_list[0] == 1
                pairs += 1
        assert pairs >= 500

        s3 = make(FamilySpec("symmetric", (3,)))[0]
        h3 = next(N for N in abelian_normal_subgroups(s3) if N.order == 3)
        assert abelian_decomposition(s3, h3).s_sizes == ((9, 3), (3, 3))

        d4 = make(FamilySpec("dihedral", (4,)))[0]
        c4 = next(
            N
            for N in abelian_normal_subgroups(d4)
            if N.order == 4
            and max(element_orders(subgroup_table(d4, N))) == 4
        )
        assert abelian_decomposition(d4, c4).s_sizes == ((16, 8), (8, 8))


def test_07_bound_suite(corpus128, corpus64, subgroups_of, normals_of):
    with criterion("bound suite (whole corpus, monotonicity, quotients)"):
        klein_profile = (4, True, (1, 2, 2, 2))
        for table, spec in corpus128:
            pr = pr_direct(table)
            zent = center(table)
            if zent.order < table.order:  # nonabelian
                assert pr <= Fraction(5, 8), spec.name
                quot = quotient(table, zent)
                profile = (
                    quot.order,
                    is_abelian(quot),
                    tuple(sorted(element_orders(quot))),
                )
                assert (pr == Fraction(5, 8)) == (profile == klein_profile), spec.name
            if table.order >= 3:
                k = int(pr * table.order)
                assert erdos_turan_holds(table.order, k), spec.name
            fit = fitting_subgroup(table)
            assert pr * pr <= Fraction(1, table.order // fit.order), spec.name
            d_ord = derived_subgroup(table).order
            assert pr <= Fraction(1, 4) + Fraction(3, 4) / d_ord, spec.name
            if spec.expected_d is not None and zent.order < table.order:
                d = spec.expected_d
                assert Fraction(1, d_ord) < pr, spec.name
                assert pr <= Fraction(1, d * d) + (1 - Fraction(1, d * d)) / d_ord, spec.name

        for table, spec in corpus64:
            pr = pr_direct(table)
            for H in subgroups_of(table):
                assert pr_direct(subgroup_table(table, H)) >= pr, spec.name
            for N in normals_of(table):
                quot_pr = pr_direct(quotient(table, N))
                assert pr <= pr_direct(subgroup_table(table, N)) * quot_pr, spec.name


def test_08_unit_fraction_solver():
    with criterion("unit-fraction solver completeness sweep", budget_s=30.0):
        assert len(solve_exact(3, 1)) == 3
        for n in range(1, 5):
            for den in range(1, 25):
                for num in range(1, 4 * den + 1):
                    if gcd(num, den) != 1:
                        continue
                    got = {m.terms for m in solve_exact(n, Fraction(num, den))}
                    want = naive_solutions(n, num, den)
                    assert got == want, (n, num, den)


def test_09_gap_certificates():
    with criterion("gap certificates with independent scan verification"):
        cases = [
            (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (2, Fraction(1), Fraction(5, 6), Fraction(1, 6)),
            (2, Fraction(1, 2), Fraction(10, 21), Fraction(1, 42)),
        ]
        for n, probe, want_max, want_eps in cases:
            cert = max_below(n, probe)
            assert cert.max_below == want_max
            assert cert.epsilon == want_eps
            assert cert.witness.value == want_max
            assert not interval_has_sum(n, cert.max_below, probe)


def test_10_candidate_spectrum(corpus128):
    with criterion("candidate spectrum gaps and corpus membership"):
        q = candidate_gap(2, Fraction(5, 8))
        assert (q.result.max_below, q.result.epsilon) == (
            Fraction(13, 21),
            Fraction(1, 168),
        )
        q2 = candidate_gap(2, Fraction(1, 2))
        assert (q2.result.max_below, q2.result.epsilon) == (
            Fraction(83, 168),
            Fraction(1, 168),
        )
        # scans confirm no candidate value hides inside either gap
        for probe, res in [(Fraction(5, 8), q.result), (Fraction(1, 2), q2.result)]:
            lo, hi = 4 * res.max_below - 1, 4 * probe - 1
            for m in (1, 2, 3):
                assert not interval_has_sum(m, lo, hi)

        # every corpus group with an abelian index-2 subgroup lands in the
        # index-2 candidate set
        hits = 0
        observed = set()
        for table, spec in corpus128:
            halves = [
                H for H in index_two_subgroups(table)
                if pr_direct(subgroup_table(table, H)) == 1
            ]
            if not halves:
                continue
            pr = pr_direct(table)
            s = 4 * pr - 1
            assert s == 0 or any(solve_exact(m, s) for m in (1, 2, 3)), spec.name
            observed.add(pr)
            hits += 1
        assert hits >= 100
        # and none of those observed values hides inside a certified gap
        for probe, res in [(Fraction(5, 8), q.result), (Fraction(1, 2), q2.result)]:
            assert not any(res.max_below < pr < probe for pr in observed)


def test_11_spectrum_scans(corpus128):
    with criterion("interval scans (observed gaps and the 7-group window)"):
        entries = [entry_from_family(spec) for _, spec in corpus128]
        report = survey(entries, universe="corpus(128)")

        half = scan_interval(report, Fraction(7, 16), Fraction(1, 2))
        assert half.verdict == "EMPTY"
        assert half.universe_size == len(corpus128)

        gust = scan_interval(
            report, Fraction(5, 8), 1, flt=EntryFilter(nonabelian_only=True)
        )
        assert gust.verdict == "EMPTY"

        seven = survey(
            ingest(DATA / "exponent7_catalog.jsonl"), universe="exponent-7 catalog"
        )
        assert all(r.status == "ok" for r in seven.rows)
        window = scan_interval(
            seven,
            Fraction(5, 7**4),
            Fraction(1, 7**3),
            closed_lo=True,
            closed_hi=True,
            flt=EntryFilter(p_power=7),
        )
        assert window.verdict == "EMPTY"
        assert window.universe_size == 4
        assert "universe: 4 groups" in window.summary()


def test_12_survey_determinism(corpus128):
    with criterion("survey determinism across worker counts"):
        entries = [entry_from_family(spec) for _, spec in corpus128]
        serial = survey(entries, universe="corpus(128)")
        parallel = survey(entries, universe="corpus(128)")
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
