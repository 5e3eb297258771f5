"""Commuting-probability tests: evaluators, closed forms, bounds,
decompositions. Brute-force oracles live here, written without numpy."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

import commprob.probability
from commprob.errors import PreconditionFailed
from commprob.families import FamilySpec, make
from commprob.groups import (
    Subgroup,
    abelian_normal_subgroups,
    center,
    derived_subgroup,
    is_abelian,
    largest_abelian_normal_subgroup,
    orbit_count_on_normal,
    subgroup_from_generators,
    subgroup_from_members,
    subgroup_table,
)
from commprob.probability import (
    BoundContext,
    abelian_decomposition,
    check_bounds,
    erdos_turan_holds,
    pr_by_classes,
    pr_central_pgroup_formula,
    pr_direct,
    pr_report,
    SpecialFormMatch,
    verify_special_forms,
)

from oracles import central_product, element_orders


def naive_pr(table) -> Fraction:
    """Pure-python ordered-pair count."""
    n = table.order
    hits = sum(
        1
        for x in range(n)
        for y in range(n)
        if int(table.op[x, y]) == int(table.op[y, x])
    )
    return Fraction(hits, n * n)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def test_known_values(named):
    assert pr_direct(named["c12"]) == 1
    assert pr_by_classes(named["c12"]) == 1
    assert pr_direct(named["d4"]) == Fraction(5, 8)
    assert pr_direct(named["a5"]) == Fraction(1, 12)
    assert pr_by_classes(named["s4"]) == Fraction(5, 24)
    assert pr_by_classes(named["q8"]) == Fraction(5, 8)


def test_against_naive_count(named):
    for key in ("s3", "d4", "q8", "a4"):
        g = named[key]
        assert pr_direct(g) == naive_pr(g) == pr_by_classes(g)


def test_pr_of_a_subgroup_table(named):
    s3 = named["s3"]
    rot = next(x for x in range(6) if element_orders(s3)[x] == 3)
    a3 = subgroup_from_generators(s3, [rot])
    assert pr_direct(subgroup_table(s3, a3)) == 1


# ---------------------------------------------------------------------------
# central p-group formula
# ---------------------------------------------------------------------------


def test_central_pgroup_formula_values(named):
    v, trace = pr_central_pgroup_formula(named["es27"])
    assert v == Fraction(11, 27)
    assert trace.p == 3 and trace.special_s == 1

    v, trace = pr_central_pgroup_formula(named["d4"])
    assert v == Fraction(5, 8)
    assert trace.special_s == 1

    c8 = make(FamilySpec("cyclic", (8,)))[0]
    v, trace = pr_central_pgroup_formula(c8)
    assert v == 1
    assert all(t.s == 0 for t in trace.terms if t.index == 1)


def test_central_pgroup_formula_preconditions(named):
    with pytest.raises(PreconditionFailed):
        pr_central_pgroup_formula(named["s3"])  # not a prime power
    with pytest.raises(PreconditionFailed):
        pr_central_pgroup_formula(named["d8"])  # derived subgroup not central


def test_central_pgroup_formula_on_corpus(corpus128):
    checked = 0
    for table, spec in corpus128:
        if table.order > 125:
            continue
        base = _prime_power_base(table.order)
        if base not in (2, 3, 5):
            continue
        der = derived_subgroup(table)
        if not set(der.members) <= set(center(table).members):
            continue
        value, _ = pr_central_pgroup_formula(table)
        assert value == pr_direct(table), spec.name
        checked += 1
    assert checked >= 40


def test_central_pgroup_formula_memory():
    """The containment counts take [s, x] for the r generators s only:
    r x n entries beside the table, not the n x n commutator matrix
    (74.6 MiB on ES5_2, order 3125)."""
    es, spec = make(FamilySpec("extraspecial", (5, 2)))
    tracemalloc.start()
    try:
        value, _ = pr_central_pgroup_formula(es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == spec.expected_pr
    assert peak < 8 * 2**20


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


# ---------------------------------------------------------------------------
# special forms
# ---------------------------------------------------------------------------


def test_special_forms_examples(named):
    d4 = {m.pattern: m for m in verify_special_forms(named["d4"])}
    hit = d4["derived2-central-quotient-elementary"]
    assert hit.predicted == Fraction(5, 8) and hit.match and "s=1" in hit.note

    s3 = {m.pattern: m for m in verify_special_forms(named["s3"])}
    hit = s3["derived3-central-quotient-s3"]
    assert hit.predicted == Fraction(1, 2) and hit.match

    d8 = {m.pattern: m for m in verify_special_forms(named["d8"])}
    hit = d8["derived4-central2"]
    assert hit.predicted == Fraction(7, 16) and hit.match and "s=0" in hit.note
    assert pr_direct(named["d8"]) == Fraction(7, 16)


def test_derived4_form_with_nonabelian_centralizer(named):
    """In D8 o D4, Dic4 o Q8 and D8 o ES2_2 (central products over an
    element of order 2 of each center), G' is cyclic of order 4 and
    meets Z in 2 elements, and C = C_G(G') is nonabelian: |C : Z(C)| = 4^s
    with s = 1, 1, 2. No group of corpus(128) has s > 0."""
    def central(a, b):
        zs = [center(t).members[1] for t in (a, b)]  # the order-2 center element
        return central_product(a, zs[0], b, zs[1])[0]

    d8, dic4 = (make(FamilySpec(f, (n,)))[0] for f, n in (("dihedral", 8), ("dicyclic", 4)))
    es2_2 = make(FamilySpec("extraspecial", (2, 2)))[0]
    for G, s, pr in ((central(d8, named["d4"]), 1, Fraction(11, 32)),
                     (central(dic4, named["q8"]), 1, Fraction(11, 32)),
                     (central(d8, es2_2), 2, Fraction(41, 128))):
        (form,) = verify_special_forms(G)
        assert form == SpecialFormMatch("derived4-central2", pr, pr, True, f"s={s}")


def test_special_forms_empty_for_abelian(named):
    assert verify_special_forms(named["c12"]) == []


def test_special_form_and_formula_results_are_pinned(corpus128):
    """Every special-form match (pattern, predicted, actual, match, note)
    and every formula result (value and trace, or the precondition text)
    over corpus(128), as one sha256 taken when G/Z, C_G(G'), G' and each
    D/K were still built as tables to read their shapes."""
    h = hashlib.sha256()
    for table, spec in corpus128:
        h.update(f"{spec.name}|{verify_special_forms(table)!r}|".encode())
        try:
            result = repr(pr_central_pgroup_formula(table))
        except PreconditionFailed as exc:
            result = f"PreconditionFailed({exc})"
        h.update(f"{result}\n".encode())
    assert h.hexdigest() == (
        "d1ed2d9111773209f5fa87bcb076387ffb41a5119de65e429181c1cdf540c0b4"
    )


def test_special_forms_build_no_side_tables(corpus64, monkeypatch):
    """The special forms read every shape off G's own table, and the
    formula builds one table, of G', for its subgroup lattice."""
    built = []
    real_subgroup_table = commprob.probability.subgroup_table

    def counting_subgroup_table(G, H):
        built.append(H.order)
        return real_subgroup_table(G, H)

    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient table was built")

    monkeypatch.setattr(commprob.probability, "quotient", no_quotient)
    monkeypatch.setattr(commprob.probability, "subgroup_table", counting_subgroup_table)
    nonabelian = [t for t, _ in corpus64 if not is_abelian(t)]
    for table in nonabelian:
        verify_special_forms(table)
    assert built == []

    formulas = 0
    for table in nonabelian:
        built.clear()
        try:
            pr_central_pgroup_formula(table)
        except PreconditionFailed:
            assert built == []
            continue
        assert built == [derived_subgroup(table).order]
        formulas += 1
    assert formulas >= 25


def test_special_form_predictions_never_contradict(corpus64):
    for table, spec in corpus64:
        for m in verify_special_forms(table):
            if m.match:
                assert m.predicted == pr_direct(table), (spec.name, m.pattern)


def test_fingerprints_conclusive_on_small_corpus(corpus16):
    """Order, abelianness and the element-order multiset pin down the tiny
    fingerprint targets among all groups of order <= 16 in the corpus."""
    from commprob.groups import is_abelian

    profiles = {}
    for table, spec in corpus16:
        key = (
            table.order,
            is_abelian(table),
            tuple(sorted(element_orders(table))),
        )
        profiles.setdefault(key, set()).add(
            (pr_direct(table), tuple(sorted(c for c in _class_sizes(table))))
        )
    for target_order in (2, 3, 4, 6):
        for key, invariants in profiles.items():
            if key[0] == target_order:
                assert len(invariants) == 1, key


def _class_sizes(table):
    from commprob.groups import conjugacy_classes

    return conjugacy_classes(table).sizes()


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


def test_erdos_turan_exact_rule():
    assert erdos_turan_holds(3, 1)
    assert erdos_turan_holds(4, 2)
    # k = 1 forces order <= 4
    assert not erdos_turan_holds(5, 1)
    assert erdos_turan_holds(2**64, 7)
    assert not erdos_turan_holds(2**64 + 1, 6)


def test_bounds_s3_fitting_squared(named):
    rep = check_bounds(named["s3"])
    fit = {b.bound: b for b in rep.bounds}["fitting-index"]
    assert fit.lhs == Fraction(1, 4) and fit.rhs == Fraction(1, 2) and fit.holds


def test_bounds_a5_derived(named):
    rep = check_bounds(named["a5"])
    der = {b.bound: b for b in rep.bounds}["derived-bound"]
    assert der.rhs == Fraction(1, 4) + Fraction(3, 4 * 60)
    assert der.rhs == Fraction(21, 80) and der.holds


def test_bounds_gustafson_equality(named):
    rep = check_bounds(named["d4"])
    by = {b.bound: b for b in rep.bounds}
    assert by["gustafson"].holds and by["gustafson"].lhs == Fraction(5, 8)
    assert by["gustafson-equality"].holds


def test_bounds_min_degree(named):
    rep = check_bounds(named["s4"], BoundContext(min_nonlinear_degree=2))
    by = {b.bound: b for b in rep.bounds}
    assert by["min-degree-lower"].holds and by["min-degree-upper"].holds
    rep = check_bounds(named["c12"], BoundContext(min_nonlinear_degree=2))
    by = {b.bound: b for b in rep.bounds}
    assert by["min-degree-lower"].skipped


def test_bounds_orbit(named):
    s3 = named["s3"]
    rot = next(x for x in range(6) if element_orders(s3)[x] == 3)
    a3 = subgroup_from_generators(s3, [rot])
    rep = check_bounds(s3, BoundContext(orbit_subgroup=a3))
    orb = {b.bound: b for b in rep.bounds}["orbit-bound"]
    # c = 2 from the subgroups of the order-2 quotient, k_G(N) = 2
    assert orb.rhs == Fraction(2 * 2, 6) and orb.holds
    rep = check_bounds(s3, BoundContext(orbit_subgroup=a3, orbit_class_bound=2))
    assert {b.bound: b for b in rep.bounds}["orbit-bound"].rhs == Fraction(2, 3)


def test_bounds_fitting_skipped_above_cutoff():
    from commprob.families import cyclic_table

    rep = check_bounds(cyclic_table(300))
    by = {b.bound: b for b in rep.bounds}
    assert by["fitting-index"].skipped
    assert by["erdos-turan"].holds


def test_bounds_skips_marked(named):
    rep = check_bounds(named["c12"])
    by = {b.bound: b for b in rep.bounds}
    assert by["gustafson"].skipped
    assert by["orbit-bound"].skipped
    names = [b.bound for b in rep.bounds]
    assert names == [
        "gustafson",
        "gustafson-equality",
        "erdos-turan",
        "fitting-index",
        "derived-bound",
        "min-degree-lower",
        "min-degree-upper",
        "orbit-bound",
    ]


def test_pr_report_center_index(corpus64):
    for table, _ in corpus64:
        rep = pr_report(table)
        assert rep.center_index == table.order // center(table).order
        assert rep.pr == pr_by_classes(table) and rep.bounds == ()


def test_bounds_build_no_quotient(corpus64, monkeypatch):
    """Without an orbit subgroup the suite reads every shape it needs
    (the Klein central quotient included) from orders alone."""
    def no_quotient(*args, **kwargs):
        raise AssertionError("check_bounds built a quotient table")

    monkeypatch.setattr(commprob.probability, "quotient", no_quotient)
    nonabelian = [t for t, _ in corpus64 if pr_report(t).center_index > 1]
    assert nonabelian
    for table in nonabelian:
        by = {b.bound: b for b in check_bounds(table).bounds}
        assert by["gustafson-equality"].holds


def test_bound_entries_internally_consistent(corpus16, named):
    """Whenever both sides of a bound are recorded, the verdict is exactly
    the stated relation applied to them."""
    relations = {"<=": lambda a, b: a <= b, "<": lambda a, b: a < b,
                 ">=": lambda a, b: a >= b}
    groups = [t for t, _ in corpus16] + [named["a5"], named["s4"]]
    for table in groups:
        rep = check_bounds(table, BoundContext(min_nonlinear_degree=2))
        for b in rep.bounds:
            if b.holds is None or b.lhs is None or b.rhs is None:
                continue
            assert b.holds == relations[b.relation](b.lhs, b.rhs), b


def test_each_bound_reports_one_relation(corpus16):
    """A bound names the same relation whether its entry is skipped or
    evaluated, over every context shape the suite accepts."""
    relations = {}
    for table, _ in corpus16:
        N = center(table)
        for ctx in (None, BoundContext(min_nonlinear_degree=2),
                    BoundContext(orbit_subgroup=N)):
            for b in check_bounds(table, ctx).bounds:
                relations.setdefault(b.bound, set()).add((b.relation, b.skipped))
    for bound, seen in relations.items():
        assert len({rel for rel, _ in seen}) == 1, (bound, seen)
    # order <= 2 skips erdos-turan and every larger order evaluates it
    assert {skipped for _, skipped in relations["erdos-turan"]} == {False, True}


def test_bound_and_decomposition_results_are_pinned(corpus128):
    """Every bound report under four context shapes, and the decomposition
    over the largest abelian normal subgroup, for the members of order 3
    to 96 of corpus(128), as one sha256 taken while each bound still wrote
    its verdict beside its relation."""
    h = hashlib.sha256()
    for table, spec in corpus128:
        if not 3 <= table.order <= 96:
            continue
        N = center(table)
        for ctx in (None, BoundContext(min_nonlinear_degree=2),
                    BoundContext(orbit_subgroup=N),
                    BoundContext(orbit_subgroup=N, orbit_class_bound=3)):
            h.update(f"{spec.name}|{check_bounds(table, ctx)!r}\n".encode())
        form = abelian_decomposition(table, largest_abelian_normal_subgroup(table))
        h.update(f"{spec.name}|{form!r}\n".encode())
    assert h.hexdigest() == (
        "22e5d9d2bc39d6a012bad1fcfdf102d4a94e71aedd054ecabf2b5c414be3f333"
    )


def test_orbit_bound_counts_classes_without_subgroup_tables(named, monkeypatch):
    """k(S) of each subgroup S of G/N is read off S's block of the
    quotient table, with no table built per subgroup."""
    def no_table(*args, **kwargs):
        raise AssertionError("built a subgroup table")

    monkeypatch.setattr(commprob.probability, "subgroup_table", no_table)
    for key, c in (("d8", 5), ("s4", 5), ("es27", 9)):
        G = named[key]
        orbit = next(b for b in check_bounds(G, BoundContext(orbit_subgroup=center(G))).bounds
                     if b.bound == "orbit-bound")
        # the largest class count among the subgroups of G/Z(G)
        assert orbit.rhs * G.order == c * orbit_count_on_normal(G, center(G))


def test_report_csv_quotes_names(named):
    """A name holding a comma, a quote or a line break is quoted, so that
    the row keeps one column per header field."""
    for name in ("a,b", 'say "hi"', "two\nlines", "plain"):
        rep = check_bounds(dataclasses.replace(named["d4"], name=name))
        head, row = list(csv.reader(rep.to_csv().splitlines(keepends=True)))
        assert row[0] == name and len(row) == len(head)
    assert rep.to_csv().splitlines()[1].startswith("plain,8,5,5/8,4,")


def test_report_serialization_roundtrip(named):
    rep = check_bounds(named["d4"])
    data = rep.to_json_dict()
    assert data["pr"] == "5/8" and len(data["bounds"]) == len(rep.bounds)
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("name,order,k,pr,center_index")
    assert "D4,8,5,5/8,4" in csv


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decomposition_s3(named):
    s3 = named["s3"]
    a3 = next(N for N in abelian_normal_subgroups(s3) if N.order == 3)
    form = abelian_decomposition(s3, a3)
    assert form.index == 2
    assert form.s_sizes == ((9, 3), (3, 3))
    assert form.x_list == (1, 3, 3, 3)
    assert form.pr == Fraction(1, 2)
    assert form.coset_reps[0] == 0


def test_decomposition_d4_over_c4(named):
    d4 = named["d4"]
    c4 = next(
        N
        for N in abelian_normal_subgroups(d4)
        if N.order == 4 and max(element_orders(subgroup_table(d4, N))) == 4
    )
    form = abelian_decomposition(d4, c4)
    assert form.s_sizes == ((16, 8), (8, 8))
    assert form.x_list == (1, 2, 2, 2)
    assert form.pr == Fraction(5, 8)


def test_decomposition_whole_abelian(named):
    c12 = named["c12"]
    whole = subgroup_from_members(c12, range(12))
    form = abelian_decomposition(c12, whole)
    assert form.index == 1 and form.x_list == (1,) and form.pr == 1


def test_decomposition_preconditions(named):
    s4 = named["s4"]
    with pytest.raises(PreconditionFailed):
        # the subgroup generated by all 3-cycles is A4: normal, not abelian
        sub = subgroup_from_generators(
            s4, [x for x in range(24) if element_orders(s4)[x] == 3]
        )
        abelian_decomposition(s4, sub)
    s3 = named["s3"]
    h2 = subgroup_from_generators(s3, [next(x for x in range(6) if element_orders(s3)[x] == 2)])
    with pytest.raises(PreconditionFailed):
        abelian_decomposition(s3, h2)


def test_subgroup_of_another_table_is_refused(named):
    """The decomposition and the orbit bound read only subgroups of G."""
    c8 = make(FamilySpec("cyclic", (8,)))[0]
    foreign = Subgroup(c8, (0, 2, 4, 6))
    with pytest.raises(ValueError, match="subgroup belongs to"):
        abelian_decomposition(named["d4"], foreign)
    with pytest.raises(ValueError, match="subgroup belongs to"):
        check_bounds(named["d4"], BoundContext(orbit_subgroup=foreign))


def test_multiplicativity_sample(corpus64):
    rng = random.Random(424242)
    from commprob.groups import direct_product

    pairs = 0
    while pairs < 12:
        (ta, sa), (tb, sb) = rng.sample(corpus64, 2)
        if ta.order * tb.order > 2048:
            continue
        prod = direct_product(ta, tb)
        assert pr_direct(prod) == pr_direct(ta) * pr_direct(tb)
        pairs += 1
