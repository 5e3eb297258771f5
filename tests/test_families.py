"""Family constructors and the corpus."""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from commprob.errors import CommprobError, OrderCapExceeded, UnsupportedParams
from commprob.families import (
    FamilySpec,
    corpus,
    cyclic_table,
    dicyclic_table,
    dihedral_group,
    heisenberg_table,
    make,
    product_spec,
)
from commprob.groups import (
    SUBGROUP_CUTOFF,
    center,
    derived_subgroup,
    is_abelian,
)
from commprob.probability import check_bounds, pr_direct, pr_report

from oracles import central_product, dihedral_by_permutations, element_orders, fingerprint


def test_make_examples():
    d7, spec = make(FamilySpec("dihedral", (7,)))
    assert d7.order == 14 and spec.expected_pr == Fraction(5, 14)
    es, spec = make(FamilySpec("extraspecial", (3, 1)))
    assert es.order == 27 and spec.expected_pr == Fraction(11, 27)
    c12, spec = make(FamilySpec("cyclic", (12,)))
    assert spec.expected_pr == 1


def test_expected_pr_is_exact_on_corpus(corpus64):
    for table, spec in corpus64:
        if spec.expected_pr is not None:
            assert pr_direct(table) == spec.expected_pr, spec.name


def test_dihedral_both_branches():
    for n in range(2, 31):
        table, spec = make(FamilySpec("dihedral", (n,)))
        want = Fraction(n + 6, 4 * n) if n % 2 == 0 else Fraction(n + 3, 4 * n)
        assert spec.expected_pr == want
        assert pr_direct(table) == want, n


def test_d2_is_klein_four():
    table, spec = make(FamilySpec("dihedral", (2,)))
    assert table.order == 4 and is_abelian(table)
    assert spec.expected_pr == 1 == Fraction(2 + 6, 8)


def test_dicyclic():
    q8, spec = make(FamilySpec("dicyclic", (2,)))
    assert q8.order == 8 and pr_direct(q8) == Fraction(5, 8)
    assert spec.expected_pr is None  # no closed form recorded for dicyclic
    dic3, _ = make(FamilySpec("dicyclic", (3,)))
    assert dic3.order == 12
    orders = element_orders(q8)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]  # quaternion signature


def test_dicyclic_table_matches_product_rules():
    # a^i b^j is i + 2m*j; from b a^k = a^-k b and b^2 = a^m:
    # a^i * a^k b^l = a^(i+k) b^l, a^i b * a^k = a^(i-k) b, a^i b * a^k b = a^(i-k+m)
    for m in range(1, 9):
        table = dicyclic_table(m)
        for x in range(4 * m):
            i, j = x % (2 * m), x // (2 * m)
            for y in range(4 * m):
                k, l = y % (2 * m), y // (2 * m)
                if j == 0:
                    want = (i + k) % (2 * m) + 2 * m * l
                elif l == 0:
                    want = (i - k) % (2 * m) + 2 * m
                else:
                    want = (i - k + m) % (2 * m)
                assert table.mul(x, y) == want, (m, x, y)
        assert all(table.mul(x, table.inverse(x)) == 0 for x in range(4 * m))


@pytest.mark.parametrize("n", [*range(2, 65), 255, 256, 257, 1000])
def test_dihedral_closed_form_is_the_permutation_build(n):
    """The closed form of D_n numbers its elements as the permutation
    build does: every right map, ``inv`` and the filled table match it
    byte for byte. From degree 257 on a point no longer fits in a byte;
    the closure keeps every point in 2 bytes, and degrees 255, 256 and
    257 check that nothing changes there."""
    G, oracle = dihedral_group(n), dihedral_by_permutations(n)
    maps = np.stack([G._right_map(s) for s in range(G.order)], axis=1)
    assert "op" not in vars(G)
    assert np.array_equal(maps, oracle.op)
    assert G.inv.tobytes() == oracle.inv.tobytes()
    assert G.op.dtype == np.int32 and G.op.tobytes() == oracle.op.tobytes()


def test_closed_form_families_fill_no_table():
    """Cyclic, dicyclic and dihedral members, and products of two, are
    built without a table, and Pr (and the bound suite above the
    subgroup cutoff) reads none."""
    specs = [FamilySpec(f, (n,)) for f, ns in (("cyclic", (1, 2, 7, 250, 5000)),
                                               ("dihedral", (2, 3, 8, 120, 1000)),
                                               ("dicyclic", (2, 7, 300))) for n in ns]
    specs += [product_spec(FamilySpec(*a), FamilySpec(*b)) for a, b in (
        (("cyclic", (2,)), ("dihedral", (120,))), (("dicyclic", (3,)), ("dihedral", (5,))),
        (("dihedral", (2,)), ("cyclic", (3,))), (("dicyclic", (25,)), ("cyclic", (4,))))]
    for spec in specs:
        G, _ = make(spec)
        assert "op" not in vars(G), G.name
        assert pr_report(G).order == G.order
        if G.order > SUBGROUP_CUTOFF:
            check_bounds(G)
        assert "op" not in vars(G), G.name


def test_pr_of_the_largest_cyclic_group_needs_no_table(capsys):
    """``pr`` on C_20000, whose table would take 1.5 GiB, peaks under
    64 MiB of tracemalloc."""
    from commprob.cli import main

    tracemalloc.start()
    try:
        code = main(["pr", "--family", "cyclic", "--params", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "1\n")
    assert peak < 64 * 2**20


def test_cyclic_and_dicyclic_tables_are_pinned():
    """The op and inv bytes of C_n and Dic_m, pinned when the tables were
    still formed from whole-table temporaries and Dic's inverses found by
    a search of its table."""
    digests = {}
    for builder, params in ((cyclic_table, [*range(1, 60), 250, 1000]),
                            (dicyclic_table, [*range(1, 60), 250, 300])):
        h = hashlib.sha256()
        for n in params:
            G = builder(n)
            assert G.op.dtype == G.inv.dtype == np.int32 and G.op.flags.c_contiguous
            h.update(G.op.tobytes() + G.inv.tobytes())
        digests[builder.__name__] = h.hexdigest()
    assert digests == {
        "cyclic_table": "594a47f4c8e2c85c6eda4ba1ab8f4943ad1bcafecb044cb372c53d0c2c2085c3",
        "dicyclic_table": "9b9b0fa5b5090dd66c6873cbccc352068ce5851a30854a5b1e842d6f23889c63",
    }


@pytest.mark.parametrize("builder, n", [(cyclic_table, 2048), (dicyclic_table, 512)])
def test_cyclic_and_dicyclic_build_in_place(builder, n):
    """The table is the only n^2 array made, by the build and the fill
    of ``op`` on its first read: the peak stays within 1 MiB of it
    (C6000 once peaked at twice its 137 MiB table, Dic1500 at three times)."""
    tracemalloc.start()
    try:
        G = builder(n)
        assert G.op.shape == (G.order, G.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= G.op.nbytes + 2**20


def test_isoclinic_pair_spot_check(named):
    # D4 and Q8 share Pr although they are not isomorphic
    assert pr_direct(named["d4"]) == pr_direct(named["q8"]) == Fraction(5, 8)


def test_extraspecial_invariants():
    for p, s in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        table, spec = make(FamilySpec("extraspecial", (p, s)))
        z = center(table)
        der = derived_subgroup(table)
        assert table.order == p ** (2 * s + 1)
        assert z.order == p and der.members == z.members
        assert table.order // z.order == p ** (2 * s)
        assert pr_direct(table) == spec.expected_pr
        assert spec.expected_d == p**s


def test_extraspecial_at_order_cap():
    table, spec = make(FamilySpec("extraspecial", (5, 2)))
    assert table.order == 3125
    assert pr_direct(table) == spec.expected_pr == Fraction(629, 3125)


def test_extraspecial_matches_central_product():
    """The direct table construction agrees with gluing two base blocks."""
    base = heisenberg_table(2, 1)
    glued, _ = central_product(base, 1, base, 1)
    direct = heisenberg_table(2, 2)
    assert fingerprint(glued) == fingerprint(direct)
    assert sorted(element_orders(glued)) == sorted(element_orders(direct))


def naive_heisenberg(p: int, s: int) -> list[list[int]]:
    """(a, b, c)(a', b', c') = (a+a', b+b', c+c'+a.b') over tuples, with
    index c + p*(b digits) + p^(s+1)*(a digits), low digit first."""
    elems = []
    for idx in range(p ** (2 * s + 1)):
        digits = []
        for _ in range(2 * s + 1):
            idx, d = divmod(idx, p)
            digits.append(d)
        elems.append((tuple(digits[s + 1:]), tuple(digits[1:s + 1]), digits[0]))
    index = {e: i for i, e in enumerate(elems)}
    return [
        [
            index[(
                tuple((x + y) % p for x, y in zip(a, a2)),
                tuple((x + y) % p for x, y in zip(b, b2)),
                (c + c2 + sum(x * y for x, y in zip(a, b2))) % p,
            )]
            for a2, b2, c2 in elems
        ]
        for a, b, c in elems
    ]


def test_heisenberg_table_matches_formula_in_bounded_memory():
    for p, s in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        assert heisenberg_table(p, s).op.tolist() == naive_heisenberg(p, s)
    # order 3125: the int32 table is 39 MB, and the digit arithmetic runs
    # a block of about 2^20 cells at a time
    tracemalloc.start()
    try:
        table = heisenberg_table(5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.order == 3125
    assert peak < 64 * 2**20


def test_family_param_validation():
    with pytest.raises(UnsupportedParams):
        make(FamilySpec("dihedral", (1,)))
    with pytest.raises(UnsupportedParams):
        make(FamilySpec("extraspecial", (4, 1)))  # 4 is not prime
    with pytest.raises(UnsupportedParams):
        make(FamilySpec("cyclic", ()))
    with pytest.raises(UnsupportedParams):
        make(FamilySpec("nosuch", (1,)))
    with pytest.raises(OrderCapExceeded):
        make(FamilySpec("symmetric", (9,)))
    with pytest.raises(OrderCapExceeded):
        make(FamilySpec("extraspecial", (5, 3)))


def test_product_spec_roundtrip():
    a = FamilySpec("dihedral", (4,))
    b = FamilySpec("extraspecial", (3, 1))
    spec = product_spec(a, b)
    table, filled = make(spec)
    assert table.order == 8 * 27
    assert filled.expected_pr == Fraction(5, 8) * Fraction(11, 27)
    assert filled.expected_d == 2  # min of the two factor degrees
    with pytest.raises(UnsupportedParams):
        product_spec(spec, a)  # no nesting


def test_product_degree_metadata():
    # abelian x nonabelian keeps the nonabelian degree
    spec = product_spec(FamilySpec("cyclic", (3,)), FamilySpec("dihedral", (5,)))
    _, filled = make(spec)
    assert filled.expected_d == 2
    # nonabelian factor without metadata poisons the product metadata
    spec = product_spec(FamilySpec("dicyclic", (3,)), FamilySpec("dihedral", (5,)))
    _, filled = make(spec)
    assert filled.expected_d is None


def test_corpus_contents():
    tiny = corpus(1)
    assert len(tiny) == 1 and tiny[0][0].order == 1

    c8 = corpus(8)
    names = [spec.name for _, spec in c8]
    assert "D4" in names and "Dic2" in names
    by_name = {spec.name: table for table, spec in c8}
    assert pr_direct(by_name["D4"]) == pr_direct(by_name["Dic2"]) == Fraction(5, 8)
    # C2 x C2 x C2 appears as the product D2 x C2
    assert any(
        table.order == 8 and is_abelian(table) and max(element_orders(table)) == 2
        for table, _ in c8
    )

    c60 = corpus(60)
    a5 = next(spec for _, spec in c60 if spec.name == "A5")
    assert a5.expected_pr == Fraction(1, 12)


BUILDERS = {
    "cyclic": "cyclic_table",
    "dihedral": "dihedral_group",
    "symmetric": "symmetric_group",
    "alternating": "alternating_group",
    "dicyclic": "dicyclic_table",
    "extraspecial": "heisenberg_table",
    "product": "direct_product",
}


def test_corpus_builds_each_group_once(monkeypatch):
    """One builder call per member: products are formed from the factor
    tables already built, not by building the factors again."""
    from commprob import families

    calls = Counter()
    for builder in BUILDERS.values():
        def counted(*args, _builder=builder, _build=getattr(families, builder)):
            calls[_builder] += 1
            return _build(*args)

        monkeypatch.setattr(families, builder, counted)
    members = Counter(spec.family for _, spec in corpus(16))
    assert set(members) == set(BUILDERS)
    assert calls == Counter({BUILDERS[fam]: k for fam, k in members.items()})


def test_corpus_checks_its_cells_before_building(monkeypatch, capsys):
    """corpus() holds every table at once; above ORDER_CAP**2 cells in all
    it raises OrderCapExceeded before building anything."""
    from commprob import families
    from commprob.cli import main

    def must_not_build(*args, **kwargs):
        raise AssertionError("reached a builder")

    for builder in BUILDERS.values():
        monkeypatch.setattr(families, builder, must_not_build)
    # at the default cap, corpus(448) fits and corpus(480) does not
    with pytest.raises(AssertionError):
        corpus(448)
    for max_order in (480, 1024):
        with pytest.raises(OrderCapExceeded):
            corpus(max_order)

    monkeypatch.setattr(families, "ORDER_CAP", 100)
    with pytest.raises(AssertionError):
        corpus(17)  # 9 307 cells
    with pytest.raises(OrderCapExceeded):
        corpus(18)  # 12 547 cells
    capsys.readouterr()
    assert main(["survey", "--corpus", "18"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "12547" in err and "10000" in err


@pytest.mark.parametrize("max_order", [100_000, 10**12])
def test_corpus_refuses_a_huge_order_at_once(monkeypatch, capsys, max_order):
    """Past ORDER_CAP**2 cells in its cyclic members alone, corpus() refuses
    before it lists any other member or any product pair."""
    from commprob import families
    from commprob.cli import main

    def must_not_build(*args, **kwargs):
        raise AssertionError("reached a builder")

    for builder in BUILDERS.values():
        monkeypatch.setattr(families, builder, must_not_build)
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["survey", "--corpus", str(max_order)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "error:" in err and f"corpus({max_order})" in err
    monkeypatch.setattr(families, "ORDER_CAP", 10)  # read at call time
    with pytest.raises(OrderCapExceeded, match="at least 385 table cells"):
        corpus(10)


def test_corpus_is_deterministic():
    first = [(spec.name, table.order) for table, spec in corpus(24)]
    second = [(spec.name, table.order) for table, spec in corpus(24)]
    assert first == second


def test_family_spec_json():
    spec = FamilySpec("dihedral", (7,))
    assert spec.to_json_dict() == {"family": "dihedral", "params": [7]}


def test_order_is_checked_before_building(monkeypatch, capsys):
    from commprob import families
    from commprob.cli import main

    monkeypatch.setattr(families, "ORDER_CAP", 100)
    assert make(FamilySpec("cyclic", (100,)))[0].order == 100
    assert main(["pr", "--family", "cyclic", "--params", "100"]) == 0

    def must_not_build(*args, **kwargs):
        raise AssertionError("built a group above the order cap")

    for builder in ("cyclic_table", "dihedral_group", "dicyclic_table", "direct_product"):
        monkeypatch.setattr(families, builder, must_not_build)
    too_big = [
        FamilySpec("cyclic", (101,)),
        FamilySpec("dihedral", (51,)),
        FamilySpec("dicyclic", (26,)),
        product_spec(FamilySpec("cyclic", (10,)), FamilySpec("cyclic", (11,))),
        FamilySpec("extraspecial", (10**18 + 9, 1)),  # no trial division up to 10**9
    ]
    for spec in too_big:
        with pytest.raises(OrderCapExceeded):
            make(spec)
    capsys.readouterr()
    assert main(["pr", "--family", "cyclic", "--params", "101"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "101" in err and "100" in err


# the domain edges of every one-parameter family and of extraspecial's
# (p, s), plus a bad name, bad arities and bad product params
_EDGE_SPECS = (
    [FamilySpec(fam, (n,))
     for fam in ("cyclic", "dihedral", "symmetric", "alternating", "dicyclic")
     for n in (-1, 0, 1, 2, 3, 4, 7, 8, 10**18)]
    + [FamilySpec("extraspecial", (p, s))
       for p in (-1, 0, 1, 2, 3, 4, 5, 7, 10**18 + 9)
       for s in (-1, 0, 1, 2, 3, 10**18)]
    + [FamilySpec(fam, params) for fam, params in (
        ("nosuch", (1,)), ("cyclic", ()), ("cyclic", (1, 2)), ("extraspecial", (3,)),
        ("product", ()), ("product", (0,)), ("product", (0, 2)), ("product", (9, 1, 0, 1)),
        ("product", (-1, 2, 0, 2)), ("product", (0, 2, 0, 3, 0, 4)),
        ("product", (0, 2, 5, 3, 1)), ("product", (2, 8, 0, 2)), ("product", (0, 2, 1, 1)),
    )]
)


def test_corpus_and_family_domains_are_pinned():
    """The corpus(256) specs, names and op/inv bytes, and the outcome of
    ``make`` (the filled spec, or the error type and message) at the edges
    of each family's domain, as one sha256 taken while each family's
    domain was still written out in ``_order_of`` and in ``corpus``."""
    h = hashlib.sha256()
    for table, spec in corpus(256):
        h.update(f"{spec!r}|{table.name}|{table.op.dtype.str}|".encode())
        h.update(table.op.tobytes() + table.inv.tobytes())
    for spec in _EDGE_SPECS:
        try:
            outcome = repr(make(spec)[1])
        except CommprobError as exc:
            outcome = f"{type(exc).__name__}({exc})"
        h.update(f"{spec!r}->{outcome}\n".encode())
    assert h.hexdigest() == (
        "5ee505581acb06370ecc02aa74cf0052e054c635cba17542e0156c91ec861814"
    )
