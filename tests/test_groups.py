"""Group engine tests: construction, validation, structure operations.

Derived expected values are frozen from independent oracles written
here (naive orbit scans, subset enumeration), never from the code paths
they check.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from commprob.errors import (
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    UnsupportedParams,
)
from commprob.families import FamilySpec, make
from commprob.groups import (
    ORDER_CAP,
    GroupTable,
    Permutation,
    Subgroup,
    all_subgroups,
    build_from_cayley,
    build_from_permutations,
    center,
    centralizer,
    commutator,
    conjugacy_classes,
    conjugate,
    derived_subgroup,
    direct_product,
    element_orders,
    fitting_subgroup,
    format_cycles,
    index_two_subgroups,
    is_abelian,
    is_nilpotent,
    is_normal,
    normal_core,
    orbit_count_on_normal,
    parse_cycles,
    prime_power,
    quotient,
    subgroup_from_generators,
    subgroup_from_members,
    subgroup_table,
    table_from_json,
)
from commprob.probability import pr_direct


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def naive_class_count(table) -> int:
    """Orbit enumeration with plain dict/set machinery."""
    n = len(table)
    inv = [row.index(0) for row in table]
    seen = set()
    count = 0
    for x in range(n):
        if x in seen:
            continue
        orbit = {table[table[inv[g]][x]][g] for g in range(n)}
        seen |= orbit
        count += 1
    return count


def naive_subgroup_sets(table) -> set[frozenset]:
    """All subgroups of a tiny group by subset enumeration."""
    n = len(table)
    out = set()
    for r in range(n):
        for extra in combinations([x for x in range(1, n)], r):
            cand = frozenset((0,) + extra)
            if n % len(cand):
                continue
            if all(table[a][b] in cand for a in cand for b in cand):
                out.add(cand)
    return out


def naive_permutation_table(degree: int, gens) -> list[list[int]]:
    """Breadth-first closure in generator order; every product is found by
    composing image tuples (apply the row element first)."""
    elems = [tuple(range(degree))]
    seen = set(elems)
    for cur in elems:  # the list grows while it is walked
        for g in gens:
            nxt = tuple(g.images[p] for p in cur)
            if nxt not in seen:
                seen.add(nxt)
                elems.append(nxt)
    index = {e: i for i, e in enumerate(elems)}
    return [[index[tuple(b[p] for p in a)] for b in elems] for a in elems]


def as_lists(G: GroupTable) -> list[list[int]]:
    return [[int(v) for v in row] for row in G.op]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_trivial_and_c2_tables():
    t = build_from_cayley([[0]])
    assert t.order == 1 and t.inv[0] == 0
    c2 = build_from_cayley([[0, 1], [1, 0]])
    assert c2.order == 2 and is_abelian(c2)


def test_identity_relabeled_to_zero():
    # C3 written with the identity at position 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    t = build_from_cayley(table)
    assert (t.op[0] == np.arange(3)).all()
    assert (t.op[:, 0] == np.arange(3)).all()


def test_validation_errors_name_cells():
    with pytest.raises(NotClosed) as e:
        build_from_cayley([[0, 5], [1, 0]])
    assert e.value.cell == (0, 1)
    with pytest.raises(NoIdentity):
        build_from_cayley([[1, 1], [1, 1]])
    # identity exists but a row repeats a value
    with pytest.raises(NotLatinSquare) as e:
        build_from_cayley([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    assert e.value.cell == (1, 1)
    # every row is Latin, but column 1 repeats a value
    with pytest.raises(NotLatinSquare) as e:
        build_from_cayley([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    assert e.value.cell == (2, 1)
    # Latin square with identity that is not associative
    with pytest.raises(NotAssociative) as e:
        build_from_cayley(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
    assert e.value.cell is not None


def test_closure_of_transposition_and_3cycle():
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    t = build_from_permutations(3, gens)
    assert t.order == 6
    assert naive_class_count(as_lists(t)) == 3


def test_permutation_closure_examples():
    assert build_from_permutations(4, []).order == 1
    d5 = build_from_permutations(
        5, [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 5)(3 4)", 5)]
    )
    assert d5.order == 10


def test_permutation_closure_determinism():
    gens = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)]
    t1 = build_from_permutations(4, gens)
    t2 = build_from_permutations(4, gens)
    assert np.array_equal(t1.op, t2.op) and np.array_equal(t1.inv, t2.inv)


def test_table_paths_agree_across_degrees():
    # padding with fixed points raises the degree without changing the
    # group or its breadth-first numbering; the tables must match
    small = build_from_permutations(
        3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    )
    padded = build_from_permutations(
        18, [parse_cycles("(1 2)", 18), parse_cycles("(1 2 3)", 18)]
    )
    assert np.array_equal(small.op, padded.op)


def _cycle(degree: int) -> str:
    return "(" + " ".join(str(i) for i in range(1, degree + 1)) + ")"


def _reflection(degree: int) -> str:
    return "".join(f"({i + 1} {degree - i + 1})" for i in range(1, (degree + 1) // 2))


@pytest.mark.parametrize(
    "degree, cycles",
    [
        (4, ["(1 2)", "(1 2 3 4)"]),  # S4
        (5, ["(1 2 3)", "(1 2 4)", "(1 2 5)"]),  # A5
        (10, [_cycle(10), _reflection(10)]),  # D10 on 10 points
        (20, [_cycle(20), _reflection(20)]),  # D20 on 20 points
        (18, ["(1 2)", "(1 2 3)"]),  # S3 padded with fixed points
    ],
)
def test_permutation_table_matches_naive_closure(degree, cycles):
    gens = [parse_cycles(c, degree) for c in cycles]
    G = build_from_permutations(degree, gens)
    expected = naive_permutation_table(degree, gens)
    assert as_lists(G) == expected
    assert [int(v) for v in G.inv] == [row.index(0) for row in expected]


@st.composite
def generator_lists(draw):
    """Degree 1-6 and 0-3 generators, drawn from a small pool that holds
    the identity, so identity and repeated generators both occur."""
    degree = draw(st.integers(1, 6))
    pool = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
    pool.append(list(range(degree)))
    picks = draw(st.lists(st.sampled_from(pool), max_size=3))
    return degree, [Permutation(degree, tuple(p)) for p in picks]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(generator_lists())
@example((1, []))
@example((4, [Permutation(4, (1, 0, 2, 3))] * 2 + [Permutation(4, (0, 1, 2, 3))]))
@example((6, [Permutation(6, (0, 1, 2, 3, 4, 5)), Permutation(6, (1, 0, 2, 3, 4, 5)),
              Permutation(6, (1, 2, 3, 4, 5, 0))]))  # S6 after the identity
def test_permutation_fill_matches_naive(group):
    degree, gens = group
    G = build_from_permutations(degree, gens)
    expected = naive_permutation_table(degree, gens)
    assert as_lists(G) == expected
    assert [int(v) for v in G.inv] == [row.index(0) for row in expected]


@pytest.mark.parametrize(
    "cycles, digest",
    [
        (["(1 2)", "(1 2 3 4 5 6 7)"],
         "d3948ec7d34931b6770bcec75f8e0b2a6e374496cc5dce8973ffe2078867ae97"),
        (["(1 2 3)", "(2 3 4 5 6 7)"],
         "db1ff13e360c6459afeab6116ea72234651b75dae934a2c98891f9662f9bf6d8"),
        (["(1 2 3)", "(3 4 5 6 7)"],
         "042729eab0a3ebe21c08182396d4171addfe2283bdb0cf98b14c43f25e3e2abb"),
    ],
    ids=["S7-transposition-7cycle", "S7-3cycle-6cycle", "A7"],
)
def test_permutation_table_bytes_are_pinned(cycles, digest):
    """Numbering, ``op`` and ``inv`` of degree-7 builds keep their bytes."""
    G = build_from_permutations(7, [parse_cycles(c, 7) for c in cycles])
    assert hashlib.sha256(G.op.tobytes() + G.inv.tobytes()).hexdigest() == digest


def test_permutation_build_memory_is_one_table():
    """Building S7 holds the 5040 x 5040 int32 table (97 MiB) and no
    second n^2 array, such as a Fortran-order copy to transpose."""
    gens = [parse_cycles("(1 2)", 7), parse_cycles("(1 2 3 4 5 6 7)", 7)]
    tracemalloc.start()
    try:
        G = build_from_permutations(7, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 5040
    assert peak <= G.op.nbytes + 8 * 2**20


def test_bad_degree_fails_before_building():
    with pytest.raises(UnsupportedParams):
        parse_cycles("()", -3)
    with pytest.raises(UnsupportedParams):
        build_from_permutations(-1, [])
    for call in (lambda: parse_cycles("(1 2)", 20_001),
                 lambda: build_from_permutations(20_001, [])):
        with pytest.raises(OrderCapExceeded):
            call()


def test_order_cap():
    # S8 has order 40 320; the closure stops once it passes ORDER_CAP
    gens = [parse_cycles("(1 2 3 4 5 6 7 8)", 8), parse_cycles("(1 2)", 8)]
    with pytest.raises(OrderCapExceeded):
        build_from_permutations(8, gens)


def test_cycle_notation_roundtrip():
    p = parse_cycles("(1 2)(3 4)", 5)
    assert p.images == (1, 0, 3, 2, 4)
    assert format_cycles(p) == "(1 2)(3 4)"
    assert parse_cycles("", 3).is_identity()
    assert format_cycles(parse_cycles("()", 3)) == "()"
    with pytest.raises(ValueError):
        parse_cycles("(1 2) junk", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2 1)", 3)


def test_permutation_algebra():
    a = parse_cycles("(1 2 3)", 3)
    assert (a * a.inverse()).is_identity()
    with pytest.raises(ValueError):
        Permutation(3, (0, 0, 1))


# ---------------------------------------------------------------------------
# products and quotients
# ---------------------------------------------------------------------------


def test_direct_product_basics(named):
    c2 = build_from_cayley([[0, 1], [1, 0]])
    v4 = direct_product(c2, c2)
    assert v4.order == 4 and is_abelian(v4)

    s3 = named["s3"]
    prod = direct_product(s3, s3)
    assert pr_direct(prod) == pr_direct(s3) ** 2

    triv = build_from_cayley([[0]])
    same = direct_product(s3, triv)
    assert np.array_equal(same.op, s3.op)

    c150, _ = make(FamilySpec("cyclic", (150,)))
    with pytest.raises(OrderCapExceeded):  # order 22 500, refused before any build
        direct_product(c150, c150)


def test_quotient(named, normals_of):
    s4 = named["s4"]
    v4 = [N for N in normals_of(s4) if N.order == 4][0]
    q = quotient(s4, v4)
    assert q.order == 6
    assert q.order * v4.order == s4.order
    assert conjugacy_classes(q).count == 3

    whole = subgroup_from_members(s4, range(24))
    assert quotient(s4, whole).order == 1
    triv = subgroup_from_members(s4, [0])
    assert np.array_equal(quotient(s4, triv).op, s4.op)

    s3 = named["s3"]
    h2 = subgroup_from_generators(s3, [next(x for x in range(6) if element_orders(s3)[x] == 2)])
    with pytest.raises(NotNormal):
        quotient(s3, h2)


# ---------------------------------------------------------------------------
# classes, centralizers, derived subgroups
# ---------------------------------------------------------------------------


def test_conjugacy_classes(named):
    c12 = named["c12"]
    part = conjugacy_classes(c12)
    assert part.count == 12 and all(len(c) == 1 for c in part.classes)

    s3 = named["s3"]
    assert sorted(conjugacy_classes(s3).sizes()) == [1, 2, 3]
    assert conjugacy_classes(named["a5"]).count == 5

    # partition invariants
    for g in (s3, named["d4"], named["q8"]):
        part = conjugacy_classes(g)
        assert sum(part.sizes()) == g.order
        assert part.classes[int(part.class_of[0])] == (0,)
        for cid, cls in enumerate(part.classes):
            assert g.order % len(cls) == 0
            assert all(part.class_of[x] == cid for x in cls)


def test_centralizer_and_center(named):
    c12 = named["c12"]
    assert centralizer(c12, range(12)).order == 12
    assert center(named["s3"]).members == (0,)
    assert center(named["d4"]).order == 2


def test_derived_subgroup(named):
    assert derived_subgroup(named["c12"]).order == 1
    assert derived_subgroup(named["s3"]).order == 3
    assert derived_subgroup(named["d4"]).order == 2


def test_commutator_convention(named):
    s3 = named["s3"]
    orders = element_orders(s3)
    transpositions = [x for x in range(6) if orders[x] == 2]
    a, b = transpositions[0], transpositions[1]
    assert orders[commutator(s3, a, b)] == 3
    # commuting pairs give the identity
    c12 = named["c12"]
    assert commutator(c12, 3, 7) == 0


@pytest.mark.parametrize("key", ["d6", "s4", "q8"])
def test_double_commutator_expansion(named, key):
    """[xy, zw] = [x,w]^y [x,z]^(wy) [y,w] [y,z]^w for 1000 sampled tuples."""
    g = named[key]
    rng = random.Random(20260810)
    n = g.order

    def mul(*els):
        acc = els[0]
        for e in els[1:]:
            acc = int(g.op[acc, e])
        return acc

    for _ in range(1000):
        x, y, z, w = (rng.randrange(n) for _ in range(4))
        lhs = commutator(g, mul(x, y), mul(z, w))
        rhs = mul(
            conjugate(g, commutator(g, x, w), y),
            conjugate(g, commutator(g, x, z), mul(w, y)),
            commutator(g, y, w),
            conjugate(g, commutator(g, y, z), w),
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# subgroup machinery
# ---------------------------------------------------------------------------


def test_subgroup_validation(named):
    s3 = named["s3"]
    with pytest.raises(ValueError):
        Subgroup(s3, (1, 2))  # no identity
    rot = next(x for x in range(6) if element_orders(s3)[x] == 3)
    with pytest.raises(ValueError):
        Subgroup(s3, (0, rot))  # not closed
    whole = subgroup_from_members(s3, range(6))
    assert whole.index == 1


def test_subgroup_closure_check(corpus48, subgroups_of):
    """Every subgroup of every group up to order 32 is accepted; a member
    set with its largest member swapped for the smallest non-member is
    accepted exactly when it is closed."""
    refused = 0
    for table, _spec in corpus48:
        if table.order > 32:
            continue
        for H in subgroups_of(table):
            assert Subgroup(table, H.members).members == H.members
            if H.order in (1, table.order):
                continue
            swapped = sorted(set(H.members[:-1]) | {min(set(range(table.order)) - set(H.members))})
            arr = np.asarray(swapped)
            closed = bool(np.isin(table.op[np.ix_(arr, arr)], arr).all())
            if closed:
                Subgroup(table, swapped)
            else:
                refused += 1
                with pytest.raises(ValueError, match="not closed under the group operation"):
                    Subgroup(table, swapped)
    assert refused > 1000


def test_alternating_subgroup_of_s7():
    G, _ = make(FamilySpec("symmetric", (7,)))
    A7 = derived_subgroup(G)
    assert Subgroup(G, A7.members).order == 2520
    odd = min(set(range(G.order)) - set(A7.members))
    with pytest.raises(ValueError, match="not closed under the group operation"):
        Subgroup(G, sorted(set(A7.members[:-1]) | {odd}))


def test_all_subgroups_counts(named):
    c5 = build_from_cayley([[(i + j) % 5 for j in range(5)] for i in range(5)])
    assert len(all_subgroups(c5)) == 2
    assert len(all_subgroups(named["s3"])) == 6
    assert len(all_subgroups(named["d4"])) == 10
    c193, _ = make(FamilySpec("cyclic", (193,)))  # just above SUBGROUP_CUTOFF
    with pytest.raises(OrderCapExceeded):
        all_subgroups(c193)


def test_all_subgroups_against_subset_enumeration(named):
    for g in (named["s3"], named["d4"], named["q8"], named["a4"]):
        expected = naive_subgroup_sets(as_lists(g))
        got = {frozenset(s.members) for s in all_subgroups(g)}
        assert got == expected


def test_all_subgroups_classical_counts(named, subgroups_of):
    # hand-countable class totals; A4 famously has nothing of order 6,
    # and A5's perfect subgroups must not be missed by the enumeration
    a4 = subgroups_of(named["a4"])
    assert len(a4) == 10
    assert all(s.order != 6 for s in a4)
    assert len(subgroups_of(named["s4"])) == 30
    a5 = subgroups_of(named["a5"])
    assert len(a5) == 59
    assert sum(1 for s in a5 if s.order == 12) == 5


def test_normal_subgroups(named, normals_of, subgroups_of):
    assert [N.order for N in normals_of(named["a5"])] == [1, 60]
    assert [N.order for N in normals_of(named["s4"])] == [1, 4, 12, 24]
    # abelian: every subgroup is normal
    c12 = named["c12"]
    assert {frozenset(N.members) for N in normals_of(c12)} == {
        frozenset(s.members) for s in subgroups_of(c12)
    }
    # and normal subgroups really are the normal ones among all subgroups
    s4 = named["s4"]
    expected = {frozenset(s.members) for s in subgroups_of(s4) if is_normal(s4, s)}
    assert {frozenset(N.members) for N in normals_of(s4)} == expected


def test_normal_core(named, subgroups_of):
    s3 = named["s3"]
    a3 = subgroup_from_generators(s3, [next(x for x in range(6) if element_orders(s3)[x] == 3)])
    assert normal_core(s3, a3).members == a3.members
    h2 = next(s for s in subgroups_of(s3) if s.order == 2)
    assert normal_core(s3, h2).members == (0,)


def test_normal_core_properties(corpus48, normals_of, subgroups_of):
    import math

    for table, spec in corpus48:
        normals = normals_of(table)
        for H in subgroups_of(table):
            core = normal_core(table, H)
            assert is_normal(table, core)
            assert set(core.members) <= set(H.members)
            for N in normals:
                if set(N.members) <= set(H.members):
                    assert set(N.members) <= set(core.members)
            # core index divides index(H)! as in the factorial bound
            assert math.factorial(H.index) % core.index == 0


def test_fitting_subgroup(named):
    assert fitting_subgroup(named["d4"]).order == 8  # 2-group is nilpotent
    f = fitting_subgroup(named["s3"])
    assert f.order == 3
    assert fitting_subgroup(named["a5"]).order == 1


def test_fitting_subgroup_above_enumeration_cutoff():
    for family, params, fit_order in [
        ("symmetric", (7,), 1),
        ("alternating", (7,), 1),
        ("dicyclic", (300,), 600),
        ("dihedral", (1000,), 1000),
    ]:
        G, _ = make(FamilySpec(family, params))
        fit = fitting_subgroup(G)
        assert fit.order == fit_order, family
        assert is_normal(G, fit)


def test_closures_memory_is_linear():
    """Closures on S7 run the breadth-first pass over generator maps and
    form no |H| x |H| product block (a 5040 x 5040 int32 block is
    101 MB) and no n x |H| commutator matrix."""
    G, _ = make(FamilySpec("symmetric", (7,)))
    for call, expected in [
        (lambda: subgroup_from_generators(G, G.generators).order, 5040),
        (lambda: [H.order for H in index_two_subgroups(G)], [2520]),
        (lambda: is_nilpotent(G), False),
    ]:
        tracemalloc.start()
        try:
            assert call() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, expected


def test_fitting_contains_all_nilpotent_normals(corpus48, normals_of):
    for table, spec in corpus48:
        fit = fitting_subgroup(table)
        assert is_normal(table, fit)
        assert is_nilpotent(subgroup_table(table, fit))
        for N in normals_of(table):
            if is_nilpotent(subgroup_table(table, N)):
                assert set(N.members) <= set(fit.members)


def test_orbit_count_on_normal(named):
    s3 = named["s3"]
    whole = subgroup_from_members(s3, range(6))
    assert orbit_count_on_normal(s3, whole) == conjugacy_classes(s3).count
    a3 = subgroup_from_generators(s3, [next(x for x in range(6) if element_orders(s3)[x] == 3)])
    assert orbit_count_on_normal(s3, a3) == 2
    d4 = named["d4"]
    z = center(d4)
    assert orbit_count_on_normal(d4, z) == z.order
    h2 = next(s for s in all_subgroups(s3) if s.order == 2)
    with pytest.raises(NotNormal):
        orbit_count_on_normal(s3, h2)


def test_index_two_subgroups_match_enumeration(corpus16, subgroups_of):
    for table, spec in corpus16:
        expected = {
            frozenset(s.members)
            for s in subgroups_of(table)
            if s.order * 2 == table.order
        }
        got = {frozenset(s.members) for s in index_two_subgroups(table)}
        assert got == expected, spec.name


def test_structural_orders_divide(corpus16):
    for table, spec in corpus16:
        n = table.order
        assert n % center(table).order == 0
        assert n % derived_subgroup(table).order == 0


def test_constructed_tables_revalidate(corpus16):
    """Every constructor output passes full table validation."""
    for table, spec in corpus16:
        rebuilt = build_from_cayley(as_lists(table), name=spec.name)
        assert rebuilt.validation == "full"
        assert np.array_equal(rebuilt.op, table.op)


def relabelled(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same table with its labels renumbered at random."""
    perm = np.asarray(rng.sample(range(len(table)), len(table)))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def swap_intercalate(table: np.ndarray, rng: random.Random) -> None:
    """Swap the two values of a random intercalate (rows a, b and columns
    c, d with table[a, c] = table[b, d] and table[a, d] = table[b, c]),
    away from row and column 0, in place. The result is still a Latin
    square with identity 0. Unchanged if there is none."""
    n = len(table)
    pairs = list(combinations(range(1, n), 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        column_in_b = np.argsort(table[b])
        for c in rng.sample(range(1, n), n - 1):
            d = int(column_in_b[table[a, c]])
            if d != 0 and table[a, d] == table[b, c]:
                u, v = int(table[a, c]), int(table[a, d])
                table[a, c] = table[b, d] = v
                table[a, d] = table[b, c] = u
                return


def assert_violation(table: np.ndarray, cell) -> None:
    """``cell`` is in build_from_cayley's numbering, where the input's
    identity e and label 0 swap; it must be a real (xs)y != x(sy)."""
    e = int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])
    x, s, y = (e if v == 0 else 0 if v == e else v for v in cell)
    assert table[table[x, s], y] != table[x, table[s, y]]


def test_large_tables_fully_validated():
    n = 600
    cyclic = np.add.outer(np.arange(n), np.arange(n)) % n
    assert build_from_cayley(cyclic.tolist()).validation == "full"
    loop = cyclic.copy()
    half = n // 2  # rows and columns 1 and 1 + n/2 hold an intercalate
    loop[1, 1] = loop[1 + half, 1 + half] = 2 + half
    loop[1, 1 + half] = loop[1 + half, 1] = 2
    loop = relabelled(loop, random.Random(7))
    with pytest.raises(NotAssociative) as e:
        build_from_cayley(loop.tolist())
    assert_violation(loop, e.value.cell)


def test_associativity_verdict_matches_brute_force(corpus16):
    """Random loops of order <= 16 (group tables with 0-3 intercalate
    swaps, relabelled): the verdict equals an n^3 check, and a refusal
    names a real violation."""
    rng = random.Random(20_251)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        table, _spec = rng.choice(corpus16)
        loop = np.array(table.op)
        for _swap in range(rng.randint(0, 3)):
            swap_intercalate(loop, rng)
        loop = relabelled(loop, rng)
        associative = bool(np.array_equal(loop[loop], loop[:, loop]))
        verdicts[associative] += 1
        if associative:
            assert build_from_cayley(loop.tolist()).validation == "full"
        else:
            with pytest.raises(NotAssociative) as e:
                build_from_cayley(loop.tolist())
            assert_violation(loop, e.value.cell)
    assert min(verdicts.values()) > 400, verdicts


def test_cayley_validation_memory_is_linear():
    """Validating an order-720 table (2 MB as int32) forms no n^3 or
    sampled-triple temporaries and no n^2 inverse search."""
    G, _ = make(FamilySpec("symmetric", (6,)))
    table = relabelled(np.array(G.op), random.Random(3)).tolist()
    tracemalloc.start()
    try:
        assert build_from_cayley(table).validation == "full"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "family, seed, digest",
    [
        ((("symmetric", (5,)),), 5,
         "3b8abbf38da38f964f49771953be3f076782acc992c4b1387cc0d7a2f78f9a9e"),
        ((("alternating", (6,)), ("cyclic", (2,))), 12,
         "ac8e6d804e86a322ed0a64ed43b3b5721fb680001a3d8aafcd6da4e92e6ae217"),
    ],
    ids=["S5", "A6xC2"],
)
def test_identity_swap_bytes_are_pinned(family, seed, digest):
    """The identity of a relabelled table is moved to 0 by swapping rows,
    columns and values 0 and e in place; the bytes of ``op`` and ``inv``
    are those of the former ``relabel[op[np.ix_(relabel, relabel)]]``."""
    factors = [make(FamilySpec(name, params))[0] for name, params in family]
    G = factors[0] if len(factors) == 1 else direct_product(*factors)
    table = relabelled(np.array(G.op), random.Random(seed))
    assert table[0, 0] != 0  # the identity is off 0
    H = build_from_cayley(table.tolist())
    assert hashlib.sha256(H.op.tobytes() + H.inv.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# reading tables from JSON text
# ---------------------------------------------------------------------------


def json_table(text: str) -> np.ndarray:
    return np.asarray(json.loads(text))


@pytest.mark.filterwarnings("error")
def test_table_reader_takes_both_spellings():
    G, _ = make(FamilySpec("symmetric", (4,)))
    table = relabelled(np.array(G.op), random.Random(1)).tolist()
    for text in (
        json.dumps(table, separators=(",", ":")),
        json.dumps(table),
        json.dumps(table) + "\n",
        " \t\r\n" + json.dumps(table, separators=(",", ":")),
        json.dumps([[0]]),
        json.dumps([[12345678901234567, 0], [9223372036854775806, 10]]),
    ):
        got = table_from_json(text)
        assert got is not None, text
        want = json_table(text)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text",
    [
        "[[01]]",  # np.fromstring reads a leading zero, JSON does not
        "[[0,1],[1,00]]",
        "[[+1]]",  # nor a plus sign
        "[[0,1],[1,+0]]",
        "[[1,2,]]",  # np.fromstring takes a trailing comma
        "[[0,1,],[1,0]]",
        "[[0,1],[1,0],]",
        "[[02,],[10,10]]",  # the extra digit would make up for the lost value
        "[[,0,1],[1,0]]",
        "[[,021],[2,1]]",
        "[[0,,1],[1,0]]",
        "[[1,,2],[2,1,0],[0,1,2]]",
        "[[0,1],[]]",
        "[[]]",
        "[[[]]",  # np.fromstring(count=...) makes up values it cannot read
        "[[0,[],[1,0]]",
        "[[1[0],[1,0]]",
        "[[2,2]],[,2]]",
        "[[99999999999999999999]]",  # np.fromstring clamps it to the int64 maximum
        "[[9223372036854775808]]",
        "[[9223372036854775807]]",  # the maximum itself cannot be told from a clamp
        "[[1]2]",  # bracket counts that add up in a text that is no table
        "[[1],[2,3]]",
        "[[1,2],[3]]",
        "[[0,1,2],[3]]",  # ragged, with n^2 values in all
        "[[0,[1],[1,0]]",
        "[[0,1]],[[1,0]]",
        "[[0, 1],[1,  0]]",  # whitespace other than ", " is left to json.loads
        "[[0,1] ,[1,0]]",
        "[[0,1],\n[1,0]]",
        "[[-0]]",
        "[[1.0]]",
        "[[1e0]]",
        "[[true]]",
        "[[0,1],[1,0]]\u00a0",
        "[[\uff10]]",
    ],
)
def test_table_reader_refuses_what_it_cannot_prove(text):
    assert table_from_json(text) is None


@pytest.mark.filterwarnings("error")
def test_table_reader_checks_the_value_count(monkeypatch):
    """On numpy < 2, np.fromstring returns what it read so far from text it
    cannot parse; a short read must never pass as a table."""
    monkeypatch.setattr(np, "fromstring", lambda *args, **kwargs: np.array([0, 1, 1]))
    assert table_from_json("[[0,1],[1,0]]") is None


def test_table_order_cap_is_checked_from_the_row_count():
    """Neither the reader nor build_from_cayley forms an n^2 array above
    ORDER_CAP: the text is a skeleton of one-value rows, and the array
    is a zero-stride view."""
    skeleton = "[" + ",".join(["[0]"] * (ORDER_CAP + 1)) + "]"
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded, match=f"{ORDER_CAP + 1} rows"):
            table_from_json(skeleton)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(skeleton)
    assert table_from_json("[" + ",".join(["[0]"] * ORDER_CAP) + "]") is None  # ragged
    with pytest.raises(OrderCapExceeded):
        build_from_cayley(np.broadcast_to(np.int32(0), (ORDER_CAP + 1, ORDER_CAP + 1)))


@st.composite
def table_texts(draw):
    """JSON texts of square and ragged integer tables, compact or with the
    json.dumps separators, each with at most one byte changed, put in or
    taken out."""
    n = draw(st.integers(1, 4))
    value = st.one_of(st.integers(0, 12), st.integers(-3, 3), st.integers(2**62, 2**65))
    rows = [draw(st.lists(value, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = draw(st.lists(value, max_size=n + 1))
    text = json.dumps(rows, separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    at = draw(st.integers(0, len(text)))
    byte = draw(st.sampled_from(list("0123456789[],-+. \n")))
    edit = draw(st.sampled_from(["keep", "replace", "insert", "delete"]))
    if edit == "replace":
        text = text[:at] + byte + text[at + 1:]
    elif edit == "insert":
        text = text[:at] + byte + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    return text


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(table_texts())
@example("[[0,1],[1,0]]")
@example("[[0, 1], [1, 0]]")
@example("[[0,1],[1,0 ]]")
@example("[[0,1],[1,0],[2,]]")
def test_table_reader_agrees_with_json(text):
    got = table_from_json(text)
    if got is not None:
        want = json_table(text)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_prime_power_against_trial_factorization():
    for n in range(-2, 2000):
        factors = [d for d in range(2, n + 1) if n % d == 0 and all(d % q for q in range(2, d))]
        expected = None
        if len(factors) == 1:
            p, k, m = factors[0], 0, n
            while m % p == 0:
                m, k = m // p, k + 1
            expected = (p, k)
        assert prime_power(n) == expected, n


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(g) for g in gens]


def scrambled(G: GroupTable, rng: random.Random) -> GroupTable:
    """The same group as a validated Cayley table with its elements
    renumbered at random, so that greedy generators meet a numbering
    that is not breadth-first order."""
    return build_from_cayley(relabelled(G.op, rng).tolist())


@settings(max_examples=36, deadline=None, derandomize=True)
@given(permutation_groups(), st.randoms(use_true_random=False))
@example(group=(2, [(0, 1)]), rng=random.Random(0))  # trivial: no generators
@example(group=(6, [(1, 2, 3, 4, 5, 0)]), rng=random.Random(1))  # cyclic: one
def test_structure_matches_sympy(group, rng):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    degree, images = group
    S = combinatorics.PermutationGroup([combinatorics.Permutation(list(im)) for im in images])
    assume(S.order() <= 720)
    G = build_from_permutations(degree, [Permutation(degree, im) for im in images])
    for T in (G, scrambled(G, rng)):
        assert T.order == S.order()
        assert subgroup_from_generators(T, T.generators).order == T.order
        assert 2 ** len(T.generators) <= T.order
        assert conjugacy_classes(T).count == len(S.conjugacy_classes())
        assert center(T).order == S.center().order()
        assert derived_subgroup(T).order == S.derived_subgroup().order()
        assert is_nilpotent(T) == S.is_nilpotent


def test_generators_of_trivial_and_cyclic_groups():
    assert build_from_cayley([[0]]).generators == ()
    for n in range(2, 13):
        C, _ = make(FamilySpec("cyclic", (n,)))
        assert C.generators == (1,)
        assert conjugacy_classes(C).count == center(C).order == n
        assert derived_subgroup(C).order == 1


def test_structure_memory_is_linear():
    """Classes, center and derived subgroup of S7 stay far below one
    5040 x 5040 int32 matrix (101 MB): neither the conjugates of every
    element by every element nor all n^2 commutators are ever formed."""
    G, _ = make(FamilySpec("symmetric", (7,)))
    tracemalloc.start()
    try:
        assert conjugacy_classes(G).count == 15
        assert center(G).order == 1
        assert derived_subgroup(G).order == 2520
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20
