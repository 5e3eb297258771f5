"""Group engine tests: construction, validation, structure operations.

Derived expected values are frozen from independent oracles written
here (naive orbit scans, subset enumeration), never from the code paths
they check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import commprob.cli
import commprob.groups as groups_module
from commprob.errors import (
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    UnsupportedParams,
)
from commprob.families import FamilySpec, corpus, make, product_spec
from commprob.groups import (
    ORDER_CAP,
    SUBGROUP_CUTOFF,
    GroupTable,
    Permutation,
    Subgroup,
    all_subgroups,
    build_from_cayley,
    build_from_permutations,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    fitting_subgroup,
    format_cycles,
    index_two_subgroups,
    is_abelian,
    is_nilpotent,
    is_normal,
    normal_core,
    normal_subgroups,
    orbit_count_on_normal,
    parse_cycles,
    prime_power,
    quotient,
    subgroup_from_generators,
    subgroup_from_members,
    subgroup_table,
    table_from_json,
)
from commprob.probability import (
    BoundContext,
    check_bounds,
    pr_direct,
    pr_report,
    verify_special_forms,
)

from oracles import (
    conjugate,
    cosets_by_table,
    dihedral_by_permutations,
    element_orders,
    latin_first_verdict,
)


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


def filled(G: GroupTable) -> bool:
    """Whether G's table exists: given to it, or filled from its map
    source by a read of ``op``."""
    return "op" in vars(G)


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


def _first_repeat(lines):
    """(line, position) of the first value seen twice along some line."""
    for i, line in enumerate(lines):
        seen = set()
        for j, v in enumerate(line):
            if v in seen:
                return i, j
            seen.add(v)
    return None


def _cyclic_table(n):
    a = np.arange(n, dtype=np.int32)
    return (a[:, None] + a[None, :]) % n


@pytest.mark.parametrize(
    "edit, message",
    [
        # a repeat in row 1050, after the first block of rows; column 7
        # of the first block breaks too, but rows are checked first
        (("copy", 1050, 7, 8), "row 1050 repeats a value at column 8"),
        # rows stay Latin; columns 1000 and 1040, both after the first
        # block of columns, repeat a value
        (("swap", 3, 1000, 1040), "column 1000 repeats a value at row 43"),
    ],
)
def test_latin_check_names_the_first_bad_cell_past_one_block(edit, message):
    """Above 2^20 cells the Latin check runs in blocks and still names
    the first bad row (else column) and the first repeat in it, the cell
    a plain scan of rows and then columns finds."""
    kind, r, j1, j2 = edit
    op = _cyclic_table(1100)  # 953 rows or columns to a block
    if kind == "copy":
        op[r, j1] = op[r, j2]
    else:
        op[r, [j1, j2]] = op[r, [j2, j1]]
    rows = op.tolist()
    cell = _first_repeat(rows)
    if cell is None:
        j, i = _first_repeat([list(c) for c in zip(*rows)])
        cell = (i, j)
    with pytest.raises(NotLatinSquare) as e:
        build_from_cayley(op)
    assert str(e.value) == message and e.value.cell == cell


def test_cayley_build_memory_has_no_second_table():
    """Validating an order-2048 table holds the int32 table and blocks of
    about 2^20 cells, never a sorted n^2 copy of its rows or columns."""
    table = _cyclic_table(2048)
    tracemalloc.start()
    try:
        G = build_from_cayley(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 2048 and G.validation == "full"
    assert peak <= G.op.nbytes + 12 * 2**20


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
@example((0, []))
@example((0, [Permutation(0, ())]))
@example((1, []))
@example((1, [Permutation(1, (0,))]))
@example((2, [Permutation(2, (0, 1))] * 2))
@example((2, [Permutation(2, (0, 1)), Permutation(2, (1, 0)), Permutation(2, (0, 1))]))
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


def _perm_group_240() -> GroupTable:
    """S5 x C2 of order 240, as it comes from ``--perms`` input."""
    return build_from_permutations(
        7, [parse_cycles(c, 7) for c in ("(1 2 3 4 5)", "(1 2)", "(6 7)")], name="perm-group"
    )


def test_pr_bounds_builds_no_table():
    """The bound suite on S7, A7 and an order-240 group given as
    ``--perms`` input reads only the closure's maps: no table is filled.
    Building S7 and running it peaks far below its 97 MiB table, and the
    table read afterwards has the pinned bytes."""
    for G, k in [(make(FamilySpec("symmetric", (7,)))[0], 15),
                 (make(FamilySpec("alternating", (7,)))[0], 9), (_perm_group_240(), 14)]:
        assert check_bounds(G).k == k
        assert not filled(G), G.name
    gens = [parse_cycles("(1 2)", 7), parse_cycles("(1 2 3 4 5 6 7)", 7)]
    tracemalloc.start()
    try:
        G = build_from_permutations(7, gens)
        report = check_bounds(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.order, report.k, report.center_index) == (5040, 15, 5040)
    assert not filled(G)
    assert peak < 16 * 2**20
    assert hashlib.sha256(G.op.tobytes() + G.inv.tobytes()).hexdigest() == (
        "d3948ec7d34931b6770bcec75f8e0b2a6e374496cc5dce8973ffe2078867ae97"
    )
    assert filled(G) and not G.op.flags.writeable


def test_permutation_build_memory_is_one_table():
    """Building S7 and filling its table holds the 5040 x 5040 int32
    table (97 MiB) and no second n^2 array, such as a Fortran-order copy
    to transpose."""
    gens = [parse_cycles("(1 2)", 7), parse_cycles("(1 2 3 4 5 6 7)", 7)]
    tracemalloc.start()
    try:
        G = build_from_permutations(7, gens)
        assert G.op.shape == (5040, 5040)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 5040
    assert peak <= G.op.nbytes + 8 * 2**20


def test_permutation_inverses_match_a_row_search():
    """``inv`` read off the closure equals the identity's column in each
    row: for the symmetric and alternating members of corpus(64), for D_n
    closed from its two permutations of n points (n = 3..64, on either
    side of 256 points, and 1000), and for one 300-cycle."""
    tables = [G for G, spec in corpus(64) if spec.family in ("symmetric", "alternating")]
    tables += [dihedral_by_permutations(n) for n in [*range(3, 65), 255, 256, 257, 1000]]
    tables.append(build_from_permutations(300, [Permutation(300, (*range(1, 300), 0))]))
    assert len(tables) == 6 + 62 + 4 + 1
    for G in tables:
        assert np.array_equal(G.inv, groups_module._inverses(G.op)), G.name


def test_closure_memory_at_large_degree():
    """Closing one 5000-cycle (5000 elements of degree 5000) holds each
    element as 2 bytes a point: the build peaks under 3 bytes per
    (element, point) and 8 MiB, where elements kept as tuples of ints
    take over 8 bytes per (element, point)."""
    n = 5000
    cycle = Permutation(n, (*range(1, n), 0))
    tracemalloc.start()
    try:
        G = build_from_permutations(n, [cycle])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == n and not filled(G)
    assert peak < 3 * n * n + 8 * 2**20


def test_closure_cell_budget_refuses_high_degree_early(capsys):
    """A closure holds at most ``_CLOSURE_CELLS`` (element, point) cells:
    one cycle at degree ``ORDER_CAP``, of order ``ORDER_CAP`` and so
    within the element cap, is refused at ``_CLOSURE_CELLS // degree``
    elements, with its keys at about 2 bytes a cell, where the whole
    closure would hold some 800 MB of them. Through the CLI it is an
    ``error:`` line and exit code 1."""
    n = ORDER_CAP
    budget = groups_module._CLOSURE_CELLS
    cycle = Permutation(n, (*range(1, n), 0))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(OrderCapExceeded, match=f"{budget // n} elements of degree {n}"):
            build_from_permutations(n, [cycle])
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * budget + 8 * 2**20 and seconds < 10
    code = commprob.cli.main(["pr", "--perms", format_cycles(cycle), "--degree", str(n)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.startswith("error: closure passed")
    assert "Traceback" not in err


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
    assert parse_cycles("", 3).images == (0, 1, 2)
    assert format_cycles(parse_cycles("()", 3)) == "()"
    with pytest.raises(ValueError):
        parse_cycles("(1 2) junk", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2 1)", 3)


def _compose_cycles_naively(cycles: list[list[int]], degree: int) -> tuple[int, ...]:
    """Each point sent through the 1-based cycles one after another."""
    images = []
    for point in range(1, degree + 1):
        for cyc in cycles:
            if point in cyc:
                point = cyc[(cyc.index(point) + 1) % len(cyc)]
        images.append(point - 1)
    return tuple(images)


def test_cycle_parse_matches_naive_composition():
    """Seeded cycle texts, with points repeated across cycles, ``()`` and
    empty pieces, read as the left-to-right product of their cycles."""
    rng = random.Random(19)
    for _ in range(400):
        degree = rng.randint(1, 12)
        cycles, parts = [], []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.15:
                parts.append(rng.choice(["()", "( )", ""]))
                continue
            cyc = rng.sample(range(1, degree + 1), rng.randint(1, degree))
            cycles.append(cyc)
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        text = rng.choice(["", " "]).join(parts)
        assert parse_cycles(text, degree).images == _compose_cycles_naively(cycles, degree), text


def test_cycle_parse_is_linear_in_the_degree():
    """Each cycle changes only the images it moves: 10 000 transpositions
    at degree 20 000 took 8 s when each cycle rewrote every image."""
    degree = 20_000
    text = "".join(f"({k} {k + 1})" for k in range(1, degree, 2))
    start = time.perf_counter()
    perm = parse_cycles(text, degree)
    assert time.perf_counter() - start < 0.5
    assert perm.images == tuple(k ^ 1 for k in range(degree))


def test_permutation_must_be_a_bijection():
    with pytest.raises(ValueError):
        Permutation(3, (0, 0, 1))


@pytest.mark.parametrize("degree", [2, 300])
def test_permutation_refuses_non_integer_images(degree):
    """An image that ``operator.index`` refuses is a ``ValueError``, at a
    degree whose points fit in a byte and at one whose points do not;
    ``sorted`` alone passes float images, which compare equal to ints.
    numpy integers are accepted and stored as ints."""
    images = (*range(1, degree), 0)
    for bad in (float(images[0]), "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            Permutation(degree, (bad, *images[1:]))
    with pytest.raises(ValueError, match="is not an integer"):
        Permutation(degree, tuple(map(float, images)))
    perm = Permutation(degree, tuple(np.arange(1, degree + 1, dtype=np.int64) % degree))
    assert perm.images == images and all(type(i) is int for i in perm.images)
    assert build_from_permutations(degree, [perm]).order == degree


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


def _family(family: str, *params: int) -> GroupTable:
    return make(FamilySpec(family, params))[0]


@pytest.mark.parametrize(
    "factors, digest",
    [
        ((("alternating", 6), ("dicyclic", 2)),
         "76eda11b2577c540cef94721efcb96f6c180e0784a6770003d59c9c7e9dea7b6"),
        ((("symmetric", 6), ("cyclic", 2)),
         "665ea85e4d12d1ae8c6a224abc77ecd2b864cc4718ff5ac4f457604eacf452ae"),
        ((("cyclic", 2), ("symmetric", 6)),
         "cd47f7d46dabe414a073db9c681d62428785a4d2b6468051cb3b1ecf5a03a4be"),
        ((("dihedral", 5), ("dihedral", 6)),
         "4d91aee3b5562516cc4c802fc52309ed558e0ab144e08e3b38891f55af77edd1"),
        ((("cyclic", 3), ("symmetric", 6)),
         "bcbea62e69eccbfd1b27f442f663d6577ebdee255ffa6e1db9aab9af940d3a6e"),
    ],
    ids=["A6xDic2", "S6xC2", "C2xS6", "D5xD6", "C3xS6"],
)
def test_direct_product_bytes_are_pinned(factors, digest):
    """``op`` and ``inv`` of direct products keep their bytes."""
    P = direct_product(*(_family(f, p) for f, p in factors))
    assert hashlib.sha256(P.op.tobytes() + P.inv.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("factors", [(("symmetric", 6), ("cyclic", 4)),
                                     (("cyclic", 2), ("cyclic", 2000))],
                         ids=["S6xC4", "C2xC2000"])
def test_direct_product_memory_is_one_table(factors):
    """A product is built in O(n) memory, and filling its table holds the
    int32 table and temporaries of a few MiB, with a small second factor
    and with a large one. The fill reads only the factors' right maps,
    so neither factor fills its own table."""
    a, b = (_family(f, p) for f, p in factors)
    tracemalloc.start()
    try:
        P = direct_product(a, b)
        built = tracemalloc.get_traced_memory()[1]
        assert P.op.shape == (P.order, P.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not filled(a) and not filled(b)
    assert P.order == a.order * b.order
    assert built < 2**20
    assert peak <= P.op.nbytes + 8 * 2**20


def test_product_bounds_builds_no_table():
    """The bound suite on A6 x Dic2, S5 x S4 and C2 x S7 (order 10 080,
    whose table would take 406 MB) reads only the factors' maps: no
    product table is filled, each product and its bounds peak far below
    16 MiB, and A6 x Dic2's table read afterwards has the pinned bytes."""
    for (fa, pa), (fb, pb), k in [(("alternating", 6), ("dicyclic", 2), 35),
                                  (("symmetric", 5), ("symmetric", 4), 35),
                                  (("cyclic", 2), ("symmetric", 7), 30)]:
        a, b = _family(fa, pa), _family(fb, pb)
        tracemalloc.start()
        try:
            P = direct_product(a, b)
            report = check_bounds(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.order, report.k) == (a.order * b.order, k)
        assert not filled(P), P.name
        assert peak < 16 * 2**20, P.name
    P = direct_product(_family("alternating", 6), _family("dicyclic", 2))
    check_bounds(P)
    assert hashlib.sha256(P.op.tobytes() + P.inv.tobytes()).hexdigest() == (
        "76eda11b2577c540cef94721efcb96f6c180e0784a6770003d59c9c7e9dea7b6"
    )


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


def test_quotient_memory_is_one_table():
    """The quotient table is filled from the quotient's own maps: S7 by
    its trivial center holds its 97 MiB table and a few MiB more, and
    S7's table is never filled. C4000 by its order-2 subgroup gives the
    table the cosets' smallest elements multiply to."""
    S7 = make(FamilySpec("symmetric", (7,)))[0]
    Z = center(S7)
    tracemalloc.start()
    try:
        Q = quotient(S7, Z)
        assert Q.op.shape == (S7.order, S7.order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not filled(S7)
    assert peak <= Q.op.nbytes + 8 * 2**20
    assert Q.op.tobytes() == S7.op.tobytes()

    C = make(FamilySpec("cyclic", (4000,)))[0]
    Q = quotient(C, subgroup_from_members(C, [0, 2000]))
    reps = np.arange(2000)
    assert np.array_equal(Q.op, C.op[np.ix_(reps, reps)] % 2000)


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


def _orbit_partition(G: GroupTable) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """``class_of`` as the orbits of G's own conjugation maps, and the
    member lists read off it by a plain scan."""
    class_of, _ = groups_module._orbits(G.conjugation)
    members: dict[int, list[int]] = {}
    for x, c in enumerate(class_of.tolist()):
        members.setdefault(c, []).append(x)
    return class_of, tuple(tuple(members[c]) for c in sorted(members))


def _probe_products(corpus64) -> list[GroupTable]:
    """Every product of corpus(64), products nested either way, products
    with a factor from a Cayley table, from permutations, a quotient and
    a subgroup table, and a renamed product (as catalog family entries
    are)."""
    s3, d4, q8 = (make(FamilySpec(f, p))[0]
                  for f, p in (("symmetric", (3,)), ("dihedral", (4,)), ("dicyclic", (2,))))
    s4 = build_from_permutations(4, [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)])
    klein = next(N for N in normal_subgroups(s4) if N.order == 4)
    factors = [
        build_from_cayley(s3.op.tolist(), name="S3"),
        s4,
        quotient(s4, klein),
        subgroup_table(s4, derived_subgroup(s4)),
    ]
    products = [t for t, spec in corpus64 if spec.family == "product"]
    assert len(products) == 306
    products += [
        direct_product(direct_product(s3, d4), q8),
        direct_product(s3, direct_product(d4, q8)),
        *(direct_product(f, d4) for f in factors),
        *(direct_product(q8, f) for f in factors),
    ]
    renamed = direct_product(s3, q8).renamed("family entry")
    assert renamed.factors[0] is s3 and renamed.factors[1] is q8
    products.append(renamed)
    assert all(P.factors is not None for P in products)
    return products


def test_product_classes_are_the_orbit_partition(corpus64):
    """A direct product's classes, read off its factors' partitions, are
    the orbits of its own conjugation maps, numbered, typed and listed
    alike, on each of :func:`_probe_products`."""
    for P in _probe_products(corpus64):
        part = conjugacy_classes(P)  # read off the factors, then checked against P's own orbits
        class_of, classes = _orbit_partition(P)
        assert part.class_of.dtype == np.int32 and class_of.dtype == np.int32, P.name
        assert part.class_of.tobytes() == class_of.tobytes(), P.name
        assert part.classes == classes, P.name
        assert part.count == len(classes) and part.sizes() == tuple(map(len, classes))


def _walked(P: GroupTable) -> GroupTable:
    """The direct product P with its factors forgotten: the same elements
    and right maps, so its structure is walked on P itself."""
    return GroupTable(None, P.inv, name=P.name, compose=P._right_map)


def test_product_structure_is_the_walk(corpus64):
    """Z, G' and F(G) of a direct product, read off its factors, are the
    member sets that the orbit routines walk on the product itself, and
    nilpotency and abelianness agree, on each of :func:`_probe_products`."""
    for P in _probe_products(corpus64):
        W = _walked(P)
        assert W.factors is None
        for rule in (center, derived_subgroup, fitting_subgroup):
            H = rule(P)
            assert H.parent is P and type(H.members) is tuple, (P.name, rule)
            assert H.members == rule(W).members, (P.name, rule)
            assert all(type(x) is int for x in H.members), (P.name, rule)
        assert is_nilpotent(P) == is_nilpotent(W), P.name
        assert is_abelian(P) == is_abelian(W), P.name
    P = direct_product(*(make(FamilySpec(f, p))[0]
                         for f, p in (("symmetric", (3,)), ("dihedral", (4,)))))
    for rule in (center, derived_subgroup, fitting_subgroup, is_nilpotent, is_abelian):
        rule(P)
    assert "conjugation" not in vars(P) and "_generator_maps" not in vars(P)


def test_outside_member_lists_are_still_checked():
    """A member list from outside the library is spanned, on a plain
    group and on a direct product alike: one that is not closed is
    refused by ``Subgroup`` and ``subgroup_from_members``, and a closed
    one is accepted with the members the library's own rules give."""
    s3, d4 = make(FamilySpec("symmetric", (3,)))[0], make(FamilySpec("dihedral", (4,)))[0]
    for G in (s3, direct_product(s3, d4)):
        x = next(x for x in range(G.order) if G.inv[x] != x)  # of order > 2
        for build in (Subgroup, subgroup_from_members):
            with pytest.raises(ValueError, match="not closed"):
                build(G, (0, x))
            D = derived_subgroup(G)
            assert build(G, reversed(D.members)).members == D.members


def test_bounds_on_fixed_products_form_no_product_maps(monkeypatch, capsys):
    """``pr --bounds`` on the six fixed direct products of the structure
    benchmark reads Z, G' and every bound off the factors: the product
    forms no conjugation map and picks no generator of its own."""
    seen = []
    real = commprob.cli.check_bounds

    def recording(G, *args):
        seen.append(G)
        return real(G, *args)

    monkeypatch.setattr(commprob.cli, "check_bounds", recording)
    for params in ((3, 5, 2, 4), (2, 6, 0, 2), (2, 5, 4, 4), (3, 6, 2, 3),
                   (2, 5, 2, 4), (3, 6, 4, 2)):
        argv = ["pr", "--bounds", "--json", "--family", "product", "--params", *map(str, params)]
        assert commprob.cli.main(argv) == 0
        capsys.readouterr()
        P = seen.pop()
        assert P.factors is not None and P.order > SUBGROUP_CUTOFF, params
        assert "conjugation" not in vars(P) and "_generator_maps" not in vars(P), params


def test_classes_are_formed_once_and_never_on_a_product(monkeypatch):
    """Each group forms its class partition once: the bound suite with an
    orbit subgroup runs the orbits of G's conjugation maps once and checks
    the subgroup's normality once, and a product runs orbits only on its
    factors, forming no conjugation map or generator of its own."""
    orbit_calls, normal_calls = [], []
    real_orbits, real_is_normal = groups_module._orbits, groups_module.is_normal

    def counting_orbits(maps):
        orbit_calls.append(maps)
        return real_orbits(maps)

    def counting_is_normal(G, H):
        normal_calls.append(H)
        return real_is_normal(G, H)

    monkeypatch.setattr(groups_module, "_orbits", counting_orbits)
    monkeypatch.setattr(groups_module, "is_normal", counting_is_normal)
    for spec in (FamilySpec("symmetric", (4,)), FamilySpec("dicyclic", (3,)),
                 FamilySpec("dihedral", (5,)), FamilySpec("extraspecial", (2, 1))):
        G, _ = make(spec)  # built afresh: nothing is formed yet
        assert not is_abelian(G) and G.order <= 192
        Z = center(G)
        orbit_calls.clear()
        check_bounds(G, BoundContext(orbit_subgroup=Z))
        assert sum(maps is G.conjugation for maps in orbit_calls) == 1, spec
        assert len(normal_calls) == 1 and normal_calls.pop() is Z, spec
        assert conjugacy_classes(G) is conjugacy_classes(G)
        assert sum(maps is G.conjugation for maps in orbit_calls) == 1, spec

    s3, d4 = make(FamilySpec("symmetric", (3,)))[0], make(FamilySpec("dihedral", (4,)))[0]
    P = direct_product(s3, d4)
    orbit_calls.clear()
    report = pr_report(P)
    assert (report.k, report.pr, report.center_index) == (15, Fraction(5, 16), 24)
    assert "conjugation" not in vars(P) and "_generator_maps" not in vars(P)
    assert sorted(maps.shape[1] for maps in orbit_calls) == [6, 8]  # the factors only
    assert conjugacy_classes(P) is conjugacy_classes(P)


def test_centralizer_and_center(named):
    c12 = named["c12"]
    assert centralizer(c12, range(12)).order == 12
    assert center(named["s3"]).members == (0,)
    assert center(named["d4"]).order == 2


def test_derived_subgroup(named):
    assert derived_subgroup(named["c12"]).order == 1
    assert derived_subgroup(named["s3"]).order == 3
    assert derived_subgroup(named["d4"]).order == 2


def commutator(G: GroupTable, x: int, y: int) -> int:
    """[x, y] as the library's commutator matrix gives it."""
    return int(groups_module._commutators(G, [x], [y])[0, 0])


def test_commutator_convention(named):
    s3 = named["s3"]
    orders = element_orders(s3)
    transpositions = [x for x in range(6) if orders[x] == 2]
    a, b = transpositions[0], transpositions[1]
    assert orders[commutator(s3, a, b)] == 3
    # [x, y] = x^-1 x^y, with the conjugate read off the table
    for x in range(6):
        for y in range(6):
            assert commutator(s3, x, y) == s3.op[s3.inv[x], conjugate(s3, x, y)]
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
    with pytest.raises(ValueError, match="not closed under the group operation"):
        Subgroup(s3, (0, 0))  # a repeated member is not a set of size 2
    with pytest.raises(ValueError, match="not closed under the group operation"):
        Subgroup(s3, (0, 0, rot))  # spans {0, rot, rot^2}, also of size 3


def test_group_order_is_the_table_size(named):
    s3 = named["s3"]
    assert GroupTable(op=s3.op, inv=s3.inv).order == len(s3) == s3.op.shape[0] == 6
    with pytest.raises(TypeError):
        GroupTable(order=6, op=s3.op, inv=s3.inv)


def test_subgroup_refuses_a_member_outside_the_group(named):
    with pytest.raises(ValueError, match=r"element index 7 outside \[0, 6\)"):
        Subgroup(named["s3"], (0, 7))
    with pytest.raises(ValueError, match=r"element index -1 outside \[0, 6\)"):
        Subgroup(named["s3"], (0, -1))


def test_centralizer_refuses_an_element_outside_the_group(named):
    with pytest.raises(ValueError, match=r"element index 9 outside \[0, 6\)"):
        centralizer(named["s3"], [9])


@pytest.mark.parametrize("members", [(0, 1.5), (0.7, 1), (0, 1.0)])
def test_subgroup_refuses_a_float_member(members):
    """int() would truncate each of these to the subgroup (0, 1) of C2."""
    c2 = build_from_cayley([[0, 1], [1, 0]])
    bad = next(m for m in members if isinstance(m, float))
    with pytest.raises(ValueError, match=f"element index {bad} is not an integer"):
        Subgroup(c2, members)
    with pytest.raises(ValueError, match=f"element index {bad} is not an integer"):
        subgroup_from_members(c2, members)


def test_generators_outside_the_group_keep_their_message(named):
    with pytest.raises(ValueError, match=r"element index 6 outside \[0, 6\)"):
        subgroup_from_generators(named["s3"], [6])
    with pytest.raises(ValueError, match="element index 2.0 is not an integer"):
        subgroup_from_generators(named["s3"], [2.0])


def test_numpy_integers_stay_accepted(named):
    s3 = named["s3"]
    H = Subgroup(s3, np.arange(6, dtype=np.int32))
    assert H.members == tuple(range(6)) and all(type(m) is int for m in H.members)
    assert centralizer(s3, [np.int64(0)]).order == 6
    assert subgroup_from_generators(s3, np.array([1, 2], dtype=np.uint8)).order == 6


def test_membership_reads_the_mask(named):
    """An int outside [0, n) is no member: -1 does not wrap to the last
    element, and the mask is read-only."""
    s3 = named["s3"]
    whole = Subgroup(s3, range(6))
    assert 5 in whole and np.int64(5) in whole
    assert -1 not in whole and 6 not in whole and 0.0 not in whole and "0" not in whole
    H = center(s3)
    assert H.mask.tolist() == [x in H.members for x in range(6)] == [x in H for x in range(6)]
    assert not H.mask.flags.writeable and not s3.conjugation.flags.writeable
    with pytest.raises(ValueError):
        H.mask[0] = False


def test_conjugation_rows_are_the_generators_maps(corpus16):
    for table, _spec in corpus16:
        maps = table.conjugation
        assert maps.shape == (len(table.generators), table.order)
        for row, s in zip(maps.tolist(), table.generators):
            assert row == [conjugate(table, x, s) for x in range(table.order)]
        assert table.conjugation is maps  # built once per table


def _structure(G: GroupTable) -> tuple:
    return (G.generators, G.conjugation.tobytes(), conjugacy_classes(G).class_of.tobytes(),
            center(G).members, derived_subgroup(G).members)


def test_structure_is_the_same_before_and_after_the_fill(corpus64):
    """Generators, conjugation maps, classes, center and derived subgroup
    of each member of corpus(64) built from permutations, as a product
    or from a closed form are the same read off its maps as off the
    filled table, and reading them off the maps fills no table."""
    checked = 0
    for _, spec in corpus64:
        lazy, _ = make(spec)
        if lazy.compose is None:  # extraspecial: built with its table
            continue
        before = _structure(lazy)
        assert not filled(lazy), spec.name
        table, _ = make(spec)
        assert table.op.shape == (table.order, table.order)
        assert _structure(table) == before, spec.name
        checked += 1
    assert checked >= 343  # 37 permutation groups and 306 products


def _assert_fill_agrees(G: GroupTable, fresh: GroupTable) -> None:
    """Column s of G's filled table is the right map that the map source
    of ``fresh``, an unfilled copy of G, composes for s, and x x^-1 = 1."""
    assert not filled(fresh), G.name
    for s in range(G.order):
        assert np.array_equal(G.op[:, s], fresh._right_map(s)), (G.name, s)
    assert not filled(fresh), G.name
    assert (G.op[np.arange(G.order), G.inv] == 0).all(), G.name


def test_the_fill_agrees_with_compose_for_every_source(corpus64):
    """The one fill gives the table that every map source composes: each
    member of corpus(64) built without its table, and the quotients by
    the center and by G' and the subgroup table of G' of each nonabelian
    member of corpus(32). Filling a quotient or a subgroup table reads
    no table of G."""
    checked = 0
    for _, spec in corpus64:
        G = make(spec)[0]
        if G.compose is not None:  # not extraspecial: built without its table
            _assert_fill_agrees(G, make(spec)[0])
            checked += 1
    assert checked == 422
    derived = 0
    for table, spec in corpus64:
        if table.order > 32 or is_abelian(table):
            continue
        G = make(spec)[0]
        for build in (lambda: quotient(G, center(G)),
                      lambda: quotient(G, derived_subgroup(G)),
                      lambda: subgroup_table(G, derived_subgroup(G))):
            _assert_fill_agrees(build(), build())
        assert filled(G) == (G.compose is None), spec.name
        derived += 1
    assert derived == 75


def test_quotient_and_subgroup_table_of_s7_fill_no_table():
    """S7/A7 and the subgroup table of A7 in S7, with its classes, each
    stay far below S7's 97 MiB table, which is never filled."""
    S7 = make(FamilySpec("symmetric", (7,)))[0]
    A7 = derived_subgroup(S7)
    for build, check in [(lambda: quotient(S7, A7), lambda Q: Q.op.shape == (2, 2)),
                         (lambda: subgroup_table(S7, A7),
                          lambda H: conjugacy_classes(H).count == 9)]:
        tracemalloc.start()
        try:
            assert check(build())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
    assert not filled(S7)


@pytest.mark.parametrize("spec", [FamilySpec("symmetric", (5,)),
                                  product_spec(FamilySpec("alternating", (5,)),
                                               FamilySpec("symmetric", (4,)))],
                         ids=["S5", "A5xS4"])
def test_renamed_group_keeps_its_table_unfilled(spec):
    G, _ = make(spec)
    R = G.renamed("S")
    assert (R.name, R.order, R.compose) == ("S", G.order, G.compose)
    assert not filled(R) and not filled(G)
    assert np.array_equal(R.op, G.op)
    assert G.renamed("T").op is G.op  # a filled table is shared


@pytest.mark.parametrize("lazy", [lambda: make(FamilySpec("symmetric", (6,)))[0],
                                  lambda: direct_product(_family("symmetric", 4),
                                                         _family("dihedral", 6))],
                         ids=["S6", "S4xD6"])
def test_generator_maps_are_formed_once(lazy, monkeypatch):
    """``conjugation`` and ``derived_subgroup`` read the right maps that
    ``generators`` formed, and form none of a generator again (no
    generator of these groups lies in G', so no normal closure asks for
    one either)."""
    G = lazy()
    gens = G.generators
    asked = []
    right_map = GroupTable._right_map
    monkeypatch.setattr(GroupTable, "_right_map",
                        lambda self, s: asked.append((self, s)) or right_map(self, s))
    G.conjugation
    derived_subgroup(G)
    assert not [s for H, s in asked if H is G and s in gens]
    assert not filled(G)


def test_is_abelian_reads_the_conjugation_maps(corpus64):
    verdicts = [is_abelian(G) for G, _ in corpus64]
    assert verdicts == [bool((G.op == G.op.T).all()) for G, _ in corpus64]
    assert True in verdicts and False in verdicts


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


def test_structure_results_are_pinned(corpus48, subgroups_of):
    """Classes, center, derived and Fitting subgroups, nilpotency and the
    index-two subgroups of every group of corpus(48); normality, core,
    orbit count and re-acceptance of each of their subgroups; and the
    outcome for the swapped member sets of the closure check, as one
    sha256 taken while conjugation maps were rebuilt per call and the
    closure check walked member positions."""
    h = hashlib.sha256()
    for table, spec in corpus48:
        part = conjugacy_classes(table)
        h.update(f"{spec.name}|{part.classes}|".encode() + part.class_of.tobytes())
        h.update(f"|{center(table).members}|{derived_subgroup(table).members}"
                 f"|{fitting_subgroup(table).members}|{is_nilpotent(table)}"
                 f"|{[H.members for H in index_two_subgroups(table)]}\n".encode())
        for H in subgroups_of(table):
            normal = is_normal(table, H)
            orbits = orbit_count_on_normal(table, H) if normal else None
            core = normal_core(table, H).members
            again = Subgroup(table, H.members).members == H.members
            h.update(f"{H.members}|{normal}|{core}|{orbits}|{again}\n".encode())
            if table.order > 32 or H.order in (1, table.order):
                continue
            swapped = sorted(set(H.members[:-1]) | {min(set(range(table.order)) - set(H.members))})
            try:
                outcome = repr(Subgroup(table, swapped).members)
            except ValueError as exc:
                outcome = f"ValueError({exc})"
            h.update(f"{outcome}\n".encode())
    assert h.hexdigest() == (
        "700943819e1d1a74b6ca7f0220da3ce6fa964e814837ef847e4982c43970bc68"
    )


def test_all_subgroups_counts(named, monkeypatch):
    c5 = build_from_cayley([[(i + j) % 5 for j in range(5)] for i in range(5)])
    assert len(all_subgroups(c5)) == 2
    assert len(all_subgroups(named["s3"])) == 6
    assert len(all_subgroups(named["d4"])) == 10
    c193, _ = make(FamilySpec("cyclic", (193,)))  # just above SUBGROUP_CUTOFF
    with pytest.raises(OrderCapExceeded):
        all_subgroups(c193)
    # normal_subgroups refuses before it builds any class
    monkeypatch.setattr(groups_module, "conjugacy_classes", None)
    with pytest.raises(OrderCapExceeded, match="enumeration cutoff 192"):
        normal_subgroups(c193)


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


def _tau_sigma(n: int) -> tuple[int, int]:
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors), sum(divisors)


@pytest.mark.parametrize("n", [5, 12, 30, 45, 48, 64, 90, 96])
def test_dihedral_lattice_closed_forms(n):
    """D_n, of order 2n, has tau(n) + sigma(n) subgroups; tau(n) + 1
    normal ones for odd n, tau(n) + 3 for even n."""
    G, _ = make(FamilySpec("dihedral", (n,)))
    tau, sigma = _tau_sigma(n)
    assert len(all_subgroups(G)) == tau + sigma
    assert len(normal_subgroups(G)) == tau + (1 if n % 2 else 3)


@pytest.mark.parametrize("n", [60, 96, 128, 180, 192])
def test_cyclic_lattice_closed_form(n):
    G, _ = make(FamilySpec("cyclic", (n,)))
    subs = all_subgroups(G)
    assert len(subs) == _tau_sigma(n)[0]
    assert [N.members for N in normal_subgroups(G)] == [H.members for H in subs]


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


def test_normal_subgroups_are_the_normal_ones_of_all_subgroups():
    """On every group of order at most 32, the product-set joins give
    exactly ``all_subgroups`` filtered by ``is_normal``, in its order."""
    for G, spec in corpus(32):
        expected = [s.members for s in all_subgroups(G) if is_normal(G, s)]
        assert [N.members for N in normal_subgroups(G)] == expected, spec


def test_normal_core(named, subgroups_of):
    s3 = named["s3"]
    a3 = subgroup_from_generators(s3, [next(x for x in range(6) if element_orders(s3)[x] == 3)])
    assert normal_core(s3, a3).members == a3.members
    h2 = next(s for s in subgroups_of(s3) if s.order == 2)
    assert normal_core(s3, h2).members == (0,)


@pytest.mark.parametrize(
    "entry", [subgroup_table, is_normal, normal_core, quotient, orbit_count_on_normal]
)
def test_subgroup_of_another_table_is_refused(named, entry):
    """A subgroup's members index its own parent: the order-4 subgroup of
    C8 is no subset of D4 that any of these may read."""
    c8 = make(FamilySpec("cyclic", (8,)))[0]
    with pytest.raises(ValueError, match="subgroup belongs to"):
        entry(named["d4"], Subgroup(c8, (0, 2, 4, 6)))


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
    101 MB) and no n x |H| commutator matrix. The span, the index-two
    subgroups and the upper central series read no table."""
    G, _ = make(FamilySpec("symmetric", (7,)))
    for call, expected in [
        (lambda: subgroup_from_generators(G, G.generators).order, 5040),
        (lambda: [H.order for H in index_two_subgroups(G)], [2520]),
        (lambda: is_nilpotent(G), False),
    ]:
        assert not filled(G)
        tracemalloc.start()
        try:
            assert call() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, expected


@pytest.mark.parametrize("build", [
    lambda: make(FamilySpec("symmetric", (7,)))[0],
    lambda: make(FamilySpec("alternating", (7,)))[0],
    _perm_group_240,
], ids=["S7", "A7", "perms240"])
def test_structure_routines_build_no_table(build):
    """Every structure routine on a group built from permutations reads
    right maps and conjugation maps only: none fills the n^2 table."""
    G = build()
    derived = derived_subgroup(G)
    calls = [
        lambda: conjugacy_classes(G),
        lambda: center(G),
        lambda: centralizer(G, derived.members),
        lambda: derived_subgroup(G),
        lambda: fitting_subgroup(G),
        lambda: is_normal(G, derived),
        lambda: normal_core(G, subgroup_from_generators(G, G.generators[:1])),
        lambda: orbit_count_on_normal(G, derived),
        lambda: is_nilpotent(G),
        lambda: index_two_subgroups(G),
        lambda: verify_special_forms(G),
    ]
    assert not filled(G)
    for i, call in enumerate(calls):
        call()
        assert not filled(G), i


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


def test_cosets_match_the_table_oracle(corpus48, normals_of):
    """For every normal subgroup of every group of corpus(48), the cosets
    as orbits of right maps are numbered as the column scan of the table
    numbers them, and the quotient built on them has the same bytes."""
    checked = 0
    for table, spec in corpus48:
        for N in normals_of(table):
            coset_of, reps = groups_module._cosets(table, N)
            want_of, want_reps = cosets_by_table(table, N.members)
            assert coset_of.dtype == want_of.dtype and reps.dtype == want_reps.dtype
            assert np.array_equal(coset_of, want_of), (spec.name, N.members)
            assert np.array_equal(reps, want_reps), (spec.name, N.members)
            Q = quotient(table, N)
            assert Q.op.tobytes() == want_of[table.op[np.ix_(want_reps, want_reps)]].tobytes()
            assert Q.inv.tobytes() == want_of[table.inv[want_reps]].tobytes()
            checked += 1
    assert checked > 3000  # 3 566 normal subgroups


def test_orbit_routines_build_no_table():
    """Cosets, orbit counts, normal cores and the upper central series of
    S5 built from permutations read right and conjugation maps only; the
    cosets agree with the table scan once the table is filled."""
    G = make(FamilySpec("symmetric", (5,)))[0]
    A5 = derived_subgroup(G)
    K = subgroup_from_generators(G, G.generators[:1])
    trivial, whole = Subgroup(G, (0,)), Subgroup(G, range(G.order))
    cosets = [groups_module._cosets(G, N) for N in (trivial, A5, whole)]
    assert [orbit_count_on_normal(G, N) for N in (trivial, A5, whole)] == [1, 4, 7]
    assert normal_core(G, K).members == (0,) and normal_core(G, A5).members == A5.members
    assert not is_nilpotent(G)
    assert "op" not in vars(G)
    for N, (coset_of, reps) in zip((trivial, A5, whole), cosets):
        want_of, want_reps = cosets_by_table(G, N.members)
        assert np.array_equal(coset_of, want_of) and np.array_equal(reps, want_reps)


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


def cayley_verdict(table) -> tuple:
    """build_from_cayley's verdict in the form of ``latin_first_verdict``."""
    try:
        G = build_from_cayley(table)
    except (NotClosed, NoIdentity, NotLatinSquare, NotAssociative) as e:
        return (type(e).__name__, str(e), e.cell)
    return (G.validation, G.op.tolist(), G.inv.tolist())


def magmas_with_identity(rng: random.Random, count: int):
    """Random tables of order 4-8 with a two-sided identity, relabelled;
    every third has a 0 in each row, so its inverse check cannot refuse
    it before Light's test does."""
    for k in range(count):
        n = rng.randint(4, 8)
        table = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
        table[0] = table[:, 0] = np.arange(n)
        if k % 3 == 0:
            for x in range(1, n):
                table[x, rng.randrange(1, n)] = 0
        yield relabelled(table, rng)


def edited_members(corpus: list, rng: random.Random):
    """Relabelled groups, as they are and with one edit each: a cell
    changed, two rows or two columns swapped, an intercalate swapped, or
    the identity's row broken."""
    for G, _spec in corpus:
        n = G.order
        if n < 3:
            continue
        for edit in ("none", "cell", "rows", "columns", "intercalate", "identity"):
            table = relabelled(np.array(G.op), rng)
            a, b = rng.sample(range(n), 2)
            if edit == "cell":
                table[a, b] = (table[a, b] + rng.randrange(1, n)) % n
            elif edit == "rows":
                table[[a, b]] = table[[b, a]]
            elif edit == "columns":
                table[:, [a, b]] = table[:, [b, a]]
            elif edit == "intercalate":
                swap_intercalate(table, rng)
            elif edit == "identity":
                e = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
                table[e, a] = table[e, b]
            yield table


ASSOCIATIVE_NON_GROUPS = [
    [[0, 1], [1, 1]],
    [[0, 1, 2], [1, 1, 1], [2, 1, 2]],  # with 1 a zero
    np.minimum.outer(np.arange(6), np.arange(6)) % 6,  # min on 1..5 plus 0
    [[0, 1, 2], [1, 2, 2], [2, 2, 2]],  # addition capped at 2
    [[1, 2, 0], [2, 2, 1], [0, 1, 2]],  # the same with the identity at 2
]


def test_refusals_match_the_latin_first_order(corpus48):
    """Light's test first, the Latin check only to name a refusal: the
    verdict, and a refusal's type, message and cell, are those of
    validating rows, then columns, then associativity."""
    rng = random.Random(29)
    tables = [
        np.array(cells).reshape(n, n)
        for n in (1, 2, 3)
        for cells in itertools.product(range(n), repeat=n * n)
    ]
    tables = [t for t in tables
              if any((t[e] == np.arange(len(t))).all() and (t[:, e] == np.arange(len(t))).all()
                     for e in range(len(t)))]
    assert len(tables) == 1 + 4 + 243
    tables += magmas_with_identity(rng, 5000)
    tables += edited_members([(G, s) for G, s in corpus48 if G.order <= 32], rng)
    tables += [np.array(t) for t in ASSOCIATIVE_NON_GROUPS]
    kinds: dict[str, int] = {}
    for table in tables:
        want = latin_first_verdict(table)
        assert cayley_verdict(table.tolist()) == want, table.tolist()
        kinds[want[0]] = kinds.get(want[0], 0) + 1
    assert all(kinds.get(k, 0) > 100 for k in
               ("full", "NoIdentity", "NotLatinSquare", "NotAssociative")), kinds


@pytest.mark.parametrize("zeros", [False, True], ids=["min-semilattice", "a-0-in-every-row"])
def test_non_group_validation_is_bounded(zeros, monkeypatch):
    """A non-Latin table costs at most floor(log2 n) + 1 pick comparisons
    and keeps the refusal of a Latin-first run. On min over 1..1023 with
    0 as identity every pick is associative, but its images Hs fall back
    into H (min(h, s) = h for h < s), so each adds one element and the
    picks never reach n. With a 0 put in every row, a pick that passes at
    least doubles the set reached; this one fails at the first pick."""
    n = 1024
    table = np.minimum.outer(np.arange(n), np.arange(n))
    table[0] = table[:, 0] = np.arange(n)
    if zeros:
        table[np.arange(1, n), np.arange(n - 1, 0, -1)] = 0
    compared = []
    check_pick = groups_module._check_pick
    monkeypatch.setattr(groups_module, "_check_pick",
                        lambda op, s, buffers: compared.append(s) or check_pick(op, s, buffers))
    with pytest.raises(NotLatinSquare) as e:
        build_from_cayley(table)
    assert (type(e.value).__name__, str(e.value), e.value.cell) == latin_first_verdict(table)
    assert len(compared) == (1 if zeros else n.bit_length())


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
def permutation_groups(draw, max_degree=7):
    degree = draw(st.integers(2, max_degree))
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
    gens = [Permutation(degree, im) for im in images]
    # G twice: once as built, once with its table read first, so that its
    # generators and maps come off the table
    lazy, table = build_from_permutations(degree, gens), build_from_permutations(degree, gens)
    assert table.op.shape == (table.order, table.order)
    for T in (lazy, table, scrambled(table, rng)):
        assert T.order == S.order()
        assert subgroup_from_generators(T, T.generators).order == T.order
        assert 2 ** len(T.generators) <= T.order
        assert conjugacy_classes(T).count == len(S.conjugacy_classes())
        assert center(T).order == S.center().order()
        assert derived_subgroup(T).order == S.derived_subgroup().order()
        assert centralizer(T, derived_subgroup(T).members).order == (
            S.centralizer(S.derived_subgroup()).order()
        )
        assert is_nilpotent(T) == S.is_nilpotent
        assert filled(T) == (T is not lazy)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(permutation_groups(max_degree=5), permutation_groups(max_degree=5))
@example(left=(2, [(0, 1)]), right=(3, [(1, 2, 0), (1, 0, 2)]))  # a trivial factor
def test_product_structure_matches_sympy(left, right):
    """Z, G' and nilpotency of a direct product, read off its factors,
    against ``sympy``'s ``DirectProduct`` of the same two groups."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    DirectProduct = pytest.importorskip("sympy.combinatorics.group_constructs").DirectProduct
    factors, oracles = [], []
    for degree, images in (left, right):
        factors.append(build_from_permutations(degree, [Permutation(degree, im) for im in images]))
        oracles.append(combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(im)) for im in images]))
    assume(factors[0].order * factors[1].order <= 720)
    P, S = direct_product(*factors), DirectProduct(*oracles)
    assert P.order == S.order()
    assert center(P).order == S.center().order()
    assert derived_subgroup(P).order == S.derived_subgroup().order()
    assert is_nilpotent(P) == S.is_nilpotent
    assert is_abelian(P) == S.is_abelian
    assert "conjugation" not in vars(P)


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
