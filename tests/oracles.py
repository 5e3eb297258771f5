"""Independent oracles the suites compare the library against.

Each one reads products straight off the n x n table, one element at a
time, with none of the orbit or map machinery it checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from commprob.groups import (
    GroupTable,
    Permutation,
    build_from_permutations,
    conjugacy_classes,
    direct_product,
    quotient,
    subgroup_from_generators,
)
from commprob.probability import pr_direct


def conjugate(G: GroupTable, x: int, y: int) -> int:
    """x^y = y^-1 x y."""
    return int(G.op[G.op[G.inv[y], x], y])


def element_orders(G: GroupTable) -> list[int]:
    """The order of each element, by repeated multiplication."""
    orders = [1] * G.order
    for g in range(1, G.order):
        k, cur = 1, g
        while cur != 0:
            cur = int(G.op[cur, g])
            k += 1
        orders[g] = k
    return orders


def cosets_by_table(G: GroupTable, members) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets Hx of the member set H, numbered by their smallest
    element: each x not yet covered marks the column of products h x."""
    members = np.asarray(members)
    coset_of = np.full(G.order, -1, dtype=np.int32)
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] < 0:
            coset_of[G.op[members, x]] = len(reps)
            reps.append(x)
    return coset_of, np.asarray(reps, dtype=np.int32)


def central_product(
    a: GroupTable, za: int, b: GroupTable, zb: int
) -> tuple[GroupTable, int]:
    """(A x B) / <(za, zb^-1)> for central elements za, zb of equal order,
    with the image of (za, 1) in it, so products can be iterated."""
    prod = direct_product(a, b)
    N = subgroup_from_generators(prod, [int(za) * b.order + int(b.inv[zb])])
    coset_of, _ = cosets_by_table(prod, N.members)
    return quotient(prod, N), int(coset_of[int(za) * b.order])


def dihedral_by_permutations(n: int) -> GroupTable:
    """D_n closed from the permutations x -> x + 1 and x -> -x of Z_n (for
    n = 2, two commuting transpositions of 4 points), the build whose
    numbering ``families.dihedral_group`` keeps."""
    if n == 2:
        gens = [Permutation(4, (1, 0, 2, 3)), Permutation(4, (0, 1, 3, 2))]
        return build_from_permutations(4, gens, name="D2")
    rot = Permutation(n, tuple((i + 1) % n for i in range(n)))
    refl = Permutation(n, tuple((n - i) % n for i in range(n)))
    return build_from_permutations(n, [rot, refl], name=f"D{n}")


def latin_first_verdict(table) -> tuple:
    """What Cayley-table validation decides when it checks, in this
    order, the range, a two-sided identity (moved to 0 by swapping labels
    0 and e), rows, then columns, as permutations, then Light's test on
    the greedy picks: ``("full", op, inv)`` as lists, or the refusal's
    ``(type name, message, cell)``. Every check scans the whole table."""
    op = np.array(table)
    n = len(op)
    bad = np.argwhere((op < 0) | (op >= n))
    if len(bad):
        i, j = (int(v) for v in bad[0])
        return ("NotClosed", f"cell ({i},{j}) holds {int(op[i, j])}, outside [0,{n})", (i, j))
    idx = np.arange(n)
    ids = [e for e in range(n) if (op[e] == idx).all() and (op[:, e] == idx).all()]
    if not ids:
        return ("NoIdentity", "no two-sided identity element", None)
    e = ids[0]
    swap = idx.copy()
    swap[[0, e]] = [e, 0]
    op = swap[op[np.ix_(swap, swap)]]
    for i, row in enumerate(op.tolist()):
        for j, v in enumerate(row):
            if v in row[:j]:
                return ("NotLatinSquare", f"row {i} repeats a value at column {j}", (i, j))
    for j, col in enumerate(op.T.tolist()):
        for i, v in enumerate(col):
            if v in col[:i]:
                return ("NotLatinSquare", f"column {j} repeats a value at row {i}", (i, j))
    reached = {0}
    picks: list[int] = []
    while len(reached) < n:
        s = min(set(range(n)) - reached)
        picks.append(s)
        frontier = list(reached)
        while frontier:  # close under right multiplication by the picks
            frontier = [int(op[x, t]) for x in frontier for t in picks]
            frontier = [y for y in set(frontier) if y not in reached]
            reached.update(frontier)
        differ = np.argwhere(op[op[:, s]] != op[:, op[s]])  # (xs)y, x(sy)
        if len(differ):
            x, y = (int(v) for v in differ[0])
            return ("NotAssociative", f"(x*y)*z != x*(y*z) at (x,y,z)=({x},{s},{y})", (x, s, y))
    return ("full", op.tolist(), np.argmax(op == 0, axis=1).tolist())


def fingerprint(G: GroupTable) -> tuple[int, Fraction, tuple[int, ...]]:
    """(order, Pr, sorted class-size multiset)."""
    return (G.order, pr_direct(G), tuple(sorted(conjugacy_classes(G).sizes())))
