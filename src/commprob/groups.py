"""Finite groups as validated Cayley tables.

Elements are 0-based indices and index 0 is always the identity; every
constructor relabels its input to honour that. The structural operations
here (centralizers, derived/Fitting subgroups, quotients, cores, subgroup
enumeration) are the raw material for the exact commuting-probability
computations in :mod:`commprob.probability`.

Conjugation structure is computed from a small generating set S (greedy,
``GroupTable.generators``; r = |S| <= log2 n) rather than from all n^2
pairs, by the orbit method (Holt, Eick & O'Brien, *Handbook of
Computational Group Theory*, 2005). Each generator gives one conjugation
map x -> s^-1 x s, a single gather over the table. Conjugacy classes are
the orbits of these r maps, the center is the centralizer of S, the
derived subgroup is the normal closure of the commutators [s, t] with s, t
in S, and a subset closed under conjugation by every s is normal. Memory
stays O(r n) beyond the table itself.

The same greedy generators validate a Cayley table exactly, at every
order: associativity by Light's test, (xs)y = x(sy) for each generator s
only (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961),
in O(n^2 log n) time, and inverses are found a block of rows at a time.
A member set is checked to be a subgroup the same way, on a generating
set of its own.

Conventions fixed once for the whole library:

* commutator  ``[x, y] = x^-1 y^-1 x y``
* conjugation ``x^y   = y^-1 x y``

All operations are pure functions; ``GroupTable``, ``Subgroup`` and
``ClassPartition`` are immutable after construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
)

# Cap for subgroup enumeration (the most expensive primitive here).
SUBGROUP_CUTOFF = 192

# Cap for closures and direct products.
ORDER_CAP = 20_000

_DTYPE = np.int32

# Cells per block of a blockwise table sweep: the temporaries of a sweep
# stay a few MB at any order instead of growing with n^2.
_BLOCK_CELLS = 1 << 20


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k, p prime and k >= 1; None if n is not a prime power."""
    if n < 2:
        return None
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group: ``op[x, y]`` is the product xy, ``inv[x]`` the inverse.

    ``validation`` records how associativity was established: "full"
    (a Cayley table checked by Light's test, exact at every order) or
    "constructed" (tables built by our own constructors, associative by
    construction).
    """

    order: int
    op: np.ndarray
    inv: np.ndarray
    identity: int = 0
    name: str = ""
    validation: str = "constructed"

    def __post_init__(self):
        self.op.setflags(write=False)
        self.inv.setflags(write=False)

    def mul(self, x: int, y: int) -> int:
        return int(self.op[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name or 'G'}, order={self.order})"

    def canonical_bytes(self) -> bytes:
        """Row-major bytes of the identity-first table (cache/hash key)."""
        return np.ascontiguousarray(self.op, dtype=np.int32).tobytes()

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, picked greedily: the smallest element outside
        the subgroup generated so far is added until that subgroup is G.

        Each pick at least doubles the subgroup, so there are at most
        log2(n) generators; the trivial group has none.
        """
        return tuple(_greedy(self.op))


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup given by its sorted member indices inside ``parent``."""

    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(int(m) for m in self.members))
        object.__setattr__(self, "members", mem)
        if not mem or mem[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        n = self.parent.order
        if self.parent.order % len(mem) != 0:
            raise ValueError(
                f"subgroup size {len(mem)} does not divide group order {n}"
            )
        # H is closed once Hs lies in H for each s of a generating set of H:
        # pick s greedily outside the subgroup K generated so far, check Hs,
        # and grow K inside H through the picks' right-multiplication maps,
        # taken as positions in H. Each pick at least doubles K, so this
        # reads |H| cells per pick for at most log2|H| + 1 picks.
        arr = np.asarray(mem, dtype=_DTYPE)
        position = {m: i for i, m in enumerate(mem)}
        in_k = [True] + [False] * (len(mem) - 1)
        right: list[list[int]] = []
        size = p = 1
        while size < len(mem):
            p = in_k.index(False, p)
            col = [position.get(y, -1) for y in self.parent.op[arr, mem[p]].tolist()]
            if -1 in col:
                raise ValueError("member set is not closed under the group operation")
            right.append(col)
            size += len(_extend(right, in_k))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name or 'G'})"


@dataclass(frozen=True, eq=False)
class ClassPartition:
    """Conjugacy classes: disjoint element sets plus an element->class map."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray

    def __post_init__(self):
        self.class_of.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., degree-1}; ``images[i]`` is the image of i."""

    degree: int
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(self.degree)):
            raise ValueError("images must be a bijection of [0, degree)")

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply self first, then other."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(
            self.degree, tuple(other.images[p] for p in self.images)
        )

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, im in enumerate(self.images):
            out[im] = i
        return Permutation(self.degree, tuple(out))

    def is_identity(self) -> bool:
        return all(i == im for i, im in enumerate(self.images))


# ---------------------------------------------------------------------------
# cycle notation (1-based at the boundary, 0-based inside)
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``"(1 2)(3 4)"``.

    Fixed points are omitted; ``""`` and ``"()"`` denote the identity.
    Juxtaposed cycles are applied left to right.
    """
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise ValueError(f"stray characters in cycle notation: {stripped!r}")
    images = list(range(degree))
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in body.split()]
        if not points:
            continue
        if any(p < 1 or p > degree for p in points):
            raise ValueError(f"cycle point out of range 1..{degree}: ({body})")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point within a cycle: ({body})")
        cycle_map = {}
        for a, b in zip(points, points[1:] + points[:1]):
            cycle_map[a - 1] = b - 1
        images = [cycle_map.get(im, im) for im in images]
    return Permutation(degree, tuple(images))


def format_cycles(perm: Permutation) -> str:
    """Inverse of :func:`parse_cycles`; identity prints as ``"()"``."""
    seen = [False] * perm.degree
    parts = []
    for start in range(perm.degree):
        if seen[start] or perm.images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm.images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm.images[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def _check_associativity(op: np.ndarray) -> None:
    """Light's associativity test on the greedy generators of ``op``.

    The elements a with (xa)y = x(ay) for all x, y are closed under the
    product, so the table is associative as soon as they include a
    generating set (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, 1961, section 1.2). Each greedy pick s is checked as it
    comes, comparing (xs)y with x(sy) a block of rows at a time. While
    the checks pass, the picks so far generate a finite cancellative
    monoid, which is a group, and each new pick at least doubles it: at
    most floor(log2 n) + 1 picks are checked, O(n^2 log n) time at any
    order, on groups and non-groups alike. Raises ``NotAssociative`` at
    the first (x, s, y) with (xs)y != x(sy).

    ``op`` must be a Latin square with identity 0.
    """
    n = op.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    for s in _greedy(op):
        for lo in range(0, n, step):
            rows = op[lo:lo + step]
            left = op[rows[:, s]]  # (xs)y
            right = rows[:, op[s]]  # x(sy)
            if not np.array_equal(left, right):
                x, y = (int(v) for v in np.argwhere(left != right)[0])
                x += lo
                raise NotAssociative(
                    f"(x*y)*z != x*(y*z) at (x,y,z)=({x},{s},{y})", cell=(x, s, y)
                )


def _inverses(op: np.ndarray) -> np.ndarray:
    """``inv[x]`` is the y with xy = 0 (the identity), for a table whose
    rows are permutations. Rows are searched a block of about 2^20 cells
    at a time, so no n^2 temporary is formed."""
    n = op.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    inv = np.empty(n, dtype=_DTYPE)
    for lo in range(0, n, step):
        inv[lo:lo + step] = np.argmax(op[lo:lo + step] == 0, axis=1)
    return inv


def build_from_cayley(table: Sequence[Sequence[int]], *, name: str = "") -> GroupTable:
    """Validate a square multiplication table and wrap it as a group.

    The identity is relabeled to index 0 if necessary (labels 0 and e
    swap; the cells that later errors name use this numbering). Raises
    ``NotClosed`` / ``NoIdentity`` / ``NotLatinSquare`` / ``NotAssociative``,
    each naming the first violating cell. Entries must be integers:
    floats and booleans raise ``NotClosed`` instead of being truncated.

    Associativity is exact at every order (Light's test, see
    :func:`_check_associativity`), and every table that passes is
    ``validation == "full"``. No inverse check follows it: an
    associative table with identity whose rows are permutations is a
    monoid in which every element has a right inverse, hence a group, so
    each one-sided inverse is two-sided.
    """
    op = np.asarray(table)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] == 0:
        raise NotClosed(f"table must be square and nonempty, got shape {op.shape}")
    if op.dtype.kind not in "iu":
        raise NotClosed(f"table entries must be integers, got {op.dtype}")
    n = op.shape[0]

    bad = (op < 0) | (op >= n)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NotClosed(
            f"cell ({i},{j}) holds {int(op[i, j])}, outside [0,{n})", cell=(i, j)
        )
    op = op.astype(_DTYPE)

    idx = np.arange(n, dtype=_DTYPE)
    row_ok = (op == idx[None, :]).all(axis=1)
    col_ok = (op == idx[:, None]).all(axis=0)
    ids = np.flatnonzero(row_ok & col_ok)
    if ids.size == 0:
        raise NoIdentity("no two-sided identity element")
    e = int(ids[0])
    if e != 0:
        # swap labels 0 and e
        relabel = idx.copy()
        relabel[0], relabel[e] = e, 0
        op = relabel[op[np.ix_(relabel, relabel)]]

    # a row (column) is a permutation iff it sorts to 0..n-1; only the first
    # bad one is searched for its first repeated cell
    for axis, view in ((0, op), (1, op.T)):
        bad = np.flatnonzero((np.sort(view, axis=1) != idx).any(axis=1))
        if bad.size:
            i = int(bad[0])
            firsts = np.zeros(n, dtype=bool)
            firsts[np.unique(view[i], return_index=True)[1]] = True
            j = int(np.argmin(firsts))
            if axis == 0:
                raise NotLatinSquare(f"row {i} repeats a value at column {j}", cell=(i, j))
            raise NotLatinSquare(f"column {i} repeats a value at row {j}", cell=(j, i))

    _check_associativity(op)
    return GroupTable(order=n, op=op, inv=_inverses(op), name=name, validation="full")


def build_from_permutations(
    degree: int,
    generators: Iterable[Permutation],
    *,
    name: str = "",
    order_cap: int = ORDER_CAP,
) -> GroupTable:
    """Close a generating set of permutations into a full group table.

    Elements are numbered by breadth-first discovery with the generator
    order fixed, so identical input always yields identical numbering.
    The closure records ``right[k][g]``, the index of e_k * g, and the
    (k, g) that first reached each element e_j = e_k * g. Then
    x * e_j = (x * e_k) * g, so column j of the table is one gather of
    column k through generator g's right-multiplication map.
    """
    gens = list(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    right: list[list[int]] = []
    parent: list[tuple[int, int]] = [(0, 0)]  # the identity's entry is never read
    gen_images = [g.images for g in gens]
    head = 0
    while head < len(elems):
        cur = elems[head]
        head += 1
        row = []
        for gi, gim in enumerate(gen_images):
            nxt = tuple(gim[p] for p in cur)
            j = index.get(nxt)
            if j is None:
                if len(elems) >= order_cap:
                    raise OrderCapExceeded(
                        f"closure passed the cap of {order_cap} elements"
                    )
                j = index[nxt] = len(elems)
                elems.append(nxt)
                parent.append((head - 1, gi))
            row.append(j)
        right.append(row)
    n = len(elems)
    by_gen = np.array(right, dtype=_DTYPE).reshape(n, len(gens)).T.copy()
    op = np.empty((n, n), dtype=_DTYPE)
    op[:, 0] = np.arange(n, dtype=_DTYPE)
    for j in range(1, n):
        k, g = parent[j]
        op[:, j] = by_gen[g][op[:, k]]
    return GroupTable(order=n, op=op, inv=_inverses(op), name=name)


def direct_product(a: GroupTable, b: GroupTable, *, order_cap: int = ORDER_CAP) -> GroupTable:
    """Componentwise product on index pairs, packed as ``i = x*|B| + y``."""
    n = a.order * b.order
    if n > order_cap:
        raise OrderCapExceeded(f"product order {n} exceeds cap {order_cap}")
    op = (
        a.op[:, None, :, None].astype(_DTYPE) * b.order
        + b.op[None, :, None, :]
    ).reshape(n, n)
    inv = (a.inv[:, None].astype(_DTYPE) * b.order + b.inv[None, :]).reshape(n)
    name = f"{a.name or 'A'}x{b.name or 'B'}"
    return GroupTable(order=n, op=op, inv=inv, name=name)


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------


def conjugate(G: GroupTable, x: int, y: int) -> int:
    """x^y = y^-1 x y."""
    return int(G.op[G.op[G.inv[y], x], y])


def commutator(G: GroupTable, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y."""
    return int(G.op[G.op[G.op[G.inv[x], G.inv[y]], x], y])


def element_orders(G: GroupTable) -> list[int]:
    orders = [1] * G.order
    for g in range(1, G.order):
        k, cur = 1, g
        while cur != 0:
            cur = int(G.op[cur, g])
            k += 1
        orders[g] = k
    return orders


def is_abelian(G: GroupTable) -> bool:
    return bool(np.array_equal(G.op, G.op.T))


# ---------------------------------------------------------------------------
# closures and subgroups
# ---------------------------------------------------------------------------


def _extend(right: list[list[int]], seen: list[bool]) -> list[int]:
    """Grow the subgroup H marked in ``seen`` to <H, s>, in place, and
    return the elements added.

    ``right`` holds right-multiplication maps as lists (``right[i][x]`` is
    x times the i-th generator): those of a generating set of H, then that
    of s, which lies outside H. A breadth-first pass starts from the coset
    Hs and multiplies each newly reached element by every generator. A
    set holding the identity and closed under right multiplication by a
    generating set is the subgroup. The pass runs in plain Python,
    O(|<H, s>| r) steps; a numpy pass per level costs more on small
    groups, whose cyclic subgroups take one level per element. The maps
    are one list per generator, not one per element: n small lists would
    each count towards the cyclic garbage collector's thresholds.
    """
    last = right[-1]
    reached = [last[x] for x in compress(range(len(seen)), seen)]  # Hs is disjoint from H
    for x in reached:
        seen[x] = True
    for x in reached:  # also visits what the loop appends
        for col in right:
            y = col[x]
            if not seen[y]:
                seen[y] = True
                reached.append(y)
    return reached


def _greedy(op: np.ndarray) -> Iterator[int]:
    """Generators of the table ``op``, picked greedily: each is the
    smallest element outside the set generated so far, yielded after
    :func:`_extend` has grown that set by it."""
    n = op.shape[0]
    seen = [True] + [False] * (n - 1)
    right: list[list[int]] = []
    size = s = 1
    while size < n:
        s = seen.index(False, s)
        right.append(op[:, s].tolist())
        size += len(_extend(right, seen))
        yield s


def _closure(op: np.ndarray, seed: Iterable[int]) -> np.ndarray:
    """Members of the subgroup generated by ``seed`` (always adds identity)."""
    cur = np.unique(np.fromiter(list(seed) + [0], dtype=_DTYPE))
    while True:
        prods = np.unique(op[np.ix_(cur, cur)])
        if prods.size == cur.size:
            return cur
        cur = prods


def subgroup_from_members(G: GroupTable, members: Iterable[int]) -> Subgroup:
    return Subgroup(G, tuple(int(m) for m in members))


def subgroup_from_generators(G: GroupTable, generators: Iterable[int]) -> Subgroup:
    gens = [int(g) for g in generators]
    bad = next((g for g in gens if not 0 <= g < G.order), None)
    if bad is not None:
        raise ValueError(f"element index {bad} outside [0, {G.order})")
    return Subgroup(G, tuple(int(m) for m in _closure(G.op, gens)))


def whole_group(G: GroupTable) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def subgroup_table(G: GroupTable, sub: Subgroup | Sequence[int]) -> GroupTable:
    """The member set of ``sub`` as a group in its own right (identity first)."""
    members = np.asarray(
        sub.members if isinstance(sub, Subgroup) else sorted(sub), dtype=_DTYPE
    )
    pos = np.full(G.order, -1, dtype=_DTYPE)
    pos[members] = np.arange(len(members), dtype=_DTYPE)
    op = pos[G.op[np.ix_(members, members)]]
    if (op < 0).any():
        raise ValueError("member set is not closed")
    inv = pos[G.inv[members]]
    return GroupTable(
        order=len(members), op=op, inv=inv, name=f"{G.name}|sub{len(members)}"
    )


def _conjugates(G: GroupTable, xs, by) -> np.ndarray:
    """Row j, column i holds by[j]^-1 xs[i] by[j]: one conjugation map per
    conjugator, restricted to xs."""
    xs = np.asarray(xs, dtype=_DTYPE)
    by = np.asarray(by, dtype=_DTYPE)
    return G.op[G.op[np.ix_(G.inv[by], xs)], by[:, None]]


def _orbit_labels(maps: np.ndarray) -> np.ndarray:
    """The smallest point of each point's orbit under the permutations of
    range(m) in the rows of ``maps``.

    Min-label propagation with pointer jumping: every point takes the
    least label among itself and its images, then the label of its label.
    Labels only fall and always name a point of the same orbit, and the
    maps generate a group, so the fixed point is the orbit minimum.
    """
    m = maps.shape[1]
    label = np.arange(m, dtype=_DTYPE)
    while True:
        new = np.minimum(label, label[maps].min(axis=0, initial=m))
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _normal_closure(G: GroupTable, seed) -> np.ndarray:
    """Sorted members of the smallest normal subgroup holding ``seed``.

    N grows by each new element through :func:`_extend`, and then by
    every conjugate N^s that falls outside it, until N^s lies in N for
    every generator s of G. Each round at least doubles N.
    """
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    seen = mask.tolist()
    right: list[list[int]] = []
    pending = np.asarray(seed, dtype=_DTYPE)
    while True:
        pending = pending[~mask[pending]]
        while pending.size:
            right.append(G.op[:, int(pending[0])].tolist())
            mask[_extend(right, seen)] = True
            pending = pending[~mask[pending]]
        members = np.flatnonzero(mask).astype(_DTYPE)
        pending = _conjugates(G, members, G.generators).ravel()
        if mask[pending].all():
            return members


def _commutators(G: GroupTable, rows, cols) -> np.ndarray:
    """The matrix of [x, y] for x in rows, y in cols."""
    rows = np.asarray(rows, dtype=_DTYPE)
    cols = np.asarray(cols, dtype=_DTYPE)
    return G.op[G.op[G.op[np.ix_(G.inv[rows], G.inv[cols])], rows[:, None]], cols[None, :]]


def _cosets(G: GroupTable, members) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets Hx of the member set H, numbered by their smallest
    element: ``coset_of[x]`` is the number of Hx, ``reps[c]`` the smallest
    element of coset c (so the coset of the identity is 0)."""
    members = np.asarray(members, dtype=_DTYPE)
    coset_of = np.full(G.order, -1, dtype=_DTYPE)
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] < 0:
            coset_of[G.op[members, x]] = len(reps)
            reps.append(x)
    return coset_of, np.asarray(reps, dtype=_DTYPE)


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    """Orbit partition under conjugation x -> g^-1 x g.

    The orbits are taken under the conjugation maps of the generators
    only. Classes are numbered by their smallest element and list their
    members in increasing order.
    """
    label = _orbit_labels(_conjugates(G, np.arange(G.order), G.generators))
    reps = np.flatnonzero(label == np.arange(G.order))  # each orbit's smallest element
    class_of = np.searchsorted(reps, label).astype(_DTYPE)
    classes: list[list[int]] = [[] for _ in range(reps.size)]
    for x, c in enumerate(class_of.tolist()):
        classes[c].append(x)
    return ClassPartition(classes=tuple(map(tuple, classes)), class_of=class_of)


def centralizer(G: GroupTable, elements: Iterable[int]) -> Subgroup:
    """{g : gs = sg for all s in elements}; with all of G this is the center."""
    elems = np.asarray(sorted(set(int(e) for e in elements)), dtype=_DTYPE)
    if elems.size == 0:
        raise ValueError("centralizer of the empty set is not defined here")
    good = (G.op[:, elems] == G.op[elems, :].T).all(axis=1)
    return Subgroup(G, tuple(int(v) for v in np.flatnonzero(good)))


def center(G: GroupTable) -> Subgroup:
    """The elements commuting with every generator."""
    if not G.generators:
        return whole_group(G)
    return centralizer(G, G.generators)


def derived_subgroup(G: GroupTable) -> Subgroup:
    """Subgroup generated by all commutators [x, y]: the normal closure
    of the commutators [s, t] of the generators s, t."""
    gens = G.generators
    members = _normal_closure(G, _commutators(G, gens, gens).ravel())
    return Subgroup(G, tuple(members.tolist()))


def is_normal(G: GroupTable, H: Subgroup | Sequence[int]) -> bool:
    """Whether H^s lies in H for every generator s of G."""
    members = np.asarray(
        H.members if isinstance(H, Subgroup) else sorted(H), dtype=_DTYPE
    )
    mask = np.zeros(G.order, dtype=bool)
    mask[members] = True
    return bool(mask[_conjugates(G, members, G.generators)].all())


def normal_subgroups(G: GroupTable, *, cutoff: int = SUBGROUP_CUTOFF) -> list[Subgroup]:
    """All normal subgroups, as class-closed unions reached by joining
    normal closures of single classes (far smaller search space than
    filtering the full subgroup list)."""
    if G.order > cutoff:
        raise OrderCapExceeded(f"order {G.order} exceeds enumeration cutoff {cutoff}")
    part = conjugacy_classes(G)
    atoms: dict[bytes, np.ndarray] = {}
    for cls in part.classes:
        closed = _closure(G.op, cls)
        atoms.setdefault(closed.tobytes(), closed)
    trivial = np.asarray([0], dtype=_DTYPE)
    found: dict[bytes, np.ndarray] = {trivial.tobytes(): trivial}
    work = [trivial]
    atom_list = list(atoms.values())
    while work:
        base = work.pop()
        for atom in atom_list:
            joined = _closure(G.op, np.concatenate([base, atom]))
            key = joined.tobytes()
            if key not in found:
                found[key] = joined
                work.append(joined)
    subs = sorted(found.values(), key=lambda m: (m.size, tuple(m)))
    return [Subgroup(G, tuple(int(v) for v in m)) for m in subs]


def all_subgroups(G: GroupTable, *, cutoff: int = SUBGROUP_CUTOFF) -> list[Subgroup]:
    """The complete subgroup list.

    Enumeration extends each known subgroup by one coset representative at
    a time; since <H, hx> = <H, x> only one representative per coset is
    tried. Every subgroup is reachable through a chain of single-element
    extensions, so the list is complete (including perfect subgroups).
    """
    if G.order > cutoff:
        raise OrderCapExceeded(f"order {G.order} exceeds enumeration cutoff {cutoff}")
    n = G.order
    op = G.op
    trivial = np.asarray([0], dtype=_DTYPE)
    found: dict[bytes, np.ndarray] = {trivial.tobytes(): trivial}
    queue = [trivial]
    head = 0
    while head < len(queue):
        H = queue[head]
        head += 1
        if H.size == n:
            continue
        covered = np.zeros(n, dtype=bool)
        covered[H] = True
        for x in range(n):
            if covered[x]:
                continue
            covered[op[H, x]] = True
            J = _closure(op, np.concatenate([H, [x]]))
            key = J.tobytes()
            if key not in found:
                found[key] = J
                queue.append(J)
    subs = sorted(found.values(), key=lambda m: (m.size, tuple(m)))
    return [Subgroup(G, tuple(int(v) for v in m)) for m in subs]


def quotient(G: GroupTable, N: Subgroup) -> GroupTable:
    """Cayley table on the cosets of a normal subgroup.

    Cosets are numbered by their smallest element, so the coset of the
    identity is index 0.
    """
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    coset_of, reps = _cosets(G, N.members)
    q_op = coset_of[G.op[np.ix_(reps, reps)]]
    q_inv = coset_of[G.inv[reps]]
    return GroupTable(
        order=len(reps), op=q_op, inv=q_inv, name=f"{G.name or 'G'}/N{N.order}"
    )


def normal_core(G: GroupTable, H: Subgroup) -> Subgroup:
    """Intersection of all conjugates of H: the largest normal subgroup
    of G inside H."""
    # x is in every conjugate of H exactly when its whole class lies in H:
    # drop every x with some x^s outside the set until nothing is dropped
    members = np.asarray(H.members, dtype=_DTYPE)
    mask = np.zeros(G.order, dtype=bool)
    mask[members] = True
    while True:
        keep = mask[_conjugates(G, members, G.generators)].all(axis=0)
        if keep.all():
            return Subgroup(G, tuple(members.tolist()))
        mask[members[~keep]] = False
        members = members[keep]


def orbit_count_on_normal(G: GroupTable, N: Subgroup) -> int:
    """Number of conjugation orbits of G on a normal subgroup N."""
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    # the generators' conjugation maps, as permutations of positions in N
    pos = np.zeros(G.order, dtype=_DTYPE)
    pos[list(N.members)] = np.arange(N.order, dtype=_DTYPE)
    maps = pos[_conjugates(G, N.members, G.generators)]
    return int(np.unique(_orbit_labels(maps)).size)


def is_nilpotent(G: GroupTable) -> bool:
    """Lower central series reaches the trivial subgroup."""
    allv = np.arange(G.order, dtype=_DTYPE)
    gamma = allv
    while True:
        comms = np.unique(_commutators(G, allv, gamma))
        nxt = _closure(G.op, comms)
        if nxt.size == 1:
            return True
        if nxt.size == gamma.size:
            return False
        gamma = nxt


def fitting_subgroup(G: GroupTable, *, cutoff: int = SUBGROUP_CUTOFF) -> Subgroup:
    """Join of all nilpotent normal subgroups."""
    if is_nilpotent(G):
        return whole_group(G)
    nilpotent_members = [
        np.asarray(N.members, dtype=_DTYPE)
        for N in normal_subgroups(G, cutoff=cutoff)
        if is_nilpotent(subgroup_table(G, N))
    ]
    joined = _closure(G.op, np.unique(np.concatenate(nilpotent_members)))
    fit = Subgroup(G, tuple(int(v) for v in joined))
    # the join of nilpotent normal subgroups is itself nilpotent and normal
    if not is_normal(G, fit) or not is_nilpotent(subgroup_table(G, fit)):
        raise AssertionError("Fitting subgroup invariant violated")
    return fit


def abelian_normal_subgroups(
    G: GroupTable, *, cutoff: int = SUBGROUP_CUTOFF
) -> list[Subgroup]:
    out = []
    for N in normal_subgroups(G, cutoff=cutoff):
        block = G.op[np.ix_(N.members, N.members)]
        if np.array_equal(block, block.T):
            out.append(N)
    return out


def largest_abelian_normal_subgroup(G: GroupTable, *, cutoff: int = SUBGROUP_CUTOFF) -> Subgroup:
    """Largest abelian normal subgroup; ties broken by lexicographic members."""
    cands = abelian_normal_subgroups(G, cutoff=cutoff)
    return max(cands, key=lambda s: (s.order, tuple(-m for m in s.members)))


def index_two_subgroups(G: GroupTable) -> list[Subgroup]:
    """All subgroups of index 2 (necessarily normal).

    They are exactly the preimages of hyperplanes in G/M where M is
    generated by all squares. G/M has exponent 2, so it is abelian and M
    already holds every commutator.
    """
    n = G.order
    M = _closure(G.op, np.diagonal(G.op))
    if M.size == n:
        return []
    # coordinates of each coset over F_2
    coset_of, reps = _cosets(G, M)
    m = len(reps)
    coords = np.full(m, -1, dtype=np.int64)
    coords[0] = 0
    basis: list[int] = []
    span = {0: 0}
    for v in range(1, m):
        if coords[v] >= 0:
            continue
        basis.append(v)
        bit = 1 << (len(basis) - 1)
        for w, cw in list(span.items()):
            u = int(coset_of[G.op[reps[w], reps[v]]])
            span[u] = cw | bit
            coords[u] = cw | bit
    out = []
    r = len(basis)
    for phi in range(1, 2**r):
        masked = coords[coset_of] & phi
        for shift in (32, 16, 8, 4, 2, 1):  # XOR fold: low bit = parity
            masked ^= masked >> shift
        out.append(Subgroup(G, tuple(int(v) for v in np.flatnonzero(masked & 1 == 0))))
    out.sort(key=lambda s: s.members)
    return out
