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
map x -> s^-1 x s, a row of ``GroupTable.conjugation``. Conjugacy classes
are the orbits of these r maps, the center is their common fixed points,
the derived subgroup is the normal closure of the commutators [s, t] with
s, t in S, and a subset closed under every map is normal. A direct
product forms none of these maps: its center, derived subgroup and
Fitting subgroup are read off its factors', and it is abelian or
nilpotent exactly when both factors are.

These routines read no n x n table: they need the right-multiplication
map x -> xs of a few elements s (``GroupTable._right_map``, the one
place that knows how a product is formed) and ``inv``, O(r n) ints; each
generator's map is formed once per group. A group without a table has a
map source instead, one ``compose(s) -> R_s`` function: a group built
from permutations composes its closure's generator maps along the
breadth-first word of s; a direct product adds its factors' maps; the
cyclic, dicyclic and dihedral families take a few slices of one array;
a quotient reads the map of a coset representative through the coset
numbering; and a subgroup table reads the map of a member through the
members' places. One fill (``_fill``) turns any source into the table,
only when a routine first reads ``op`` (subgroup enumeration, pair
counts). Only Cayley input and the extraspecial family are built with
their table, and read the maps off it.

Every subgroup is generated by one breadth-first pass over the right
multiplication maps of its generators, never from all products of pairs.
F(G) is built from normal closures of single classes, and the index-2
subgroups from normal closures of generator products.

Classes and cosets are the orbits of a few maps, numbered by their
smallest point (``_orbits``): the classes under the conjugation maps,
the cosets xN of a normal N (quotients, the upper central series) under
the right maps of N's generators. Each group forms its class partition
once and keeps it (``conjugacy_classes``), and every reader reads that
one partition: Pr, the center index, F(G), the normal subgroups, the
normal core and the orbit count on a normal subgroup (a normal subgroup
is a union of classes). A direct product runs no orbits: it records its
factors, and the class of (x, y) is C_A(x) x C_B(y), numbered
``class_of_A[x] * k_B + class_of_B[y]`` from the factors' partitions,
which is again the numbering by smallest element. The member tuples of
the classes are formed only when read (F(G), the normal subgroups).
Likewise Z(A x B) = Z(A) x Z(B), (A x B)' = A' x B' and
F(A x B) = F(A) x F(B), each the pairs of the factors' members, packed
as the elements are (``_on_factors``); nested products recurse.

The same greedy picks validate a Cayley table exactly, at every order:
associativity by Light's test, (xs)y = x(sy) for each pick s only
(Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961), in
O(n^2 log n) time. Picks that pass and reach every element, with the
identity in every row, prove a group, whose rows and columns are then
permutations; the Latin check runs only on a table refused, to name the
first bad cell. Inverses are found a block of rows at a time.
A member set is a subgroup when the same closure, started from its
members, reaches nothing else; structural operations take only such a
``Subgroup``. Member lists from outside the library take that check;
the sets that a routine forms closed by construction (fixed points,
spans, normal closures, products of factors' subgroups) skip it.

Conventions fixed once for the whole library:

* commutator  ``[x, y] = x^-1 y^-1 x y``
* conjugation ``x^y   = y^-1 x y``

All operations are pure functions; ``GroupTable``, ``Subgroup`` and
``ClassPartition`` are immutable after construction.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    UnsupportedParams,
)

# Cap for subgroup enumeration (the most expensive primitive here).
SUBGROUP_CUTOFF = 192

# Cap for closures, permutation degrees and direct products.
ORDER_CAP = 20_000

_DTYPE = np.int32

# Cells per block of a blockwise table sweep: the temporaries of a sweep
# stay a few MB at any order instead of growing with n^2.
_BLOCK_CELLS = 1 << 20

# Cells (element x point) a permutation closure may hold: its keys take 2
# bytes a cell, so at most 64 MiB, however high the degree.
_CLOSURE_CELLS = 1 << 25


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


class _Table:
    """The ``op`` field of :class:`GroupTable` when no table was given: the
    first read fills it from the group's map source (see :func:`_fill`)
    and keeps it in the instance, where later reads find it first (a
    non-data descriptor, as ``functools.cached_property``)."""

    def __get__(self, G, owner=None) -> np.ndarray:
        if G is None:
            raise AttributeError("op")  # a required dataclass field: no default
        op = vars(G)["op"] = _fill(G)
        op.setflags(write=False)
        return op


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group: ``op[x, y]`` is the product xy, ``inv[x]`` the inverse.

    A group built from permutations, as a direct product, a quotient, a
    subgroup table or a cyclic, dicyclic or dihedral family member holds
    a map source, ``compose(s)``, the right map x -> xs of any element s,
    and is given ``op=None``: it fills ``op`` from that source on first
    read (see :func:`_fill`). Cayley input and the extraspecial family
    hand ``op`` over. ``order``, ``generators``, ``conjugation`` and the
    orbit-method routines read no table that is not filled yet; they take
    right-multiplication maps from :meth:`_right_map`.

    ``validation`` records how associativity was established: "full"
    (a Cayley table checked by Light's test, exact at every order) or
    "constructed" (tables built by our own constructors, associative by
    construction).
    """

    compose: Callable[[int], np.ndarray] | None = field(
        default=None, repr=False, kw_only=True)
    factors: tuple[GroupTable, GroupTable] | None = field(
        default=None, repr=False, kw_only=True)
    op: np.ndarray = _Table()
    inv: np.ndarray
    name: str = ""
    validation: str = "constructed"

    def __post_init__(self):
        if self.op is not None:
            self.op.setflags(write=False)
        elif self.compose is None:
            raise ValueError("a group needs its table or the compose function that fills it")
        else:
            del vars(self)["op"]  # the first read fills it
        self.inv.setflags(write=False)

    @property
    def order(self) -> int:
        return self.inv.shape[0]

    def mul(self, x: int, y: int) -> int:
        return int(self.op[x, y])

    def inverse(self, x: int) -> int:
        return int(self.inv[x])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"GroupTable({self.name or 'G'}, order={self.order})"

    def renamed(self, name: str) -> GroupTable:
        """The same group under another name, with the same map source and
        factors; ``dataclasses.replace`` would read ``op``, and so fill a
        table that is not filled yet."""
        return replace(self, op=vars(self).get("op"), name=name)

    def _right_map(self, s: int) -> np.ndarray:
        """R_s, the map x -> xs, of any element s: column s of the table
        when it is filled, else formed by the map source, ``compose``."""
        op = vars(self).get("op")
        return self.compose(s) if op is None else op[:, s]

    @cached_property
    def _generator_maps(self) -> dict[int, np.ndarray]:
        """Each generator's right map, read-only, in pick order: the maps
        that :func:`_greedy` takes from :meth:`_right_map` while it picks,
        so routines that need them compose none again."""
        maps = dict(_greedy(self._right_map, [True] + [False] * (self.order - 1)))
        for R in maps.values():
            R.setflags(write=False)
        return maps

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, picked greedily: the smallest element outside
        the subgroup generated so far is added until that subgroup is G.

        Each pick at least doubles the subgroup, so there are at most
        log2(n) generators; the trivial group has none.
        """
        return tuple(self._generator_maps)

    @cached_property
    def conjugation(self) -> np.ndarray:
        """The conjugation maps of the generators, read-only: row i maps
        x to s_i^-1 x s_i for the i-th generator s_i (r rows of n).

        s^-1 x s = (x^-1 s)^-1 s, so each row is ``R[inv[R[inv]]]`` for the
        right map R of s: two gathers through R and one through ``inv``."""
        rows = [R[self.inv[R[self.inv]]] for R in self._generator_maps.values()]
        maps = np.array(rows, dtype=_DTYPE).reshape(len(rows), self.order)
        maps.setflags(write=False)
        return maps

    @cached_property
    def _classes(self) -> ClassPartition:
        """The class partition, formed once (see :func:`conjugacy_classes`):
        the orbits of the conjugation maps, or for a direct product the
        product of its factors' partitions."""
        if self.factors is None:
            return ClassPartition(_orbits(self.conjugation)[0])
        a, b = map(conjugacy_classes, self.factors)
        return ClassPartition(np.add.outer(a.class_of * b.count, b.class_of).ravel())


def _fill(G: GroupTable) -> np.ndarray:
    """The n x n table of a group from its right maps, a contiguous row at
    a time. A breadth-first walk from the identity over the generators'
    right maps reaches each new element as e_i = e_k h, h a generator;
    then e_i e_j = e_k (h e_j), so row i is row k, filled before it,
    gathered through the left map L_h. hx = (x^-1 h^-1)^-1, so L_h is
    ``inv[R[inv]]`` for the right map R of h^-1. No n^2 temporary is
    formed, and any source gives the same bytes for the same numbering."""
    n, inv = G.order, G.inv
    op = np.empty((n, n), dtype=_DTYPE)
    op[0] = np.arange(n, dtype=_DTYPE)
    steps = [(R.tolist(), inv[G._right_map(int(inv[h]))[inv]].astype(np.intp))
             for h, R in G._generator_maps.items()]  # take's index type: no cast per row
    seen = [True] + [False] * (n - 1)
    reached = [0]
    for k in reached:  # also visits what the loop appends
        for right, left in steps:
            i = right[k]
            if not seen[i]:
                seen[i] = True
                reached.append(i)
                # indices are in range; "clip" skips the buffered copy of "raise"
                op[k].take(left, out=op[i], mode="clip")
    return op


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup given by its sorted member indices inside ``parent``."""

    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(_elements(self.parent, self.members)))
        object.__setattr__(self, "members", mem)
        if not mem or mem[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        n = self.parent.order
        if n % len(mem) != 0:
            raise ValueError(f"subgroup size {len(mem)} does not divide group order {n}")
        # distinct members, the identity among them, are closed iff they span no more
        if len(set(mem)) < len(mem) or _span(self.parent, mem).size != len(mem):
            raise ValueError("member set is not closed under the group operation")

    @classmethod
    def _closed(cls, parent: GroupTable, members: np.ndarray) -> Subgroup:
        """The subgroup of ``parent`` whose members, an increasing array,
        are closed by construction: a fixed-point set, a span, a normal
        closure or a product of factors' subgroups. The checks of
        ``__post_init__``, a span at a cost that grows with |G|, are left
        out; member lists from outside the library always take them."""
        H = object.__new__(cls)
        object.__setattr__(H, "parent", parent)
        object.__setattr__(H, "members", tuple(members.tolist()))
        return H

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def mask(self) -> np.ndarray:
        """Membership, read-only: ``mask[x]`` is whether x is a member."""
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[list(self.members)] = True
        mask.setflags(write=False)
        return mask

    def __contains__(self, x: int) -> bool:
        try:
            return bool(self.mask[_elements(self.parent, [x])[0]])
        except ValueError:  # no element of the parent
            return False

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name or 'G'})"


@dataclass(frozen=True, eq=False)
class ClassPartition:
    """Conjugacy classes numbered by their smallest element: ``class_of[x]``
    is the number of x's class (so the class of the identity is 0).

    The count and the sizes are read from one bincount of ``class_of``.
    The member tuples, ``classes``, each in increasing order, are formed
    only when first read; counting readers (Pr, the center index) never
    form them."""

    class_of: np.ndarray

    def __post_init__(self):
        self.class_of.setflags(write=False)

    @cached_property
    def _sizes(self) -> np.ndarray:
        return np.bincount(self.class_of)

    @property
    def count(self) -> int:
        return self._sizes.size

    def sizes(self) -> tuple[int, ...]:
        return tuple(self._sizes.tolist())

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        classes: list[list[int]] = [[] for _ in range(self.count)]
        for x, c in enumerate(self.class_of.tolist()):
            classes[c].append(x)
        return tuple(map(tuple, classes))


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., degree-1}; ``images[i]`` is the image of i."""

    degree: int
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(_integers(self.images, "image"))
        if sorted(images) != list(range(self.degree)):
            raise ValueError("images must be a bijection of [0, degree)")
        object.__setattr__(self, "images", images)


# ---------------------------------------------------------------------------
# cycle notation (1-based at the boundary, 0-based inside)
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _check_degree(degree: int) -> None:
    """Refuse a bad degree before any list of that length is made; a
    degree above ``ORDER_CAP`` is refused like an order above it."""
    if degree < 0:
        raise UnsupportedParams(f"degree must be >= 0, got {degree}")
    if degree > ORDER_CAP:
        raise OrderCapExceeded(f"degree {degree} exceeds the cap of {ORDER_CAP}")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``"(1 2)(3 4)"``.

    Fixed points are omitted; ``""`` and ``"()"`` denote the identity.
    Juxtaposed cycles are applied left to right.
    """
    _check_degree(degree)
    stripped = _CYCLE_RE.sub("", text).strip()
    if stripped:
        raise ValueError(f"stray characters in cycle notation: {stripped!r}")
    images = list(range(degree))
    source = list(range(degree))  # source[y]: the point whose image is y
    for body in _CYCLE_RE.findall(text):
        points = [int(tok) for tok in body.split()]
        if not points:
            continue
        if any(p < 1 or p > degree for p in points):
            raise ValueError(f"cycle point out of range 1..{degree}: ({body})")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point within a cycle: ({body})")
        # the cycle sends each a to the next b: the one point now mapped
        # to a is mapped to b instead, and no other image changes
        froms = [source[a - 1] for a in points]
        for x, b in zip(froms, points[1:] + points[:1]):
            images[x] = b - 1
            source[b - 1] = x
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


def _check_pick(op: np.ndarray, s: int, buffers: list[np.ndarray]) -> None:
    """Compare (xs)y with x(sy) for all x, y, a block of rows at a time
    gathered into ``buffers`` (two blocks of rows); raise ``NotAssociative``
    at the first (x, s, y), in row order, where they differ."""
    n, step = op.shape[0], len(buffers[0])
    for lo in range(0, n, step):
        rows = op[lo:lo + step]
        left, right = (b[:len(rows)] for b in buffers)
        # indices are in range; "clip" skips the buffered copy of "raise"
        np.take(op, rows[:, s], axis=0, out=left, mode="clip")  # (xs)y
        np.take(rows, op[s], axis=1, out=right, mode="clip")  # x(sy)
        if not np.array_equal(left, right):
            x, y = (int(v) for v in np.argwhere(left != right)[0])
            x += lo
            raise NotAssociative(
                f"(x*y)*z != x*(y*z) at (x,y,z)=({x},{s},{y})", cell=(x, s, y)
            )


def _check_associativity(op: np.ndarray) -> bool:
    """Light's associativity test on the greedy picks of ``op``, a table
    with identity 0: whether the checked picks reach every element.

    In any magma with an identity, the elements a with (xa)y = x(ay) for
    all x, y are closed under the product (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, 1961, section 1.2), so the table
    is associative once every element is reached from 0 by right
    multiplication with checked picks; no Latin property is needed.
    Each pick is the smallest element not reached yet, and is compared
    by :func:`_check_pick` after it extends the reached set; that raises
    ``NotAssociative`` at the first (x, s, y) with (xs)y != x(sy).

    The picks are those of :func:`_greedy`, which stops after at most
    floor(log2 n) + 1 of them: O(n^2 log n) time at any order, on groups
    and non-groups alike.
    """
    n = op.shape[0]
    # the blocks (xs)y and x(sy) of every pick: memory used once is
    # filled again, with no fresh pages to fault in. Two arrays, each at
    # most the table's size, not one of twice it: in a process that builds
    # several order-720 tables, one such block left about 3 MB more
    # memory resident after it was freed.
    step = min(n, max(1, _BLOCK_CELLS // n))
    buffers = [np.empty((step, n), dtype=op.dtype) for _ in range(2)]
    seen = [True] + [False] * (n - 1)
    for s, _ in _greedy(lambda s: op[:, s], seen):
        _check_pick(op, s, buffers)
    return False not in seen


def _check_latin(op: np.ndarray) -> None:
    """Raise ``NotLatinSquare`` at the first repeated cell of the first
    row, else column, that is not a permutation. A row (column) is one
    iff it sorts to 0..n-1: rows, then columns, are sorted a block of
    about 2^20 cells at a time, so no n^2 copy is formed; only the first
    bad one is searched for its first repeated cell."""
    n = op.shape[0]
    idx = np.arange(n, dtype=op.dtype)
    step = max(1, _BLOCK_CELLS // n)
    for axis, view in ((0, op), (1, op.T)):
        for lo in range(0, n, step):
            bad = np.flatnonzero((np.sort(view[lo:lo + step], axis=1) != idx).any(axis=1))
            if not bad.size:
                continue
            i = lo + int(bad[0])
            firsts = np.zeros(n, dtype=bool)
            firsts[np.unique(view[i], return_index=True)[1]] = True
            j = int(np.argmin(firsts))
            if axis == 0:
                raise NotLatinSquare(f"row {i} repeats a value at column {j}", cell=(i, j))
            raise NotLatinSquare(f"column {i} repeats a value at row {j}", cell=(j, i))


def _inverses(op: np.ndarray) -> np.ndarray:
    """``inv[x]`` is the first y with xy = 0 (the identity), or 0 if row
    x holds no 0. Rows are searched a block of about 2^20 cells at a
    time, so no n^2 temporary is formed."""
    n = op.shape[0]
    step = max(1, _BLOCK_CELLS // n)
    inv = np.empty(n, dtype=_DTYPE)
    for lo in range(0, n, step):
        inv[lo:lo + step] = np.argmax(op[lo:lo + step] == 0, axis=1)
    return inv


_JSON_SPACE = " \t\n\r"
# brackets become spaces, which np.fromstring skips, and every byte but
# digits, commas and brackets is deleted
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_NOT_TABLE_BYTES = bytes(sorted(set(range(256)) - set(b"0123456789,[]")))
_COMMA, _OPEN, _CLOSE = b",[]"
_TWO_COMMAS = np.frombuffer(b",,", dtype=np.uint16)[0]
_INT64_MAX = int(np.iinfo(np.int64).max)


def table_from_json(text: str) -> np.ndarray | None:
    """``np.asarray(json.loads(text))`` for the JSON text of a square table
    of non-negative integers, read without a Python int per cell; None
    for any text that this reader cannot prove ``json.loads`` decodes to
    the same int64 array.

    Accepted are the compact ``[[0,1],[1,0]]`` and the ``json.dumps``
    default ``[[0, 1], [1, 0]]`` spellings, with JSON whitespace around
    the whole. Any other whitespace, a sign, a fraction, an exponent, a
    boolean, a leading zero, an empty or ragged row, a value that does
    not fit in int64 or a non-ASCII character gives None, and the caller
    decodes the text with ``json.loads``.

    The text is proved a table from the n + 1 positions of "[" and of
    "]" and a few whole-text passes in numpy and ``bytes.translate``,
    with no pass per row; then one ``np.fromstring`` parses all n^2
    values, and each row's byte length is checked against the decimal
    lengths of the n values read for it.

    Raises ``OrderCapExceeded`` for more than ``ORDER_CAP`` rows, from
    a count of brackets, before any n^2 array exists.
    """
    text = text.strip(_JSON_SPACE)
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    del text  # often the only reference: a copy of the table's text
    if b" " in raw:  # one byte: a memchr, not a substring search
        # whitespace between tokens is insignificant; after this only
        # digits, commas and brackets may remain
        raw = raw.replace(b", ", b",")
    flat = raw.translate(_BRACKETS_TO_SPACES, _NOT_TABLE_BYTES)
    if len(flat) != len(raw) or not (raw.startswith(b"[[") and raw.endswith(b"]]")):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    is_close = data == _CLOSE
    n = int(np.count_nonzero(is_close)) - 1
    if n > ORDER_CAP:
        # the error counts rows as one more than the "],[" in the text,
        # at most n in a text that ends in "]]", table or not
        rows = raw.count(b"],[") + 1
        if rows > ORDER_CAP:
            raise OrderCapExceeded(f"table of {rows} rows exceeds the cap of {ORDER_CAP}")
        return None
    closes = np.flatnonzero(is_close)
    del is_close  # one text-long mask at a time
    is_open = data == _OPEN
    if np.count_nonzero(is_open) != n + 1:
        return None
    opens = np.flatnonzero(is_open)
    del is_open
    # Row r runs from opens[r + 1] to closes[r]. A text that starts "[["
    # and ends "]]" is "[[" row "],[" row ... "]]", with no bracket in a
    # row, when every row is nonempty and each "]" but the last two is
    # followed by ",[". A row must not begin or end with a comma, and no
    # two commas may follow each other (",," fills one of the 16-bit
    # words at byte offset 0 or 1).
    ends, starts = closes[:-1], opens[1:]
    words = (np.frombuffer(flat, dtype=np.uint16, count=len(flat) // 2),
             np.frombuffer(flat, dtype=np.uint16, count=(len(flat) - 1) // 2, offset=1))
    if (
        not (starts + 1 < ends).all()
        or not (opens[2:] == ends[:-1] + 2).all()
        or not (data[ends[:-1] + 1] == _COMMA).all()
        or (data[starts + 1] == _COMMA).any()
        or (data[ends - 1] == _COMMA).any()
        or any((w == _TWO_COMMAS).any() for w in words)
        or np.count_nonzero(data == _COMMA) != n * n - 1
    ):
        return None
    del words, data, raw  # flat is all that is parsed
    # Now the text holds exactly n^2 runs of digits. That must be proved
    # first: given a count, np.fromstring makes up values it cannot read,
    # and without one, numpy < 2 returns what it read so far from
    # malformed text. It also clamps values past int64 to its maximum,
    # and reads "01" as 1.
    values = np.fromstring(flat, dtype=np.int64, count=n * n, sep=",")
    if values.size != n * n:
        return None
    top = int(values.max())
    if top == _INT64_MAX:
        return None
    table = values.reshape(n, n)
    # Row r of the text must be as long as the decimal digits of row r
    # of the table and n - 1 commas. No value is spelled in fewer bytes
    # than its digits, so over all rows this proves no leading zero; then
    # each value and its comma take at least 2 bytes, and equal lengths
    # at every row end prove n values in every row.
    digits = n + sum(np.count_nonzero(table >= 10**k, axis=1) for k in range(1, len(str(top))))
    if not (ends - starts - 1 == digits + n - 1).all():
        return None
    return table


def build_from_cayley(table: Sequence[Sequence[int]], *, name: str = "") -> GroupTable:
    """Validate a square multiplication table and wrap it as a group.

    The identity is relabeled to index 0 if necessary (labels 0 and e
    swap; the cells that later errors name use this numbering). Raises
    ``OrderCapExceeded`` above ``ORDER_CAP`` rows, and
    ``NotClosed`` / ``NoIdentity`` / ``NotLatinSquare`` / ``NotAssociative``,
    each naming the first violating cell. Entries must be integers:
    floats and booleans raise ``NotClosed`` instead of being truncated.

    Associativity is exact at every order (Light's test, see
    :func:`_check_associativity`), and every table that passes is
    ``validation == "full"``. Light's test runs first, and the Latin
    sorts only on a table it does not accept, to name the refusal:

    * If the checked picks reach all n elements, the table is
      associative: it is a monoid. If also every row holds the identity,
      every element has a right inverse, which in a monoid is two-sided:
      the table is a group, so its rows and columns are permutations.
    * Otherwise (a pick is not associative, the picks stop at the bound
      without reaching n, or a row holds no identity) the rows, then the
      columns, are checked to be permutations, which names the first
      non-Latin cell as before. A Latin square with identity 0 that gets
      past them is a loop, in which each checked pick at least doubles
      the reached set: the fast run took the same picks in the same
      order as a Latin-first run, compared the same cells, and its first
      ``NotAssociative`` is the refusal. (A loop that is associative is a
      group, which would have been accepted.)
    """
    op = np.asarray(table)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] == 0:
        raise NotClosed(f"table must be square and nonempty, got shape {op.shape}")
    n = op.shape[0]
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"table of {n} rows exceeds the cap of {ORDER_CAP}")
    if op.dtype.kind not in "iu":
        raise NotClosed(f"table entries must be integers, got {op.dtype}")

    if op.min() < 0 or op.max() >= n:
        i, j = map(int, np.argwhere((op < 0) | (op >= n))[0])
        raise NotClosed(
            f"cell ({i},{j}) holds {int(op[i, j])}, outside [0,{n})", cell=(i, j)
        )
    op = op.astype(_DTYPE)

    # the identity e has e0 = 0: only such rows are compared in full
    idx = np.arange(n, dtype=_DTYPE)
    e = next((int(e) for e in np.flatnonzero(op[:, 0] == 0)
              if np.array_equal(op[e], idx) and np.array_equal(op[:, e], idx)), None)
    if e is None:
        raise NoIdentity("no two-sided identity element")
    if e != 0:
        # swap labels 0 and e in place (op is our own copy): rows, columns
        # and values
        op[[0, e]] = op[[e, 0]]
        op[:, [0, e]] = op[:, [e, 0]]
        was_zero = op == 0
        op[op == e] = 0
        op[was_zero] = e

    refusal = inv = None
    try:
        if _check_associativity(op):
            inv = _inverses(op)
    except NotAssociative as exc:
        # dropping the traceback frees the pick's blocks for the sorts
        refusal = exc.with_traceback(None)
    if inv is None or not (op[idx, inv] == 0).all():
        _check_latin(op)
        raise refusal  # a loop: see above
    return GroupTable(op=op, inv=inv, name=name, validation="full")


def build_from_permutations(
    degree: int,
    generators: Iterable[Permutation],
    *,
    name: str = "",
) -> GroupTable:
    """Close a generating set of permutations into a group.

    Elements are numbered by breadth-first discovery with the generator
    order fixed, so identical input always yields identical numbering.
    An element is the row of its images as ``uint16``, and its key is
    that row's bytes, in one dict from key to index: 2 bytes a point, so
    the keys of a closure at the cap take at most ``ORDER_CAP**2 * 2``
    bytes, half of one int32 table there. The closure records
    ``right[k][g]``, the index of e_k * g, and the (k, g) that first
    reached each element e_j = e_k * g, as two flat int lists.

    One level is closed at a time, the elements first reached from the
    level before. The products of a block of its rows with every generator
    are one ``take`` of the generators' images at those rows, swapped into
    (k, g) order. A block holds at most ``_BLOCK_CELLS`` cells, or one
    element if its products alone hold more, so no temporary grows with
    level size x generators x degree. A level in (k, g) order is the order
    in which a queue of single elements meets the products, so the level
    steps number the elements as that queue does, at every degree.

    The inverses cost O(rn), with no search: for each generator h the
    left-multiplication map L_h (L_h[j] is the index of h * e_j) follows
    from the closure, since L_h[0] is the index of h and
    h * e_j = (h * e_k) * g gives L_h[j] = right[L_h[k]][g]. The identity
    of row k of the table sits at inv[k], and for e_i = e_k * h,
    e_i * e_j = e_k * (h * e_j), so the identity of row i sits at
    L_h^-1[inv[k]]. The left maps are dropped once ``inv`` is known.

    The group keeps the right maps and the breadth-first words, O(r n)
    ints: the right map of e_s is the generators' maps composed along
    the word of e_s, O(n) per letter. It fills its n x n table only when
    ``op`` is first read (see :func:`_fill`); classes, the center, the
    derived subgroup and normal closures never read it.

    Raises ``OrderCapExceeded`` as soon as the closure passes
    ``ORDER_CAP`` elements, or ``_CLOSURE_CELLS // degree`` elements if
    that is fewer: the keys of one element take 2 bytes a point, so the
    cell budget bounds their memory at any degree.
    """
    _check_degree(degree)
    gens = list(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    r = len(gens)
    images = np.array([g.images for g in gens], dtype=np.uint16).reshape(r, degree)
    key_type = np.dtype((np.void, 2 * degree))  # a row read as its bytes
    cap = min(ORDER_CAP, _CLOSURE_CELLS // max(1, degree))
    if cap < ORDER_CAP:
        too_many = (f"closure passed {cap} elements of degree {degree}, "
                    f"the budget of {_CLOSURE_CELLS} cells")
    else:
        too_many = f"closure passed the cap of {ORDER_CAP} elements"
    step = max(1, _BLOCK_CELLS // max(1, r * degree))  # elements per block
    elems = [np.arange(degree, dtype=np.uint16).tobytes()]
    index = {elems[0]: 0}
    right: list[int] = []  # right[k * r + g] is the index of e_k * g
    parent_k, parent_g = [0], [0]  # the identity's entries are never read
    lo = 0
    while lo < len(elems):  # elements lo..hi-1 are one level
        hi = len(elems)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            rows = np.frombuffer(b"".join(elems[a:b]), dtype=np.uint16).reshape(b - a, degree)
            # e_k * g sends x to g(e_k(x)); the swap puts the products in (k, g) order
            block = np.ascontiguousarray(images.take(rows, axis=1).swapaxes(0, 1))
            keys = np.ndarray((b - a) * r, dtype=key_type, buffer=block).tolist()
            found = list(map(index.get, keys))
            c = -1
            # the products not known before this block, in order; one may repeat an earlier one
            for _ in range(found.count(None)):
                c = found.index(None, c + 1)
                j = found[c] = index.setdefault(keys[c], len(elems))
                if j == len(elems):
                    if j >= cap:
                        raise OrderCapExceeded(too_many)
                    elems.append(keys[c])
                    parent_k.append(a + c // r)
                    parent_g.append(c % r)
            right += found
        lo = hi
    n = len(elems)
    del elems, index  # only the maps outlive the closure
    maps = np.array(right, dtype=np.intp).reshape(n, r).T.copy()
    maps.setflags(write=False)  # compose hands its rows out as they are
    cols = maps.tolist()  # cols[g][k] is the index of e_k * g
    left_inv = {}
    for h in set(parent_g[1:]):
        lh = [0] * n
        lh[0] = cols[h][0]  # h * e_0 = h
        for j in range(1, n):
            lh[j] = cols[parent_g[j]][lh[parent_k[j]]]
        inverse = np.empty(n, dtype=np.intp)
        inverse[lh] = np.arange(n)
        left_inv[h] = inverse.tolist()
    inv = [0] * n
    for i in range(1, n):
        inv[i] = left_inv[parent_g[i]][inv[parent_k[i]]]

    def compose(s: int) -> np.ndarray:
        """``maps[g_1]``, ..., ``maps[g_m]`` applied in turn, for the word
        e_s = g_1 ... g_m that the parents spell from s back to 0."""
        word = []
        while s:
            word.append(parent_g[s])
            s = parent_k[s]
        if not word:
            return np.arange(n)
        out = maps[word.pop()]
        while word:
            out = maps[word.pop()][out]
        return out

    return GroupTable(None, np.array(inv, dtype=_DTYPE), name=name, compose=compose)


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Componentwise product on index pairs, packed as ``i = x*|B| + y``.

    The product keeps its factors and ``inv``, O(n), and fills no factor
    table: (u, v)(x, y) = (ux, vy), so the right map of x*|B| + y is R_x
    scaled by |B| with each value repeated |B| times, plus R_y tiled |A|
    times, one outer add of the factors' right maps. Its own table is
    filled from these maps on the first read of ``op`` (see :func:`_fill`).

    The two factors are recorded as ``factors``, which only this
    constructor sets: the product's class partition is read off theirs
    (see :func:`conjugacy_classes`), with no orbits run on the product,
    and so are its center, derived subgroup and Fitting subgroup and
    whether it is abelian or nilpotent (see :func:`_on_factors`).
    """
    na, nb = a.order, b.order
    n = na * nb
    if n > ORDER_CAP:
        raise OrderCapExceeded(f"product order {n} exceeds cap {ORDER_CAP}")
    inv = (a.inv[:, None].astype(_DTYPE) * nb + b.inv[None, :]).reshape(n)
    name = f"{a.name or 'A'}x{b.name or 'B'}"

    def compose(s: int) -> np.ndarray:
        x, y = divmod(s, nb)
        return np.add.outer(a._right_map(x) * nb, b._right_map(y)).ravel()

    return GroupTable(None, inv, name=name, compose=compose, factors=(a, b))


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
    each count towards the cyclic garbage collector's thresholds. On a
    table that is no group, where Hs can meet H, the flags stay exact
    but the list returned can repeat elements or hold some of H.
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


def _greedy(
    right_map: Callable[[int], np.ndarray], seen: list[bool]
) -> Iterator[tuple[int, np.ndarray]]:
    """Picks from the right-multiplication maps that ``right_map`` gives,
    made greedily: each is the smallest element that ``seen`` does not
    hold, yielded with its map after :func:`_extend` has grown ``seen``
    (the identity alone at the start, of length n) by it, in place.

    The picks stop once ``seen`` holds every element, which is exact on
    any table, or after n.bit_length() picks. Each pick of a group at
    least doubles the subgroup before it, so a group of order n is
    generated by at most floor(log2 n) picks, and only a table that is
    no group can stop at the bound with elements not reached.
    """
    right: list[list[int]] = []
    s = 0
    for _ in range(len(seen).bit_length()):
        if False not in seen:
            return
        s = seen.index(False, s)
        R = right_map(s)
        right.append(R.tolist())
        _extend(right, seen)
        yield s, R


def _generate(G: GroupTable, seed, right: list[list[int]], seen: list[bool]) -> None:
    """Grow the subgroup of G marked in ``seen`` (generated by the maps
    in ``right``) in place by each seed element it does not yet hold, in
    seed order, through :func:`_extend`, with each new generator's
    right-multiplication map from :meth:`GroupTable._right_map`."""
    for s in np.asarray(seed, dtype=_DTYPE).ravel().tolist():
        if not seen[s]:
            right.append(G._right_map(s).tolist())
            _extend(right, seen)


def _span(G: GroupTable, seed) -> np.ndarray:
    """Sorted members of the subgroup of G generated by ``seed``. The
    flags are read as bytes: numpy converts a list of n bools 5 times
    slower."""
    seen = [True] + [False] * (G.order - 1)
    _generate(G, seed, [], seen)
    return np.flatnonzero(np.frombuffer(bytes(seen), dtype=bool)).astype(_DTYPE)


def _integers(xs: Iterable, what: str) -> list[int]:
    """``xs`` through ``operator.index``, so Python and numpy integers
    pass; ``ValueError`` names, as ``what``, a value it refuses (no float
    is truncated)."""
    xs = list(xs)
    try:
        return list(map(operator.index, xs))
    except TypeError:  # only a value of neither type can be refused
        bad = next(x for x in xs if not isinstance(x, (int, np.integer)))
        raise ValueError(f"{what} {bad!r} is not an integer") from None


def _elements(G: GroupTable, xs: Iterable[int]) -> list[int]:
    """``xs`` as element indices of G; ``ValueError`` names one that
    ``operator.index`` refuses (no float is truncated) or outside [0, n)."""
    out = _integers(xs, "element index")
    if out and not 0 <= min(out) <= max(out) < G.order:
        bad = next(i for i in out if not 0 <= i < G.order)
        raise ValueError(f"element index {bad} outside [0, {G.order})")
    return out


def subgroup_from_members(G: GroupTable, members: Iterable[int]) -> Subgroup:
    return Subgroup(G, tuple(members))


def subgroup_from_generators(G: GroupTable, generators: Iterable[int]) -> Subgroup:
    return Subgroup._closed(G, _span(G, _elements(G, generators)))


def _check_parent(G: GroupTable, H: Subgroup) -> None:
    """Refuse a subgroup whose members index another table than G's."""
    if H.parent is not G:
        raise ValueError(f"subgroup belongs to {H.parent!r}, not to {G!r}")


def subgroup_table(G: GroupTable, sub: Subgroup) -> GroupTable:
    """The member set of ``sub`` as a group in its own right (identity
    first), numbered by the members' order. Its right map of member s is
    G's right map of s read at the members and renumbered by their places,
    so G's table is not read, and the subgroup's own table is only filled
    when its ``op`` is read (see :func:`_fill`)."""
    _check_parent(G, sub)
    members = np.asarray(sub.members, dtype=_DTYPE)
    pos = np.cumsum(sub.mask, dtype=_DTYPE) - 1  # a member's place among them

    def compose(s: int) -> np.ndarray:
        return pos[G._right_map(int(members[s]))[members]]

    inv = pos[G.inv[members]]
    return GroupTable(None, inv, name=f"{G.name}|sub{len(members)}", compose=compose)


def _orbits(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits of the permutations of range(m) in the rows of ``maps``,
    numbered by their smallest point: ``orbit_of[x]`` is the number of
    x's orbit, ``reps[c]`` the smallest point of orbit c (so the orbit of
    0 is 0). Classes and cosets both read their partition from here.

    Min-label propagation with pointer jumping: every point takes the
    least label among itself and its images, then the label of its label.
    Labels only fall and always name a point of the same orbit, and the
    maps generate a group, so the fixed point is the orbit minimum. A
    label moves against the maps, from an image to its preimage, so on a
    long cycle numbered in increasing order it moves one point a round;
    a caller whose maps have such cycles lists their inverses as well.
    """
    m = maps.shape[1]
    label = np.arange(m, dtype=_DTYPE)
    while True:
        new = np.minimum(label, label[maps].min(axis=0, initial=m))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == np.arange(m)).astype(_DTYPE)
    return np.searchsorted(reps, label).astype(_DTYPE), reps


def _normal_closure(G: GroupTable, seed, *, p_group: bool = False) -> np.ndarray | None:
    """Sorted members of the smallest normal subgroup holding ``seed``.

    N grows by the seed through :func:`_generate`, and then by every
    conjugate N^s that falls outside it, until N^s lies in N for every
    generator s of G. Each round at least doubles N. With ``p_group``,
    None as soon as the order of N is not a prime power: N lies in the
    closure, so the closure is no p-group either.
    """
    seen = [True] + [False] * (G.order - 1)
    right: list[list[int]] = []
    pending = seed
    while True:
        _generate(G, pending, right, seen)
        if p_group and not prime_power(seen.count(True)):
            return None
        mask = np.frombuffer(bytes(seen), dtype=bool)
        pending = G.conjugation[:, mask].ravel()
        pending = pending[~mask[pending]]
        if not pending.size:
            return np.flatnonzero(mask).astype(_DTYPE)


def _commutators(G: GroupTable, rows, cols) -> np.ndarray:
    """The matrix of [x, y] for x in rows, y in cols."""
    rows = np.asarray(rows, dtype=_DTYPE)
    cols = np.asarray(cols, dtype=_DTYPE)
    return G.op[G.op[G.op[np.ix_(G.inv[rows], G.inv[cols])], rows[:, None]], cols[None, :]]


def _cosets(G: GroupTable, N: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The cosets xN = Nx of a normal subgroup N, numbered by their
    smallest element: ``coset_of[x]`` is the number of xN, ``reps[c]``
    the smallest element of coset c (so N itself is coset 0).

    They are the orbits of the right maps that :func:`_generate` collects
    for N. N's first generator is its smallest member other than the
    identity, whose cycles x, xs, xs^2, ... often run in increasing order
    (a cyclic N numbered by powers), so the inverse maps are listed too."""
    right: list[list[int]] = []
    _generate(G, N.members, right, [True] + [False] * (G.order - 1))
    maps = np.array(right, dtype=_DTYPE).reshape(len(right), G.order)
    return _orbits(np.concatenate([maps, maps.argsort(axis=1).astype(_DTYPE)]))


def conjugacy_classes(G: GroupTable) -> ClassPartition:
    """Orbit partition under conjugation x -> g^-1 x g, computed once per
    group and kept on it.

    The orbits are taken under the conjugation maps of the generators
    only. Classes are numbered by their smallest element and list their
    members in increasing order.

    A direct product A x B (``G.factors``) runs no orbits of its own: the
    class of (x, y) is C_A(x) x C_B(y), so its number is read off the
    factors' partitions as ``class_of_A[x] * k_B + class_of_B[y]``, k_B
    the class count of B. That is the numbering by smallest element:
    (x, y) is packed as x*|B| + y, so the smallest element of
    C_A(x) x C_B(y) is min C_A(x) * |B| + min C_B(y), and these fall in
    the lexicographic order of the factors' class numbers, since each
    factor numbers its classes by their smallest element too.
    """
    return G._classes


def centralizer(G: GroupTable, elements: Iterable[int]) -> Subgroup:
    """{g : gs = sg for all s in elements}; with all of G this is the center.

    The common fixed points of the conjugation maps ``R[inv[R[inv]]]`` of
    the right maps R that :func:`_generate` collects for <elements>."""
    elems = _elements(G, elements)
    if not elems:
        raise ValueError("centralizer of the empty set is not defined here")
    right: list[list[int]] = []
    _generate(G, elems, right, [True] + [False] * (G.order - 1))
    inv, fixed = G.inv, np.ones(G.order, dtype=bool)
    for R in map(np.array, right):
        fixed &= R[inv[R[inv]]] == np.arange(G.order)
    return Subgroup._closed(G, np.flatnonzero(fixed))


def _on_factors(G: GroupTable, rule: Callable[[GroupTable], Subgroup]) -> Subgroup:
    """``rule`` of the direct product G = A x B (``G.factors``), for a
    subgroup rule that commutes with products, as H x K with H = rule(A)
    and K = rule(B): the members (x, y), packed as x*|B| + y, are one
    outer add, already increasing since H's and K's are. A factor that is
    a product recurses through its caller's rule."""
    A, B = G.factors
    H, K = rule(A), rule(B)
    return Subgroup._closed(G, np.add.outer(np.multiply(H.members, B.order), K.members).ravel())


def is_abelian(G: GroupTable) -> bool:
    """Whether every generator's conjugation map is the identity; a
    direct product is abelian exactly when both its factors are."""
    if G.factors is not None:
        return all(map(is_abelian, G.factors))
    return bool((G.conjugation == np.arange(G.order)).all())


def center(G: GroupTable) -> Subgroup:
    """The elements commuting with every generator: the common fixed
    points of their conjugation maps. Z(A x B) = Z(A) x Z(B) is read off
    a direct product's factors (:func:`_on_factors`)."""
    if G.factors is not None:
        return _on_factors(G, center)
    fixed = (G.conjugation == np.arange(G.order)).all(axis=0)
    return Subgroup._closed(G, np.flatnonzero(fixed))


def derived_subgroup(G: GroupTable) -> Subgroup:
    """Subgroup generated by all commutators [x, y]: the normal closure
    of the commutators [s, t] = (t^-1)^s t of the generators s, t, each
    a conjugation map followed by the right map of t. (A x B)' = A' x B'
    is read off a direct product's factors (:func:`_on_factors`)."""
    if G.factors is not None:
        return _on_factors(G, derived_subgroup)
    conj = G.conjugation
    comms = [R[conj[:, G.inv[t]]] for t, R in G._generator_maps.items()]
    return Subgroup._closed(G, _normal_closure(G, comms))


def is_normal(G: GroupTable, H: Subgroup) -> bool:
    """Whether H^s lies in H for every generator s of G."""
    _check_parent(G, H)
    return bool(H.mask[G.conjugation[:, H.mask]].all())


def _check_cutoff(G: GroupTable) -> None:
    """Refuse an enumeration above ``SUBGROUP_CUTOFF``, before it starts."""
    if G.order > SUBGROUP_CUTOFF:
        raise OrderCapExceeded(f"order {G.order} exceeds enumeration cutoff {SUBGROUP_CUTOFF}")


def _lattice(G: GroupTable, grow) -> list[Subgroup]:
    """The subgroups reached from the trivial one by ``grow``, sorted by
    (order, members).

    Subgroups are boolean member masks, keyed by their bytes: ``grow``
    maps the mask of a subgroup found to the masks of larger ones, and
    each new mask is grown in its turn.
    """
    trivial = np.arange(G.order) == 0
    found = {trivial.tobytes(): trivial}
    work = [trivial]
    while work:
        for mask in grow(work.pop()):
            key = mask.tobytes()
            if key not in found:
                found[key] = mask
                work.append(mask)
    subs = sorted(map(np.flatnonzero, found.values()), key=lambda m: (m.size, tuple(m)))
    return [Subgroup._closed(G, m) for m in subs]


def normal_subgroups(G: GroupTable) -> list[Subgroup]:
    """All normal subgroups (order at most ``SUBGROUP_CUTOFF``), as the
    class-closed unions reached by joining the subgroups generated by
    single classes (far smaller search space than all subgroups).

    The join of a normal N with an atom A is the product NA, the union of
    the cosets Na over a in A, so it is marked coset by coset, with no
    closure: one coset per element of A that NA does not yet cover."""
    _check_cutoff(G)
    op = G.op
    spans = (_span(G, cls) for cls in conjugacy_classes(G).classes)
    atom_list = [a.tolist() for a in {a.tobytes(): a for a in spans}.values()]

    def joins(in_base: np.ndarray) -> Iterator[np.ndarray]:
        base = np.flatnonzero(in_base)
        for atom in atom_list:
            mask = in_base.copy()
            for a in atom:
                if not mask[a]:
                    mask[op[base, a]] = True
            yield mask

    return _lattice(G, joins)


def all_subgroups(G: GroupTable) -> list[Subgroup]:
    """The complete subgroup list, up to order ``SUBGROUP_CUTOFF``.

    Enumeration extends each known subgroup by one coset representative at
    a time; since <H, hx> = <H, x> only one representative per coset is
    tried. Every subgroup is reachable through a chain of single-element
    extensions, so the list is complete (including perfect subgroups).
    """
    _check_cutoff(G)
    op = G.op

    def extensions(in_h: np.ndarray) -> Iterator[np.ndarray]:
        members = np.flatnonzero(in_h)
        covered = in_h.copy()
        for x in np.flatnonzero(~in_h).tolist():
            if not covered[x]:
                covered[op[members, x]] = True
                seen = [True] + [False] * (G.order - 1)
                _generate(G, np.append(members, x), [], seen)
                yield np.asarray(seen)

    return _lattice(G, extensions)


def quotient(G: GroupTable, N: Subgroup) -> GroupTable:
    """Cayley table on the cosets of a normal subgroup.

    Cosets are numbered by their smallest element, so the coset of the
    identity is index 0. The right map of coset s is G's right map of its
    representative read at the representatives, through ``coset_of``, so
    G's table is not read, and the quotient's own table is only filled
    when its ``op`` is read (see :func:`_fill`).
    """
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    coset_of, reps = _cosets(G, N)

    def compose(s: int) -> np.ndarray:
        return coset_of[G._right_map(int(reps[s]))[reps]]

    q_inv = coset_of[G.inv[reps]]
    return GroupTable(None, q_inv, name=f"{G.name or 'G'}/N{N.order}", compose=compose)


def normal_core(G: GroupTable, H: Subgroup) -> Subgroup:
    """Intersection of all conjugates of H: the largest normal subgroup
    of G inside H, the union of the conjugacy classes inside H (x is in
    every conjugate of H exactly when its whole class lies in H)."""
    _check_parent(G, H)
    part = conjugacy_classes(G)
    leaves = np.zeros(part.count, dtype=bool)
    leaves[part.class_of[~H.mask]] = True  # the classes with an element outside H
    return Subgroup._closed(G, np.flatnonzero(~leaves[part.class_of]))


def orbit_count_on_normal(G: GroupTable, N: Subgroup) -> int:
    """Number of conjugation orbits of G on a normal subgroup N: N is a
    union of conjugacy classes, so it is the number of classes met by N."""
    if not is_normal(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    return _orbit_count(G, N)


def _orbit_count(G: GroupTable, N: Subgroup) -> int:
    """:func:`orbit_count_on_normal` for an N its caller has found normal."""
    return int(np.count_nonzero(np.bincount(conjugacy_classes(G).class_of[N.mask])))


def is_nilpotent(G: GroupTable) -> bool:
    """Whether the upper central series 1 = Z_0 < Z_1 < ... reaches G.

    x lies in Z_(i+1) when each x^s, s a generator of G, lies in the
    coset x Z_i: then every [x, s], and so [x, G], lies in Z_i. The
    cosets x Z_i are the orbits (:func:`_orbits`) of the right maps that
    :func:`_generate` collects for Z_i. Z_i(A x B) = Z_i(A) x Z_i(B), so
    a direct product is nilpotent exactly when both its factors are.
    """
    if G.factors is not None:
        return all(map(is_nilpotent, G.factors))
    seen = [True] + [False] * (G.order - 1)
    right: list[list[int]] = []
    while not all(seen):
        coset_of, _ = _orbits(np.array(right, dtype=_DTYPE).reshape(len(right), G.order))
        size = len(right)
        _generate(G, np.flatnonzero((coset_of[G.conjugation] == coset_of).all(axis=0)), right, seen)
        if len(right) == size:  # Z_(i+1) = Z_i < G
            return False
    return True


def fitting_subgroup(G: GroupTable) -> Subgroup:
    """The Fitting subgroup F(G), the largest nilpotent normal subgroup.

    F(G) is generated by the O_p(G), and x lies in O_p(G) exactly when its
    normal closure <x^G>, which depends only on x's class, is a p-group.
    A class inside a closure that passed is skipped: a subgroup of a
    p-group is a p-group. A closure is given up as soon as the subgroup
    grown so far, <x> first, is not of prime-power order. The classes
    that pass are a normal set, so the subgroup they generate is normal.
    A p-group is nilpotent: it is its own Fitting subgroup.
    F(A x B) = F(A) x F(B) is read off a direct product's factors
    (:func:`_on_factors`).
    """
    if G.factors is not None:
        return _on_factors(G, fitting_subgroup)
    if prime_power(G.order):
        return Subgroup._closed(G, np.arange(G.order))
    passed = np.arange(G.order) == 0
    for cls in conjugacy_classes(G).classes:
        if not passed[cls[0]]:
            closure = _normal_closure(G, [cls[0]], p_group=True)
            if closure is not None:
                passed[closure] = True
    return Subgroup._closed(G, _span(G, np.flatnonzero(passed)))


def abelian_normal_subgroups(G: GroupTable) -> list[Subgroup]:
    out = []
    for N in normal_subgroups(G):
        block = G.op[np.ix_(N.members, N.members)]
        if np.array_equal(block, block.T):
            out.append(N)
    return out


def largest_abelian_normal_subgroup(G: GroupTable) -> Subgroup:
    """Largest abelian normal subgroup; ties broken by lexicographic members."""
    cands = abelian_normal_subgroups(G)
    return max(cands, key=lambda s: (s.order, tuple(-m for m in s.members)))


def index_two_subgroups(G: GroupTable) -> list[Subgroup]:
    """All subgroups of index 2 (necessarily normal): the kernels of the
    maps onto C2. Each sends a nonempty set T of generators to the
    involution and the others to 1. For one t in T, the normal closure K
    of the other generators and of each s t, s in T (t^2 among them), has
    G/K generated by t with t^2 = 1, so K is that kernel exactly when its
    index is 2. Every square lies in every kernel, so there is none when
    the generators' squares generate G as a normal subgroup.
    """
    gens, right = G.generators, G._generator_maps
    if _normal_closure(G, [right[s][s] for s in gens]).size == G.order:
        return []
    out = []
    for size in range(1, len(gens) + 1):
        for T in combinations(gens, size):
            others = [s for s in gens if s not in T]
            kernel = _normal_closure(G, others + [right[T[0]][s] for s in T])
            if 2 * kernel.size == G.order:
                out.append(Subgroup._closed(G, kernel))
    out.sort(key=lambda s: s.members)
    return out
