"""Named group families with known-answer metadata.

Every constructor is deterministic, and the corpus generated here is the
ground-truth universe for the test suites: cyclic, dihedral, dicyclic,
symmetric, alternating and extraspecial groups plus their pairwise
direct products. ``make`` records two metadata fields, never computed
from the table: ``expected_pr``, a classical closed form for Pr (cyclic
= 1, dihedral of both parities, A4/S4/A5, extraspecial, multiplicativity
for products), and ``expected_d``, the standard minimum nonlinear
irreducible degree.

The cyclic, dicyclic and dihedral members keep their multiplication
formula as their map source (the ``compose`` of
:class:`commprob.groups.GroupTable`): every right map is one or two
slices of a fixed array, and the table is filled from these maps only
when ``op`` is read. The dihedral formula keeps the numbering of the
permutation build of x -> x + 1 and x -> -x. Symmetric and alternating
members are closed from permutations and also fill their table only on
a read; extraspecial members are built with their table.

``corpus`` builds each base member once, and each product keeps the two
members it is formed from as its factors: it fills no table until its
``op`` is read (see :func:`commprob.groups.direct_product`). The corpus
budget counts the n^2 cells of every member, products included, as if
each table were filled, and ``corpus`` refuses with
``OrderCapExceeded``, before building anything, above ``ORDER_CAP**2``
cells (one table at the cap).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import OrderCapExceeded, UnsupportedParams
from .groups import (
    _BLOCK_CELLS,
    _DTYPE,
    _inverses,
    ORDER_CAP,
    GroupTable,
    Permutation,
    build_from_permutations,
    direct_product,
    is_abelian,
    prime_power,
)

SYMMETRIC_DEGREE_CAP = 7
ALTERNATING_DEGREE_CAP = 7
EXTRASPECIAL_ORDER_CAP = 3125


@dataclass(frozen=True)
class _Family:
    """A base family: its builder, named here and looked up when a member
    is made (so a replaced module attribute is the one called), and its
    parameter count. A one-parameter family also states its parameter's
    noun, least value and optional cap, checked in that order before
    ``order`` is formed."""

    builder: str
    arity: int
    noun: str = ""
    least: int = 1
    order: Callable[[int], int] | None = None
    cap: int | None = None


# this order fixes the family codes of product params
_FAMILIES = {
    "cyclic": _Family("cyclic_table", 1, "order", 1, lambda n: n),
    "dihedral": _Family("dihedral_group", 1, "parameter", 2, lambda n: 2 * n),
    "symmetric": _Family("symmetric_group", 1, "degree", 1, math.factorial,
                         SYMMETRIC_DEGREE_CAP),
    "alternating": _Family("alternating_group", 1, "degree", 3,
                           lambda n: math.factorial(n) // 2, ALTERNATING_DEGREE_CAP),
    "dicyclic": _Family("dicyclic_table", 1, "parameter", 2, lambda n: 4 * n),
    "extraspecial": _Family("heisenberg_table", 2),
}
BASE_FAMILIES = tuple(_FAMILIES)

# (expected_pr, expected_d) of the polyhedral members
_POLYHEDRAL = {
    ("symmetric", (4,)): (Fraction(5, 24), 2),
    ("alternating", (4,)): (Fraction(1, 3), None),
    ("alternating", (5,)): (Fraction(1, 12), 3),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family member: which family, which parameters, what is known."""

    family: str
    params: tuple[int, ...]
    name: str = ""
    expected_pr: Fraction | None = None
    expected_d: int | None = None

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


# ---------------------------------------------------------------------------
# raw table builders
# ---------------------------------------------------------------------------


def _runs(h: int) -> np.ndarray:
    """0..h-1 written out twice, then h..2h-1 twice, read-only: every
    right map of the cyclic, dicyclic and dihedral families is one slice
    of it or two slices put together."""
    half = np.arange(h, dtype=np.intp)
    runs = np.concatenate([half, half, half + h, half + h])
    runs.setflags(write=False)
    return runs


def cyclic_table(n: int) -> GroupTable:
    """Cyclic group of order n, x * y = x + y mod n.

    R_s is the view ``runs[s:s + n]`` of 0..n-1 written out twice; the
    table is filled from these maps on the first read of ``op``.
    """
    idx = np.arange(n, dtype=_DTYPE)
    runs = _runs(n)
    return GroupTable(None, (-idx) % n, name=f"C{n}", compose=lambda s: runs[s:s + n])


def dihedral_group(n: int) -> GroupTable:
    """Dihedral group of order 2n, the maps x -> x + t and x -> -x + t of
    Z_n, numbered as the breadth-first closure of the permutations
    x -> x + 1 and x -> -x numbers them (the rotation first; e * g is e
    followed by g).

    For n >= 3 the map x -> sx + t has the native code t + n[s = -1], and
    (s, t) * (s', t') = (s s', s' t + t'). A breadth-first walk on native
    codes, O(n), gives ``order``, the native code of each element, and
    ``pos``, its inverse. A native right map is two slices of 0..n-1 and
    n..2n-1 written out twice (read backwards when s' = -1), and
    R_s = ``pos[native_R[order]]``; the table is filled from these maps
    on the first read of ``op``. D2 is C2 x C2 in the numbering of
    ``direct_product``, where x * y = x xor y.
    """
    if n == 2:
        idx = np.arange(4, dtype=_DTYPE)
        return GroupTable(None, idx, name="D2", compose=lambda s: idx ^ s)
    order, pos = [0], [0] + [-1] * (2 * n - 1)
    for code in order:  # also visits what the loop appends
        reflects, t = divmod(code, n)  # e * (1, 1) = (s, t + 1), e * (-1, 0) = (-s, -t)
        for nxt in ((t + 1) % n + n * reflects, (-t) % n + n * (1 - reflects)):
            if pos[nxt] < 0:
                pos[nxt] = len(order)
                order.append(nxt)
    order_a = np.array(order, dtype=np.intp)
    pos_a = np.array(pos, dtype=_DTYPE)
    runs = _runs(n)

    def compose(s: int) -> np.ndarray:
        reflects, t = divmod(order[s], n)
        if reflects:  # s = (-1, t): (1, u) -> (-1, t - u), (-1, u) -> (1, t - u)
            native = np.concatenate([runs[3 * n + t:2 * n + t:-1], runs[n + t:t:-1]])
        else:  # s = (1, t): (1, u) -> (1, u + t), (-1, u) -> (-1, u + t)
            native = np.concatenate([runs[t:t + n], runs[2 * n + t:3 * n + t]])
        return pos_a[native[order_a]]

    # (1, t)^-1 = (1, -t), and every (-1, t) is an involution
    inv = pos_a[np.where(order_a < n, -order_a % n, order_a)]
    return GroupTable(None, inv, name=f"D{n}", compose=compose)


def symmetric_group(n: int) -> GroupTable:
    if n == 1:
        return build_from_permutations(1, [], name="S1")
    gens = [Permutation(n, (1, 0) + tuple(range(2, n)))]
    if n >= 3:
        gens.append(Permutation(n, tuple((i + 1) % n for i in range(n))))
    return build_from_permutations(n, gens, name=f"S{n}")


def alternating_group(n: int) -> GroupTable:
    gens = []
    for k in range(2, n):
        images = list(range(n))
        images[0], images[1], images[k] = 1, k, 0
        gens.append(Permutation(n, tuple(images)))
    return build_from_permutations(n, gens, name=f"A{n}")


def dicyclic_table(m: int) -> GroupTable:
    """Dicyclic group of order 4m: a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1.

    Element a^i b^j is index i + 2m*j with i in [0, 2m), j in {0, 1}, and
    a^i b^j * a^k b^l = a^(i + (-1)^j k + m j l) b^(j + l mod 2), from
    b a^k = a^-k b and b^2 = a^m. So R_s for s = a^k b^l is two slices
    put together: a^(i+k) b^l on the j = 0 half and a^(i-k+ml) b^(1+l)
    on the j = 1 half. The table is filled from these maps on the first
    read of ``op``.
    """
    two_m = 2 * m
    a = np.arange(two_m, dtype=_DTYPE)
    runs = _runs(two_m)  # runs[2 two_m l + x] is a^(x mod 2m) b^l

    def compose(s: int) -> np.ndarray:
        l, k = divmod(s, two_m)
        lo = 2 * two_m * (1 - l) + (m * l - k) % two_m
        shift = 2 * two_m * l + k
        return np.concatenate([runs[shift:shift + two_m], runs[lo:lo + two_m]])

    # (a^i)^-1 = a^-i and (a^i b)^-1 = a^(i+m) b
    inv = np.concatenate([-a % two_m, (a + m) % two_m + two_m])
    return GroupTable(None, inv, name=f"Dic{m}", compose=compose)


def heisenberg_table(p: int, s: int) -> GroupTable:
    """Extraspecial group of order p^(2s+1) in upper-unitriangular style.

    Elements are (a, b, c) with a, b in F_p^s and c in F_p, multiplying
    as (a, b, c)(a', b', c') = (a+a', b+b', c+c' + a.b'); this is the
    iterated central product of s copies of the p^3 base group
    (exponent p for odd p, the order-4-element type for p = 2).
    """
    order = p ** (2 * s + 1)
    # element index = c + sum of digit t times p^t, with the digits of b at
    # t = 1..s and those of a at t = s+1..2s; digits[t] holds digit t of
    # every element
    digits = np.empty((2 * s + 1, order), dtype=_DTYPE)
    rest = np.arange(order, dtype=_DTYPE)
    for t in range(2 * s + 1):
        rest, digits[t] = np.divmod(rest, p)
    c, b, a = digits[0], digits[1:s + 1], digits[s + 1:]
    # a block of about 2^20 cells at a time, each digit's term added into
    # one int32 accumulator
    op = np.empty((order, order), dtype=_DTYPE)
    step = max(1, _BLOCK_CELLS // order)
    for lo in range(0, order, step):
        acc = c[lo:lo + step, None] + c
        for t in range(s):
            acc += a[t, lo:lo + step, None] * b[t]
        acc %= p
        for t in range(1, 2 * s + 1):
            acc += (digits[t, lo:lo + step, None] + digits[t]) % p * p**t
        op[lo:lo + step] = acc
    return GroupTable(op=op, inv=_inverses(op), name=f"ES{p}_{s}")


# ---------------------------------------------------------------------------
# family dispatch
# ---------------------------------------------------------------------------


def _known(fam: str, params: tuple[int, ...]) -> tuple[Fraction | None, int | None]:
    """(expected_pr, expected_d) of a base member, each None where not recorded."""
    if fam == "cyclic":
        return Fraction(1), None
    if fam == "dihedral":
        (n,) = params
        pr = Fraction(n + 6, 4 * n) if n % 2 == 0 else Fraction(n + 3, 4 * n)
        return pr, (2 if n >= 3 else None)
    if fam == "extraspecial":
        p, s = params
        return Fraction(1, p) * (1 + Fraction(p - 1, p ** (2 * s))), p**s
    return _POLYHEDRAL.get((fam, params), (None, None))


def _order_of(fam: str, params: tuple[int, ...]) -> int:
    """Check a member's parameters and return its order, building nothing."""
    if fam == "product":
        left, right = _split_product_params(params)
        return _order_of(left.family, left.params) * _order_of(right.family, right.params)
    if fam not in _FAMILIES:
        raise UnsupportedParams(f"unknown family {fam!r}")
    family = _FAMILIES[fam]
    if len(params) != family.arity:
        raise UnsupportedParams(f"{fam} takes {family.arity} parameter(s), got {list(params)}")
    if family.order is not None:
        (n,) = params
        if n < family.least:
            raise UnsupportedParams(f"{fam} {family.noun} must be >= {family.least}")
        if family.cap is not None and n > family.cap:
            raise OrderCapExceeded(f"{fam} {family.noun} capped at {family.cap}")
        return family.order(n)
    p, s = params
    if s < 1 or p < 2:
        raise UnsupportedParams("extraspecial needs a prime p and s >= 1")
    # p^(2s+1) >= 2^(2s+1), so a long exponent is over the cap without
    # forming the power, and the cap comes before trial division of p
    if (2 * s + 1 >= EXTRASPECIAL_ORDER_CAP.bit_length()
            or p ** (2 * s + 1) > EXTRASPECIAL_ORDER_CAP):
        raise OrderCapExceeded(f"extraspecial order capped at {EXTRASPECIAL_ORDER_CAP}")
    if prime_power(p) != (p, 1):
        raise UnsupportedParams("extraspecial needs a prime p and s >= 1")
    return p ** (2 * s + 1)


def make(spec: FamilySpec) -> tuple[GroupTable, FamilySpec]:
    """Build the group named by ``spec`` and fill in its known metadata.

    Parameters and the order are checked before anything is built.
    """
    fam, params = spec.family, tuple(spec.params)
    order = _order_of(fam, params)
    if order > ORDER_CAP:
        raise OrderCapExceeded(
            f"{fam}{list(params)} has order {order}, above the cap of {ORDER_CAP}"
        )
    if fam == "product":
        left, right = _split_product_params(params)
        return _product(make(left), make(right), spec)
    table = globals()[_FAMILIES[fam].builder](*params)
    pr, d = _known(fam, params)
    return table, replace(spec, name=table.name, expected_pr=pr, expected_d=d)


def _product(
    a: tuple[GroupTable, FamilySpec], b: tuple[GroupTable, FamilySpec], spec: FamilySpec
) -> tuple[GroupTable, FamilySpec]:
    """The direct product of two built members, with ``spec`` filled in.

    Pr is multiplicative. A nonlinear irrep of one factor tensored with a
    linear one of the other gives the least nonlinear degree, so it is the
    smallest degree of the nonabelian factors, if all of them record one.
    """
    (ta, sa), (tb, sb) = a, b
    table = direct_product(ta, tb)
    pr = None
    if sa.expected_pr is not None and sb.expected_pr is not None:
        pr = sa.expected_pr * sb.expected_pr
    degrees = [s.expected_d for t, s in (a, b) if not is_abelian(t)]
    d = None if not degrees or None in degrees else min(degrees)
    return table, replace(spec, name=table.name, expected_pr=pr, expected_d=d)


def product_spec(a: FamilySpec, b: FamilySpec) -> FamilySpec:
    """Encode a pairwise product of base-family members as one spec."""
    for s in (a, b):
        if s.family not in _FAMILIES:
            raise UnsupportedParams("products nest base families only")
    params = (
        (BASE_FAMILIES.index(a.family),)
        + tuple(a.params)
        + (BASE_FAMILIES.index(b.family),)
        + tuple(b.params)
    )
    return FamilySpec(family="product", params=params)


def _split_product_params(params: tuple[int, ...]) -> tuple[FamilySpec, FamilySpec]:
    vals = list(params)
    sides = []
    while vals:
        code = vals.pop(0)
        if not 0 <= code < len(BASE_FAMILIES):
            raise UnsupportedParams(f"unknown family code {code} in product params")
        fam = BASE_FAMILIES[code]
        arity = _FAMILIES[fam].arity
        if len(vals) < arity:
            raise UnsupportedParams("truncated product params")
        sides.append(FamilySpec(family=fam, params=tuple(vals[:arity])))
        vals = vals[arity:]
    if len(sides) != 2:
        raise UnsupportedParams("product params must encode exactly two factors")
    return sides[0], sides[1]


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def corpus(max_order: int) -> list[tuple[GroupTable, FamilySpec]]:
    """Deterministic ground-truth corpus of order <= max_order.

    All base-family members, then all unordered pairwise direct products
    of base members of order >= 2 that fit under the cap, each keeping
    the two members already built as its factors. Nothing is
    deduplicated: isomorphic members (C6 and C2 x C3, say) are each
    listed. The n^2 cells of every member, products included, are
    counted from the orders and checked before anything is built.
    """
    if max_order < 1:
        raise UnsupportedParams("max_order must be >= 1")
    # the cyclic members C1, ..., CN alone hold N(N+1)(2N+1)/6 cells: past
    # the cap they refuse at once, before the lists below grow with N
    cyclic_cells = max_order * (max_order + 1) * (2 * max_order + 1) // 6
    if cyclic_cells > ORDER_CAP**2:
        raise OrderCapExceeded(
            f"corpus({max_order}) would hold at least {cyclic_cells} table cells "
            f"at once, above the {ORDER_CAP**2} of one table at the order cap"
        )
    # one-parameter members in order of their parameter, each family from
    # its least value up to its cap; the trivial group only once, as C1
    base_specs: list[FamilySpec] = []
    for fam in ("cyclic", "dihedral", "dicyclic", "symmetric", "alternating"):
        family = _FAMILIES[fam]
        n, cap = family.least, family.cap
        while (cap is None or n <= cap) and (order := family.order(n)) <= max_order:
            if order > 1 or not base_specs:
                base_specs.append(FamilySpec(fam, (n,)))
            n += 1
    p = 2
    while p**3 <= min(max_order, EXTRASPECIAL_ORDER_CAP):
        if prime_power(p) == (p, 1):
            s = 1
            while p ** (2 * s + 1) <= min(max_order, EXTRASPECIAL_ORDER_CAP):
                base_specs.append(FamilySpec("extraspecial", (p, s)))
                s += 1
        p += 1

    orders = [_order_of(s.family, s.params) for s in base_specs]
    nontrivial = [i for i, n in enumerate(orders) if n >= 2]
    pairs = [
        (i, j)
        for k, i in enumerate(nontrivial)
        for j in nontrivial[k:]
        if orders[i] * orders[j] <= max_order
    ]
    cells = sum(n * n for n in orders) + sum((orders[i] * orders[j]) ** 2 for i, j in pairs)
    if cells > ORDER_CAP**2:
        raise OrderCapExceeded(
            f"corpus({max_order}) would hold {cells} table cells at once, "
            f"above the {ORDER_CAP**2} of one table at the order cap"
        )
    built = [make(s) for s in base_specs]
    return built + [
        _product(built[i], built[j], product_spec(built[i][1], built[j][1]))
        for i, j in pairs
    ]
