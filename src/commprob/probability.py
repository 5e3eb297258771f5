"""Exact commuting-probability computations.

Two independent evaluators for Pr(G) (ordered-pair count and class
count), the closed-form value predicted for p-groups with central
derived subgroup, structural special-form checks, the classical bound
suite, and the decomposition of a group over an abelian normal subgroup
into unit-fraction form. Everything returns ``fractions.Fraction``;
no comparison is ever made in floating point.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import OrderCapExceeded, PreconditionFailed
from .groups import (
    _DTYPE,
    _check_parent,
    _commutators,
    _cosets,
    _orbit_count,
    SUBGROUP_CUTOFF,
    GroupTable,
    Subgroup,
    all_subgroups,
    center,
    centralizer,
    conjugacy_classes,
    derived_subgroup,
    fitting_subgroup,
    is_normal,
    prime_power,
    quotient,
    subgroup_table,
)
from .rationals import format_rational

GUSTAFSON_BOUND = Fraction(5, 8)


def _exact_log(q: int, base: int) -> int | None:
    """The s with q == base**s, or None when q is no power of base."""
    s = 0
    while q > 1 and q % base == 0:
        q //= base
        s += 1
    return s if q == 1 else None


# ---------------------------------------------------------------------------
# the two independent evaluators
# ---------------------------------------------------------------------------


def pr_direct(G: GroupTable) -> Fraction:
    """Commuting probability as (# commuting ordered pairs) / |G|^2."""
    commuting = int((G.op == G.op.T).sum())
    return Fraction(commuting, G.order * G.order)


def pr_by_classes(G: GroupTable) -> Fraction:
    """Commuting probability as (# conjugacy classes) / |G|."""
    return Fraction(conjugacy_classes(G).count, G.order)


# ---------------------------------------------------------------------------
# central p-group closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KTerm:
    """One summand: a subgroup K of the derived subgroup with cyclic
    quotient, its index, and the exponent s(K) with
    p^s(K) = |G| / #{x : [G,x] <= K}."""

    k_order: int
    index: int
    s: int


@dataclass(frozen=True)
class FormulaTrace:
    pattern: str
    p: int
    terms: tuple[KTerm, ...]
    predicted: Fraction
    special_s: int | None = None


def pr_central_pgroup_formula(G: GroupTable) -> tuple[Fraction, FormulaTrace]:
    """Closed-form Pr for a p-group whose derived subgroup is central.

    Sums phi((D:K)) / p^s(K) over the subgroups K of the derived
    subgroup D with cyclic quotient D/K, then divides by |D|. The K = D
    term is the constant 1 (s(D) = 0), matching the familiar
    "1 + sum over proper K" presentation. For D cyclic of order p with
    |G/Z| = p^(2s) this collapses to (1/p)(1 + (p-1)/p^(2s)).
    """
    pk = prime_power(G.order)
    if pk is None:
        raise PreconditionFailed(f"order {G.order} is not a prime power")
    p, _ = pk
    derived = derived_subgroup(G)
    zent = center(G)
    if not zent.mask[derived.mask].all():
        raise PreconditionFailed("derived subgroup is not central")

    D = subgroup_table(G, derived)  # abelian, numbered as G' is sorted
    n = G.order
    # G' is central, so g -> [g, x] is a homomorphism: [G, x] lies in K
    # exactly when [s, x] does for each generator s; each [s, x] lies in
    # G' and is read as its element of D
    comms = np.searchsorted(derived.members, _commutators(G, G.generators, np.arange(n)))

    # the subgroups of D/K are those of D over K, and a finite group is
    # cyclic exactly when no two of its subgroups have the same order
    subs = all_subgroups(D)
    terms = []
    total = Fraction(0)
    for K in subs:
        over = [L.order for L in subs if L.mask[K.mask].all()]
        if len(set(over)) < len(over):
            continue
        inside = int(K.mask[comms].all(axis=0).sum())
        if n % inside:
            raise PreconditionFailed("commutator-containment count does not divide |G|")
        s = _exact_log(n // inside, p)
        if s is None:
            raise PreconditionFailed("containment index is not a power of p")
        idx = derived.order // K.order
        phi = 1 if idx == 1 else (p - 1) * (idx // p)
        total += Fraction(phi, p**s)
        terms.append(KTerm(k_order=K.order, index=idx, s=s))

    predicted = total / derived.order
    trace = FormulaTrace(
        pattern="central-pgroup",
        p=p,
        terms=tuple(sorted(terms, key=lambda t: t.k_order)),
        predicted=predicted,
        special_s=_exact_log(n // zent.order, p * p) if derived.order == p else None,
    )
    return predicted, trace


# ---------------------------------------------------------------------------
# special structural forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialFormMatch:
    pattern: str
    predicted: Fraction | None
    actual: Fraction
    match: bool
    note: str = ""


def verify_special_forms(G: GroupTable) -> list[SpecialFormMatch]:
    """Detect which classical structural hypotheses hold and compare the
    predicted Pr with the direct count. Empty list when none applies."""
    derived = derived_subgroup(G)
    # each form below has |G'| in {2, 3, 4, 6}; an abelian G has |G'| = 1
    if derived.order not in (2, 3, 4, 6):
        return []
    out: list[SpecialFormMatch] = []
    actual = pr_direct(G)

    def found(pattern: str, predicted: Fraction | None, note: str = "") -> None:
        out.append(SpecialFormMatch(pattern, predicted, actual, predicted == actual, note))

    zent = center(G)

    # a G' of order 2 is central, so G/Z is elementary abelian exactly when
    # the generators' squares are central; its rank is then log2 |G:Z| (>= 2)
    if derived.order == 2 and all(zent.mask[R[s]] for s, R in G._generator_maps.items()):
        rank = (G.order // zent.order).bit_length() - 1
        if rank % 2 == 0:
            s = rank // 2
            found("derived2-central-quotient-elementary",
                  Fraction(1, 2) * (1 + Fraction(1, 4**s)), f"s={s}")

    # G/Z is never cyclic for a nonabelian G, and S3 is the only
    # noncyclic group of order 6.
    if derived.order == 3 and G.order // zent.order == 6:
        found("derived3-central-quotient-s3", Fraction(1, 2))

    central = int(zent.mask[derived.mask].sum())  # the order of G' intersect Z
    if derived.order == 4 and central == 2:
        cent = centralizer(G, derived.members)
        # for C = C_G(G'), Z(C) = C intersect C_G(C)
        cent_center = int(centralizer(G, cent.members).mask[cent.mask].sum())
        s = _exact_log(cent.order // cent_center, 4)
        if s is None:
            found("derived4-central2", None, "centralizer central index is not a power of 4")
        else:
            found("derived4-central2",
                  Fraction(1, 4) * (1 + Fraction(1, 4) + Fraction(1, 2 ** (2 * s + 1))),
                  f"s={s}")

    # G' is abelian exactly when it lies in its own centralizer
    if (
        derived.order == 6
        and central == 2
        and centralizer(G, derived.members).mask[derived.mask].all()
    ):
        diff = actual - Fraction(1, 4)
        den = diff.denominator
        power_of_two = den >= 8 and (den & (den - 1)) == 0
        ok = diff.numerator == 1 and power_of_two
        found("derived6-central2", actual if ok else None,
              f"pr - 1/4 = {format_rational(diff)}")
    return out


# ---------------------------------------------------------------------------
# bound suite
# ---------------------------------------------------------------------------


# Each bound's verdict is "lhs RELATION rhs". Every bound but two holds
# exactly when its relation applied to lhs and rhs is true; the two
# structural ones, gustafson-equality and erdos-turan, decide it directly.
BOUND_RELATIONS = {
    "gustafson": "<=",
    "gustafson-equality": "iff",
    "erdos-turan": "<=",
    "fitting-index": "<=",
    "derived-bound": "<=",
    "min-degree-lower": "<",
    "min-degree-upper": "<=",
    "orbit-bound": "<=",
}
_COMPARISONS = {"<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class BoundResult:
    """One bound evaluation. ``holds is None`` means "skipped" and the
    note says why; otherwise lhs/rhs hold the exact compared quantities
    (both None when the comparison is structural rather than numeric;
    erdos-turan drops its rhs once 2^(2^k) would be too large to form)."""

    bound: str
    relation: str
    lhs: Fraction | None
    rhs: Fraction | None
    holds: bool | None
    note: str = ""

    @property
    def skipped(self) -> bool:
        return self.holds is None

    @property
    def status(self) -> str:
        """The verdict as the text and CSV reports print it: skipped,
        holds or FAILS."""
        if self.holds is None:
            return "skipped"
        return "holds" if self.holds else "FAILS"

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "relation": self.relation,
            "lhs": None if self.lhs is None else format_rational(self.lhs),
            "rhs": None if self.rhs is None else format_rational(self.rhs),
            "holds": self.holds,
            "note": self.note,
        }


@dataclass
class BoundContext:
    """Optional inputs for :func:`check_bounds`.

    ``min_nonlinear_degree`` comes from construction metadata (never
    computed here). ``orbit_subgroup``/``orbit_class_bound`` drive the
    orbit-counting bound; when the class bound is absent it is computed
    over all subgroups of the quotient if the quotient's order is at most
    ``SUBGROUP_CUTOFF``. The Fitting bound is skipped above that order
    too; F(G) needs no subgroup enumeration, so that skip only bounds
    the suite's latency on large groups and keeps its output stable.
    """

    min_nonlinear_degree: int | None = None
    orbit_subgroup: Subgroup | None = None
    orbit_class_bound: int | None = None


@dataclass(frozen=True)
class PrReport:
    name: str
    order: int
    k: int
    pr: Fraction
    center_index: int
    bounds: tuple[BoundResult, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "k": self.k,
            "pr": format_rational(self.pr),
            "center_index": self.center_index,
            "bounds": [b.to_json_dict() for b in self.bounds],
        }

    def to_csv(self) -> str:
        """Two CSV lines (header and row) with one column per bound, the
        name quoted where it holds a comma, a quote or a line break."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["name", "order", "k", "pr", "center_index",
                         *(b.bound for b in self.bounds)])
        writer.writerow([self.name, self.order, self.k, format_rational(self.pr),
                         self.center_index, *(b.status for b in self.bounds)])
        return out.getvalue()


def pr_report(G: GroupTable) -> PrReport:
    """Order, class count k, Pr = k/|G| and center index, with no bounds.

    x is central exactly when its class is {x}, so |Z(G)| is the number
    of singleton classes.
    """
    part = conjugacy_classes(G)
    return PrReport(
        name=G.name,
        order=G.order,
        k=part.count,
        pr=Fraction(part.count, G.order),
        center_index=G.order // part.sizes().count(1),
    )


def erdos_turan_holds(order: int, k: int) -> bool:
    """k >= log2(log2(order)), decided exactly in integers.

    Equivalent to order <= 2^(2^k); when 2^k already reaches the bit
    length of the order the inequality is settled without forming the
    double power.
    """
    if order <= 2:
        return True
    if (1 << min(k, 64)) >= order.bit_length():
        return True
    return order <= 2 ** (2**k)


def check_bounds(G: GroupTable, context: BoundContext | None = None) -> PrReport:
    """Evaluate every applicable classical bound exactly.

    Inapplicable bounds are reported as skipped entries, never dropped.
    """
    ctx = context or BoundContext()
    base = pr_report(G)
    n, k, pr = base.order, base.k, base.pr
    abelian = base.center_index == 1
    results: list[BoundResult] = []

    def verdict(bound: str, lhs, rhs, holds: bool | None, note: str) -> None:
        results.append(BoundResult(bound, BOUND_RELATIONS[bound], lhs, rhs, holds, note))

    def compare(bound: str, lhs: Fraction, rhs: Fraction, note: str = "") -> None:
        verdict(bound, lhs, rhs, _COMPARISONS[BOUND_RELATIONS[bound]](lhs, rhs), note)

    def skip(bound: str, why: str) -> None:
        verdict(bound, None, None, None, why)

    if abelian:
        skip("gustafson", "abelian group")
        skip("gustafson-equality", "abelian group")
    else:
        compare("gustafson", pr, GUSTAFSON_BOUND)
        # G/Z is never cyclic for a nonabelian G, so index 4 means C2 x C2
        verdict(
            "gustafson-equality", None, None,
            (pr == GUSTAFSON_BOUND) == (base.center_index == 4),
            "equality at 5/8 holds exactly when the central quotient is "
            "the Klein four-group",
        )

    if n <= 2:
        skip("erdos-turan", "order <= 2")
    else:
        verdict(
            "erdos-turan", Fraction(n), Fraction(2 ** (2**k)) if k < 6 else None,
            erdos_turan_holds(n, k),
            "class count k vs log2(log2(order)), checked as order <= 2^(2^k)",
        )

    if n > SUBGROUP_CUTOFF:
        skip("fitting-index", f"order above {SUBGROUP_CUTOFF}")
    else:
        idx = n // fitting_subgroup(G).order
        compare("fitting-index", pr * pr, Fraction(1, idx),
                "squared to keep the comparison rational")

    derived_order = derived_subgroup(G).order
    compare("derived-bound", pr, Fraction(1, 4) + Fraction(3, 4) * Fraction(1, derived_order))

    d = ctx.min_nonlinear_degree
    if d is None or abelian:
        why = "abelian group" if abelian else "no degree metadata"
        skip("min-degree-lower", why)
        skip("min-degree-upper", why)
    else:
        compare("min-degree-lower", Fraction(1, derived_order), pr)
        compare("min-degree-upper", pr,
                Fraction(1, d * d) + (1 - Fraction(1, d * d)) * Fraction(1, derived_order))

    N = ctx.orbit_subgroup
    if N is None:
        skip("orbit-bound", "no subgroup supplied")
    else:
        quot = quotient(G, N)  # refuses an N that is not normal
        orbits = _orbit_count(G, N)
        c = ctx.orbit_class_bound
        if c is None and quot.order <= SUBGROUP_CUTOFF:
            # k(S) = Pr(S) |S|, and Pr(S) is S's commuting pairs over |S|^2
            blocks = (quot.op[np.ix_(S.members, S.members)] for S in all_subgroups(quot))
            c = max(int((b == b.T).sum()) // len(b) for b in blocks)
        if c is None:
            skip("orbit-bound", "no class bound supplied and quotient above cutoff")
        else:
            compare("orbit-bound", pr, Fraction(c * orbits, n))

    return replace(base, bounds=tuple(results))


# ---------------------------------------------------------------------------
# decomposition over an abelian normal subgroup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EgyptianForm:
    """Unit-fraction shape of Pr(G) relative to an abelian normal H.

    For coset representatives x_1 = 1, x_2, ..., x_n the grid entry
    ``s_sizes[i][j]`` counts pairs (h1, h2) in H x H with h1*x_i and
    h2*x_j commuting. Each nonzero entry equals |H|^2 * n_ij / (n_i n_j)
    where n_i is the size of the image of h -> [h, x_i] and n_ij the
    size of the pairwise intersection of those images; the grid then
    rewrites Pr(G) as (1/n^2) * sum(1/x_k) with positive integers x_k,
    x_1 = 1.
    """

    index: int
    coset_reps: tuple[int, ...]
    image_sizes: tuple[int, ...]
    intersection_sizes: tuple[tuple[int, ...], ...]
    s_sizes: tuple[tuple[int, ...], ...]
    x_list: tuple[int, ...]
    pr: Fraction

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "coset_reps": list(self.coset_reps),
            "image_sizes": list(self.image_sizes),
            "intersection_sizes": [list(r) for r in self.intersection_sizes],
            "s_sizes": [list(r) for r in self.s_sizes],
            "x_list": list(self.x_list),
            "pr": format_rational(self.pr),
        }


def abelian_decomposition(G: GroupTable, H: Subgroup) -> EgyptianForm:
    """Decompose Pr(G) over an abelian normal subgroup H of index n.

    Coset representatives are deterministic (smallest element per coset,
    cosets ordered by smallest element, identity first). All pair counts
    are brute force over H x H; the dichotomy "each count is 0 or
    |H|^2 n_ij/(n_i n_j)" and the x-list's reconstruction of Pr from
    those counts are asserted.
    The n x n grid takes O(n^2) Python steps, so an index above
    ``SUBGROUP_CUTOFF`` raises ``OrderCapExceeded`` before any product is read.
    """
    _check_parent(G, H)
    if H.index > SUBGROUP_CUTOFF:
        raise OrderCapExceeded(f"index {H.index} exceeds the cutoff {SUBGROUP_CUTOFF}")
    members = np.asarray(H.members, dtype=_DTYPE)
    block = G.op[np.ix_(members, members)]
    if not np.array_equal(block, block.T):
        raise PreconditionFailed("subgroup is not abelian")
    if not is_normal(G, H):
        raise PreconditionFailed("subgroup is not normal")

    n_total = G.order
    h_order = H.order
    coset_of, reps = _cosets(G, H)
    n = len(reps)

    h_comms = _commutators(G, members, reps)
    if not H.mask[h_comms].all():
        raise PreconditionFailed("commutator image escapes the subgroup")
    images = [frozenset(col) for col in h_comms.T.tolist()]
    image_sizes = tuple(map(len, images))

    # one block reduction of the commuting matrix gives the whole grid
    by_coset = np.argsort(coset_of, kind="stable").astype(_DTYPE)
    comm = (G.op == G.op.T)[np.ix_(by_coset, by_coset)]
    grid = comm.reshape(n, h_order, n, h_order).sum(axis=(1, 3))

    inter_sizes = [[0] * n for _ in range(n)]
    s_sizes = [[0] * n for _ in range(n)]
    x_list: list[int] = []
    total_pairs = 0
    rep_comms = _commutators(G, reps, reps)
    for i in range(n):
        for j in range(n):
            n_ij = len(images[i] & images[j])
            inter_sizes[i][j] = n_ij
            count = int(grid[i, j])
            expected = h_order * h_order * n_ij // (image_sizes[i] * image_sizes[j])
            if count not in (0, expected):
                raise AssertionError(
                    f"pair-count dichotomy violated at cosets ({i},{j}): "
                    f"{count} not in {{0, {expected}}}"
                )
            # emptiness of H_j  intersect  [x_j,x_i]*H_i must match count == 0
            shift_row = G.op[rep_comms[j, i]]
            hat_nonempty = any(int(shift_row[u]) in images[j] for u in images[i])
            if hat_nonempty != (count > 0):
                raise AssertionError(
                    f"coset-gate mismatch at ({i},{j}): "
                    f"nonempty={hat_nonempty} but count={count}"
                )
            s_sizes[i][j] = count
            total_pairs += count
            if count:
                x_list.append(h_order * h_order // count)

    pr = Fraction(total_pairs, n_total * n_total)
    recon = Fraction(sum(Fraction(1, x) for x in x_list), n * n)
    if recon != pr:
        raise AssertionError("unit-fraction reconstruction does not match Pr")
    if not x_list or x_list[0] != 1 or not (1 <= len(x_list) <= n * n):
        raise AssertionError("x-list shape invariant violated")

    return EgyptianForm(
        index=n,
        coset_reps=tuple(reps.tolist()),
        image_sizes=image_sizes,
        intersection_sizes=tuple(tuple(r) for r in inter_sizes),
        s_sizes=tuple(tuple(r) for r in s_sizes),
        x_list=tuple(x_list),
        pr=pr,
    )
