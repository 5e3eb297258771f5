"""Exact unit-fraction machinery: equation solving and gap certificates.

For a fixed term count n, let S_n be the set of sums 1/x_1 + ... + 1/x_n
over positive integers x_i (x_i = 1 is allowed). Two classical facts
drive everything here:

* for fixed n and rational q, the equation sum(1/x_i) = q has finitely
  many solutions, found by the bounded recursion in which the largest
  remaining fraction 1/x satisfies (remaining)/count <= 1/x <= remaining;

* below any probe l > 0 the set S_n has a maximum element, so every
  rational probe has a genuine gap (max_below(l), l) free of S_n values.

The second fact is computed by an ordered branch-and-bound over
non-decreasing denominators. When the next denominator is x and k terms
remain, those terms add at most k/x; so with acc the sum so far and best
the largest sum below l found so far, branch x and every larger x are
cut once acc + k/x <= best. The cut ends every loop, because the first
child of a node already lifts best above acc while k/x falls to zero.
The last term needs no loop: it is the smallest admissible x with
1/x < l - acc. A new best is kept only when strictly greater, so among
equal sums the first one met in the search order is the witness. The
search runs in plain integers and gives up with SearchBudgetExceeded
once it has visited more than SEARCH_BUDGET nodes, or before its first
node when its n nested calls would take more than half the interpreter's
recursion limit. The certificates are re-checked by an independent
interval scan in the test suite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NoElementBelow, SearchBudgetExceeded
from .rationals import format_rational

# Nodes one gap search may visit: over 1000 times the 7 725 that the
# costliest probe of the tests and the benchmark, max_below(4, 4/11), needs.
# A search that uses it all fails after 13-20 s on a two-core x86 host.
# It also bounds the denominators one solve may try: nearly 200 times the
# 40 779 of the costliest benchmark solve, 4 terms summing to 2/11; the
# 20.4 M of solve_exact(5, 1/5) pass it after 0.4-0.9 s on that host.
SEARCH_BUDGET = 8_000_000


@dataclass(frozen=True)
class UnitFractionMultiset:
    """A non-increasing tuple of positive integer denominators."""

    terms: tuple[int, ...]

    def __post_init__(self):
        if not all(isinstance(t, int) and t >= 1 for t in self.terms):
            raise ValueError("terms must be positive integers")
        if any(a < b for a, b in zip(self.terms, self.terms[1:])):
            raise ValueError("terms must be non-increasing")

    @classmethod
    def _unchecked(cls, terms: tuple[int, ...]) -> UnitFractionMultiset:
        """A multiset of terms the caller knows to be positive ints in
        non-increasing order, built without checking each term."""
        m = object.__new__(cls)
        object.__setattr__(m, "terms", terms)
        return m

    @property
    def value(self) -> Fraction:
        return sum((Fraction(1, t) for t in self.terms), Fraction(0))

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class GapCertificate:
    """Witness that no n-term value lies in (max_below, l).

    When ``max_below`` is absent the certified statement is that the
    whole interval (0, l) is empty, and epsilon equals l.
    """

    n: int
    l: Fraction
    max_below: Fraction | None
    epsilon: Fraction
    witness: UnitFractionMultiset | None
    search_trace: tuple[str, ...] = ()

    def __post_init__(self):
        if self.max_below is not None:
            if not (self.max_below < self.l):
                raise ValueError("max_below must lie strictly below the probe")
            if self.epsilon != self.l - self.max_below:
                raise ValueError("epsilon must equal l - max_below")
            if self.witness is None or self.witness.value != self.max_below:
                raise ValueError("witness must reproduce max_below exactly")
        elif self.epsilon != self.l:
            raise ValueError("empty certificate must have epsilon = l")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "l": format_rational(self.l),
            "max_below": None if self.max_below is None else format_rational(self.max_below),
            "epsilon": format_rational(self.epsilon),
            "witness": None if self.witness is None else list(self.witness.terms),
        }


@dataclass(frozen=True)
class SpectrumQuery:
    """Gap query against the scaled candidate value set of index n."""

    index: int
    probe: Fraction
    result: GapCertificate

    def to_json_dict(self) -> dict:
        out = self.result.to_json_dict()
        out["index"] = self.index
        return out


def _check_depth(n: int, what: str, q: Fraction) -> None:
    """Refuse an n-term ``what`` of q, one nested call per term, that would
    take more than half the recursion limit: the rest is the caller's."""
    limit = sys.getrecursionlimit()
    if n > limit // 2:
        raise SearchBudgetExceeded(
            f"{n}-term {what} {format_rational(q)} would nest {n} calls deep, "
            f"more than half the recursion limit of {limit}"
        )


# ---------------------------------------------------------------------------
# exact equation solving
# ---------------------------------------------------------------------------


def solve_exact(n: int, q) -> list[UnitFractionMultiset]:
    """All non-increasing solutions of sum(1/x_i, i=1..n) = q.

    Empty when unsolvable (q <= 0 or q > n). Output is sorted
    lexicographically on the non-increasing term tuples.

    Cost warning: the number of denominators tried grows quickly with n
    and as q shrinks (``solve_exact(5, 1/5)`` finds 118 995 solutions).
    A solve that would try more than ``SEARCH_BUDGET`` denominators
    raises ``SearchBudgetExceeded`` before it tries them, as does one too
    deep to recurse (see :func:`_check_depth`).
    """
    if n < 1:
        raise ValueError("term count must be >= 1")
    q = Fraction(q)
    found: list[tuple[int, ...]] = []
    tried = 0

    def spend(count: int) -> None:
        nonlocal tried
        tried += count
        if tried > SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"{n}-term solve of {format_rational(q)} passed its budget of "
                f"{SEARCH_BUDGET} denominators"
            )

    def solve(k: int, a: int, b: int, lo: int, chosen: tuple[int, ...]) -> None:
        # the remainder is a/b in lowest terms, in plain integers; chosen
        # holds the denominators taken so far, the largest first
        if k == 1:
            spend(1)
            if a == 1 and b >= lo:
                found.append((b,) + chosen)
            return
        if a == 0:
            return
        if k == 2:
            # 1/x + 1/y = a/b with x <= y forces b/a < x <= 2b/a, and
            # (ax - b)(ay - b) = b^2: each x with t = ax - b dividing b^2
            # is a solution, as a and b are coprime, so a divides b^2/t + b
            x0 = max(lo, b // a + 1)
            spend(max(0, 2 * b // a + 1 - x0))
            bb = b * b
            found.extend(
                ((bb // t + b) // a, (t + b) // a) + chosen
                for t in range(a * x0 - b, b + 1, a)
                if bb % t == 0
            )
            return
        # the largest remaining fraction 1/d satisfies rem/k <= 1/d <= rem
        ds = range(max(lo, -(-b // a)), (k * b) // a + 1)
        spend(len(ds))
        for d in ds:
            num, den = a * d - b, b * d
            g = gcd(num, den)
            solve(k - 1, num // g, den // g, d, (d,) + chosen)

    if 0 < q <= n:  # above n no denominator is admissible
        _check_depth(n, "solve of", q)
        solve(n, q.numerator, q.denominator, 1, ())
    # every tuple holds positive ints in non-increasing order by construction
    return [UnitFractionMultiset._unchecked(t) for t in sorted(found)]


# ---------------------------------------------------------------------------
# gap search
# ---------------------------------------------------------------------------


def _search(n: int, l: Fraction) -> tuple[Fraction, tuple[int, ...], int]:
    """(max of S_n strictly below l, one witness in ascending order, nodes visited).

    Every sum is tracked by its residual l - sum as an integer pair a/b,
    and the best sum so far by its residual c/d, so the cut
    acc + k/x <= best reads k/x <= a/b - c/d.
    """
    _check_depth(n, "gap search below", l)
    c, d = l.numerator, l.denominator  # the empty sum
    best_wit: tuple[int, ...] = ()
    stack: list[int] = []
    nodes = 0

    def branch(k: int, a: int, b: int, lo: int) -> None:
        nonlocal c, d, best_wit, nodes
        nodes += 1
        if nodes > SEARCH_BUDGET:
            raise SearchBudgetExceeded(
                f"{n}-term gap search below {format_rational(l)} passed its "
                f"budget of {SEARCH_BUDGET} nodes"
            )
        x = max(lo, b // a + 1)  # the smallest admissible x with 1/x < a/b
        if k == 1:
            num, den = a * x - b, b * x
            if num * d < c * den:
                c, d, best_wit = num, den, (*stack, x)
            return
        while k * b * d > x * (a * d - c * b):
            num, den = a * x - b, b * x
            g = gcd(num, den)
            stack.append(x)
            branch(k - 1, num // g, den // g, x)
            stack.pop()
            x += 1

    branch(n, l.numerator, l.denominator, 1)
    return l - Fraction(c, d), best_wit, nodes


def max_below(n: int, l) -> GapCertificate:
    """The maximum of S_n in (0, l), with witness and gap width.

    Such a maximum always exists for l > 0 (sums with huge denominators
    are arbitrarily small), so ``NoElementBelow`` is defensive only.

    Cost warning: the bound k/x cuts the search to a few hundred nodes
    for most probes with up to four terms, but the node count still grows
    with the term count and as the probe shrinks (``max_below(4, 1/11)``
    visits 244 167 nodes). A search that passes ``SEARCH_BUDGET`` nodes
    raises ``SearchBudgetExceeded`` instead of running on, as does, before
    its first node, one too deep to recurse (see :func:`_check_depth`).
    """
    if n < 1:
        raise ValueError("term count must be >= 1")
    l = Fraction(l)
    if l <= 0:
        raise NoElementBelow(f"no {n}-term value below {format_rational(l)}")
    value, wit, nodes = _search(n, l)
    return GapCertificate(
        n=n,
        l=l,
        max_below=value,
        epsilon=l - value,
        witness=UnitFractionMultiset(wit[::-1]),
        search_trace=(f"terms={n} probe={format_rational(l)} branches={nodes}",),
    )


def descend(n: int, l, count: int) -> list[Fraction]:
    """Iterated max_below: the first ``count`` values of S_n below l."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out: list[Fraction] = []
    probe = Fraction(l)
    for _ in range(count):
        probe = max_below(n, probe).max_below
        out.append(probe)
    return out


@dataclass(frozen=True)
class LimitPointWitness:
    """Outcome of an accumulation-point query, with a solving multiset."""

    is_limit_point: bool
    m: int | None = None
    witness: UnitFractionMultiset | None = None

    def __bool__(self) -> bool:
        return self.is_limit_point


def is_limit_point(n: int, q) -> LimitPointWitness:
    """Whether q is an accumulation point of S_n.

    The accumulation points of S_n are exactly {0} together with all
    S_m for m < n (send the remaining n - m denominators to infinity);
    isolated members of S_n itself do not count here.
    """
    if n < 1:
        raise ValueError("term count must be >= 1")
    q = Fraction(q)
    if q == 0:
        return LimitPointWitness(True, m=0, witness=None)
    for m in range(1, n):
        sols = solve_exact(m, q)
        if sols:
            return LimitPointWitness(True, m=m, witness=sols[0])
    return LimitPointWitness(False)


def candidate_gap(n: int, l) -> SpectrumQuery:
    """Gap certificate for the scaled candidate value set of index n.

    The candidate set is {(1/n^2)(1 + s)} for s = 0 or s in S_m with
    m <= n^2 - 1; it contains every commuting probability achieved with
    an abelian normal subgroup of index n, but is generally a strict
    superset (grid entries are not independent), so certified gaps are
    lower bounds on the true spectrum gaps.

    One search at m = n^2 - 1 covers every smaller m: a maximum v of S_m
    below the inner probe is beaten by v + 1/X in S_(m+1) for X large.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    l = Fraction(l)
    if l <= 0:
        raise NoElementBelow(f"no candidate value below {format_rational(l)}")
    inner = n * n * l - 1
    if inner <= 0:
        raise NoElementBelow(
            f"no candidate value below {format_rational(l)} at index {n}"
        )
    m = n * n - 1
    if m == 0:
        best_s, best_wit, nodes = Fraction(0), (), 0
    else:
        try:
            best_s, best_wit, nodes = _search(m, inner)
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(
                f"index {n} at {format_rational(l)}: {exc}"
            ) from None
    value = (1 + best_s) / (n * n)
    scaled = (n * n,) + tuple(n * n * x for x in best_wit)
    witness = UnitFractionMultiset(tuple(sorted(scaled, reverse=True)))
    cert = GapCertificate(
        n=len(scaled),
        l=l,
        max_below=value,
        epsilon=l - value,
        witness=witness,
        search_trace=(
            f"index={n} probe={format_rational(l)} "
            f"inner-probe={format_rational(inner)} terms={m} branches={nodes}",
        ),
    )
    return SpectrumQuery(index=n, probe=l, result=cert)
