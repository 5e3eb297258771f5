"""Seeded input generator for the commprob benchmark.

``generate(workload, seed, out_dir)`` writes every file the workload's
operations read (catalog shards, Cayley tables) into ``out_dir`` and
returns the plan: the operation list the measured process runs, the item
count of each operation, and what the reference checker needs to judge
each answer. The same seed gives byte-identical files and an identical
plan; another seed gives other inputs drawn from the same bounded domains.

This module does not import commprob: the inputs, and the closed-form
reference values attached to them, stay the same whatever the program
under test does. Paths in argv are relative to ``out_dir``, which is the
working directory of the measured process.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import factorial

import numpy as np

# argv placeholder the runner replaces with a per-repetition cache directory
CACHE = "@CACHE"

WORKLOADS = {
    "survey-cold": {
        "why": (
            "batch surveys on empty caches: group construction (permutation "
            "closure, Cayley validation) and cache writes do almost all the "
            "work; egyptian does none"
        ),
        "ops": (
            "3 'survey --catalog <shard> --json' operations, each over 11 "
            "seeded entries: family, permutation (degree up to 48) and "
            "Cayley (order 120-144 full check, 720 sampled check), and one "
            "'scan --corpus 64 --interval <seeded>'; each against a new "
            "empty --cache-dir"
        ),
        "left_out": (
            "dihedral permutation builds of degree near 1000 (dihedral 1000 "
            "took 184 s; known defect, ROADMAP item 2); corpora above 64, "
            "whose cost would swamp the catalog part and leave too few "
            "repetitions per run for steady medians"
        ),
    },
    "survey-warm": {
        "why": (
            "the same commands against caches filled in set-up, so the "
            "catalog cache is read instead of written and a change that "
            "speeds one side at the other's cost shows"
        ),
        "ops": "the survey-cold operations, with each cache filled by one untimed run",
        "left_out": "as survey-cold",
    },
    "structure": {
        "why": (
            "single-group queries: groups structure and the probability "
            "bound suite do the work; nothing touches the cache or the gap "
            "search. S7 and A7 are the slowest operations and set peak_rss_mb"
        ),
        "ops": (
            "'pr --bounds --json' on nonabelian family groups stratified by "
            "order up to 64 and split by nilpotency, 'decompose --json' up to "
            "order 32, the same 12 large groups in every seed (S7, A7 and "
            "orders 200-2520), one '--perms' and one '--cayley' group, and "
            "all_subgroups, pr_central_pgroup_formula and "
            "verify_special_forms library calls on groups of order <= 64"
        ),
        "left_out": (
            "seeded draws of order 65-192 for the bound suite (1 ms to 4.7 s "
            "each) and of order 33-64 for decompose (2-groups up to 0.8 s; "
            "15 s at order 128): their costs vary so much between seeds that "
            "op_p90_ms spread beyond its bound; the Fitting and "
            "normal-subgroup paths still run on every non-nilpotent draw"
        ),
    },
    "gaps": {
        "why": (
            "unit-fraction queries: the pure-Fraction gap recursion in "
            "egyptian does all the work and groups none; the fixed 4-term "
            "probes overflow the 65 536-entry memo, so eviction shows"
        ),
        "ops": (
            "seeded 'egyptian gap' at 2, 3 and 4 terms, 'spectrum gap --index "
            "2', 'egyptian solve' at 2-4 terms, 'egyptian descend' and "
            "'egyptian limit-point', after the same 19 costly 'egyptian gap' "
            "probes at 3 and 4 terms, which every seed runs first, in the same "
            "order, from a cold memo"
        ),
        "left_out": (
            "'spectrum gap --index 3' (no probe finished in 20 s), 5-term "
            "solves below 1 (a denominator <= 12 grid did not finish in "
            "500 s) and 4-term probes such as 2/3, 9/8 or 7/6 (13 s to over "
            "a minute each): known defects of the unbounded gap recursion "
            "(ROADMAP items 3 and 4), to be added when a branch budget lands"
        ),
    },
}


# ---------------------------------------------------------------------------
# family specs with closed-form commuting probabilities
# ---------------------------------------------------------------------------

# family codes of the catalog's "product" params (commprob.families.BASE_FAMILIES)
FAMILY_CODE = {"cyclic": 0, "dihedral": 1, "symmetric": 2, "alternating": 3,
               "dicyclic": 4, "extraspecial": 5}
_PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}
# class numbers of A3..A7
_ALT_CLASSES = {3: 3, 4: 4, 5: 5, 6: 7, 7: 9}


def base_order(fam: str, params: tuple[int, ...]) -> int:
    if fam == "cyclic":
        return params[0]
    if fam == "dihedral":
        return 2 * params[0]
    if fam == "dicyclic":
        return 4 * params[0]
    if fam == "symmetric":
        return factorial(params[0])
    if fam == "alternating":
        return factorial(params[0]) // 2
    p, s = params
    return p ** (2 * s + 1)


def base_pr(fam: str, params: tuple[int, ...]) -> Fraction:
    """Closed-form Pr of a base-family member (class count over order)."""
    if fam == "cyclic":
        return Fraction(1)
    if fam == "dihedral":
        n = params[0]
        return Fraction(n + 6, 4 * n) if n % 2 == 0 else Fraction(n + 3, 4 * n)
    if fam == "dicyclic":
        m = params[0]
        return Fraction(m + 3, 4 * m)
    if fam == "symmetric":
        n = params[0]
        return Fraction(_PARTITIONS[n], factorial(n))
    if fam == "alternating":
        n = params[0]
        return Fraction(_ALT_CLASSES[n], factorial(n) // 2)
    p, s = params
    return Fraction(1, p) * (1 + Fraction(p - 1, p ** (2 * s)))


def base_nilpotent(fam: str, params: tuple[int, ...]) -> bool:
    """Whether a base-family member is nilpotent (a product of p-groups)."""
    if fam in ("cyclic", "extraspecial"):
        return True
    if fam in ("dihedral", "dicyclic"):
        return params[0] & (params[0] - 1) == 0
    return params[0] <= (2 if fam == "symmetric" else 3)


class Spec:
    """A base-family member or a product of two, as the CLI names it."""

    def __init__(self, parts):
        self.parts = tuple((f, tuple(p)) for f, p in parts)

    @property
    def order(self) -> int:
        out = 1
        for f, p in self.parts:
            out *= base_order(f, p)
        return out

    @property
    def pr(self) -> Fraction:
        out = Fraction(1)
        for f, p in self.parts:
            out *= base_pr(f, p)
        return out

    @property
    def nilpotent(self) -> bool:
        return all(base_nilpotent(f, p) for f, p in self.parts)

    @property
    def family(self) -> str:
        return self.parts[0][0] if len(self.parts) == 1 else "product"

    @property
    def params(self) -> list[int]:
        if len(self.parts) == 1:
            return list(self.parts[0][1])
        out: list[int] = []
        for f, p in self.parts:
            out += [FAMILY_CODE[f], *p]
        return out

    @property
    def label(self) -> str:
        return "x".join(f"{f}{'-'.join(map(str, p))}" for f, p in self.parts)

    def argv(self) -> list[str]:
        return ["--family", self.family, "--params", *map(str, self.params)]


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def corpus_specs(max_order: int) -> list[Spec]:
    """The membership of commprob's corpus(max_order), with closed forms."""
    base = [("cyclic", (n,)) for n in range(1, max_order + 1)]
    base += [("dihedral", (n,)) for n in range(2, max_order // 2 + 1)]
    base += [("dicyclic", (m,)) for m in range(2, max_order // 4 + 1)]
    base += [("symmetric", (n,)) for n in range(2, 8) if factorial(n) <= max_order]
    base += [("alternating", (n,)) for n in range(3, 8) if factorial(n) // 2 <= max_order]
    cap = min(max_order, 3125)
    for p in _primes_upto(int(round(cap ** (1 / 3))) + 1):
        s = 1
        while p ** (2 * s + 1) <= cap:
            base.append(("extraspecial", (p, s)))
            s += 1
    out = [Spec([b]) for b in base]
    nontrivial = [b for b in base if base_order(*b) >= 2]
    for i, a in enumerate(nontrivial):
        for b in nontrivial[i:]:
            if base_order(*a) * base_order(*b) <= max_order:
                out.append(Spec([a, b]))
    return out


def _stratified(rng: random.Random, pool: list, k: int) -> list:
    """One draw from each of k equal slices of ``pool`` (kept in its order)."""
    if k <= 0 or not pool:
        return []
    step = len(pool) / k
    return [pool[min(len(pool) - 1, int(i * step + rng.random() * step))] for i in range(k)]


# ---------------------------------------------------------------------------
# permutation groups: generators, closure, relabeled Cayley tables
# ---------------------------------------------------------------------------


def perm_generators(fam: str, n: int) -> list[tuple[int, ...]]:
    """Generators of a base family as 0-based image tuples on n points."""
    if fam == "cyclic":
        return [tuple((i + 1) % n for i in range(n))]
    if fam == "dihedral":
        return [tuple((i + 1) % n for i in range(n)), tuple((n - i) % n for i in range(n))]
    if fam == "symmetric":
        return [(1, 0) + tuple(range(2, n)), tuple((i + 1) % n for i in range(n))]
    if fam == "alternating":
        gens = []
        for k in range(2, n):
            images = list(range(n))
            images[0], images[1], images[k] = 1, k, 0
            gens.append(tuple(images))
        return gens
    raise ValueError(f"no permutation generators for {fam}")


def disjoint_union(parts) -> tuple[int, list[tuple[int, ...]]]:
    """Generators of a direct product acting on disjoint point sets."""
    degree = sum(n for _, n in parts)
    gens: list[tuple[int, ...]] = []
    shift = 0
    for f, n in parts:
        for g in perm_generators(f, n):
            images = list(range(degree))
            for i in range(n):
                images[shift + i] = shift + g[i]
            gens.append(tuple(images))
        shift += n
    return degree, gens


def relabel_points(rng: random.Random, degree: int, gens):
    """Conjugate every generator by one seeded permutation of the points."""
    pi = list(range(degree))
    rng.shuffle(pi)
    out = []
    for g in gens:
        images = [0] * degree
        for i in range(degree):
            images[pi[i]] = pi[g[i]]
        out.append(tuple(images))
    return out


def cycles_text(images: tuple[int, ...]) -> str:
    """1-based cycle notation without fixed points."""
    seen = [False] * len(images)
    parts = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = images[i]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts)


def perm_table(degree: int, gens) -> np.ndarray:
    """Cayley table of the group generated by ``gens`` (degree <= 15)."""
    if degree > 15:
        raise ValueError("mixed-radix keys need degree <= 15")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    for cur in elems:
        for g in gens:
            nxt = tuple(g[p] for p in cur)
            if nxt not in index:
                index[nxt] = len(elems)
                elems.append(nxt)
    arr = np.array(elems, dtype=np.int64)
    radix = degree ** np.arange(degree, dtype=np.int64)
    keys = arr @ radix
    order = np.argsort(keys)
    sorted_keys = keys[order]
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        table[i] = order[np.searchsorted(sorted_keys, arr[:, arr[i]] @ radix)]
    return table


def relabel_table(rng: random.Random, table: np.ndarray) -> np.ndarray:
    """The same group with element labels permuted (identity usually moves off 0)."""
    n = table.shape[0]
    sigma = np.array(rng.sample(range(n), n), dtype=np.int64)
    out = np.empty_like(table)
    out[np.ix_(sigma, sigma)] = sigma[table]
    return out


def pair_count_pr(table: np.ndarray) -> Fraction:
    """Pr as the share of commuting ordered pairs, counted directly."""
    n = table.shape[0]
    return Fraction(int((table == table.T).sum()), n * n)


# Cayley bases as (family, n) parts, degree <= 15. Orders are kept close
# (120-144 validated exhaustively, 720 by random triples) so that seeds
# differ little in cost.
_CAYLEY_FULL = [
    [("symmetric", 5)], [("alternating", 5), ("cyclic", 2)], [("symmetric", 4), ("cyclic", 5)],
    [("dihedral", 5), ("dihedral", 6)], [("symmetric", 4), ("symmetric", 3)],
    [("alternating", 4), ("alternating", 4)], [("dihedral", 7), ("dihedral", 5)],
]
_CAYLEY_SAMPLED = [
    [("symmetric", 6)], [("symmetric", 5), ("symmetric", 3)],
    [("alternating", 5), ("alternating", 4)], [("alternating", 6), ("cyclic", 2)],
]


def _parts_spec(parts) -> Spec:
    return Spec([(f, (n,)) for f, n in parts])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _survey_plan(rng: random.Random, out_dir: str, tiny: bool) -> dict:
    shards = 1 if tiny else 3
    fam_per, perm_per = (3, 2) if tiny else (6, 3)
    corpus_n = 24 if tiny else 64

    # Draws are systematic within each kind of group, so that every seed
    # gets the same mix of kinds and orders and seeds differ little in cost.
    by_kind: dict[str, list[Spec]] = {}
    for spec in corpus_specs(128):
        if spec.order >= 2:
            kind = spec.family if spec.family in ("cyclic", "dihedral", "dicyclic", "product") \
                else "other"
            by_kind.setdefault(kind, []).append(spec)
    quota = {"cyclic": 1, "dihedral": 1, "dicyclic": 1, "other": 1, "product": 2}
    fam_draws = []
    for kind, pool in sorted(by_kind.items()):
        pool.sort(key=lambda s: (s.order, s.label))
        fam_draws += _stratified(rng, pool, quota[kind] * shards)
    rng.shuffle(fam_draws)

    small = [("dihedral", n) for n in range(3, 16)] + [("symmetric", n) for n in (3, 4, 5)] \
        + [("alternating", n) for n in (4, 5)] + [("cyclic", n) for n in range(2, 16)]
    pairs = sorted(
        ([a, b] for i, a in enumerate(small) for b in small[i:]
         if _parts_spec([a, b]).order <= 120),
        key=lambda parts: (_parts_spec(parts).order, str(parts)),
    )
    # per shard: one single group, one product on disjoint points, and one
    # dihedral group of degree above 15
    perm_draws = [
        _stratified(rng, [[g] for g in small], shards),
        _stratified(rng, pairs, shards),
        _stratified(rng, [[("dihedral", n)] for n in range(16, 49)], shards),
    ]
    for draws in perm_draws:
        rng.shuffle(draws)
    ops, refs, items = [], [], []
    for k in range(shards):
        lines, rows = [], []
        for j, spec in enumerate(fam_draws[k * fam_per:(k + 1) * fam_per]):
            name = f"s{k}-f{j}-{spec.label}"
            line = {"name": name, "source": "family", "family": spec.family, "params": spec.params}
            if rng.random() < 0.5:
                line["expected_pr"] = str(spec.pr)
            lines.append(line)
            rows.append({"name": name, "pr": str(spec.pr), "order": spec.order})
        for j in range(perm_per):
            parts = perm_draws[j][k]
            degree, gens = disjoint_union(parts)
            gens = relabel_points(rng, degree, gens)
            spec = _parts_spec(parts)
            name = f"s{k}-p{j}-{spec.label}"
            line = {"name": name, "source": "permutations", "degree": degree,
                    "gens": [cycles_text(g) for g in gens]}
            if rng.random() < 0.5:
                line["expected_pr"] = str(spec.pr)
            lines.append(line)
            rows.append({"name": name, "pr": str(spec.pr), "order": spec.order})
        # one table validated in full and one by sampling in every shard
        pools = [_CAYLEY_FULL, _CAYLEY_SAMPLED] if not tiny else [[[("symmetric", 4)]]]
        for j, pool in enumerate(pools):
            parts = rng.choice(pool)
            degree, gens = disjoint_union(parts)
            table = relabel_table(rng, perm_table(degree, gens))
            spec = _parts_spec(parts)
            name = f"s{k}-c{j}-{spec.label}"
            lines.append({"name": name, "source": "cayley", "table": table.tolist()})
            rows.append({"name": name, "pr": str(pair_count_pr(table)), "order": spec.order,
                         "closed_form": str(spec.pr)})
        order = list(range(len(lines)))
        rng.shuffle(order)
        lines = [lines[i] for i in order]
        rows = [rows[i] for i in order]
        fname = f"catalog_{k}.jsonl"
        with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(json.dumps(line, separators=(",", ":")) + "\n")
        ops.append({"argv": ["survey", "--catalog", fname, "--json", "--cache-dir", CACHE]})
        refs.append({"check": "survey", "rows": rows})
        items.append(len(lines))

    lo = Fraction(rng.randint(1, 11), 12) + Fraction(rng.randint(0, 5), 60)
    hi = lo + Fraction(rng.randint(1, 8), 24)
    flags = rng.choice([[], ["--closed-left"], ["--closed-right"], ["--closed"]])
    argv = ["scan", "--corpus", str(corpus_n), "--interval", f"{lo}..{hi}", *flags,
            "--json", "--cache-dir", CACHE]
    specs = corpus_specs(corpus_n)
    closed_lo = "--closed" in flags or "--closed-left" in flags
    closed_hi = "--closed" in flags or "--closed-right" in flags
    inside = sorted(
        str(s.pr) for s in specs
        if (s.pr >= lo if closed_lo else s.pr > lo) and (s.pr <= hi if closed_hi else s.pr < hi)
    )
    ops.append({"argv": argv})
    refs.append({"check": "scan", "universe_size": len(specs), "inside": inside})
    items.append(len(specs))
    return {"ops": ops, "refs": refs, "items": items}


_STRUCTURE_FIXED = [Spec(parts) for parts in (
    [("symmetric", (7,))], [("alternating", (7,))], [("dihedral", (120,))],
    [("dicyclic", (250,))], [("alternating", (5,)), ("symmetric", (4,))],
    [("symmetric", (6,)), ("cyclic", (2,))], [("symmetric", (5,)), ("dicyclic", (4,))],
    [("dihedral", (100,))], [("alternating", (6,)), ("symmetric", (3,))],
    [("dicyclic", (300,))], [("symmetric", (5,)), ("symmetric", (4,))],
    [("alternating", (6,)), ("dicyclic", (2,))],
)]


def _structure_plan(rng: random.Random, out_dir: str, tiny: bool) -> dict:
    nonab = sorted((s for s in corpus_specs(64) if s.pr != 1),
                   key=lambda s: (s.order, s.label))
    strata = [(6, 16), (17, 32), (33, 48), (49, 64)]
    per = [16, 16, 16, 16] if not tiny else [2, 2, 1, 0]
    ops, refs = [], []

    def pr_op(spec: Spec):
        ops.append({"argv": ["pr", "--bounds", "--json", *spec.argv()]})
        refs.append({"check": "pr", "pr": str(spec.pr), "order": spec.order})

    # Nilpotency decides whether the bound suite enumerates normal subgroups
    # for the Fitting bound, so each stratum draws nilpotent and other groups
    # in fixed proportions and every seed has the same number of costly draws.
    for (lo, hi), k in zip(strata, per):
        pool = [s for s in nonab if lo <= s.order <= hi]
        nil = [s for s in pool if s.nilpotent]
        k_nil = round(k * len(nil) / len(pool))
        for spec in _stratified(rng, nil, k_nil) + _stratified(
                rng, [s for s in pool if not s.nilpotent], k - k_nil):
            pr_op(spec)
    for (lo, hi), k in zip([(6, 16), (17, 32)], [8, 8] if not tiny else [2, 1]):
        for spec in _stratified(rng, [s for s in nonab if lo <= s.order <= hi], k):
            ops.append({"argv": ["decompose", "--json", *spec.argv()]})
            refs.append({"check": "decompose", "pr": str(spec.pr)})
    if not tiny:
        # The same large groups in every seed, each slower than any draw
        # above, so that they fill the top tenth of the latencies and
        # op_p90_ms does not depend on the draws. S7 is the ROADMAP's
        # order-5040 command; all of these skip the Fitting bound.
        for spec in _STRUCTURE_FIXED:
            pr_op(spec)

    # order 120 in every seed, on 5 to 11 points
    parts = rng.choice([[("symmetric", 5)], [("alternating", 5), ("cyclic", 2)],
                        [("symmetric", 4), ("cyclic", 5)], [("dihedral", 5), ("dihedral", 6)]])
    if tiny:
        parts = [("dihedral", 6)]
    degree, gens = disjoint_union(parts)
    gens = relabel_points(rng, degree, gens)
    spec = _parts_spec(parts)
    ops.append({"argv": ["pr", "--bounds", "--json", "--perms",
                         *[cycles_text(g) for g in gens], "--degree", str(degree)]})
    refs.append({"check": "pr", "pr": str(spec.pr), "order": spec.order})

    parts = rng.choice(_CAYLEY_FULL) if not tiny else [("symmetric", 4)]
    degree, gens = disjoint_union(parts)
    table = relabel_table(rng, perm_table(degree, gens))
    _write_json(os.path.join(out_dir, "cayley.json"), table.tolist())
    ops.append({"argv": ["pr", "--bounds", "--json", "--cayley", "cayley.json"]})
    refs.append({"check": "pr", "pr": str(pair_count_pr(table)), "order": int(table.shape[0])})

    # library calls no CLI command reaches
    lib = 3 if not tiny else 1
    for n in _stratified(rng, list(range(3, 17)), lib):
        ops.append({"call": "all_subgroups", "family": "dihedral", "params": [n]})
        # D_n of order 2n has tau(n) + sigma(n) subgroups
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        refs.append({"check": "subgroup_count", "count": len(divisors) + sum(divisors)})
    class2 = [Spec([("extraspecial", (2, 1))]), Spec([("extraspecial", (3, 1))]),
              Spec([("extraspecial", (2, 2))]), Spec([("dihedral", (4,))]),
              Spec([("dicyclic", (2,))]), Spec([("dihedral", (4,)), ("cyclic", (2,))]),
              Spec([("dicyclic", (2,)), ("cyclic", (4,))]),
              Spec([("dihedral", (4,)), ("dihedral", (4,))]),
              Spec([("dicyclic", (2,)), ("dihedral", (4,))]),
              Spec([("extraspecial", (2, 1)), ("cyclic", (8,))])]
    for spec in rng.sample(class2, lib):
        ops.append({"call": "pr_central_pgroup_formula", "family": spec.family,
                    "params": spec.params})
        refs.append({"check": "formula", "pr": str(spec.pr)})
    for spec in _stratified(rng, [s for s in nonab if s.order <= 64], lib):
        ops.append({"call": "verify_special_forms", "family": spec.family, "params": spec.params})
        refs.append({"check": "special_forms", "pr": str(spec.pr)})

    order = list(range(len(ops)))
    rng.shuffle(order)
    return {"ops": [ops[i] for i in order], "refs": [refs[i] for i in order],
            "items": [1] * len(ops)}


# Every seed runs the same costly probes first, in the same order, from a
# cold memo: the 3-term probes below 2/5 of the l in [1/4, 2), b <= 12
# domain (0.1-1.5 s each on a cold memo), then 4-term probes that fill and
# overflow the memo (40-58k entries each at 3/4, 4/5, 5/4 and 7/8). So
# they cost the same in every seed, and with 109 operations op_p90_ms
# rests on them alone. The seeded draws follow, in seeded order; each takes
# under about 0.1 s (3-term probes from 3/5, spectrum probes from 1/2,
# solves from 1/6, 3-term descents from 5/4) and they set op_p50_ms.
_GAP3_FIXED = [Fraction(1, 4), Fraction(3, 11), Fraction(2, 7), Fraction(3, 10),
               Fraction(4, 11), Fraction(3, 8)]
_GAP4_FIXED = [Fraction(3, 4), Fraction(4, 5), Fraction(5, 4), Fraction(7, 8), Fraction(9, 10),
               Fraction(7, 5), Fraction(4, 3), Fraction(11, 12), Fraction(8, 9), Fraction(10, 11),
               Fraction(10, 7), Fraction(11, 7), Fraction(16, 11)]
_GAP4_LIGHT = [Fraction(5, 3), Fraction(9, 5), Fraction(11, 6), Fraction(1), Fraction(3, 2),
               Fraction(7, 4)]


def _grid(max_den: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Rationals a/b in [lo, hi) with b <= max_den, sorted."""
    return sorted({Fraction(a, b) for b in range(1, max_den + 1)
                   for a in range(1, int(hi * b) + 1) if lo <= Fraction(a, b) < hi})


def _gaps_plan(rng: random.Random, out_dir: str, tiny: bool) -> dict:
    scale = 0.1 if tiny else 1.0

    def count(k):
        return max(1, int(k * scale))

    ops, refs = [], []

    def add(argv, ref):
        ops.append({"argv": argv})
        refs.append(ref)

    def gap(terms, l):
        add(["egyptian", "gap", "--terms", str(terms), "--below", str(l), "--json"],
            {"check": "gap"})

    for l in _stratified(rng, _grid(40, Fraction(1, 40), Fraction(2)), count(24)):
        gap(2, l)
    for l in _stratified(rng, _grid(12, Fraction(3, 5), Fraction(2)), count(14)):
        gap(3, l)
    for l in rng.sample(_GAP4_LIGHT, 2):
        gap(4, l)
    for l in _stratified(rng, _grid(12, Fraction(1, 2), Fraction(1)), count(10)):
        add(["spectrum", "gap", "--index", "2", "--at", str(l), "--json"], {"check": "gap"})
    for terms in (2, 3, 4):
        for q in _stratified(rng, _grid(12, Fraction(1, 6), Fraction(2)), count(8)):
            add(["egyptian", "solve", "--terms", str(terms), "--target", str(q), "--json"],
                {"check": "solve", "target": str(q), "terms": terms})
    for terms, lo in ((2, Fraction(1, 2)), (3, Fraction(5, 4))):
        for start in _stratified(rng, _grid(12, lo, Fraction(2)), count(4)):
            n = rng.randint(3, 5)
            add(["egyptian", "descend", "--terms", str(terms), "--from", str(start),
                 "--count", str(n), "--json"],
                {"check": "descend", "start": str(start), "count": n})
    for q in _stratified(rng, _grid(12, Fraction(1, 12), Fraction(3)), count(8)):
        terms = rng.randint(2, 4)
        add(["egyptian", "limit-point", "--terms", str(terms), "--value", str(q), "--json"],
            {"check": "limit_point", "value": str(q), "terms": terms})
    order = list(range(len(ops)))
    rng.shuffle(order)
    for l in _GAP3_FIXED if not tiny else _GAP3_FIXED[:1]:
        gap(3, l)
    for l in _GAP4_FIXED if not tiny else []:
        gap(4, l)
    order = list(range(len(order), len(ops))) + order
    return {"ops": [ops[i] for i in order], "refs": [refs[i] for i in order],
            "items": [1] * len(ops)}


_PLANNERS = {
    "survey-cold": _survey_plan,
    "survey-warm": _survey_plan,
    "structure": _structure_plan,
    "gaps": _gaps_plan,
}


def generate(workload: str, seed: int, out_dir: str, *, tiny: bool = False) -> dict:
    """Write the workload's input files into out_dir and return its plan."""
    if workload not in _PLANNERS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    # survey-cold and survey-warm share inputs for the same seed
    family = "survey" if workload.startswith("survey") else workload
    rng = random.Random(f"{family}:{seed}")
    plan = _PLANNERS[workload](rng, out_dir, tiny)
    plan.update(workload=workload, seed=seed, notes=WORKLOADS[workload])
    return plan
