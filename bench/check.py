"""Reference checks for benchmark answers, run outside the timed region.

``check_op(op, ref, result)`` returns None when an operation's answer is
right and a one-line reason when it is not. The references are closed
forms and pair counts attached by the generator, the per-table pair
counts of ``survey_pair_counts``, and small enumerations written here,
independent of commprob's own search code.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import floor


def _unit_sum(terms) -> Fraction:
    return sum((Fraction(1, t) for t in terms), Fraction(0))


@lru_cache(maxsize=None)
def max_sum_below(m: int, l: Fraction) -> Fraction:
    """Largest sum of m unit fractions strictly below l, by branch and bound
    over non-decreasing denominators: with the next denominator x, the k
    terms still to come add at most k/x, so x stops growing once that
    cannot beat the best sum found."""
    best = Fraction(0)

    def rec(k: int, rem: Fraction, lo: int, acc: Fraction) -> None:
        nonlocal best
        x = max(lo, floor(1 / rem) + 1)  # smallest x >= lo with 1/x < rem
        if k == 1:
            best = max(best, acc + Fraction(1, x))
            return
        while acc + Fraction(k, x) > best:
            rec(k - 1, rem - Fraction(1, x), x, acc + Fraction(1, x))
            x += 1

    rec(m, l, 1, Fraction(0))
    return best


def unit_sums(m: int, q: Fraction, lo: int = 1):
    """Yield every way to write q as m unit fractions with denominators >= lo,
    as non-decreasing denominator tuples."""
    if q <= 0:
        return
    if m == 1:
        if q.numerator == 1 and q.denominator >= lo:
            yield (q.denominator,)
        return
    # the largest term 1/x satisfies q/m <= 1/x < q
    x = max(lo, floor(1 / q) + 1)
    while Fraction(m, x) >= q:
        for rest in unit_sums(m - 1, q - Fraction(1, x), x):
            yield (x,) + rest
        x += 1


@lru_cache(maxsize=None)
def all_unit_sums(m: int, q: Fraction) -> frozenset:
    return frozenset(unit_sums(m, q))


def survey_pair_counts(entries) -> dict[str, Fraction]:
    """Pr of every catalog entry as a pair count on the table commprob builds."""
    out = {}
    for entry in entries:
        op = entry.build().op
        n = op.shape[0]
        out[entry.name] = Fraction(int((op == op.T).sum()), n * n)
    return out


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_gap(op, data) -> str | None:
    argv = op["argv"]
    probe = Fraction(_argv_value(argv, "--below" if argv[0] == "egyptian" else "--at"))
    l = Fraction(data["l"])
    best = Fraction(data["max_below"])
    wit = data["witness"]
    if l != probe:
        return f"probe echoed as {l}, asked {probe}"
    if not best < l:
        return f"max_below {best} is not below {l}"
    if Fraction(data["epsilon"]) != l - best:
        return "epsilon != probe - max_below"
    if _unit_sum(wit) != best:
        return f"witness {wit} does not sum to {best}"
    if argv[0] == "egyptian":
        terms = int(_argv_value(argv, "--terms"))
        if len(wit) != terms:
            return f"witness has {len(wit)} terms, asked {terms}"
        want = max_sum_below(terms, l)
    else:
        # index n: the largest (1 + s) / n^2 below l, s a sum of at most
        # n^2 - 1 unit fractions; sums of fewer terms are sums of more
        # (1/x = 1/2x + 1/2x), so s is the largest (n^2 - 1)-term sum
        # below n^2 l - 1
        n2 = int(_argv_value(argv, "--index")) ** 2
        want = (1 + max_sum_below(n2 - 1, n2 * l - 1)) / n2
    if best != want:
        return f"max_below {best} != enumerated {want}"
    return None


def _check_survey(ref, data, pair_pr) -> str | None:
    rows = {r["name"]: r for r in data["rows"]}
    if len(rows) != len(ref["rows"]):
        return f"{len(rows)} rows, expected {len(ref['rows'])}"
    for want in ref["rows"]:
        row = rows.get(want["name"])
        if row is None or row["status"] != "ok":
            return f"row {want['name']} missing or failed"
        pr = Fraction(row["pr"])
        if pr != Fraction(want["pr"]) or row["order"] != want["order"]:
            return f"row {want['name']}: pr {pr}, expected {want['pr']}"
        if "closed_form" in want and pr != Fraction(want["closed_form"]):
            return f"row {want['name']}: pr {pr} != closed form {want['closed_form']}"
        if pair_pr is not None and pr != pair_pr.get(want["name"]):
            return f"row {want['name']}: pr {pr} != pair count {pair_pr.get(want['name'])}"
    return None


def check_op(op, ref, result, pair_pr=None) -> str | None:
    """None when the operation's answer is right, else why it is not."""
    if result.get("error"):
        return result["error"]
    if result.get("rc") != 0:
        return f"exit code {result.get('rc')}: {result.get('stderr', '').strip()[-200:]}"
    kind = ref["check"]
    try:
        if "call" in op:
            value = result["value"]
            if kind == "subgroup_count":
                if value["count"] != ref["count"]:
                    return f"{value['count']} subgroups, expected {ref['count']}"
                return None
            want = Fraction(ref["pr"])
            if kind == "formula":
                return None if Fraction(value["pr"]) == want else f"formula {value['pr']} != {want}"
            for m in value:
                if Fraction(m["actual"]) != want:
                    return f"special form actual {m['actual']} != {want}"
                if m["match"] and Fraction(m["predicted"]) != want:
                    return f"special form {m['pattern']} matched a wrong value"
            return None
        data = json.loads(result["stdout"])
        if kind == "survey":
            return _check_survey(ref, data, pair_pr)
        if kind == "scan":
            inside = sorted(str(Fraction(v["pr"])) for v in data["violations"])
            if data["universe_size"] != ref["universe_size"]:
                return f"universe {data['universe_size']}, expected {ref['universe_size']}"
            if inside != ref["inside"]:
                return f"{len(inside)} values inside, expected {len(ref['inside'])}"
            return None
        if kind == "pr":
            pr = Fraction(data["pr"])
            if pr != Fraction(ref["pr"]) or data["order"] != ref["order"]:
                return f"pr {pr} of order {data['order']}, expected {ref['pr']} of {ref['order']}"
            if Fraction(data["k"], data["order"]) != pr:
                return "k / order != pr"
            failing = [b["bound"] for b in data["bounds"] if b["holds"] is False]
            return f"bounds report FAILS: {failing}" if failing else None
        if kind == "decompose":
            pr = Fraction(data["pr"])
            if pr != Fraction(ref["pr"]):
                return f"pr {pr}, expected {ref['pr']}"
            if _unit_sum(data["x_list"]) / data["index"] ** 2 != pr:
                return "x-list does not reconstruct pr"
            return None
        if kind == "gap":
            return _check_gap(op, data)
        if kind == "solve":
            target, terms = Fraction(ref["target"]), ref["terms"]
            for sol in data:
                ordered = sol == sorted(sol, reverse=True)
                if len(sol) != terms or _unit_sum(sol) != target or not ordered:
                    return f"solution {sol} is not a {terms}-term sum of {target}"
            found = {tuple(reversed(s)) for s in data}
            if len(found) != len(data):
                return "duplicate solutions"
            want = all_unit_sums(terms, target)
            if found != want:
                return (f"{len(found)} solutions of {target} with {terms} terms, "
                        f"enumerated {len(want)}")
            return None
        if kind == "descend":
            vals = [Fraction(v) for v in data]
            chain = [Fraction(ref["start"])] + vals
            if len(vals) != ref["count"] or any(a <= b for a, b in zip(chain, chain[1:])):
                return "descend output is not strictly decreasing from the start"
            return None
        if kind == "limit_point":
            value, terms = Fraction(ref["value"]), ref["terms"]
            if data["is_limit_point"]:
                wit = data["witness"]
                if not (1 <= data["m"] < terms) or len(wit) != data["m"] or _unit_sum(wit) != value:
                    return f"limit-point witness {wit} does not give {value}"
                return None
            if any(all_unit_sums(m, value) for m in range(1, terms)):
                return f"{value} is a sum of fewer than {terms} unit fractions"
            return None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"unknown check {kind!r}"
