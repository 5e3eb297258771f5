"""Command-line interface.

Subcommands: pr, decompose, egyptian, spectrum, survey, scan. Groups
are named by exactly one of --family/--catalog/--cayley/--perms.
Rationals are written "a/b" or as bare integers; intervals as "lo..hi"
with --open / --closed-left / --closed-right modifiers. Exit codes:
0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction

from .egyptian import candidate_gap, descend, is_limit_point, max_below, solve_exact
from .errors import CommprobError
from .families import FamilySpec, corpus, make
from .groups import (
    GroupTable,
    build_from_cayley,
    build_from_permutations,
    largest_abelian_normal_subgroup,
    parse_cycles,
    subgroup_from_generators,
    table_from_json,
)
from .probability import (
    abelian_decomposition,
    check_bounds,
    pr_report,
)
from .rationals import format_rational, parse_rational
from .catalog import (
    EntryFilter,
    entry_from_family,
    ingest,
    scan_interval,
    survey,
)


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family name (e.g. dihedral)")
    p.add_argument("--params", nargs="*", type=int, default=None,
                   help="family parameters")
    p.add_argument("--catalog", help="line-delimited JSON catalog file")
    p.add_argument("--name", help="entry name inside --catalog")
    p.add_argument("--cayley", help="JSON file holding a square table")
    p.add_argument("--perms", nargs="+", help='generators like "(1 2 3)" "(1 2)"')
    p.add_argument("--degree", type=int, help="degree for --perms")


def _group_from_args(parser: argparse.ArgumentParser, args) -> GroupTable:
    sources = [s for s in ("family", "catalog", "cayley", "perms")
               if getattr(args, s) is not None]
    if len(sources) != 1:
        parser.error("exactly one of --family/--catalog/--cayley/--perms is required")
    # a flag of another source would be silently ignored
    for flag, source in (("params", "family"), ("degree", "perms"), ("name", "catalog")):
        if getattr(args, flag) is not None and getattr(args, source) is None:
            parser.error(f"--{flag} needs --{source}")
    if args.family is not None:
        table, _ = make(FamilySpec(args.family, tuple(args.params or ())))
        return table
    if args.catalog is not None:
        if not args.name:
            parser.error("--catalog needs --name to pick an entry")
        for entry in ingest(args.catalog):
            if entry.name == args.name:
                return entry.build()
        raise CommprobError(f"no entry named {args.name!r} in {args.catalog}")
    if args.cayley is not None:
        with open(args.cayley, "r", encoding="utf-8") as fh:
            text = fh.read()
        table = table_from_json(text)
        return build_from_cayley(
            json.loads(text) if table is None else table, name=args.cayley
        )
    if args.degree is None:
        parser.error("--perms needs --degree")
    gens = [parse_cycles(s, args.degree) for s in args.perms]
    return build_from_permutations(args.degree, gens, name="perm-group")


def _parse_interval(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CommprobError(f"interval must look like lo..hi, got {text!r}")
    lo, hi = parse_rational(lo), parse_rational(hi)
    if not lo < hi:
        raise CommprobError("need lo < hi")
    return lo, hi


def _filter_from_args(args) -> EntryFilter | None:
    """The filter of the ``--filter-*`` flags, each stored as ``filter_<field>``;
    None when no flag constrains."""
    flt = EntryFilter(**{f.name: getattr(args, f"filter_{f.name}")
                         for f in dataclasses.fields(EntryFilter)})
    return None if flt == EntryFilter() else flt


def _add_survey_flags(p: argparse.ArgumentParser):
    """The flags ``survey`` and ``scan`` share; returns the group that
    holds ``--json``, so that ``survey`` can add ``--csv`` to it."""
    p.add_argument("--catalog", help="line-delimited JSON catalog")
    p.add_argument("--corpus", type=int, metavar="MAXORDER",
                   help="use the built-in family corpus up to this order")
    p.add_argument("--open", action="store_true", help="open at both ends (default)")
    p.add_argument("--closed-left", action="store_true")
    p.add_argument("--closed-right", action="store_true")
    p.add_argument("--closed", action="store_true", help="closed at both ends")
    p.add_argument("--filter-max-order", type=int, default=None)
    p.add_argument("--filter-min-order", type=int, default=None)
    p.add_argument("--filter-p-group", dest="filter_p_power", type=int, default=None,
                   metavar="P", help="groups of order a power of the prime P")
    p.add_argument("--filter-odd", dest="filter_odd_order", action="store_true")
    abelian = p.add_mutually_exclusive_group()
    abelian.add_argument("--filter-abelian", dest="filter_abelian_only", action="store_true")
    abelian.add_argument("--filter-nonabelian", dest="filter_nonabelian_only",
                         action="store_true")
    p.add_argument("--filter-max-center-index", type=int, default=None)
    p.add_argument("--filter-tag", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: surveys run serially")
    p.add_argument("--cache-dir", default=None,
                   help="accepted and ignored: results are not cached")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true")
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.

    Every call returns the same shared parser, which :func:`main` uses
    too, so callers must not mutate it (add arguments, change defaults).
    Parsing does not change it: each ``parse_args`` call fills a new
    namespace. ``build_parser.__wrapped__()`` builds a fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="commprob",
        description="Exact commuting probabilities, unit-fraction spectra and gap certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pr = sub.add_parser("pr", help="commuting probability of one group")
    _add_source_flags(p_pr)
    p_pr.add_argument("--bounds", action="store_true", help="include the bound suite")
    pr_out = p_pr.add_mutually_exclusive_group()
    pr_out.add_argument("--json", action="store_true")
    pr_out.add_argument("--csv", action="store_true")

    p_dec = sub.add_parser("decompose", help="unit-fraction decomposition over an abelian normal subgroup")
    _add_source_flags(p_dec)
    p_dec.add_argument("--subgroup", help="comma-separated generator indices for the subgroup")
    p_dec.add_argument("--json", action="store_true")

    p_egy = sub.add_parser("egyptian", help="unit-fraction set queries")
    egy_sub = p_egy.add_subparsers(dest="egyptian_command", required=True)
    p_solve = egy_sub.add_parser("solve", help="all n-term representations of a rational")
    p_solve.add_argument("--terms", type=int, required=True)
    p_solve.add_argument("--target", required=True)
    p_solve.add_argument("--json", action="store_true")
    p_gap = egy_sub.add_parser("gap", help="largest n-term value strictly below a probe")
    p_gap.add_argument("--terms", type=int, required=True)
    p_gap.add_argument("--below", required=True)
    p_gap.add_argument("--json", action="store_true")
    p_desc = egy_sub.add_parser("descend", help="walk the n-term values downward")
    p_desc.add_argument("--terms", type=int, required=True)
    p_desc.add_argument("--from", dest="start", required=True)
    p_desc.add_argument("--count", type=int, default=5)
    p_desc.add_argument("--json", action="store_true")
    p_lim = egy_sub.add_parser("limit-point", help="accumulation-point test")
    p_lim.add_argument("--terms", type=int, required=True)
    p_lim.add_argument("--value", required=True)
    p_lim.add_argument("--json", action="store_true")

    p_spec = sub.add_parser("spectrum", help="candidate-spectrum queries")
    spec_sub = p_spec.add_subparsers(dest="spectrum_command", required=True)
    p_sgap = spec_sub.add_parser("gap", help="gap certificate for the index-n candidate set")
    p_sgap.add_argument("--index", type=int, required=True)
    p_sgap.add_argument("--at", required=True)
    p_sgap.add_argument("--json", action="store_true")

    p_sur = sub.add_parser("survey", help="batch Pr over a catalog or built-in corpus")
    _add_survey_flags(p_sur).add_argument("--csv", action="store_true")
    p_sur.add_argument("--scan", metavar="LO..HI", help="scan an interval instead of listing rows")

    p_scan = sub.add_parser("scan", help="interval scan over a catalog or corpus (survey --scan)")
    _add_survey_flags(p_scan)
    p_scan.add_argument("--interval", dest="scan", required=True, metavar="LO..HI")
    return parser


def _cmd_pr(parser, args) -> int:
    table = _group_from_args(parser, args)
    report = check_bounds(table) if args.bounds else pr_report(table)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.csv:
        sys.stdout.write(report.to_csv())
    else:
        print(format_rational(report.pr))
        for b in report.bounds:
            print(f"{b.bound}: {b.status}" + (f" ({b.note})" if b.note else ""))
    return 0


def _cmd_decompose(parser, args) -> int:
    table = _group_from_args(parser, args)
    if args.subgroup:
        gens = [int(tok) for tok in args.subgroup.split(",") if tok.strip()]
        sub = subgroup_from_generators(table, gens)
    else:
        sub = largest_abelian_normal_subgroup(table)
    form = abelian_decomposition(table, sub)
    if args.json:
        print(json.dumps(form.to_json_dict(), indent=2))
        return 0
    print(f"subgroup order {sub.order}, index {form.index}")
    print(f"coset reps: {' '.join(str(r) for r in form.coset_reps)}")
    for row in form.s_sizes:
        print("  " + " ".join(f"{v:4d}" for v in row))
    print(f"x-list: {' '.join(str(x) for x in form.x_list)}")
    print(f"pr = {format_rational(form.pr)}")
    return 0


def _cmd_egyptian(parser, args) -> int:
    if args.egyptian_command == "solve":
        sols = solve_exact(args.terms, parse_rational(args.target))
        if args.json:
            print(json.dumps([list(s.terms) for s in sols]))
        else:
            for s in sols:
                print(str(s))
        return 0
    if args.egyptian_command == "gap":
        cert = max_below(args.terms, parse_rational(args.below))
        if args.json:
            print(json.dumps(cert.to_json_dict()))
        else:
            print(
                f"max_below = {format_rational(cert.max_below)}  "
                f"epsilon = {format_rational(cert.epsilon)}"
            )
        return 0
    if args.egyptian_command == "descend":
        vals = descend(args.terms, parse_rational(args.start), args.count)
        if args.json:
            print(json.dumps([format_rational(v) for v in vals]))
        else:
            for v in vals:
                print(format_rational(v))
        return 0
    res = is_limit_point(args.terms, parse_rational(args.value))
    if args.json:
        print(json.dumps({
            "is_limit_point": res.is_limit_point,
            "m": res.m,
            "witness": None if res.witness is None else list(res.witness.terms),
        }))
    elif res.is_limit_point:
        detail = "zero" if res.witness is None else f"m={res.m}: {res.witness}"
        print(f"yes ({detail})")
    else:
        print("no")
    return 0


def _cmd_spectrum(parser, args) -> int:
    query = candidate_gap(args.index, parse_rational(args.at))
    if args.json:
        print(json.dumps(query.to_json_dict()))
    else:
        cert = query.result
        print(
            f"max_below = {format_rational(cert.max_below)}  "
            f"epsilon = {format_rational(cert.epsilon)}"
        )
    return 0


def _entries_from_args(parser, args):
    if (args.catalog is None) == (args.corpus is None):
        parser.error("exactly one of --catalog/--corpus is required")
    if args.catalog is not None:
        return ingest(args.catalog), f"catalog {args.catalog}"
    entries = [entry_from_family(spec, table=table) for table, spec in corpus(args.corpus)]
    return entries, f"built-in corpus({args.corpus})"


def _cmd_survey(parser, args) -> int:
    """``survey``, and ``scan``, whose ``--interval`` is ``survey --scan``.

    The flags and the interval are checked before anything is built or
    surveyed."""
    if args.open and (args.closed or args.closed_left or args.closed_right):
        parser.error("--open is not allowed with --closed, --closed-left or --closed-right")
    if args.scan:
        lo, hi = _parse_interval(args.scan)
    entries, universe = _entries_from_args(parser, args)
    flt = _filter_from_args(args)
    report = survey(entries, flt, universe=universe)
    if args.scan:
        finding = scan_interval(
            report,
            lo,
            hi,
            closed_lo=args.closed or args.closed_left,
            closed_hi=args.closed or args.closed_right,
            flt=flt,
        )
        if args.json:
            print(json.dumps(finding.to_json_dict(), indent=2))
        else:
            print(finding.summary())
    elif args.json:
        print(report.to_json())
    else:
        sys.stdout.write(report.to_csv())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pr": _cmd_pr,
        "decompose": _cmd_decompose,
        "egyptian": _cmd_egyptian,
        "spectrum": _cmd_spectrum,
        "survey": _cmd_survey,
        "scan": _cmd_survey,
    }
    try:
        return handlers[args.command](parser, args)
    except (CommprobError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
