"""Catalog ingestion, batch commuting-probability surveys, and interval scans.

Input catalogs are line-delimited JSON; each entry names a group either
by an explicit Cayley table, by permutation generators in cycle
notation, or by a family spec; entries made from the built-in corpus
carry the table it built. Surveys build each entry that carries no
table, compute (order, k, Pr) from its classes, aggregate the observed
value spectrum with witnesses, and scans ask whether any observed value
lies in a given interval.

Surveys run their entries one after another in catalog order, so a
report is deterministic (the elapsed time is excluded from the
canonical serialization).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CommprobError, OrderCapExceeded, ParseError, ValidationError
from .families import FamilySpec, make
from .groups import (
    GroupTable,
    build_from_cayley,
    build_from_permutations,
    parse_cycles,
    prime_power,
    table_from_json,
)
from .probability import pr_report
from .rationals import format_rational, parse_rational

_SOURCES = ("cayley", "permutations", "family")


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog line; the table itself is built lazily, unless an
    already built ``table`` is handed over (the corpus does this)."""

    name: str
    source: str
    payload: dict
    expected_pr: Fraction | None = None
    tags: tuple[str, ...] = ()
    table: GroupTable | None = field(default=None, compare=False, repr=False)

    def build(self) -> GroupTable:
        """Construct and validate the group, or return the table handed
        over; wraps failures with the entry name."""
        if self.table is not None:
            return self.table
        try:
            if self.source == "cayley":
                table = self.payload["table"]
                if isinstance(table, OrderCapExceeded):  # refused by ingest
                    raise table
                return build_from_cayley(table, name=self.name)
            if self.source == "permutations":
                degree = int(self.payload["degree"])
                gens = [parse_cycles(s, degree) for s in self.payload["gens"]]
                return build_from_permutations(degree, gens, name=self.name)
            if self.source == "family":
                spec = FamilySpec(
                    family=self.payload["family"],
                    params=tuple(int(p) for p in self.payload["params"]),
                )
                table, _ = make(spec)
                return dataclasses.replace(table, name=self.name)
            raise ValidationError(f"unknown source {self.source!r}", entry=self.name)
        except ValidationError:
            raise
        except (CommprobError, KeyError, ValueError, TypeError) as exc:
            raise ValidationError(
                f"entry {self.name!r}: {type(exc).__name__}: {exc}", entry=self.name
            ) from exc


def entry_from_family(
    spec: FamilySpec, tags: tuple[str, ...] = (), table: GroupTable | None = None
) -> CatalogEntry:
    """An entry for a family member; pass the ``table`` ``make`` returned
    with ``spec`` so that a survey reads it instead of building again."""
    name = spec.name or f"{spec.family}{list(spec.params)}"
    return CatalogEntry(
        name=name,
        source="family",
        payload={"family": spec.family, "params": list(spec.params)},
        expected_pr=spec.expected_pr,
        tags=tags,
        table=table,
    )


_HOLE = object()


def _fill_hole(constant: str):
    return _HOLE if constant == "NaN" else float(constant)


def _decode_line(line: str):
    """``json.loads(line)``, except that the value of a top-level
    ``"table"`` key is read by ``table_from_json`` when it can be.

    The first ``"table":`` value in the text is cut out and ``NaN`` put in
    its place; the rest is decoded with that one ``NaN`` marked. Only if
    the mark ends up as the top-level ``"table"`` value, the one that
    ``json.loads`` keeps among duplicate keys, does the cut-out table
    replace it. Otherwise the whole line goes through ``json.loads``.
    A table refused for its order is kept as its ``OrderCapExceeded``,
    so that the entry fails when built and the survey goes on.
    """
    key = line.find('"table":')
    start = key + len('"table":')
    if key >= 0 and line.startswith(" ", start):
        start += 1
    end = line.find("]]", start) + 2
    if key < 0 or end < 2 or not line.startswith("[[", start):
        return json.loads(line)
    try:
        table = table_from_json(line[start:end])
    except OrderCapExceeded as exc:
        table = exc
    rest = line[:start] + "NaN" + line[end:]
    if table is None or rest.count("NaN") != 1:
        return json.loads(line)
    try:
        data = json.loads(rest, parse_constant=_fill_hole)
    except ValueError:
        return json.loads(line)
    if not isinstance(data, dict) or data.get("table") is not _HOLE:
        return json.loads(line)
    data["table"] = table
    return data


def ingest(path) -> list[CatalogEntry]:
    """Parse a line-delimited JSON catalog. Blank lines are ignored.

    A ``cayley`` line's table is read straight into an int64 array when
    it is spelled compactly or with ``json.dumps``'s default separators
    (``groups.table_from_json``); any other valid JSON decodes the same,
    through ``json.loads``.
    """
    entries: list[CatalogEntry] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = _decode_line(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc}", line=lineno) from exc
            if not isinstance(data, dict) or "name" not in data or "source" not in data:
                raise ParseError(
                    f"line {lineno}: entry needs 'name' and 'source'", line=lineno
                )
            source = data["source"]
            if source not in _SOURCES:
                raise ParseError(
                    f"line {lineno}: unknown source {source!r}", line=lineno
                )
            expected = data.get("expected_pr")
            tags = data.get("tags", [])
            try:
                if expected is not None:
                    if not isinstance(expected, str):
                        raise ValueError(f"expected_pr must be a string, got {expected!r}")
                    expected = parse_rational(expected)
                if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
                    raise ValueError(f"tags must be a list of strings, got {tags!r}")
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}", line=lineno) from exc
            entries.append(
                CatalogEntry(
                    name=str(data["name"]),
                    source=source,
                    payload={
                        k: v
                        for k, v in data.items()
                        if k not in ("name", "source", "expected_pr", "tags")
                    },
                    expected_pr=expected,
                    tags=tuple(tags),
                )
            )
    return entries


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntryFilter:
    """Predicate over surveyed rows; unset fields do not constrain.

    ``p_power`` must be a prime p; it keeps groups of p-power order,
    the trivial group included.
    """

    max_order: int | None = None
    min_order: int | None = None
    p_power: int | None = None
    odd_order: bool = False
    abelian_only: bool = False
    nonabelian_only: bool = False
    max_center_index: int | None = None
    tag: str | None = None

    def __post_init__(self):
        if self.p_power is not None and prime_power(self.p_power) != (self.p_power, 1):
            raise ValueError(f"p-group filter needs a prime, got {self.p_power}")

    def describe(self) -> str:
        parts = []
        if self.max_order is not None:
            parts.append(f"order<={self.max_order}")
        if self.min_order is not None:
            parts.append(f"order>={self.min_order}")
        if self.p_power is not None:
            parts.append(f"p-group:{self.p_power}")
        if self.odd_order:
            parts.append("odd-order")
        if self.abelian_only:
            parts.append("abelian")
        if self.nonabelian_only:
            parts.append("nonabelian")
        if self.max_center_index is not None:
            parts.append(f"center-index<={self.max_center_index}")
        if self.tag is not None:
            parts.append(f"tag:{self.tag}")
        return ", ".join(parts) if parts else "all"

    def matches(self, row: "SurveyRow") -> bool:
        if row.status != "ok":
            return False
        if self.max_order is not None and row.order > self.max_order:
            return False
        if self.min_order is not None and row.order < self.min_order:
            return False
        if self.p_power is not None and row.order > 1:
            pk = prime_power(row.order)
            if pk is None or pk[0] != self.p_power:
                return False
        if self.odd_order and row.order % 2 == 0:
            return False
        if self.abelian_only and not row.is_abelian:
            return False
        if self.nonabelian_only and row.is_abelian:
            return False
        if (
            self.max_center_index is not None
            and row.center_index > self.max_center_index
        ):
            return False
        if self.tag is not None and self.tag not in row.tags:
            return False
        return True


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyRow:
    name: str
    status: str  # "ok" or "failed"
    order: int | None = None
    k: int | None = None
    pr: Fraction | None = None
    center_index: int | None = None
    is_abelian: bool | None = None
    tags: tuple[str, ...] = ()
    error: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "order": self.order,
            "k": self.k,
            "pr": None if self.pr is None else format_rational(self.pr),
            "center_index": self.center_index,
            "abelian": self.is_abelian,
            "tags": list(self.tags),
            "error": self.error,
        }


@dataclass(frozen=True)
class SurveyReport:
    rows: tuple[SurveyRow, ...]
    spectrum: tuple[tuple[Fraction, tuple[str, ...]], ...]
    universe: str
    elapsed_s: float = 0.0

    def to_json(self, *, include_stats: bool = False) -> str:
        data = {
            "universe": self.universe,
            "rows": [r.to_json_dict() for r in self.rows],
            "spectrum": [
                {"pr": format_rational(v), "witnesses": list(names)}
                for v, names in self.spectrum
            ],
        }
        if include_stats:
            data["stats"] = {"elapsed_s": self.elapsed_s}
        return json.dumps(data, indent=2)

    def to_csv(self) -> str:
        lines = ["name,order,k,pr"]
        for r in self.rows:
            if r.status == "ok":
                lines.append(
                    f"{r.name},{r.order},{r.k},{format_rational(r.pr)}"
                )
            else:
                lines.append(f"{r.name},,,FAILED")
        return "\n".join(lines) + "\n"


def _compute_row(entry: CatalogEntry) -> SurveyRow:
    """One entry's row; an entry that fails, or runs out of memory, gives
    a FAILED row instead of ending the survey."""
    try:
        report = pr_report(entry.build())
    except (CommprobError, MemoryError) as exc:
        error = str(exc)
        if isinstance(exc, MemoryError):
            error = f"entry {entry.name!r}: out of memory" + (f": {error}" if error else "")
        return SurveyRow(name=entry.name, status="failed", tags=entry.tags, error=error)
    row = SurveyRow(
        name=entry.name,
        status="ok",
        order=report.order,
        k=report.k,
        pr=report.pr,
        center_index=report.center_index,
        is_abelian=report.center_index == 1,
        tags=entry.tags,
    )
    if entry.expected_pr is not None and row.pr != entry.expected_pr:
        row = dataclasses.replace(
            row,
            status="failed",
            error=(
                f"expected pr {format_rational(entry.expected_pr)}, "
                f"computed {format_rational(row.pr)}"
            ),
        )
    return row


def survey(
    entries,
    flt: EntryFilter | None = None,
    *,
    universe: str | None = None,
) -> SurveyReport:
    """Compute Pr for every entry, one after another; aggregate the
    observed spectrum.

    Per-entry errors (and expected-value mismatches) become FAILED rows;
    the batch never aborts. Rows excluded by the filter are dropped from
    the report, FAILED rows are always kept.
    """
    entries = list(entries)
    start = time.perf_counter()
    rows = [
        row
        for row in map(_compute_row, entries)
        if row.status != "ok" or flt is None or flt.matches(row)
    ]

    witnesses: dict[Fraction, list[str]] = {}
    for row in rows:
        if row.status == "ok":
            witnesses.setdefault(row.pr, []).append(row.name)
    spectrum = tuple(
        (v, tuple(sorted(witnesses[v]))) for v in sorted(witnesses)
    )
    desc = universe or f"{len(entries)} catalog entries"
    if flt is not None:
        desc += f"; filter: {flt.describe()}"
    return SurveyReport(
        rows=tuple(rows),
        spectrum=spectrum,
        universe=desc,
        elapsed_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# interval scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureFinding:
    """Outcome of an interval scan over a survey's spectrum."""

    lo: Fraction
    hi: Fraction
    closed_lo: bool
    closed_hi: bool
    filter_description: str
    universe_size: int
    universe: str
    violations: tuple[tuple[str, Fraction], ...]

    @property
    def verdict(self) -> str:
        return "EMPTY" if not self.violations else "VIOLATED"

    def interval_text(self) -> str:
        left = "[" if self.closed_lo else "("
        right = "]" if self.closed_hi else ")"
        return f"{left}{format_rational(self.lo)}, {format_rational(self.hi)}{right}"

    def summary(self) -> str:
        if self.violations:
            return (
                f"VIOLATED by {len(self.violations)} group(s) in "
                f"{self.interval_text()} (universe: {self.universe_size} groups)"
            )
        return f"EMPTY (universe: {self.universe_size} groups)"

    def to_json_dict(self) -> dict:
        return {
            "interval": self.interval_text(),
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "closed_lo": self.closed_lo,
            "closed_hi": self.closed_hi,
            "filter": self.filter_description,
            "universe_size": self.universe_size,
            "universe": self.universe,
            "verdict": self.verdict,
            "violations": [
                {"name": n, "pr": format_rational(v)} for n, v in self.violations
            ],
        }


def scan_interval(
    report: SurveyReport,
    lo,
    hi,
    *,
    closed_lo: bool = False,
    closed_hi: bool = False,
    flt: EntryFilter | None = None,
) -> ConjectureFinding:
    """List every surveyed value inside the interval that passes the filter.

    Endpoint membership follows the open/closed flags exactly; scans are
    relative to the surveyed universe, which the finding records.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    inside_rows = []
    universe_size = 0
    for row in report.rows:
        if row.status != "ok":
            continue
        if flt is not None and not flt.matches(row):
            continue
        universe_size += 1
        above_lo = row.pr >= lo if closed_lo else row.pr > lo
        below_hi = row.pr <= hi if closed_hi else row.pr < hi
        if above_lo and below_hi:
            inside_rows.append((row.name, row.pr))
    return ConjectureFinding(
        lo=lo,
        hi=hi,
        closed_lo=closed_lo,
        closed_hi=closed_hi,
        filter_description=flt.describe() if flt is not None else "all",
        universe_size=universe_size,
        universe=report.universe,
        violations=tuple(sorted(inside_rows)),
    )
