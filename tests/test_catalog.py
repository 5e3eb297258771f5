"""Catalog ingestion, surveys and scans."""

from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from commprob.catalog import (
    EntryFilter,
    entry_from_family,
    ingest,
    scan_interval,
    survey,
)
from commprob.errors import ParseError, ValidationError
from commprob.families import FamilySpec, make
from commprob.groups import ORDER_CAP
from commprob.probability import erdos_turan_holds

DATA = Path(__file__).resolve().parent.parent / "data"


def write_catalog(tmp_path, lines) -> Path:
    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    return path


def corpus_entries(corp):
    return [entry_from_family(spec) for _, spec in corp]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_ingest_permutation_entry(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            {
                "name": "D4",
                "source": "permutations",
                "degree": 4,
                "gens": ["(1 2 3 4)", "(1 3)"],
            }
        ],
    )
    entries = ingest(path)
    assert len(entries) == 1
    assert entries[0].build().order == 8


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(path) == []


def test_ingest_parse_error_has_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "ok", "source": "family", "family": "cyclic", "params": [3]}\nnot json\n')
    with pytest.raises(ParseError) as e:
        ingest(path)
    assert e.value.line == 2
    for extra in ['"expected_pr": "1/0"', '"expected_pr": 1', '"tags": "ab"']:
        path.write_text(
            '{"name": "ok", "source": "family", "family": "cyclic", "params": [3]}\n'
            f'{{"name": "bad", "source": "family", "family": "cyclic", "params": [3], {extra}}}\n'
        )
        with pytest.raises(ParseError) as e:
            ingest(path)
        assert e.value.line == 2 and "line 2" in str(e.value)


def test_ingest_rejects_unknown_source(tmp_path):
    path = write_catalog(tmp_path, [{"name": "x", "source": "magma"}])
    with pytest.raises(ParseError):
        ingest(path)


def test_invalid_cayley_payload_names_entry(tmp_path):
    path = write_catalog(
        tmp_path,
        [{"name": "broken", "source": "cayley", "table": [[0, 1], [1, 1]]}],
    )
    (entry,) = ingest(path)
    with pytest.raises(ValidationError) as e:
        entry.build()
    assert e.value.entry == "broken"
    assert "NotLatinSquare" in str(e.value)


C2 = "[[0,1],[1,0]]"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "line, fast",
    [
        ('{"name":"a","source":"cayley","table":%s}' % C2, True),
        ('{"name": "a", "source": "cayley", "table": [[0, 1], [1, 0]], "tags": ["t"]}', True),
        ('{"table":%s,"name":"a","source":"cayley"}' % C2, True),
        ('{"name":"a","source":"cayley","table":%s,"x":Infinity}' % C2, True),
        # json.loads keeps the last of duplicate keys, however spelled
        ('{"name":"a","source":"cayley","table":%s,"table":[[0]]}' % C2, False),
        ('{"name":"a","source":"cayley","table":[[0]],"table":%s}' % C2, False),
        ('{"name":"a","source":"cayley","table":%s,"tab\\u006ce":[[0]]}' % C2, False),
        ('{"name":"a","source":"cayley","tab\\u006ce":[[0]],"table":%s}' % C2, True),
        # only the top-level key counts
        ('{"name":"a","source":"cayley","meta":{"table":%s},"table":[[0]]}' % C2, False),
        ('{"name":"a","source":"cayley","x\\"table":%s,"table":[[0]]}' % C2, False),
        ('{"name":"a\\"table\\":%s","source":"cayley","table":[[0]]}' % C2, True),
        ('[{"name":"a","source":"cayley","table":%s}]' % C2, False),
        # the mark is the only NaN; a NaN of the line's own is kept
        ('{"name":"a","source":"cayley","table":%s,"x":NaN}' % C2, False),
        ('{"name":"a","source":"cayley","x":[NaN],"table":%s}' % C2, False),
        # spellings the reader leaves to json.loads
        ('{"name":"a","source":"cayley","table":  %s}' % C2, False),
        ('{"name":"a","source":"cayley","table":[[0,1],\t[1,0]]}', False),
        ('{"name":"a","source":"cayley","table":[[0,-1],[1,0]]}', False),
        ('{"name":"a","source":"cayley","table":[[0,1.0],[1,0]]}', False),
        ('{"name":"é","source":"cayley","table":%s}' % C2, True),
    ],
)
def test_cayley_line_decodes_as_json_loads(tmp_path, line, fast):
    """A table is read by the fast reader only where the line decodes to
    the same payload through json.loads; every line here is valid JSON."""
    path = tmp_path / "cat.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    data = json.loads(line)
    if isinstance(data, list):
        with pytest.raises(ParseError):
            ingest(path)
        return
    (entry,) = ingest(path)
    table = entry.payload["table"]
    assert isinstance(table, np.ndarray) == fast
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v
               for k, v in entry.payload.items()}
    want = {k: v for k, v in data.items() if k not in ("name", "source", "tags")}
    assert json.dumps(payload) == json.dumps(want)
    assert entry.name == data["name"]


def test_cayley_line_errors_are_unchanged(tmp_path):
    for bad in ('{"name":"a","source":"cayley","table":[[01]]}',
                '{"name":"a","source":"cayley","table":%s,}' % C2,
                '{"name":"a","source":"cayley","table":%s' % C2,
                '{"name":"a","source":"cayley","table":%s5}' % C2):
        path = tmp_path / "bad.jsonl"
        path.write_text(bad + "\n")
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(bad + "\n")
        with pytest.raises(ParseError) as e:
            ingest(path)
        assert str(e.value) == f"line 1: {want.value}"


def test_oversized_cayley_entry_is_a_failed_row(tmp_path):
    skeleton = "[" + ",".join(["[0]"] * (ORDER_CAP + 1)) + "]"
    path = tmp_path / "cat.jsonl"
    path.write_text(
        '{"name":"big","source":"cayley","table":%s}\n' % skeleton
        + '{"name":"C2","source":"cayley","table":%s}\n' % C2
    )
    report = survey(ingest(path))
    big, c2 = report.rows
    assert big.status == "failed" and "OrderCapExceeded" in big.error
    assert f"{ORDER_CAP + 1} rows" in big.error
    assert c2.status == "ok" and c2.order == 2


def test_cayley_ingest_and_build_memory(tmp_path):
    """Ingesting and building one order-720 line (a 2 MB text) keeps no
    Python int per cell: the table goes from text to an int64 array."""
    G, _ = make(FamilySpec("symmetric", (6,)))
    perm = np.asarray(random.Random(3).sample(range(720), 720))
    table = np.empty_like(G.op)
    table[np.ix_(perm, perm)] = perm[G.op]
    path = tmp_path / "s6.jsonl"
    path.write_text(json.dumps({"name": "S6", "source": "cayley", "table": table.tolist()},
                               separators=(",", ":")) + "\n")
    tracemalloc.start()
    try:
        (entry,) = ingest(path)
        assert entry.build().order == 720
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_shipped_exponent_seven_catalog():
    entries = ingest(DATA / "exponent7_catalog.jsonl")
    assert [e.name for e in entries] == ["C7", "C7xC7", "C7xC7xC7", "Heisenberg7"]
    report = survey(entries)
    assert all(r.status == "ok" for r in report.rows)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def test_survey_spectrum_witnesses(corpus16):
    report = survey(corpus_entries(corpus16), universe="corpus(16)")
    values = {v: names for v, names in report.spectrum}
    assert Fraction(5, 8) in values
    assert {"D4", "Dic2", "ES2_1"} <= set(values[Fraction(5, 8)])


def test_survey_abelian_filter(corpus16):
    report = survey(corpus_entries(corpus16), EntryFilter(abelian_only=True))
    assert [v for v, _ in report.spectrum] == [Fraction(1)]


def test_survey_of_carried_tables_matches_rebuilt_entries(corpus64):
    """Entries that carry the corpus tables survey to the same bytes as
    entries rebuilt from their specs, and still check expected_pr."""
    carried = [entry_from_family(spec, table=table) for table, spec in corpus64]
    assert (
        survey(carried, universe="corpus(64)").to_json()
        == survey(corpus_entries(corpus64), universe="corpus(64)").to_json()
    )
    d4 = next(e for e in carried if e.name == "D4")
    [row] = survey([dataclasses.replace(d4, expected_pr=Fraction(1))]).rows
    assert row.status == "failed" and "computed 5/8" in row.error


def test_survey_dihedral_rows_match_closed_form():
    from commprob.families import FamilySpec, make

    entries = [
        entry_from_family(make(FamilySpec("dihedral", (n,)))[1])
        for n in range(2, 21)
    ]
    report = survey(entries)
    assert len(report.rows) == 19
    for n, row in zip(range(2, 21), report.rows):
        want = Fraction(n + 6, 4 * n) if n % 2 == 0 else Fraction(n + 3, 4 * n)
        assert row.pr == want and row.status == "ok"


def test_survey_failed_rows_never_abort(tmp_path):
    path = write_catalog(
        tmp_path,
        [
            {"name": "ok", "source": "family", "family": "cyclic", "params": [3]},
            {"name": "broken", "source": "cayley", "table": [[0, 1], [1, 1]]},
            {"name": "liar", "source": "family", "family": "cyclic", "params": [3],
             "expected_pr": "1/2"},
            {"name": "floats", "source": "cayley", "table": [[0.7, 1.2], [1.9, 0.1]]},
            {"name": "bools", "source": "cayley", "table": [[True, False], [False, True]]},
        ],
    )
    report = survey(ingest(path))
    by_name = {r.name: r for r in report.rows}
    assert by_name["ok"].status == "ok"
    assert by_name["broken"].status == "failed" and "NotLatinSquare" in by_name["broken"].error
    assert by_name["liar"].status == "failed" and "expected pr" in by_name["liar"].error
    for name in ("floats", "bools"):
        assert by_name[name].status == "failed" and "must be integers" in by_name[name].error
    assert "FAILED" in report.to_csv()


def test_survey_erdos_turan_invariant(corpus64):
    report = survey(corpus_entries(corpus64))
    for row in report.rows:
        if row.order >= 3:
            assert erdos_turan_holds(row.order, row.k), row.name
        assert 0 < row.pr <= 1
        assert row.pr == Fraction(row.k, row.order)


def test_survey_parallel_determinism(corpus16):
    entries = corpus_entries(corpus16)
    serial = survey(entries, universe="x")
    parallel = survey(entries, universe="x")
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_scan_endpoint_flags(corpus16):
    report = survey(corpus_entries(corpus16))
    # D4 sits exactly at 5/8: open interval misses it, closed end catches it
    open_f = scan_interval(report, Fraction(5, 8), 1)
    assert open_f.verdict == "EMPTY"
    closed = scan_interval(report, Fraction(5, 8), 1, closed_lo=True)
    assert closed.verdict == "VIOLATED"
    assert any(name == "D4" for name, _ in closed.violations)
    at_one = scan_interval(report, Fraction(5, 8), 1, closed_hi=True)
    assert at_one.verdict == "VIOLATED"  # abelian members sit at 1
    with pytest.raises(ValueError):
        scan_interval(report, 1, 1)


def test_scan_respects_filter(corpus16):
    report = survey(corpus_entries(corpus16))
    f = scan_interval(
        report, Fraction(5, 8), 1, closed_hi=True,
        flt=EntryFilter(nonabelian_only=True),
    )
    assert f.verdict == "EMPTY"
    assert f.filter_description == "nonabelian"
    assert "EMPTY (universe:" in f.summary()


def test_filter_descriptions():
    assert EntryFilter().describe() == "all"
    f = EntryFilter(max_order=343, p_power=7, odd_order=True)
    assert f.describe() == "order<=343, p-group:7, odd-order"


def test_p_group_filter_needs_a_prime(corpus16):
    report = survey(corpus_entries(corpus16), EntryFilter(p_power=2))
    orders = {r.order for r in report.rows}
    assert orders == {1, 2, 4, 8, 16}  # the trivial group is a 2-group
    for bad in (0, 1, 4, 12):
        with pytest.raises(ValueError):
            EntryFilter(p_power=bad)


def test_small_center_index_spectrum_snapshot(corpus128):
    """Groups with central quotient of order <= 8 realize finitely many
    values; the snapshot below is the regression witness over corpus(128)."""
    report = survey(
        corpus_entries(corpus128),
        EntryFilter(max_center_index=8),
        universe="corpus(128)",
    )
    values = {v for v, _ in report.spectrum}
    assert values == {
        Fraction(7, 16),
        Fraction(1, 2),
        Fraction(5, 8),
        Fraction(1),
    }
