"""Catalog ingestion, surveys, scans, and the on-disk cache."""

from __future__ import annotations

import json
import logging
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from commprob.catalog import (
    EntryFilter,
    cache_key,
    cache_load,
    cache_store,
    entry_from_family,
    ingest,
    resolve_cache_dir,
    scan_interval,
    survey,
)
from commprob.errors import ParseError, ValidationError
from commprob.families import corpus
from commprob.probability import PrReport, erdos_turan_holds

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
    parallel = survey(entries, jobs=4, universe="x")
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


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path, named):
    table = named["d4"]
    key = cache_key(table)
    report = PrReport(name="D4", order=8, k=5, pr=Fraction(5, 8), center_index=4)
    assert cache_load(tmp_path, key) is None  # cold
    cache_store(tmp_path, key, report)
    assert cache_load(tmp_path, key) == report


def test_cache_corruption_recovers(tmp_path, named, caplog):
    table = named["d4"]
    key = cache_key(table)
    cache_store(tmp_path, key, PrReport("D4", 8, 5, Fraction(5, 8), 4))
    target = tmp_path / f"{key}.cpr"
    target.write_bytes(target.read_bytes()[:12])  # truncate the body
    with caplog.at_level(logging.WARNING, logger="commprob.catalog"):
        assert cache_load(tmp_path, key) is None
    assert any("recomputing" in rec.message for rec in caplog.records)
    target.write_bytes(b"WRONGMAGIC" + b"{}")
    with caplog.at_level(logging.WARNING, logger="commprob.catalog"):
        assert cache_load(tmp_path, key) is None


def test_survey_uses_cache(tmp_path, corpus16):
    entries = corpus_entries(corpus16)
    # identical tables (C2 vs S2, D2 products, ...) share a cache key,
    # so even the first pass scores some hits
    distinct = len({cache_key(e.build()) for e in entries})
    first = survey(entries, cache_dir=tmp_path)
    assert first.cache_misses == distinct
    second = survey(entries, cache_dir=tmp_path)
    assert second.cache_hits == len(entries)
    assert first.to_json() == second.to_json()


def test_concurrent_cache_stores_never_collide(tmp_path, caplog):
    report = PrReport("D4", 8, 5, Fraction(5, 8), 4)
    errors = []

    def hammer():
        try:
            for _ in range(50):
                cache_store(tmp_path, "k", report)
        except Exception as exc:  # pragma: no cover - the failure being tested
            errors.append(exc)

    with caplog.at_level(logging.WARNING, logger="commprob.catalog"):
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert errors == [] and caplog.records == []
    assert cache_load(tmp_path, "k") == report
    assert [p.name for p in tmp_path.iterdir()] == ["k.cpr"]


def test_failed_cache_store_keeps_rows(tmp_path, corpus16, caplog):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    entries = corpus_entries(corpus16)
    with caplog.at_level(logging.WARNING, logger="commprob.catalog"):
        report = survey(entries, cache_dir=not_a_dir, universe="x")
    assert report.rows and all(r.status == "ok" for r in report.rows)
    assert report.to_json() == survey(entries, universe="x").to_json()
    assert any(str(not_a_dir) in rec.getMessage() for rec in caplog.records)


def test_unreadable_cache_entry_is_recomputed(tmp_path, caplog):
    entries = corpus_entries(corpus(4))
    c3 = next(e for e in entries if e.name == "C3")
    blocker = tmp_path / f"{cache_key(c3.build())}.cpr"
    blocker.mkdir()  # a directory where the entry should be
    with caplog.at_level(logging.WARNING, logger="commprob.catalog"):
        report = survey(entries, cache_dir=tmp_path, universe="x")
    assert report.rows and all(r.status == "ok" for r in report.rows)
    assert report.to_json() == survey(entries, universe="x").to_json()
    assert any(str(blocker) in rec.getMessage() for rec in caplog.records)


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("COMMPROB_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    monkeypatch.setenv("COMMPROB_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    # the flag wins over the environment
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_cache_key_is_canonical(named):
    # the key hashes table bytes, so equal tables share cache slots
    from commprob.families import FamilySpec, make

    a = make(FamilySpec("dihedral", (4,)))[0]
    b = make(FamilySpec("dihedral", (4,)))[0]
    assert cache_key(a) == cache_key(b)
    assert cache_key(a) != cache_key(named["q8"])
