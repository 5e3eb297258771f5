"""CLI contract: output formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import commprob.catalog
import commprob.cli
import commprob.egyptian
import commprob.probability
from commprob.cli import main
from commprob.families import FamilySpec, product_spec
from commprob.groups import Permutation, format_cycles, subgroup_from_generators

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pr_family(capsys):
    code, out, err = run(capsys, "pr", "--family", "dihedral", "--params", "7")
    assert code == 0 and out == "5/14\n" and err == ""


def test_pr_perms(capsys):
    code, out, _ = run(
        capsys, "pr", "--perms", "(1 2 3 4)", "(1 3)", "--degree", "4"
    )
    assert code == 0 and out == "5/8\n"


def test_pr_perms_above_degree_256(capsys):
    """D1000 given as a 1000-cycle and a reflection of 1000 points gives
    the report of the closed-form family member, Pr = (n + 6) / 4n."""
    n = 1000
    cycle = format_cycles(Permutation(n, (*range(1, n), 0)))
    reflection = format_cycles(Permutation(n, tuple(-i % n for i in range(n))))
    code, out, err = run(capsys, "pr", "--json", "--perms", cycle, reflection,
                         "--degree", str(n))
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data == {"name": "perm-group", "order": 2000, "k": 503, "pr": "503/2000",
                    "center_index": 1000, "bounds": []}
    code, out, _ = run(capsys, "pr", "--json", "--family", "dihedral", "--params", str(n))
    assert code == 0 and json.loads(out) == {**data, "name": "D1000"}


def test_pr_cayley_file(capsys, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps([[0, 1, 2], [1, 2, 0], [2, 0, 1]]))
    code, out, _ = run(capsys, "pr", "--cayley", str(path))
    assert code == 0 and out == "1\n"


def test_pr_catalog_entry(capsys):
    code, out, _ = run(
        capsys, "pr", "--catalog", str(DATA / "exponent7_catalog.jsonl"),
        "--name", "Heisenberg7",
    )
    assert code == 0 and out == "55/343\n"


def test_pr_json_schema(capsys):
    code, out, _ = run(
        capsys, "pr", "--family", "dihedral", "--params", "4", "--json", "--bounds"
    )
    assert code == 0
    data = json.loads(out)
    assert data["pr"] == "5/8" and data["order"] == 8 and data["k"] == 5
    assert any(b["bound"] == "gustafson" and b["holds"] for b in data["bounds"])


def test_egyptian_solve_lines(capsys):
    code, out, _ = run(capsys, "egyptian", "solve", "--terms", "3", "--target", "1")
    assert code == 0
    assert out == "3 3 3\n4 4 2\n6 3 2\n"


def test_egyptian_gap(capsys):
    code, out, _ = run(capsys, "egyptian", "gap", "--terms", "2", "--below", "1/2")
    assert code == 0 and out == "max_below = 10/21  epsilon = 1/42\n"


def test_egyptian_descend(capsys):
    code, out, _ = run(
        capsys, "egyptian", "descend", "--terms", "1", "--from", "1", "--count", "3"
    )
    assert out == "1/2\n1/3\n1/4\n"


def test_egyptian_limit_point(capsys):
    code, out, _ = run(
        capsys, "egyptian", "limit-point", "--terms", "3", "--value", "10/21"
    )
    assert code == 0 and out == "yes (m=2: 7 3)\n"
    code, out, _ = run(
        capsys, "egyptian", "limit-point", "--terms", "2", "--value", "5/6"
    )
    assert out == "no\n"


def test_spectrum_gap(capsys):
    code, out, _ = run(capsys, "spectrum", "gap", "--index", "2", "--at", "5/8")
    assert code == 0 and out == "max_below = 13/21  epsilon = 1/168\n"


def test_spectrum_gap_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "spectrum", "gap", "--index", "2", "--at", "1/2", "--json"
    )
    data = json.loads(out)
    assert data["max_below"] == "83/168" and data["epsilon"] == "1/168"
    assert data["index"] == 2 and isinstance(data["witness"], list)


def test_decompose_auto_subgroup(capsys):
    code, out, _ = run(capsys, "decompose", "--family", "symmetric", "--params", "3")
    assert code == 0
    assert "x-list: 1 3 3 3" in out and "pr = 1/2" in out


def test_decompose_explicit_generators(capsys):
    # element 2 generates the rotation subgroup of S3 under BFS numbering
    code, out, _ = run(
        capsys, "decompose", "--family", "symmetric", "--params", "3",
        "--subgroup", "2", "--json",
    )
    data = json.loads(out)
    assert data["x_list"] == [1, 3, 3, 3] and data["pr"] == "1/2"


def test_survey_scan_catalog(capsys):
    code, out, _ = run(
        capsys, "survey", "--catalog", str(DATA / "exponent7_catalog.jsonl"),
        "--scan", "5/2401..1/343", "--closed",
    )
    assert code == 0 and out == "EMPTY (universe: 4 groups)\n"


def test_survey_csv(capsys):
    code, out, _ = run(capsys, "survey", "--corpus", "8", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,order,k,pr"
    assert any(line.startswith("D4,8,5,5/8") for line in lines)


def test_scan_subcommand(capsys):
    code, out, _ = run(
        capsys, "scan", "--corpus", "24", "--interval", "7/16..1/2", "--open"
    )
    assert code == 0 and out.startswith("EMPTY (universe:")
    # scan --interval is survey --scan under another name
    flags = ["--corpus", "24", "--closed-left", "--filter-nonabelian"]
    for extra in ([], ["--json"]):
        _, via_scan, _ = run(capsys, "scan", "--interval", "1/2..1", *flags, *extra)
        _, via_survey, _ = run(capsys, "survey", "--scan", "1/2..1", *flags, *extra)
        assert via_scan == via_survey and via_scan


def test_scan_reports_its_filter(capsys):
    code, out, _ = run(
        capsys, "scan", "--catalog", str(DATA / "exponent7_catalog.jsonl"),
        "--interval", "5/2401..1/343", "--closed", "--filter-p-group", "7", "--json",
    )
    data = json.loads(out)
    assert code == 0 and data["filter"] == "p-group:7"
    assert data["universe"].endswith("filter: p-group:7")


def test_pr_report_needs_no_structure(capsys, monkeypatch):
    """--json/--csv without --bounds report order, k, Pr and center index
    from the classes alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("structure computed for a bare report")

    monkeypatch.setattr(commprob.probability, "derived_subgroup", refuse)
    monkeypatch.setattr(commprob.probability, "quotient", refuse)
    code, out, _ = run(capsys, "pr", "--family", "symmetric", "--params", "4", "--json")
    assert code == 0 and out == (
        '{\n  "name": "S4",\n  "order": 24,\n  "k": 5,\n  "pr": "5/24",\n'
        '  "center_index": 24,\n  "bounds": []\n}\n'
    )
    code, out, _ = run(capsys, "pr", "--family", "symmetric", "--params", "4", "--csv")
    assert code == 0 and out == "name,order,k,pr,center_index\nS4,24,5,5/24,24\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["pr"])  # no source
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["pr", "--family", "dihedral", "--params", "4",
              "--perms", "(1 2)", "--degree", "2"])  # two sources
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["nosuchcommand"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--perms", "(1 2)", "--degree", "2", "--params", "5"], "--params needs --family"),
        (["--family", "cyclic", "--params", "4", "--degree", "3"], "--degree needs --perms"),
        (["--family", "cyclic", "--params", "4", "--name", "C4"], "--name needs --catalog"),
    ],
)
def test_a_flag_of_another_source_exits_2(capsys, argv, message):
    """A source flag whose source is not given would be silently ignored."""
    with pytest.raises(SystemExit) as e:
        main(["pr", *argv])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_domain_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "pr", "--family", "nosuch", "--params", "3")
    assert code == 1 and out == "" and "error:" in err
    code, _, err = run(
        capsys, "pr", "--catalog", str(DATA / "exponent7_catalog.jsonl"),
        "--name", "missing",
    )
    assert code == 1 and "no entry named" in err
    code, _, err = run(capsys, "spectrum", "gap", "--index", "1", "--at", "1")
    assert code == 1 and "no candidate value" in err
    code, out, err = run(capsys, "egyptian", "gap", "--terms", "2", "--below", "1/0")
    assert code == 1 and out == "" and "error:" in err
    code, out, err = run(capsys, "scan", "--corpus", "4", "--interval", "1/2..1/0")
    assert code == 1 and out == "" and "error:" in err
    code, out, err = run(
        capsys, "scan", "--corpus", "8", "--interval", "1/2..1", "--filter-p-group", "4"
    )
    assert code == 1 and out == "" and "error:" in err and "prime" in err
    for index in ("999", "-1"):
        code, out, err = run(
            capsys, "decompose", "--family", "symmetric", "--params", "3",
            "--subgroup", index,
        )
        assert code == 1 and out == "" and f"element index {index} outside" in err
    for table in ([[0.7, 1.2], [1.9, 0.1]], [[True, False], [False, True]]):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(table))
        code, out, err = run(capsys, "pr", "--cayley", str(path))
        assert code == 1 and out == "" and "must be integers" in err


def _run_limited(*argv, cwd):
    """The CLI in a subprocess whose address space is capped at 1 GiB, so
    that a list with one entry per point of a huge degree cannot be made."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "commprob.cli", *argv], cwd=cwd, env=env,
        preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_huge_degree_is_refused_before_any_list(tmp_path):
    done = _run_limited("pr", "--perms", "(1 2)", "--degree", "30000000", cwd=tmp_path)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr and "error: degree 30000000" in done.stderr

    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in [
        {"name": "S3", "source": "permutations", "degree": 3, "gens": ["(1 2)", "(1 2 3)"]},
        {"name": "huge", "source": "permutations", "degree": 30000000, "gens": ["(1 2)"]},
        {"name": "bare", "source": "permutations", "degree": 30000000, "gens": []},
        {"name": "C4", "source": "family", "family": "cyclic", "params": [4]},
    ]) + "\n")
    done = _run_limited("survey", "--catalog", str(path), cwd=tmp_path)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stdout == "name,order,k,pr\nS3,6,3,1/2\nhuge,,,FAILED\nbare,,,FAILED\nC4,4,4,1\n"


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_out_of_memory_is_a_domain_error(tmp_path):
    """C_20000 is within ORDER_CAP, but its 1.5 GiB table does not fit in
    1 GiB: ``decompose``, which reads the table, prints an error line.
    Pr needs only the group's right maps, so a survey gives its row."""
    done = _run_limited("decompose", "--family", "cyclic", "--params", "20000",
                        "--subgroup", "1", cwd=tmp_path)
    assert done.returncode == 1 and done.stdout == ""
    assert "Traceback" not in done.stderr and done.stderr.startswith("error: out of memory")

    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in [
        {"name": "C3", "source": "family", "family": "cyclic", "params": [3]},
        {"name": "big", "source": "family", "family": "cyclic", "params": [20000]},
        {"name": "C4", "source": "family", "family": "cyclic", "params": [4]},
    ]) + "\n")
    done = _run_limited("survey", "--catalog", str(path), cwd=tmp_path)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stdout == "name,order,k,pr\nC3,3,3,1\nbig,20000,20000,1\nC4,4,4,1\n"


def test_survey_entry_out_of_memory_is_a_failed_row(monkeypatch, tmp_path):
    """An entry whose build runs out of memory becomes a FAILED row that
    says so, and the survey goes on to the next entry."""
    real_make = commprob.catalog.make

    def make(spec):
        if spec.params == (20000,):
            raise MemoryError("Unable to allocate 1.49 GiB")
        return real_make(spec)

    monkeypatch.setattr(commprob.catalog, "make", make)
    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in [
        {"name": "big", "source": "family", "family": "cyclic", "params": [20000]},
        {"name": "C4", "source": "family", "family": "cyclic", "params": [4]},
    ]) + "\n")
    rows = commprob.catalog.survey(commprob.catalog.ingest(path)).rows
    assert [(r.name, r.status) for r in rows] == [("big", "failed"), ("C4", "ok")]
    assert rows[0].error == "entry 'big': out of memory: Unable to allocate 1.49 GiB"
    assert (rows[1].order, rows[1].k) == (4, 4)


def test_huge_parameters_are_refused_before_any_search(tmp_path):
    """A prime far above every cap, or an exponent too long to form the
    power of, is refused at once: these commands used to trial-divide up
    to 10^9 or build an unbounded power. Each call is timed inside a
    subprocess, so a hang fails on the timeout instead of stalling."""
    big = "1000000000000000009"
    cases = [
        (["pr", "--family", "extraspecial", "--params", big, "0"], "needs a prime p and s >= 1"),
        (["pr", "--family", "extraspecial", "--params", big, "-1"], "needs a prime p and s >= 1"),
        (["pr", "--family", "extraspecial", "--params", "3", "1" + "0" * 18], "capped at 3125"),
        (["survey", "--corpus", "8", "--filter-p-group", big], "prime up to the order cap 20000"),
    ]
    script = (
        "import contextlib, io, json, sys, time\n"
        "from commprob.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    err = io.StringIO()\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    out.append([code, time.perf_counter() - start, err.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps([argv for argv, _ in cases])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    for (argv, text), (code, seconds, err) in zip(cases, json.loads(done.stdout)):
        assert code == 1 and err.startswith("error:") and text in err, argv
        assert seconds < 1, (argv, seconds)


def test_cayley_file_spellings(capsys, tmp_path):
    """Every spelling of a table json.load reads gives the same answer,
    and text it refuses gives its error unchanged."""
    path = tmp_path / "t.json"
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    for text in (json.dumps(table), json.dumps(table, separators=(",", ":")) + "\n",
                 json.dumps(table, indent=1), json.dumps([[0, 1, 2], [1, 2, 0], [2, 0, 1]])):
        path.write_text(text)
        assert run(capsys, "pr", "--cayley", str(path)) == (0, "1\n", "")
    for text in ("[[01]]", "[[0,1],[1,0]],", ""):
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        assert run(capsys, "pr", "--cayley", str(path)) == (1, "", f"error: {want.value}\n")
    path.write_text("[" + ",".join(["[0]"] * 20_001) + "]")
    code, out, err = run(capsys, "pr", "--cayley", str(path))
    assert (code, out) == (1, "") and err.startswith("error: table of 20001 rows exceeds the cap")


def test_negative_degree_is_a_domain_error(capsys):
    code, out, err = run(capsys, "pr", "--perms", "()", "--degree", "-3")
    assert code == 1 and out == "" and "error: degree must be >= 0" in err


def _no_survey(*args, **kwargs):
    raise AssertionError("surveyed before the flags were checked")


def test_bad_interval_fails_before_surveying(capsys, monkeypatch):
    monkeypatch.setattr(commprob.cli, "survey", _no_survey)
    for argv in (
        ["scan", "--corpus", "128", "--interval", "1/2..1/0"],
        ["survey", "--corpus", "4", "--scan", "1/2..1/3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "error:" in err


def test_abelian_and_nonabelian_filters_are_exclusive(capsys, monkeypatch):
    monkeypatch.setattr(commprob.cli, "survey", _no_survey)
    for argv in (["survey", "--corpus", "8", "--filter-abelian", "--filter-nonabelian"],
                 ["scan", "--corpus", "8", "--interval", "1/2..1", "--filter-nonabelian",
                  "--filter-abelian"]):
        code, out, err = _call(capsys, argv)
        assert code == 2 and out == "" and "not allowed with argument" in err


def test_open_is_refused_with_a_closed_end(capsys, monkeypatch):
    monkeypatch.setattr(commprob.cli, "survey", _no_survey)
    for closed in ("--closed", "--closed-left", "--closed-right"):
        for command in (["scan", "--corpus", "8", "--interval", "1/2..1"],
                        ["survey", "--corpus", "8", "--scan", "1/2..1"]):
            code, out, err = _call(capsys, [*command, "--open", closed])
            assert code == 2 and out == "" and "--open is not allowed with" in err


def test_json_and_csv_are_exclusive(capsys):
    for argv in (
        ["pr", "--family", "dihedral", "--params", "4", "--json", "--csv"],
        ["survey", "--corpus", "4", "--json", "--csv"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_search_budget_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(commprob.egyptian, "SEARCH_BUDGET", 1000)
    code, out, err = run(capsys, "egyptian", "gap", "--terms", "4", "--below", "1/11")
    assert code == 1 and out == ""
    assert "error:" in err and "1/11" in err and "1000" in err
    code, out, err = run(capsys, "spectrum", "gap", "--index", "3", "--at", "1/3")
    assert code == 1 and out == ""
    assert "error:" in err and "1/3" in err and "1000" in err


def test_solve_budget_exit_1(capsys, monkeypatch):
    # 4 terms summing to 2/11 try 40 779 denominators
    monkeypatch.setattr(commprob.egyptian, "SEARCH_BUDGET", 1000)
    code, out, err = run(capsys, "egyptian", "solve", "--terms", "4", "--target", "2/11")
    assert code == 1 and out == ""
    assert "error:" in err and "4-term" in err and "2/11" in err and "1000" in err
    code, out, _ = run(capsys, "egyptian", "solve", "--terms", "3", "--target", "1")
    assert code == 0 and out


@pytest.mark.parametrize("argv", [
    ("egyptian", "gap", "--terms", "1200", "--below", "1000"),
    ("egyptian", "solve", "--terms", "1200", "--target", "1000"),
    ("egyptian", "limit-point", "--terms", "1300", "--value", "1100"),
    ("spectrum", "gap", "--index", "60", "--at", "1/2"),  # 3 599 terms
])
@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS")
def test_deep_term_counts_are_domain_errors(argv, tmp_path):
    """A walk nested deeper than the recursion limit allows is refused
    with an error line, not a RecursionError traceback."""
    done = _run_limited(*argv, cwd=tmp_path)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "recursion limit" in done.stderr
    assert "Traceback" not in done.stderr


def test_decompose_bad_subgroup_is_domain_error(capsys):
    # a non-normal order-2 subgroup of S3 cannot anchor a decomposition
    code, _, err = run(
        capsys, "decompose", "--family", "symmetric", "--params", "3",
        "--subgroup", "1",
    )
    assert code == 1 and "error:" in err


def test_decompose_refuses_an_index_past_the_cutoff(capsys, monkeypatch):
    """The trivial subgroup of D1000 has index 2000: its grid would take
    O(index^2) steps and print 2000 lines of 2000 counts, so it is refused
    at once, before the group's table is filled."""
    groups = []

    def recording(G, gens):
        groups.append(G)
        return subgroup_from_generators(G, gens)

    monkeypatch.setattr(commprob.cli, "subgroup_from_generators", recording)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "decompose", "--family", "dihedral", "--params", "1000", "--subgroup", "0",
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "index 2000" in err
    assert groups[0].order == 2000 and "op" not in vars(groups[0])


def test_stdout_determinism(capsys):
    argv = ["survey", "--corpus", "16", "--json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_corpus_survey_builds_nothing_again(capsys, monkeypatch):
    """survey --corpus hands each corpus table to its entry, so the
    survey builds no family member a second time."""
    argv = ["survey", "--corpus", "16", "--json"]
    _, plain, _ = run(capsys, *argv)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("rebuilt a corpus group")

    monkeypatch.setattr(commprob.catalog, "make", no_rebuild)
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out == plain


def test_cache_flag_and_variable_are_ignored(capsys, monkeypatch, tmp_path):
    """Results are never cached: --cache-dir and COMMPROB_CACHE_DIR change
    no output byte and create nothing."""
    cache = tmp_path / "cache"
    for argv in (["survey", "--corpus", "16", "--json"],
                 ["scan", "--corpus", "16", "--interval", "1/2..1", "--json"]):
        monkeypatch.delenv("COMMPROB_CACHE_DIR", raising=False)
        _, plain, _ = run(capsys, *argv)
        _, flagged, _ = run(capsys, *argv, "--cache-dir", str(cache))
        monkeypatch.setenv("COMMPROB_CACHE_DIR", str(cache))
        _, from_env, _ = run(capsys, *argv)
        assert plain and flagged == plain and from_env == plain, argv
    assert not cache.exists()


def test_ignored_survey_flags_still_parse():
    """--jobs and --cache-dir stay accepted on survey and scan; the
    benchmark reads the --jobs default and passes --cache-dir."""
    parser = commprob.cli.build_parser()
    assert parser.parse_args(["survey", "--corpus", "1"]).jobs == 1
    for argv in (["survey", "--corpus", "1"],
                 ["scan", "--corpus", "1", "--interval", "0..1"]):
        args = parser.parse_args(argv + ["--cache-dir", "d", "--jobs", "4"])
        assert args.cache_dir == "d" and args.jobs == 4


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors too."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# One process, one parser: a usage error, then commands that read
# different subcommands and flags, in an order that would show any value
# carried over from the call before.
_MIXED = [
    ["pr", "--family", "dihedral", "--params", "4", "--json", "--csv"],
    ["pr", "--family", "dihedral", "--params", "4", "--bounds", "--json"],
    ["pr", "--family", "symmetric", "--params", "3", "--csv"],
    ["egyptian", "gap", "--terms", "3", "--below", "1/2"],
    ["spectrum", "gap", "--index", "2", "--at", "1/2"],
    ["survey", "--corpus", "8", "--json"],
    ["pr", "--perms", "(1 2 3)", "(1 2)", "--degree", "3"],
]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """After the first ``main`` call no later call constructs a parser."""
    _call(capsys, ["egyptian", "gap", "--terms", "2", "--below", "1/2"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in _MIXED:
        _call(capsys, argv)
    assert built == []
    assert commprob.cli.build_parser() is commprob.cli.build_parser()
    commprob.cli.build_parser.__wrapped__()  # the counter does see a build
    assert built


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch):
    """Each call through the shared parser prints and exits exactly as
    the same call through a parser built for it alone."""
    commprob.cli.build_parser()
    shared = [_call(capsys, argv) for argv in _MIXED]
    monkeypatch.setattr(commprob.cli, "build_parser",
                        commprob.cli.build_parser.__wrapped__)
    fresh = [_call(capsys, argv) for argv in _MIXED]
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0]
    assert "not allowed with argument --json" in shared[0][2]
    assert shared == fresh


def test_no_flag_value_leaks_into_the_next_call(capsys):
    parser = commprob.cli.build_parser()
    parser.parse_args(["pr", "--family", "dihedral", "--params", "4", "--bounds",
                       "--json"])
    parser.parse_args(["egyptian", "gap", "--terms", "2", "--below", "1/2"])
    parser.parse_args(["scan", "--corpus", "8", "--interval", "0..1", "--jobs", "3"])
    argv = ["pr", "--perms", "(1 2 3)", "--degree", "3"]
    args = parser.parse_args(argv)
    assert vars(args) == vars(commprob.cli.build_parser.__wrapped__().parse_args(argv))
    assert args.family is None and args.params is None and not args.bounds
    assert not args.json and not hasattr(args, "egyptian_command")
    assert parser.parse_args(["survey", "--corpus", "8"]).jobs == 1
    # a --family left over from the call before would make --perms a usage error
    assert _call(capsys, ["pr", "--family", "dihedral", "--params", "4",
                          "--bounds"])[0] == 0
    assert _call(capsys, ["pr", "--perms", "(1 2 3)", "(1 2)", "--degree", "3"]) == (
        0, "1/2\n", "")


# Outputs pinned byte for byte; a change here changes what users see.
_S5_BOUNDS = {
    "name": "S5", "order": 120, "k": 7, "pr": "7/120", "center_index": 120,
    "bounds": [
        {"bound": "gustafson", "relation": "<=", "lhs": "7/120", "rhs": "5/8",
         "holds": True, "note": ""},
        {"bound": "gustafson-equality", "relation": "iff", "lhs": None, "rhs": None,
         "holds": True,
         "note": "equality at 5/8 holds exactly when the central quotient is the "
                 "Klein four-group"},
        {"bound": "erdos-turan", "relation": "<=", "lhs": "120", "rhs": None,
         "holds": True,
         "note": "class count k vs log2(log2(order)), checked as order <= 2^(2^k)"},
        {"bound": "fitting-index", "relation": "<=", "lhs": "49/14400", "rhs": "1/120",
         "holds": True, "note": "squared to keep the comparison rational"},
        {"bound": "derived-bound", "relation": "<=", "lhs": "7/120", "rhs": "21/80",
         "holds": True, "note": ""},
        {"bound": "min-degree-lower", "relation": "<", "lhs": None, "rhs": None,
         "holds": None, "note": "no degree metadata"},
        {"bound": "min-degree-upper", "relation": "<=", "lhs": None, "rhs": None,
         "holds": None, "note": "no degree metadata"},
        {"bound": "orbit-bound", "relation": "<=", "lhs": None, "rhs": None,
         "holds": None, "note": "no subgroup supplied"},
    ],
}

_S4_DECOMPOSITION = {
    "index": 6,
    "coset_reps": [0, 1, 2, 3, 4, 6],
    "image_sizes": [1, 2, 2, 4, 4, 2],
    "intersection_sizes": [[1, 1, 1, 1, 1, 1], [1, 2, 1, 2, 2, 1], [1, 1, 2, 2, 2, 1],
                           [1, 2, 2, 4, 4, 2], [1, 2, 2, 4, 4, 2], [1, 1, 1, 2, 2, 2]],
    "s_sizes": [[16, 8, 8, 4, 4, 8], [8, 8, 0, 0, 0, 0], [8, 0, 8, 0, 0, 0],
                [4, 0, 0, 4, 4, 0], [4, 0, 0, 4, 4, 0], [8, 0, 0, 0, 0, 8]],
    "x_list": [1, 2, 2, 4, 4, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 2, 2],
    "pr": "5/24",
}

_D4_BOUNDS_CSV = (
    "name,order,k,pr,center_index,gustafson,gustafson-equality,erdos-turan,"
    "fitting-index,derived-bound,min-degree-lower,min-degree-upper,orbit-bound\n"
    "D4,8,5,5/8,4,holds,holds,holds,holds,holds,skipped,skipped,skipped\n"
)

_S4_BOUNDS_TEXT = (
    "5/24\n"
    "gustafson: holds\n"
    "gustafson-equality: holds (equality at 5/8 holds exactly when the central "
    "quotient is the Klein four-group)\n"
    "erdos-turan: holds (class count k vs log2(log2(order)), checked as "
    "order <= 2^(2^k))\n"
    "fitting-index: holds (squared to keep the comparison rational)\n"
    "derived-bound: holds\n"
    "min-degree-lower: skipped (no degree metadata)\n"
    "min-degree-upper: skipped (no degree metadata)\n"
    "orbit-bound: skipped (no subgroup supplied)\n"
)

_SHA256 = {
    ("survey", "--corpus", "64", "--json"):
        "f53cde71e4c642d7bd81f79da10246d7a04831966b4dda0e4d94d69595559b4b",
    ("scan", "--corpus", "64", "--interval", "7/16..1/2", "--json"):
        "db92aa3178f833ac7fb497b0b2439e0ccc72b9cc400714c8633aa67f335fe908",
}


def test_golden_outputs(capsys, monkeypatch):
    monkeypatch.delenv("COMMPROB_CACHE_DIR", raising=False)
    code, out, _ = run(capsys, "pr", "--family", "symmetric", "--params", "5",
                       "--bounds", "--json")
    assert code == 0 and out == json.dumps(_S5_BOUNDS, indent=2) + "\n"
    code, out, _ = run(capsys, "pr", "--family", "dihedral", "--params", "4",
                       "--bounds", "--csv")
    assert code == 0 and out == _D4_BOUNDS_CSV
    code, out, _ = run(capsys, "decompose", "--family", "symmetric", "--params", "4",
                       "--json")
    assert code == 0 and out == json.dumps(_S4_DECOMPOSITION, indent=2) + "\n"
    code, out, _ = run(capsys, "pr", "--family", "symmetric", "--params", "4", "--bounds")
    assert code == 0 and out == _S4_BOUNDS_TEXT
    for argv, digest in _SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv


# the twelve fixed groups of order 720-5040 that the structure benchmark
# runs through ``pr --bounds --json`` at every seed: six base-family
# members and six direct products
_STRUCTURE_FIXED = (
    [("symmetric", (7,))], [("alternating", (7,))], [("dihedral", (120,))],
    [("dicyclic", (250,))], [("alternating", (5,)), ("symmetric", (4,))],
    [("symmetric", (6,)), ("cyclic", (2,))], [("symmetric", (5,)), ("dicyclic", (4,))],
    [("dihedral", (100,))], [("alternating", (6,)), ("symmetric", (3,))],
    [("dicyclic", (300,))], [("symmetric", (5,)), ("symmetric", (4,))],
    [("alternating", (6,)), ("dicyclic", (2,))],
)


def test_structure_bounds_outputs_are_pinned(capsys):
    """rc and stdout of ``pr --bounds --json`` on the twelve fixed
    structure groups, as one sha256 taken while each product's center,
    derived subgroup and Fitting subgroup were still walked on the
    product itself."""
    h = hashlib.sha256()
    for parts in _STRUCTURE_FIXED:
        specs = [FamilySpec(f, p) for f, p in parts]
        spec = product_spec(*specs) if len(specs) == 2 else specs[0]
        argv = ["pr", "--bounds", "--json", "--family", spec.family,
                "--params", *map(str, spec.params)]
        code, out, _ = _call(capsys, argv)
        h.update(f"{argv!r}|{code}|{out}\n".encode())
    assert h.hexdigest() == (
        "9e42c1445454c4210daed597526dcc093196dca23bf7005a6f9e984500af4398"
    )


# every filter flag, alone and in pairs, including the falsy values that
# still constrain; scans under each accepted set of interval flags
_FILTER_FLAG_SETS = (
    [], ["--filter-max-order", "0"], ["--filter-max-order", "12"],
    ["--filter-min-order", "0"], ["--filter-min-order", "9", "--filter-max-order", "20"],
    ["--filter-p-group", "2"], ["--filter-p-group", "3", "--filter-odd"], ["--filter-odd"],
    ["--filter-abelian"], ["--filter-nonabelian"], ["--filter-max-center-index", "0"],
    ["--filter-max-center-index", "4", "--filter-nonabelian"],
    ["--filter-tag", ""], ["--filter-tag", "t1"],
)
_INTERVAL_FLAG_SETS = ([], ["--open"], ["--closed-left"], ["--closed-right"], ["--closed"])


def test_corpus64_survey_and_scan_outputs_are_pinned(capsys):
    """rc and stdout of ``survey --json``, ``survey --csv`` and a closed
    ``scan`` on corpus(64), whose 425 members hold 306 direct products,
    as one sha256 taken while each product's classes were still the orbits
    of its own conjugation maps."""
    h = hashlib.sha256()
    for argv in (["survey", "--corpus", "64", "--json"], ["survey", "--corpus", "64", "--csv"],
                 ["scan", "--corpus", "64", "--interval", "2/15..7/40", "--closed", "--json"]):
        code, out, _ = _call(capsys, argv)
        h.update(f"{argv!r}|{code}|{out}\n".encode())
    assert h.hexdigest() == (
        "6737063c599be26c5ad26931999bba2ce9263a0cdff871d28e26324511a2e357"
    )


def test_survey_and_scan_outputs_are_pinned(capsys):
    """rc and stdout of ``survey --json``, ``survey --csv`` and ``scan``
    on corpus(24) under each filter flag set, as one sha256 taken while
    each flag was still copied into its filter field by hand."""
    h = hashlib.sha256()
    for flags in _FILTER_FLAG_SETS:
        argvs = [["survey", "--corpus", "24", "--json", *flags],
                 ["survey", "--corpus", "24", "--csv", *flags]]
        argvs += [["scan", "--corpus", "24", "--interval", "1/2..1", "--json",
                   *flags, *ends] for ends in _INTERVAL_FLAG_SETS]
        for argv in argvs:
            code, out, _ = _call(capsys, argv)
            h.update(f"{argv!r}|{code}|{out}\n".encode())
    assert h.hexdigest() == (
        "723bf43d8ffac98bff7e280a35397480f6c9c3c190846007cc5fdd288c3a2406"
    )
