"""CLI contract: output formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commprob.catalog
import commprob.cli
import commprob.egyptian
import commprob.probability
from commprob.cli import main

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
    1 GiB: the CLI prints an error line, and a survey fails that row only."""
    done = _run_limited("pr", "--family", "cyclic", "--params", "20000", cwd=tmp_path)
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
    assert done.stdout == "name,order,k,pr\nC3,3,3,1\nbig,,,FAILED\nC4,4,4,1\n"


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


def test_bad_interval_fails_before_surveying(capsys, monkeypatch):
    def no_survey(*args, **kwargs):
        raise AssertionError("surveyed before the interval was checked")

    monkeypatch.setattr(commprob.cli, "survey", no_survey)
    for argv in (
        ["scan", "--corpus", "128", "--interval", "1/2..1/0"],
        ["survey", "--corpus", "4", "--scan", "1/2..1/3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "error:" in err


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


def test_decompose_bad_subgroup_is_domain_error(capsys):
    # a non-normal order-2 subgroup of S3 cannot anchor a decomposition
    code, _, err = run(
        capsys, "decompose", "--family", "symmetric", "--params", "3",
        "--subgroup", "1",
    )
    assert code == 1 and "error:" in err


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
    for argv, digest in _SHA256.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, argv
