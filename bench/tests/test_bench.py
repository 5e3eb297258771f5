"""Tests of the benchmark itself: generator determinism, a tiny smoke run of
every workload with the reference checks on, and failure detection.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    return not (cmp.left_only or cmp.right_only) and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in cmp.common_files
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = gen.generate(workload, 7, str(tmp_path / "a"))
    second = gen.generate(workload, 7, str(tmp_path / "b"))
    other = gen.generate(workload, 8, str(tmp_path / "c"))
    assert first == second
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert other["ops"] != first["ops"]
    if any((tmp_path / "a").iterdir()):  # gaps takes all its inputs from argv
        assert not _same_tree(tmp_path / "a", tmp_path / "c")


def test_large_workloads_have_enough_operations(tmp_path):
    for workload in ("structure", "gaps"):
        assert len(gen.generate(workload, 1, str(tmp_path / workload))["ops"]) >= 100


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_checks_every_answer(workload, trace, tmp_path):
    out, code = run.run(workload, 3, 0, trace, tmp_path, tiny=True)
    result = out["result"]
    assert code == 0, out["lines"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if trace and workload == "gaps":
        groups = [v["value"] for k, v in result["metrics"].items()
                  if k.startswith("groups.") and k.endswith(".self_s")]
        assert groups and not any(groups)


def test_times_are_scaled_by_the_kernel_next_to_them():
    ref = hostspeed.REF_S
    fast = {"ops": [{"latency_s": 1.0}, {"latency_s": 2.0}],
            "kernel": [[ref, ref], [2 * ref, 2 * ref], [2 * ref]]}
    # a host twice as slow throughout: the same scaled times
    slow = {"ops": [{"latency_s": 2.0}, {"latency_s": 4.0}],
            "kernel": [[2 * ref, 2 * ref], [4 * ref, 4 * ref], [4 * ref]]}
    assert run.op_times(fast, scaled=False) == [1.0, 2.0]
    assert run.op_times(fast) == pytest.approx([1.0 / 1.5, 1.0])
    assert run.op_times(slow) == pytest.approx(run.op_times(fast))
    faster = {"ops": [{"latency_s": 0.5}, {"latency_s": 2.0}], "kernel": fast["kernel"]}
    assert run.per_op_best([fast, faster]) == pytest.approx([0.5 / 1.5, 1.0])


def test_enumerations_match_exhaustive_search():
    from fractions import Fraction
    from itertools import combinations_with_replacement

    sums = {m: {} for m in (2, 3)}
    for m in (2, 3):
        for xs in combinations_with_replacement(range(1, 100), m):
            sums[m].setdefault(sum(Fraction(1, x) for x in xs), set()).add(xs)
    for l in (Fraction(1, 3), Fraction(5, 7), Fraction(1), Fraction(7, 4)):
        assert check.max_sum_below(2, l) == max(v for v in sums[2] if v < l)
    # the largest 3-term sums below these have denominators under 100,
    # e.g. 1/3 + 1/7 + 1/43 below 1/2
    for l in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        assert check.max_sum_below(3, l) == max(v for v in sums[3] if v < l)
    for q in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        assert check.all_unit_sums(3, q) == sums[3][q]


def test_checks_reject_self_consistent_but_wrong_answers():
    from fractions import Fraction

    def result(data):
        return {"rc": 0, "error": "", "stdout": json.dumps(data)}

    # a 3-term sum below 3/4 with a matching witness, but not the largest
    low = Fraction(1, 2) + Fraction(1, 5) + Fraction(1, 22)
    gap = {"argv": ["egyptian", "gap", "--terms", "3", "--below", "3/4", "--json"]}
    cert = {"n": 3, "l": "3/4", "max_below": str(low), "epsilon": str(Fraction(3, 4) - low),
            "witness": [22, 5, 2]}
    assert check.check_op(gap, {"check": "gap"}, result(cert)) is not None
    cert.update(max_below="157/210", epsilon="1/420", witness=[21, 5, 2])
    assert check.check_op(gap, {"check": "gap"}, result(cert)) is None
    # one right solution of a solvable target is not the whole set
    solve = {"argv": ["egyptian", "solve", "--terms", "3", "--target", "1/2", "--json"]}
    ref = {"check": "solve", "target": "1/2", "terms": 3}
    assert check.check_op(solve, ref, result([[6, 6, 6]])) is not None


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run_copy(dest: Path):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gaps", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=dest, capture_output=True, text=True, timeout=180,
    )


def test_wrong_answer_makes_failed_frac_nonzero(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    egyptian = tmp_path / "src" / "commprob" / "egyptian.py"
    text = egyptian.read_text()
    # a 1-term maximum one step too small: every certificate stays
    # self-consistent, but 2-term gaps are no longer the largest value below
    wrong = text.replace("x = _floor_inv(l) + 1\n        return",
                         "x = _floor_inv(l) + 2\n        return")
    assert wrong != text
    egyptian.write_text(wrong)
    proc = _run_copy(tmp_path)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] > 0
    assert "failed_frac = 0 " not in proc.stdout


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run_copy(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
