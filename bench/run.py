"""commprob benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. The run generates the workload's inputs from the seed
(bench/gen.py), then runs repetitions of the workload's fixed operation
list until S seconds have passed and at least REPS[workload] have run;
the timings come from the first REPS[workload]. Each repetition is a fresh
interpreter (bench/worker.py) that issues one operation at a time: a
closed loop with one client. Every time is scaled to a reference host by
the reference kernel run next to it (bench/hostspeed.py), so that the
shared host's drift in speed cancels. Every answer of every repetition is
checked against a reference after the repetitions end (bench/check.py).

A summary goes to stdout, and the last line is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json. With --trace 1 repetitions
alternate untraced and traced (bench/tracing.py), and the metrics are the
per-layer ones, with the traced and untraced wall times side by side; the
spans of the last traced repetition are written to
.bench-out/trace-<workload>-<seed>.json.

Exit status: 0 when every answer checks, 1 when any does not, 2 when the
program cannot be run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
from tracing import TRACED  # noqa: E402

# Repetitions whose timings count, per workload: on survey-* about as many
# as fit in run_seconds at the seed commit; on structure and gaps two,
# which with times scaled to the reference host spread no more than three
# (bench/SPREAD.md). A run always makes this many, and takes each
# operation's fastest latency over exactly these, so that a faster program
# is not measured with more draws than a slower one.
REPS = {"survey-cold": 6, "survey-warm": 7, "structure": 2, "gaps": 2}
SETUP_PROBES = 7  # extra fresh interpreters that time only the set-up
HARD_LIMIT_S = 170  # the whole run ends well inside 180 s


class BenchError(Exception):
    """The benchmark cannot run the program at all."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, started: float, tiny: bool):
        self.work = work
        self.inputs = work / "inputs"
        self.started = started
        self.plan = gen.generate(workload, seed, str(self.inputs), tiny=tiny)
        self.count = 0

    def child(self, ops, *, trace: bool = False) -> dict:
        """Run one repetition in a fresh interpreter and return its report."""
        self.count += 1
        ops_path = self.work / f"ops-{self.count}.json"
        res_path = self.work / f"result-{self.count}.json"
        ops_path.write_text(json.dumps(ops), encoding="utf-8")
        timeout = HARD_LIMIT_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(BENCH / "worker.py"), str(ops_path), str(res_path)]
        if trace:
            cmd.append("--trace")
        try:
            proc = subprocess.run(cmd, cwd=self.inputs, env=_child_env(), capture_output=True,
                                  text=True, timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a repetition ran past the {HARD_LIMIT_S} s limit") from exc
        if proc.returncode != 0 or not res_path.exists():
            raise BenchError(f"repetition failed to run: {proc.stderr.strip()[-400:]}")
        report = json.loads(res_path.read_text(encoding="utf-8"))
        res_path.unlink()
        ops_path.unlink()
        where = Path(report["commprob_file"]).resolve()
        if ROOT / "src" not in where.parents:
            raise BenchError(f"commprob was imported from {where}, outside this checkout")
        return report

    def ops_with_caches(self, tag: str):
        """The plan's operations with each cache placeholder made a directory."""
        out = []
        for j, op in enumerate(self.plan["ops"]):
            if "argv" in op:
                op = dict(op, argv=[f"caches/{tag}/{j}" if a == gen.CACHE else a
                                    for a in op["argv"]])
            out.append(op)
        return out

    def cache_usage(self, tag: str) -> tuple[int, int]:
        """(bytes, files) under one repetition's cache directories."""
        total = files = 0
        for dirpath, _, names in os.walk(self.inputs / "caches" / tag):
            for name in names:
                total += os.path.getsize(os.path.join(dirpath, name))
                files += 1
        return total, files


def op_times(rep, scaled: bool = True) -> list[float]:
    """One repetition's operation latencies in seconds; ``scaled`` turns each
    into reference-host time with the kernel blocks either side of it."""
    lats = [op["latency_s"] for op in rep["ops"]]
    if not scaled:
        return lats
    k = rep["kernel"]
    return [t * hostspeed.scale(k[j] + k[j + 1]) for j, t in enumerate(lats)]


def per_op_best(reports, scaled: bool = True) -> list[float]:
    """Each operation's fastest latency in seconds over the repetitions.

    Scaling to reference-host time removes the host's drift, which is
    shared by every process and spans whole runs. What is left is noise
    that only ever adds time, so the best of the repetitions is the
    operation's own cost with the slowed repetitions dropped."""
    times = [op_times(rep, scaled) for rep in reports]
    return [min(col) for col in zip(*times)]


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of the sorted
    samples weighted by a beta density centred on the q-th rank. It rests
    on the several samples near that rank, not only on the two either side
    of it, so one operation slowed by noise moves it little."""
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    steps = 32  # midpoint rule within each sample's share of [0, 1]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t)
            for t in ((k + 0.5) / (steps * n) for k in range(steps * n))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_level(n: int) -> int:
    """The highest percentile up to 90 with at least ten of n samples
    beyond it (50 when even the median has fewer)."""
    if n <= 10:
        return 50
    return max(50, min(90, math.floor(100 * (n - 10) / n)))


def _self_times(spans) -> dict[str, list[float]]:
    """Per span name: [calls, self seconds]; self excludes the union of the
    intervals its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list[float]] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        slot = out.setdefault(name, [0, 0.0])
        slot[0] += 1
        slot[1] += max(0.0, end - start - covered)
    return out


def per_layer(traced, cache_io) -> tuple[dict, list[str]]:
    """Per-layer metrics, each the median over the traced repetitions."""
    notes: list[str] = []
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}

    def put(name, value, unit):
        samples.setdefault(name, []).append(value)
        units[name] = unit

    for rep, (written, files) in zip(traced, cache_io):
        data = rep["trace"]
        times = _self_times(data["spans"])
        for mod, names in TRACED.items():
            for fn in names:
                calls, self_s = times.get(f"{mod}.{fn}", (0, 0.0))
                put(f"{mod}.{fn}.calls", calls, "count")
                put(f"{mod}.{fn}.self_s", self_s, "s")
        counters = data["counters"]
        put("groups.table_bytes_computed", counters["groups.table_bytes_computed"], "B")
        put("groups.elements_built", counters["groups.elements_built"], "count")
        memo = rep["memo"]
        lookups = memo.get("hits", 0) + memo.get("misses", 0)
        put("egyptian.memo.hits", memo.get("hits", 0), "count")
        put("egyptian.memo.misses", memo.get("misses", 0), "count")
        put("egyptian.memo.evictions", memo.get("evictions", 0), "count")
        put("egyptian.memo.hit_ratio", memo.get("hits", 0) / lookups if lookups else 0.0, "ratio")
        lookups = counters["catalog.cache.lookups"]
        put("catalog.cache.hit_ratio",
            counters["catalog.cache.hits"] / lookups if lookups else 0.0, "ratio")
        put("catalog.cache.bytes_written", written, "B")
        put("catalog.cache.entries_written", files, "count")
    last = traced[-1]
    for name, why in sorted(last["trace"]["absent"].items()):
        notes.append(f"absent: {name}.* ({why}); reported as 0")
    if not last["memo"]:
        notes.append("absent: egyptian.memo.* (the egyptian module has no lru_cache); "
                     "reported as 0")
    if not last["trace"]["counters"]["catalog.cache.lookups"]:
        notes.append("catalog.cache.hit_ratio: no survey ran, reported as 0")
    notes.append("groups.table_bytes_computed is computed as 4 * order^2 per distinct table "
                 "returned by a traced function, not measured")
    metrics = {name: {"value": statistics.median(vals), "unit": units[name]}
               for name, vals in samples.items()}
    return metrics, notes


def _machine(report) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"machine: nproc {os.cpu_count()}, CPU {cpu}, Python {platform.python_version()}, "
            f"numpy {report['numpy']}, survey/scan --jobs default {report['jobs_default']}")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> tuple[dict, int]:
    """Measure one workload; ``tiny`` shrinks the inputs for smoke tests."""
    started = time.monotonic()
    runner = Runner(workload, seed, work, started, tiny)
    plan = runner.plan
    ops, refs, items = plan["ops"], plan["refs"], plan["items"]

    runner.child([])  # compile and warm the import once

    pair_pr = None
    if any(r["check"] == "survey" for r in refs):
        sys.path.insert(0, str(ROOT / "src"))
        from commprob.catalog import ingest

        entries = [e for op in ops if op["argv"][0] == "survey"
                   for e in ingest(runner.inputs / op["argv"][2])]
        pair_pr = check.survey_pair_counts(entries)

    checked: list[dict] = []  # every repetition's report, the warm-cache fill included
    baseline = None
    if workload == "survey-warm":
        baseline = runner.child(runner.ops_with_caches("warm"))
        checked.append(baseline)

    reps = REPS[workload]
    measured, traced, cache_io = [], [], []
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        is_traced = trace and i % 2 == 1
        tag = "warm" if workload == "survey-warm" else f"r{i}"
        before = runner.cache_usage(tag)
        report = runner.child(runner.ops_with_caches(tag), trace=is_traced)
        after = runner.cache_usage(tag)
        if workload == "survey-cold":
            shutil.rmtree(runner.inputs / "caches" / tag, ignore_errors=True)
        checked.append(report)
        if is_traced:
            traced.append(report)
            cache_io.append((after[0] - before[0], after[1] - before[1]))
        else:
            measured.append(report)
        i += 1
        done = len(measured) >= reps and time.monotonic() >= deadline
        over = time.monotonic() - started > HARD_LIMIT_S / 2
        if (done or over) and (not trace or i % 2 == 0):
            break
    used = measured[:reps]
    setups = [r["setup_s"] * hostspeed.scale(r["setup_kernel"]) for r in used]
    for _ in range(SETUP_PROBES):
        probe = runner.child([])
        setups.append(probe["setup_s"] * hostspeed.scale(probe["setup_kernel"]))

    # reference checks, outside every timed region
    attempted = failed = 0
    reasons: list[str] = []
    first = baseline or measured[0]
    for report in checked:
        for j, (op, ref, res) in enumerate(zip(ops, refs, report["ops"])):
            attempted += 1
            why = check.check_op(op, ref, res, pair_pr)
            if why is None and res["stdout"] != first["ops"][j]["stdout"]:
                why = "output differs from the first repetition"
            if why is not None:
                failed += 1
                if len(reasons) < 10:
                    reasons.append(f"op {j} {op.get('argv') or op.get('call')}: {why}")

    notes = plan["notes"]
    lines = [
        f"workload {workload} seed {seed}: {len(measured) + len(traced)} repetitions, "
        f"{len(ops)} operations each, closed loop with one client, fresh interpreter each",
        f"why: {notes['why']}",
        f"operations: {notes['ops']}",
        f"left out: {notes['left_out']}",
        _machine(measured[0]),
    ]
    typical = per_op_best(used)
    wall = sum(typical)
    lats = [t * 1000 for t in typical]
    p_hi = latency_level(len(lats))
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": sum(items) / wall, "unit": "1/s"},
        "op_p50_ms": {"value": percentile(lats, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile(lats, p_hi), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in used),
                        "unit": "MB"},
    }
    kernels = [t for r in used for blk in r["kernel"] for t in blk]
    lines.append(f"host speed: reference kernel median {statistics.median(kernels) * 1000:.3f} ms "
                 f"against {hostspeed.REF_S * 1000:.3f} ms on the reference host; every time "
                 "below is scaled to the reference host (bench/hostspeed.py)")
    lines.append("unscaled wall time of each timed repetition: "
                 + " ".join(f"{sum(op_times(r, False)):.3f}" for r in used)
                 + f" s; unscaled wall_s {sum(per_op_best(used, False)):.4f} s")
    if len(used) < reps:
        lines.append(f"only {len(used)} of {reps} repetitions fit in {HARD_LIMIT_S // 2} s")
    lines.append(f"setup_s: median of {len(setups)} fresh interpreters, each the main thread's "
                 "CPU time scaled by the kernel block run right after its set-up")
    lines.append(f"wall_s: sum over the {len(ops)} operations of each one's fastest latency "
                 f"in the first {len(used)} repetitions")
    lines.append(f"op_p50_ms: p50 (Harrell-Davis) of {len(lats)} per-operation "
                 "fastest latencies")
    lines.append(f"op_p90_ms: p{p_hi} (Harrell-Davis) of {len(lats)} per-operation "
                 "fastest latencies"
                 + ("" if p_hi == 90 else " (fewer than 100 samples, so a lower percentile)"))
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if trace:
        layer, layer_notes = per_layer(traced, cache_io)
        untraced_wall = metrics["wall_s"]["value"]
        traced_wall = sum(per_op_best(traced[:reps]))
        layer["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        layer["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
        layer["trace.overhead_frac"] = {"value": traced_wall / untraced_wall - 1, "unit": "ratio"}
        lines += layer_notes
        lines.append(f"tracing overhead: traced wall_s {traced_wall:.4f} s vs untraced "
                     f"{untraced_wall:.4f} s")
        out_dir = ROOT / ".bench-out"
        out_dir.mkdir(exist_ok=True)
        dump = out_dir / f"trace-{workload}-{seed}.json"
        dump.write_text(json.dumps({"ops": ops, **traced[-1]["trace"]}), encoding="utf-8")
        lines.append(f"spans of the last traced repetition: {dump.relative_to(ROOT)}")
        metrics = layer
    lines += [f"CHECK FAILED: {r}" for r in reasons]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"lines": lines, "result": result}, (0 if failed == 0 else 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "commprob" / "__init__.py").is_file():
        print(f"error: no commprob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        out, code = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
