"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workload NAME [--json OUT]

Runs bench/run.py once for each of the seeds 1-10, one run at a time, for
run_seconds from BENCHMARK.json, and prints for each end-to-end metric the
median and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    durations = []
    for seed in SEEDS:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        durations.append(time.monotonic() - start)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({durations[-1]:.1f} s): {shown}", flush=True)
    print(f"runs took {statistics.mean(durations):.1f} s on average")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"median": med, "iqr_frac": (q[2] - q[0]) / med, "values": vals}
        print(f"{name}: median {med:.4g}, spread {(q[2] - q[0]) / med:.3f} "
              f"(bound {bounds.get(name)})")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "seeds": list(SEEDS),
                                               "seconds": spec["run_seconds"],
                                               "run_durations_s": durations,
                                               "metrics": summary}, indent=1),
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
