"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 worker.py OPS_JSON RESULT_JSON [--trace]

Run with the workload's input directory as the working directory and
commprob importable. Times the set-up (importing commprob and building
the CLI parser, in main-thread CPU time), then runs the operations one
after another, each through ``commprob.cli.main(argv)`` with stdout
captured or through a public library function, with a block of
reference-kernel passes (bench/hostspeed.py) after the set-up, before
the first operation and after each. Writes latencies, kernel times,
outputs, peak RSS, memo counters and, with --trace, the spans to
RESULT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

LIBRARY = {
    "all_subgroups": "groups",
    "pr_central_pgroup_formula": "probability",
    "verify_special_forms": "probability",
}


def _call_library(commprob, op):
    spec = commprob.families.FamilySpec(op["family"], tuple(op["params"]))
    table, _ = commprob.families.make(spec)
    fn = getattr(getattr(commprob, LIBRARY[op["call"]]), op["call"])
    return fn(table)


def _summarize(call: str, value):
    """Plain-data view of a library result, made after the clock stops."""
    if call == "all_subgroups":
        return {"count": len(value), "orders": [s.order for s in value]}
    if call == "pr_central_pgroup_formula":
        return {"pr": str(value[0])}
    return [
        {"pattern": m.pattern, "match": m.match, "actual": str(m.actual),
         "predicted": None if m.predicted is None else str(m.predicted)}
        for m in value
    ]


def run_op(commprob, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    value, error, rc = None, "", 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in op:
                rc = commprob.cli.main(op["argv"])
            else:
                value = _call_library(commprob, op)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failed operation is counted, never fatal
        rc, error = 1, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    result = {"latency_s": latency, "rc": rc, "stdout": out.getvalue(),
              "stderr": err.getvalue()[-2000:], "error": error}
    if "call" in op and not error:
        result["value"] = _summarize(op["call"], value)
    return result


def main() -> int:
    ops_path, out_path = sys.argv[1], sys.argv[2]
    trace = "--trace" in sys.argv[3:]

    # Set-up is timed as the main thread's CPU time. Importing numpy starts
    # BLAS threads that spin for a while; when the host's other core is
    # busy they take the main thread's core, and the wall time then rose by
    # half depending on load elsewhere on the host (bench/SPREAD.md).
    start = time.thread_time()
    import commprob
    import commprob.cli

    parser = commprob.cli.build_parser()
    setup_s = time.thread_time() - start

    import numpy
    import hostspeed
    import tracing

    hostspeed.kernel()  # the first pass in a fresh interpreter runs cold
    setup_kernel = hostspeed.block(clock=time.thread_time)

    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    tracer = tracing.install() if trace else None
    results, kernel = [], [hostspeed.block()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(commprob, op))
        kernel.append(hostspeed.block(results[-1]["latency_s"]))

    report = {
        "setup_s": setup_s,
        "setup_kernel": setup_kernel,
        "kernel": kernel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
        "memo": tracing.memo_stats(),
        "commprob_file": commprob.__file__,
        "numpy": numpy.__version__,
        "jobs_default": parser.parse_args(["survey", "--corpus", "1"]).jobs,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
