"""Host speed, measured with a fixed reference kernel.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, for every process alike. The worker runs this
kernel between operations, and the runner rescales every measured time by
``REF_S`` over the kernel's time next to it: the result is the time the
operation would have taken on a host where the kernel takes ``REF_S``.
Drift then cancels, while a change to the program moves its times as
before, since the kernel does not call the program.

The kernel mixes the program's kinds of work: a pure-Python integer
loop, building an argparse parser and parsing and dumping with it (the
CLI's share of every operation) and numpy table indexing (group tables).
Of the kernels tried, this mix tracked the drift of cheap CLI queries,
gap searches and group-structure queries best (bench/SPREAD.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

import numpy as np

REF_S = 0.003  # nominal kernel time: times are reported as if the kernel took this long
PASSES = 2  # kernel passes in the smallest sample block
PER_PASS_S = 0.1  # one more pass for each such share of the operation before
MAX_PASSES = 12

_TABLE = (np.arange(128 * 128, dtype=np.int32) * 7919 % 128).reshape(128, 128)


def kernel(clock=time.perf_counter) -> float:
    """Seconds one pass of the reference kernel takes on ``clock``."""
    # With the collector on, the kernel's allocations would trigger
    # collections that walk the program's heap, and the kernel would time
    # the program's memory instead of the host.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        s = 0
        for i in range(12000):
            s += (i * i) % 7
        for _ in range(3):
            parser = argparse.ArgumentParser(prog="kernel")
            sub = parser.add_subparsers(dest="cmd")
            for name in ("a", "b", "c", "d"):
                cmd = sub.add_parser(name)
                cmd.add_argument("--x", type=int)
                cmd.add_argument("--y")
            json.dumps(vars(parser.parse_args(["b", "--x", "3", "--y", "z"])))
        t = _TABLE
        for _ in range(4):
            t = _TABLE[t, _TABLE]
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def block(after_s: float = 0.0, clock=time.perf_counter) -> list[float]:
    """A sample block of kernel times, taken after an operation of ``after_s``
    seconds: longer operations get more passes, so that the host speed
    next to them rests on more samples, for at most a few percent of their
    time. ``clock`` is the clock the times next to the block were taken on."""
    passes = min(MAX_PASSES, PASSES + int(after_s / PER_PASS_S))
    return [kernel(clock) for _ in range(passes)]


def scale(samples) -> float:
    """Factor that turns a time measured next to ``samples`` into reference time."""
    return REF_S / statistics.median(samples)
