"""Span tracing around commprob's public layer functions.

``install()`` wraps every function in ``TRACED`` at each module attribute
callers reach it through, including names bound by ``from .x import y``.
Each call records a span (name, start, end, parent, operation id) in
memory; ``Tracer.dump()`` returns them at the end of the run. Spans are
kept per thread, and a span opened on a worker thread with no open span
of its own takes the main thread's innermost open span as its parent, so
the survey thread pool's work nests under ``catalog.survey``.

Counters that are not spans (table bytes, cache hit ratio) are taken at
the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref

TRACED = {
    "groups": [
        "build_from_permutations", "build_from_cayley", "conjugacy_classes", "center",
        "centralizer", "derived_subgroup", "normal_subgroups", "all_subgroups",
        "fitting_subgroup", "quotient", "is_normal", "subgroup_table", "direct_product",
    ],
    "families": ["make", "corpus"],
    "probability": [
        "check_bounds", "abelian_decomposition", "pr_by_classes", "pr_direct",
        "verify_special_forms", "pr_central_pgroup_formula",
    ],
    "egyptian": ["max_below", "candidate_gap", "solve_exact", "descend", "is_limit_point"],
    "catalog": ["cache_store", "cache_load", "cache_key", "ingest", "survey", "scan_interval"],
    "cli": ["main"],
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1
        self.absent: dict[str, str] = {}
        self.counters = {
            "groups.table_bytes_computed": 0,
            "groups.elements_built": 0,
            "catalog.cache.hits": 0,
            "catalog.cache.lookups": 0,
        }
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._tables = weakref.WeakSet()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._count(name, result)
            return result

        return traced

    def _count(self, name: str, result) -> None:
        table = result[0] if isinstance(result, tuple) and result else result
        if type(table).__name__ == "GroupTable":
            with self._lock:
                if table not in self._tables:
                    self._tables.add(table)
                    self.counters["groups.table_bytes_computed"] += 4 * table.order**2
                    self.counters["groups.elements_built"] += table.order
        if name == "catalog.survey" and hasattr(result, "cache_hits"):
            self.counters["catalog.cache.hits"] += result.cache_hits
            self.counters["catalog.cache.lookups"] += result.cache_hits + result.cache_misses

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "absent": self.absent}


def install() -> Tracer:
    """Wrap every traced function wherever the commprob modules bind it."""
    tracer = Tracer()
    modules = {m: importlib.import_module(f"commprob.{m}") for m in TRACED}
    wrappers = {}
    for mod_name, names in TRACED.items():
        mod = modules[mod_name]
        for fn_name in names:
            fn = getattr(mod, fn_name, None)
            if fn is None:
                tracer.absent[f"{mod_name}.{fn_name}"] = "no such function in the program"
                continue
            wrappers[id(fn)] = (fn, tracer.wrap(f"{mod_name}.{fn_name}", fn))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "commprob" or name.startswith("commprob.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer


def memo_stats() -> dict:
    """Counters of the egyptian layer's memoized recursion, summed over every
    lru_cache-wrapped function the module defines; empty when it has none."""
    mod = sys.modules.get("commprob.egyptian")
    infos = [v.cache_info() for v in vars(mod).values()
             if callable(getattr(v, "cache_info", None))] if mod else []
    if not infos:
        return {}
    hits = sum(i.hits for i in infos)
    misses = sum(i.misses for i in infos)
    size = sum(i.currsize for i in infos)
    return {"hits": hits, "misses": misses, "evictions": max(0, misses - size)}
