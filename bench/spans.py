"""
Per-layer tracing from outside the program.

`Tracer.install()` replaces every binding of every public braidforge function
— in its own module, in the modules that import it by name (`from .garside
import ...`), in the package namespace and in `checks.CHECKS` — with one
wrapper per function that records a span (name, start, end, parent span,
query id).  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict
from pathlib import Path

MODULES = ("words", "garside", "quasipositive", "cabling", "cover", "checks", "cli")

# The per-layer metrics every traced run reports, with their units, as
# BENCHMARK.json lists them.
LAYER_METRICS = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
]


class Tracer:
    def __init__(self):
        # span i: (name, start, end, parent index or -1, query id)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.query = "setup"
        self.nodes = 0  # sum of ConjugacyResult.nodes and exhausted budgets
        self.cold: dict[str, float] = defaultdict(float)  # lru-cache misses
        self.names: set[str] = set()  # every span name a wrapper records

    def wrap(self, name: str, fn):
        tracer = self
        self.names.add(name)
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            misses = fn.cache_info().misses if cached else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if name == "garside.is_conjugate" and hasattr(err, "nodes"):
                    tracer.nodes += err.nodes
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.query)
                if cached and fn.cache_info().misses > misses:
                    tracer.cold[name] += end - start
            if name == "garside.is_conjugate":
                tracer.nodes += result.nodes
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every binding of each public function of the package."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}

        def wrapper_for(value):
            if id(value) not in wrappers:
                home = value.__module__.rsplit(".", 1)[-1]
                wrappers[id(value)] = self.wrap(f"{home}.{value.__name__}", value)
            return wrappers[id(value)]

        def public_function(name, value) -> bool:
            return (
                not name.startswith("_")
                and isinstance(value, (types.FunctionType, functools._lru_cache_wrapper))
                and getattr(value, "__module__", "").startswith("braidforge.")
            )

        for namespace in [package, *modules.values()]:
            for name, value in list(vars(namespace).items()):
                if public_function(name, value):
                    setattr(namespace, name, wrapper_for(value))
        checks = modules["checks"]
        checks.CHECKS[:] = [
            (name, desc, self.wrap(f"checks.{name}", fn)) for name, desc, fn in checks.CHECKS
        ]
        # a renamed function or check must fail the run, not read 0
        missing = [m for m, _ in LAYER_METRICS
                   if m.split(".")[0] not in ("braidforge", "trace") and m.rpartition(".")[0] not in self.names]
        if missing:
            raise RuntimeError(f"per-layer metrics name no braidforge function or check: {missing}")
        unlisted = [f"checks.{name}.s" for name, _, _ in checks.CHECKS
                    if (f"checks.{name}.s", "s") not in LAYER_METRICS]
        if unlisted:
            raise RuntimeError(f"checks missing from the per-layer metrics: {unlisted}")

    def layer_metrics(self, import_s: float, ops_per_s: float) -> dict:
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        first: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start - child[idx]
            first.setdefault(name, end - start)
        # checks are reported by total time, not self time
        check_s = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            if name.startswith("checks."):
                check_s[name] += end - start
        out = {}
        for metric, unit in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if metric == "braidforge.import_s":
                value = import_s
            elif metric == "trace.ops_per_s":
                value = ops_per_s
            elif metric == "garside.is_conjugate.nodes":
                value = self.nodes
            elif stat == "calls":
                value = calls[layer]
            elif stat == "self_s":
                value = total[layer]
            elif stat == "first_call_s":
                value = first.get(layer, 0.0)
            elif stat == "cold_s":
                value = self.cold[layer]
            else:  # checks.<name>.s
                value = check_s[layer]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tquery\n")
            for idx, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")
