"""Spans around the calls into each hyperkit module, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper, at every module attribute (and module-level dict)
through which the package reaches it, so ``validate`` is wrapped as
``hyperkit.core.validate`` and also as ``hyperkit.constructions.validate``.
Each call records a span (name, start, end, parent span, job id); the
spans stay in memory until ``metrics`` turns them into per-layer
metrics.  A span's self time is its duration minus the durations of
its child spans (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
import types

LAYERS = ("core", "constructions", "reprs", "groupoid", "io", "quantize", "registry", "cli")

#: private functions that carry a layer's work and get their own span
PRIVATE = {("constructions", "_partition_hypergroup")}

#: functions whose peak allocation is measured on their largest input
ALLOC = {
    "core.validate": lambda table: table.n,
    "constructions.validate_fusion_ring": lambda ring: ring.n,
    "groupoid.validate_groupoid": lambda g: sum(
        t.size for plane in g.comp for row in plane for t in row
    ),
}

CLI_SUBCOMMANDS = ("validate", "build", "characters", "compose", "indices")


class Tracer:
    def __init__(self):
        self.spans: list = []        # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = None              # id of the running job
        self.kind = None             # kind of the running job, as in Job.kind
        self.counts = {
            "io.match_quadratic_hits": 0, "core.violations_reported": 0, "io.document_bytes": 0,
        }
        self.largest: dict = {}      # name -> (size, args, kwargs)
        self.cli_spans: list = []    # (span index, job kind) of cli.main calls
        self._patched: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hyperkit.{layer}")
            for attr, fn in vars(module).items():
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in PRIVATE:
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{attr.lstrip('_')}", fn)
        for name, module in list(sys.modules.items()):
            if name != "hyperkit" and not name.startswith("hyperkit."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._patched.append((value, key, item))
                            value[key] = wrappers[item]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        size_of = ALLOC.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.job])
            if name == "cli.main":
                self.cli_spans.append((index, self.kind))
            if name.startswith("io.parse_") and args and isinstance(args[0], (str, bytes)):
                self.counts["io.document_bytes"] += len(args[0])
            if size_of is not None:
                size = size_of(args[0])
                if size > self.largest.get(name, (-1,))[0]:
                    self.largest[name] = (size, fn, args, kwargs)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                spans[index][1] = start
                stack.pop()
            if name == "io.match_quadratic" and result is not None:
                self.counts["io.match_quadratic_hits"] += 1
            elif name == "core.validate":
                self.counts["core.violations_reported"] += len(result.violations)
            elif name == "io.canonical_text":
                self.counts["io.document_bytes"] += len(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def coverage(self, job_walls: dict) -> float:
        """Share of the jobs' wall time covered by top-level spans."""
        top: dict = {}
        for name, start, end, parent, job in self.spans:
            if parent is None and job in job_walls:
                top[job] = top.get(job, 0.0) + (end - start)
        total = sum(job_walls.values())
        return sum(top.values()) / total if total else 0.0

    def alloc_peaks(self) -> dict:
        """Peak traced allocation of one call on the largest input seen, in MB."""
        out = {}
        for name in ALLOC:
            if name not in self.largest:
                out[name] = 0.0
                continue
            _, fn, args, kwargs = self.largest[name]
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                fn(*args, **kwargs)
                out[name] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        return out

    def metrics(self, overhead_s: float) -> dict:
        own = self.self_times()
        calls: dict = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1

        def layer(prefix) -> float:
            return sum(v for k, v in own.items() if k.startswith(prefix))

        peaks = self.alloc_peaks()
        values = {
            "core.validate_s": (own.get("core.validate", 0.0), "s"),
            "core.validate_alloc_mb": (peaks["core.validate"], "MB"),
            "core.validate_calls": (calls.get("core.validate", 0), "count"),
            "core.violations_reported": (self.counts["core.violations_reported"], "count"),
            "constructions.validate_fusion_ring_s": (
                own.get("constructions.validate_fusion_ring", 0.0), "s"),
            "constructions.validate_fusion_ring_alloc_mb": (
                peaks["constructions.validate_fusion_ring"], "MB"),
            "constructions.pf_dimensions_s": (own.get("constructions.pf_dimensions", 0.0), "s"),
            "constructions.validate_cayley_s": (own.get("constructions.validate_cayley", 0.0), "s"),
            "constructions.partition_hypergroup_s": (
                own.get("constructions.partition_hypergroup", 0.0)
                + own.get("constructions.indicator_product_coefficients", 0.0), "s"),
            "reprs.characters_s": (own.get("reprs.characters", 0.0), "s"),
            "reprs.orthogonality_check_s": (own.get("reprs.orthogonality_check", 0.0), "s"),
            "reprs.dual_hypergroup_s": (own.get("reprs.dual_hypergroup", 0.0), "s"),
            "groupoid.double_coset_groupoid_s": (own.get("groupoid.double_coset_groupoid", 0.0), "s"),
            "groupoid.validate_groupoid_s": (own.get("groupoid.validate_groupoid", 0.0), "s"),
            "groupoid.validate_groupoid_alloc_mb": (peaks["groupoid.validate_groupoid"], "MB"),
            "groupoid.compose_s": (own.get("groupoid.compose", 0.0), "s"),
            "groupoid.compose_calls": (calls.get("groupoid.compose", 0), "count"),
            "io.match_quadratic_s": (own.get("io.match_quadratic", 0.0), "s"),
            "io.match_quadratic_calls": (calls.get("io.match_quadratic", 0), "count"),
            "io.match_quadratic_hits": (self.counts["io.match_quadratic_hits"], "count"),
            "io.parse_s": (layer("io.parse_"), "s"),
            "io.serialize_s": (layer("io.serialize_") + own.get("io.canonical_text", 0.0), "s"),
            "io.document_mb": (self.counts["io.document_bytes"] / 1e6, "MB"),
            "quantize.enumerate_admissible_s": (own.get("quantize.enumerate_admissible", 0.0), "s"),
            "registry.build_s": (layer("registry."), "s"),
            "cli.self_s": (layer("cli."), "s"),
        }
        for sub in CLI_SUBCOMMANDS:
            for mode in ("human", "json"):
                walls = [
                    (self.spans[i][2] - self.spans[i][1]) * 1000.0
                    for i, kind in self.cli_spans
                    if kind == f"{sub}.{mode}"
                ]
                values[f"cli.{sub}.{mode}_ms"] = (statistics.median(walls) if walls else 0.0, "ms")
        values["trace.overhead_s"] = (overhead_s, "s")
        return values

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: index, name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")
