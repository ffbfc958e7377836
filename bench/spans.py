"""Spans around calls into sphlab's public functions, for the traced run.

The tracer replaces each target function, in every loaded ``sphlab`` module
that binds it, with a wrapper that records a span (name, start, end, parent)
in memory.  ``cli``, ``gauss``, ``fields`` and ``ncmax`` import functions by
name, so patching only the defining module would miss their calls.  Counts
come from return values and from ``lru_cache.cache_info()``.  Nothing here
imports sphlab; the parent process imports this module only for ``combine``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _points(args, kwargs, result):
    return {"points": len(result)}


def _sites(args, kwargs, result):
    return {"sites": args[0].values.size}


def _majorant(args, kwargs, result):
    stack = args[0]
    return {
        "fiber": stack.fiber,
        "sites": stack.sites,
        "iterations": result.iterations,
        "unconverged": 0 if result.converged else 1,
    }


# (layer, public function, hook giving counters from the call and its result)
TARGETS = (
    ("lattice", "sphere_counts", None),
    ("lattice", "enumerate_sphere", _points),
    ("lattice", "density_ratio", None),
    ("lattice", "surface_measure", None),
    ("symbols", "sphere_multiplier_batch", _points),
    ("symbols", "eval_continuous_sphere_symbol", None),
    ("symbols", "residual_survey", None),
    ("symbols", "fit_small_scale_constant", None),
    ("gauss", "gauss_sum", None),
    ("gauss", "verify_gauss_identities", None),
    ("gauss", "eval_major_arc_term", None),
    ("gauss", "eval_minor_term", None),
    ("gauss", "decomposition_error", None),
    ("fields", "spherical_average", _sites),
    ("fields", "dyadic_maximal", None),
    ("ncmax", "order_interval_majorant", _majorant),
    ("ncmax", "empirical_maximal_ratio", None),
    ("ncmax", "random_hermitian_stack", None),
    ("cli", "main", None),
)

LAYERS = ("lattice", "symbols", "gauss", "fields", "ncmax", "cli")
CACHED = ("lattice.sphere_counts", "symbols.eval_continuous_sphere_symbol")


class Tracer:
    """Span recorder for one job process; spans stay in memory until ``report``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self.open: list[int] = []
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn, hook):
        spans, open_spans, clock = self.spans, self.open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "sphlab" or key.startswith("sphlab.")]
        for layer, func, hook in TARGETS:
            name = f"{layer}.{func}"
            original = getattr(sys.modules[f"sphlab.{layer}"], func)
            self.originals[name] = original
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def report(self, job_s: float, csv_bytes: int) -> dict[str, float]:
        """Additive per-job counters and self times, keyed by metric name."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        top_level = 0.0
        for index, (name, start, end, parent, counters) in enumerate(spans):
            self_s = (end - start) - child_time[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
            if parent < 0:
                top_level += end - start
            elif name == "lattice.enumerate_sphere" and spans[parent][0] == "fields.spherical_average":
                shifts = counters["points"]
                out["fields.spherical_average.shifts"] += shifts
                # one complex128 read and one written per site and shift, as computed
                out["fields.spherical_average.bytes_computed"] += 16 * spans[parent][4]["sites"] * shifts * 2
            for key, value in (counters or {}).items():
                if key == "fiber":
                    out[f"{name}.n{value}.self_s"] += self_s
                else:
                    out[f"{name}.{key}"] += value
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[f"{name}.cache_hits"] += info.hits
            out[f"{name}.cache_misses"] += info.misses
            out[f"{name}.cache_entries"] += info.currsize
        out["trace.spans"] = len(spans)
        out["trace.wall_s"] = job_s
        out["trace.unattributed_s"] = job_s - top_level
        out["cli.csv_bytes"] = csv_bytes
        return dict(out)


def combine(reports: list[dict[str, float]]) -> dict[str, float]:
    """Sum the job reports of one pass; cache sizes take the largest process."""
    total: dict[str, float] = defaultdict(float)
    for report in reports:
        for key, value in report.items():
            if key.endswith(".cache_entries"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    for name in CACHED:
        lookups = total[f"{name}.cache_hits"] + total[f"{name}.cache_misses"]
        total[f"{name}.cache_hit_ratio"] = total[f"{name}.cache_hits"] / lookups if lookups else 0.0
    return dict(total)
