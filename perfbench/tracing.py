"""Spans around the library's public functions, and the per-layer metrics
computed from them.

Only the traced worker installs the wrappers (``Tracer.install``), after
``subdiff`` is imported, and takes them out again (``Tracer.restore``) when
its tasks are done.  Each wrapper replaces a module attribute at the name
its callers look up at call time, e.g. ``subdiff.timechange.clock_density_fast``
is the name ``_subordinate_slice`` calls, while ``subdiff.subordinators.
clock_density_fast`` is a separate binding of the same function.

This module imports nothing from ``subdiff`` at module level, so the parent
process can aggregate spans without importing the library.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# span name -> the "module:attribute" call sites it wraps.  Every span name
# yields <name>.calls, <name>.self_s and <name>.failed.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.main": ("cli:main",),
    "io.format": ("io:paths_csv", "io:grid_density_csv", "io:table_csv"),
    "io.write": ("io:atomic_write",),
    "fpke.solve": (
        "cli:solve_classical", "cli:solve_fractional",
        "cli:solve_distributed_order", "fpke:solve_classical",
        "fpke:solve_fractional", "fpke:solve_distributed_order",
    ),
    "fpke.residual_norm": ("fpke:residual_norm",),
    "fraccalc.caputo_l1": ("fpke:caputo_l1", "fraccalc:caputo_l1"),
    "subordinators.clock_density": (
        "timechange:clock_density_fast", "timechange:inverse_time_density",
        "subordinators:clock_density_fast",
        "subordinators:inverse_time_density",
    ),
    "fraccalc.laplace_inverse_batch": (
        "subordinators:laplace_inverse_batch",
        "fraccalc:laplace_inverse_batch",
    ),
    "timechange.subordination": (
        "timechange:subordinated_density",
        "timechange:subordinated_grid_density",
        "cli:subordinated_density", "cli:subordinated_grid_density",
    ),
    "timechange.laplace_subordination_residual": (
        "timechange:laplace_subordination_residual",
    ),
    "fraccalc.laplace_forward": (
        "timechange:laplace_forward", "fraccalc:laplace_forward",
    ),
    "timechange.sample_timechanged": (
        "timechange:sample_timechanged_paths",
        "timechange:sample_timechanged_marginal",
        "cli:sample_timechanged_paths",
    ),
    "subordinators.sample_inverse_ensemble": (
        "timechange:sample_inverse_ensemble",
        "subordinators:sample_inverse_ensemble",
    ),
    "gaussian.covariance_matrix": ("gaussian:covariance_matrix",),
    "gaussian.sample_gaussian_paths": (
        "gaussian:sample_gaussian_paths", "cli:sample_gaussian_paths",
    ),
    "gaussian.gaussian_transition_density": (
        "gaussian:gaussian_transition_density",
        "cli:gaussian_transition_density",
    ),
    "lambdaop.eval_grid": (
        "lambdaop:eval_G", "lambdaop:eval_G_grid", "lambdaop:eval_Lambda",
        "lambdaop:eval_Lambda_grid", "cli:eval_G", "cli:eval_Lambda",
    ),
    "lambdaop.fbm_fpke_residual": ("lambdaop:fbm_fpke_residual",),
}


def _n_times(args, kwargs, out):
    t = args[2] if len(args) > 2 else kwargs.get("t", kwargs.get("t_grid"))
    try:
        return len(t)
    except TypeError:
        return 1


def _distinct_entries(args, kwargs, out):
    n = len(out)
    return n * (n + 1) // 2


# span name -> (metric, unit, amount of work done by one outermost call,
# whether the metric is that work per second of the span's self time)
WORK = {
    "io.format": ("io.bytes", "B", lambda a, k, out: len(out), False),
    "fpke.solve": ("fpke.solve.cells_per_s", "1/s",
                   lambda a, k, out: out.values.size, True),
    "subordinators.sample_inverse_ensemble": (
        "subordinators.sample_inverse_ensemble.draws_per_s", "1/s",
        lambda a, k, out: out.size, True),
    "gaussian.covariance_matrix": (
        "gaussian.covariance_matrix.entries_per_s", "1/s",
        _distinct_entries, True),
    "lambdaop.eval_grid": ("lambdaop.eval_grid.t_per_s", "1/s", _n_times,
                           True),
}

# metrics that are not per span: name -> (unit, better)
BENCH_METRICS = {
    "bench.traced_wall_s": ("s", "lower"),
    "bench.untraced_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order."""
    specs = []
    for name in LAYERS:
        specs.append({"name": f"{name}.calls", "unit": "count",
                      "better": "lower"})
        specs.append({"name": f"{name}.self_s", "unit": "s",
                      "better": "lower"})
        specs.append({"name": f"{name}.failed", "unit": "count",
                      "better": "lower"})
        if name in WORK:
            metric, unit, _, is_rate = WORK[name]
            specs.append({"name": metric, "unit": unit,
                          "better": "higher" if is_rate else "lower"})
    for name, (unit, better) in BENCH_METRICS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index,
    task id, failed (0/1), work].  Spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task,
                   0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                rec[6] = work(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for name, sites in LAYERS.items():
            work = WORK[name][2] if name in WORK else None
            for site in sites:
                mod_name, attr = site.split(":")
                mod = importlib.import_module(f"subdiff.{mod_name}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, work))

    def restore(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[list], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Self time is a span's duration minus the time its direct children
    cover.  Calls, failures and work count only the outermost span of a
    chain of same-name spans (``solve_fractional`` calling the wrapped
    ``solve_distributed_order`` is one solve).  Self times plus
    ``bench.untraced_s`` add up to ``bench.traced_wall_s``.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    agg = {name: {"calls": 0, "self_s": 0.0, "failed": 0, "work": 0.0}
           for name in LAYERS}
    covered = 0.0
    for i, (name, start, end, parent, _task, failed, work) in enumerate(spans):
        a = agg[name]
        a["self_s"] += (end - start) - child_s[i]
        if parent < 0 or spans[parent][0] != name:
            a["calls"] += 1
            a["failed"] += failed
            a["work"] += work
        if parent < 0:
            covered += end - start
    out: dict[str, float] = {}
    for name, a in agg.items():
        out[f"{name}.calls"] = a["calls"]
        out[f"{name}.self_s"] = a["self_s"]
        out[f"{name}.failed"] = a["failed"]
        if name in WORK:
            metric, _, _, is_rate = WORK[name]
            if is_rate:
                out[metric] = a["work"] / a["self_s"] if a["self_s"] > 0 else 0.0
            else:
                out[metric] = a["work"]
    out["bench.traced_wall_s"] = traced_wall_s
    out["bench.untraced_s"] = traced_wall_s - covered
    out["bench.trace_overhead_s"] = traced_wall_s - untraced_wall_s
    return out
