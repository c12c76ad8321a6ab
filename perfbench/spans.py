"""Spans around the public functions of each enerscale layer, recorded from outside.

``Tracer.install`` replaces each target function (and each method on its
class) with a wrapper that appends ``(name, start_ns, end_ns, parent, op)``
to an in-memory list; every module namespace and module-level dict that held
the original is rebound, so calls through ``from .x import f`` names are
traced too. Span names are ``<module>.<function>``: the stage names
(``load_snapshot``, ``build_wealth``, ``build_table3``, ``run_scenario``, ...)
are the function names. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "datasets", "ingestion", "series", "reconstruction",
          "scaling", "growth", "carbon", "tables", "projection")

# (module, attribute) for functions, (module, "Class.method") for methods.
TARGETS = (
    ("cli", "main"),
    ("datasets", "load_snapshot"), ("datasets", "baseline"), ("datasets", "preset_scenario"),
    ("ingestion", "load_manifest"), ("ingestion", "load_series"),
    ("ingestion", "write_series"), ("ingestion", "validate"),
    ("series", "AnnualSeries.__init__"), ("series", "AnnualSeries.value_at"),
    ("series", "aligned_values"), ("series", "slice_series"),
    ("reconstruction", "build_wealth"), ("reconstruction", "estimate_ppp_mer_ratio"),
    ("reconstruction", "spline_infill"), ("reconstruction", "cumulative_production"),
    ("scaling", "scaling_series"), ("scaling", "scaling_stats"), ("scaling", "w1_sensitivity"),
    ("growth", "growth_rate"), ("growth", "energy_productivity"), ("growth", "rates_table"),
    ("carbon", "carbonization"), ("carbon", "kaya_decomposition"), ("carbon", "step_atmosphere"),
    *(("tables", f"build_table{n}") for n in range(1, 6)), ("tables", "render_text"),
    ("projection", "run_scenario"), ("projection", "steady_state_commitment"),
    ("projection", "historical_spinup_delta"), ("projection", "committed_curve"),
    ("projection", "Trajectory.at_year"),
)

# metric -> (span, unit, calls averaged). "miss" averages only calls that had
# child spans, which for the lru-cached loaders are the cache misses.
SPAN_METRICS = {
    "datasets.load_snapshot_ms": ("datasets.load_snapshot", "ms", "miss"),
    "datasets.baseline_ms": ("datasets.baseline", "ms", "miss"),
    "datasets.preset_scenario_ms": ("datasets.preset_scenario", "ms", "all"),
    "ingestion.load_manifest_ms": ("ingestion.load_manifest", "ms", "all"),
    "ingestion.load_series_ms": ("ingestion.load_series", "ms", "all"),
    "ingestion.write_series_ms": ("ingestion.write_series", "ms", "all"),
    "ingestion.validate_ms": ("ingestion.validate", "ms", "all"),
    "series.construct_ms": ("series.AnnualSeries.__init__", "ms", "all"),
    "series.aligned_values_ms": ("series.aligned_values", "ms", "all"),
    "series.slice_series_ms": ("series.slice_series", "ms", "all"),
    "series.value_at_us": ("series.AnnualSeries.value_at", "us", "all"),
    "reconstruction.build_wealth_ms": ("reconstruction.build_wealth", "ms", "all"),
    "reconstruction.ppp_mer_ratio_ms": ("reconstruction.estimate_ppp_mer_ratio", "ms", "all"),
    "reconstruction.spline_infill_ms": ("reconstruction.spline_infill", "ms", "all"),
    "reconstruction.cumulative_production_ms": ("reconstruction.cumulative_production", "ms", "all"),
    "scaling.scaling_series_ms": ("scaling.scaling_series", "ms", "all"),
    "scaling.scaling_stats_ms": ("scaling.scaling_stats", "ms", "all"),
    "scaling.w1_sensitivity_ms": ("scaling.w1_sensitivity", "ms", "all"),
    "growth.energy_productivity_ms": ("growth.energy_productivity", "ms", "all"),
    "growth.rates_table_ms": ("growth.rates_table", "ms", "all"),
    "carbon.carbonization_ms": ("carbon.carbonization", "ms", "all"),
    "carbon.kaya_decomposition_ms": ("carbon.kaya_decomposition", "ms", "all"),
    "carbon.step_atmosphere_us": ("carbon.step_atmosphere", "us", "all"),
    **{f"tables.table{n}_ms": (f"tables.build_table{n}", "ms", "all") for n in range(1, 6)},
    "tables.render_text_ms": ("tables.render_text", "ms", "all"),
    "projection.run_scenario_ms": ("projection.run_scenario", "ms", "all"),
    "projection.steady_state_ms": ("projection.steady_state_commitment", "ms", "all"),
    "projection.spinup_ms": ("projection.historical_spinup_delta", "ms", "all"),
    "projection.committed_curve_ms": ("projection.committed_curve", "ms", "all"),
    "projection.at_year_us": ("projection.Trajectory.at_year", "us", "all"),
}

_SCALE = {"ms": 1e-6, "us": 1e-3}


def _rows_read(counts, args, result):
    counts["ingestion.rows_read"] += len(result)


def _rows_written(counts, args, result):
    counts["ingestion.rows_written"] += len(args[0])


def _steps(counts, args, result):
    counts["projection.steps"] += len(result.points) - 1


COUNTERS = {
    "ingestion.load_series": _rows_read,
    "ingestion.write_series": _rows_written,
    "projection.run_scenario": _steps,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._restore: list = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("enerscale") and m]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"enerscale.{module_name}")
            span = f"{module_name}.{attr}"
            counter = COUNTERS.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = cls.__dict__.get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(span)
                    continue
                setattr(cls, meth, self._wrap(span, orig, counter))
                self._restore.append((setattr, cls, meth, orig))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            traced = self._wrap(span, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)
                        self._restore.append((setattr, m, key, orig))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is orig:
                                value[k] = traced
                                self._restore.append((dict.__setitem__, value, k, orig))

    def uninstall(self) -> None:
        for setter, target, key, orig in reversed(self._restore):
            setter(target, key, orig)
        self._restore.clear()

    def aggregate(self) -> tuple[dict, dict]:
        """Per-span-name totals, and self time per layer in ms."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        per_name = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "misses": 0, "miss_ns": 0})
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = per_name[name]
            row["calls"] += 1
            row["incl_ns"] += t1 - t0
            if child_ns[i]:
                row["misses"] += 1
                row["miss_ns"] += t1 - t0
            layer_self[name.split(".")[0]] += (t1 - t0 - child_ns[i]) * 1e-6
        return dict(per_name), layer_self

    def metrics(self) -> dict:
        per_name, layer_self = self.aggregate()
        out = {}
        for metric, (span, unit, calls) in SPAN_METRICS.items():
            row = per_name.get(span)
            n, total = (0, 0) if row is None else (
                (row["misses"], row["miss_ns"]) if calls == "miss" else (row["calls"], row["incl_ns"]))
            out[metric] = (total / n * _SCALE[unit] if n else 0.0, unit)
        for layer, ms in layer_self.items():
            out[f"{layer}.self_ms"] = (ms, "ms")
        for name in ("ingestion.rows_read", "ingestion.rows_written", "projection.steps"):
            out[name] = (float(self.counts[name]), "count")
        run = per_name.get("projection.run_scenario")
        steps = self.counts["projection.steps"]
        out["projection.step_us"] = (run["incl_ns"] * 1e-3 / steps if run and steps else 0.0, "us")
        return out

    def write(self, path: Path) -> None:
        """Write every span once, at the end: names table plus [name, start, duration, parent, op]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        rows = [[index[n], t0 - base, t1 - t0, parent, op] for n, t0, t1, parent, op in self.spans]
        path.write_text(json.dumps({"names": names, "unit": "ns", "spans": rows}, separators=(",", ":")))
