"""Outside-in tracer for elastoscat's public functions.

The tracer changes nothing in the package.  It replaces each traced function
with a timing wrapper in every ``elastoscat`` module namespace (and every
module-level dict, such as the CLI's runner table) that bound the original,
so calls through ``from .source import farfield_of_source`` style imports are
seen too.  Each call records a span (name, start, end, parent) in memory;
self time is the span's duration minus the time of its child spans.  Counts
come from the call's arguments and return value.  A function that a later
refactor removed, or whose arguments no longer fit a counter, is reported
as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


def _rows(x) -> int:
    return int(x.shape[0])


def _holder_pairs(a, r) -> int:
    """Pairs examined: all of them, or the sampling budget when it binds."""
    total = _holder_all_pairs(a, r)
    budget = a.get("pair_budget")
    return total if budget is None or total <= budget else int(budget)


def _holder_all_pairs(a, r) -> int:
    n = _rows(a["fld"].nodes)
    return n * (n - 1) // 2


PACKAGE = "elastoscat"
_EXPERIMENTS = ("sweep_small", "nonradiating_audit", "cgo_verify",
                "identity_check", "kpoint_decay", "medium_demo", "distinguish")

# Traced functions ("module.function") and the counters derived from each
# call's bound arguments ``a`` and return value ``r``.
COUNTERS = {
    "greens.kupradze_batch": {"evals": lambda a, r: _rows(a["diffs"])},
    "greens.kupradze_tensor": {},
    "greens.farfield_kernels_batch": {"evals": lambda a, r: _rows(a["ys"])},
    "source.farfield_of_source": {
        "dir_nodes": lambda a, r: _rows(r.directions) * _rows(a["mesh"].nodes)},
    "source.make_nonradiating": {},
    "scattering.solve_medium": {"unknowns": lambda a, r: 2 * _rows(a["mesh"].nodes)},
    "scattering.lattice_pde_residual": {},
    "scattering.contraction_report": {},
    "elastic.holder_seminorm": {"pairs": _holder_pairs,
                                "all_pairs": _holder_all_pairs},
    "elastic.field_norms": {},
    "cgo.integral_identity_check": {"nodes_used": lambda a, r: int(r.nodes_used)},
    "cgo.paraboloid_integral_mc": {"samples": lambda a, r: int(a["samples"])},
    "cgo.cgo_residual": {},
    "geometry.gauss_mesh": {"nodes": lambda a, r: _rows(r.nodes)},
    "geometry.volume_mesh": {"nodes": lambda a, r: _rows(r.nodes)},
    "geometry.boundary_mesh": {"nodes": lambda a, r: _rows(r.nodes)},
    "geometry.signed_distance": {},
    "bumps.polynomial_bump": {},
    "bounds.calibrate_constant": {},
    "cli.load_config": {},
    "cli.write_csv": {"bytes": lambda a, r: os.path.getsize(a["path"])},
    **{f"cli.run_{exp}": {} for exp in _EXPERIMENTS},
}

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = [
    ("greens.kupradze_batch.calls", "count"),
    ("greens.kupradze_batch.evals", "count"),
    ("greens.kupradze_batch.self_s", "s"),
    ("greens.kupradze_batch.evals_per_solve", "count"),
    ("greens.kupradze_tensor.calls", "count"),
    ("greens.kupradze_tensor.self_s", "s"),
    ("greens.farfield_kernels_batch.calls", "count"),
    ("greens.farfield_kernels_batch.evals", "count"),
    ("greens.farfield_kernels_batch.self_s", "s"),
    ("source.farfield_of_source.calls", "count"),
    ("source.farfield_of_source.dir_nodes", "count"),
    ("source.farfield_of_source.self_s", "s"),
    ("source.make_nonradiating.calls", "count"),
    ("source.make_nonradiating.self_s", "s"),
    ("scattering.solve_medium.calls", "count"),
    ("scattering.solve_medium.unknowns", "count"),
    ("scattering.solve_medium.self_s", "s"),
    ("scattering.solve_medium.failed", "count"),
    ("scattering.lattice_pde_residual.calls", "count"),
    ("scattering.lattice_pde_residual.self_s", "s"),
    ("scattering.contraction_report.calls", "count"),
    ("scattering.contraction_report.self_s", "s"),
    ("elastic.holder_seminorm.calls", "count"),
    ("elastic.holder_seminorm.pairs", "count"),
    ("elastic.holder_seminorm.self_s", "s"),
    ("elastic.holder_seminorm.pair_coverage", "ratio"),
    ("elastic.field_norms.self_s", "s"),
    ("cgo.integral_identity_check.calls", "count"),
    ("cgo.integral_identity_check.nodes_used", "count"),
    ("cgo.integral_identity_check.self_s", "s"),
    ("cgo.paraboloid_integral_mc.calls", "count"),
    ("cgo.paraboloid_integral_mc.samples", "count"),
    ("cgo.paraboloid_integral_mc.self_s", "s"),
    ("cgo.cgo_residual.calls", "count"),
    ("cgo.cgo_residual.self_s", "s"),
    *[(f"geometry.{fn}.{stat}", "s" if stat == "self_s" else "count")
      for fn in ("gauss_mesh", "volume_mesh", "boundary_mesh")
      for stat in ("calls", "nodes", "self_s")],
    ("geometry.signed_distance.calls", "count"),
    ("geometry.signed_distance.self_s", "s"),
    ("bumps.polynomial_bump.calls", "count"),
    ("bumps.polynomial_bump.self_s", "s"),
    ("bounds.calibrate_constant.self_s", "s"),
    *[(f"cli.run_{exp}.self_s", "s") for exp in _EXPERIMENTS],
    ("cli.load_config.self_s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.bytes", "count"),
    ("cli.write_csv.self_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int            # index of the parent span, -1 at top level
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Installs the wrappers and collects the spans of one pass at a time."""

    def __init__(self):
        self.spans = []
        self.absent = set()          # functions or counters not found
        self._stack = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for qual, counters in COUNTERS.items():
            mod_name, fn_name = qual.split(".")
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.add(qual)
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.add(qual)
                continue
            wrapper = self._wrap(qual, original, counters)
            for module in modules + [home]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def _wrap(self, qual: str, fn, counters: dict):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(qual, 0.0, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if counters:
                self._count(span, signature, args, kwargs, result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, span, signature, args, kwargs, result, counters) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        for name, extract in counters.items():
            try:
                span.counts[name] = extract(bound.arguments, result)
            except (KeyError, AttributeError, TypeError, IndexError, OSError):
                self.absent.add(f"{span.name}.{name}")

    def take_pass(self) -> dict:
        """Aggregate and clear the spans recorded since the last call.

        Returns ``{"layers": {fn: {"calls", "failed", "self_s", counts...}},
        "evals_in_solve": int, "self_total_s": float}``.
        """
        spans, self.spans[:] = list(self.spans), []
        layers = {}
        evals_in_solve = 0
        for span in spans:
            agg = layers.setdefault(span.name, {"calls": 0, "failed": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["failed"] += int(span.failed)
            agg["self_s"] += span.self_s
            for name, value in span.counts.items():
                agg[name] = agg.get(name, 0) + value
            if span.name == "greens.kupradze_batch" and "evals" in span.counts:
                p = span.parent
                while p >= 0 and spans[p].name != "scattering.solve_medium":
                    p = spans[p].parent
                if p >= 0:
                    evals_in_solve += span.counts["evals"]
        return {"layers": layers, "evals_in_solve": evals_in_solve,
                "self_total_s": sum(s.self_s for s in spans)}


def per_layer_metrics(passes: list, absent: set, overhead_s: float) -> dict:
    """Per-layer metrics as the median over traced passes.

    ``passes`` holds ``Tracer.take_pass`` results.  A metric whose function
    or counter is absent carries ``"absent": true`` and a value of 0.
    """
    def value_in(p: dict, metric: str) -> float:
        fn, stat = metric.rsplit(".", 1)
        agg = p["layers"].get(fn, {})
        if stat == "evals_per_solve":
            solves = p["layers"].get("scattering.solve_medium", {}).get("calls", 0)
            return p["evals_in_solve"] / solves if solves else 0.0
        if stat == "pair_coverage":
            return agg["pairs"] / agg["all_pairs"] if agg.get("all_pairs") else 0.0
        return agg.get(stat, 0)

    metrics = {}
    for metric, unit in PER_LAYER:
        if metric == "trace.overhead_s":
            metrics[metric] = {"value": overhead_s, "unit": unit}
            continue
        fn, stat = metric.rsplit(".", 1)
        needs = {fn, f"{fn}.{stat}"} | {
            "evals_per_solve": {"greens.kupradze_batch.evals",
                                "scattering.solve_medium"},
            "pair_coverage": {f"{fn}.pairs", f"{fn}.all_pairs"}}.get(stat, set())
        if needs & absent:
            metrics[metric] = {"value": 0, "unit": unit, "absent": True}
            continue
        value = statistics.median(value_in(p, metric) for p in passes)
        if unit == "count" and float(value).is_integer():
            value = int(value)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics
