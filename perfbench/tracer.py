"""Span tracing of the ibrisk layers, installed from outside the package.

Every public function defined in a layer module is wrapped, and the
wrapper is bound wherever the package refers to the original by name:
module attributes (``from .network import node_strengths`` creates one
binding per importing module) and values of module-level dicts (the
CLI's command table). Spans (id, name, start, end, parent, invocation)
are kept in memory; counts are taken from the values that the probed
functions return. A traced name that no longer exists is reported as
absent, with zero values.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "ibrisk"
LAYERS = ("network", "calibration", "contagion", "risk", "roi", "experiments", "cli")

# Per-layer metrics, each with the end-to-end metric and workloads it
# should move. ``*.self_s`` is self seconds and ``*.calls`` calls per
# invocation; everything else is a count or ratio per invocation.
PAYOUT = "wall_ref on risk-n1000 and sweep-eta-n500; nothing on ingest-300k"
KERNEL = "wall_ref on sweep-eta-n500 (deep rows) and risk-n1000"
CALIB = "wall_ref on iso-n180 and sweep-eta-n500; nothing on ingest-300k"
POINT = "wall_ref on sweep-eta-n500"
LOAD = "wall_ref on risk-n1000"
INGEST = "wall_ref and peak_rss_mb on ingest-300k"
LAYER_METRICS = (
    ("contagion.compute_rescue_payouts.self_s", "s", "lower", PAYOUT),
    ("contagion.compute_rescue_payouts.calls", "count", "lower", PAYOUT),
    ("contagion.payout_useful_ratio", "ratio", "higher", PAYOUT),
    ("contagion.run_cascade.self_s", "s", "lower", KERNEL),
    ("contagion.run_cascade.calls", "count", "lower", KERNEL),
    ("contagion.run_ensemble.self_s", "s", "lower", KERNEL),
    ("contagion.run_ensemble.calls", "count", "lower", KERNEL),
    ("contagion.cascades", "count", "lower", KERNEL),
    ("contagion.rounds", "count", "lower", KERNEL),
    ("contagion.edges_fired", "count", "lower", KERNEL),
    ("contagion.defaults", "count", "lower", KERNEL),
    ("network.node_strengths.self_s", "s", "lower", CALIB),
    ("network.node_strengths.calls", "count", "lower", CALIB),
    ("calibration.calibrate.self_s", "s", "lower", CALIB),
    ("calibration.calibrate.calls", "count", "lower", CALIB),
    ("calibration.propagation_weights.self_s", "s", "lower", CALIB),
    ("calibration.propagation_weights.calls", "count", "lower", CALIB),
    ("risk.conditional_default_matrix.self_s", "s", "lower", CALIB),
    ("experiments.iso_curve.self_s", "s", "lower", CALIB),
    ("experiments.iso_curve.ensembles", "count", "lower", CALIB),
    ("experiments.evaluate_point.self_s", "s", "lower", POINT),
    ("experiments.evaluate_point.calls", "count", "lower", POINT),
    ("risk.debtrank_metric.self_s", "s", "lower", POINT),
    ("roi.nominal_roi.self_s", "s", "lower", POINT),
    ("network.read_snapshot.self_s", "s", "lower", LOAD),
    ("cli.load_network.self_s", "s", "lower", LOAD),
    ("cli.execute_scenario.self_s", "s", "lower", LOAD),
    ("network.ingest_transactions.self_s", "s", "lower", INGEST),
    ("network.aggregate_window.self_s", "s", "lower", INGEST),
    ("network.validate_network.self_s", "s", "lower", INGEST),
    ("network.write_snapshot.self_s", "s", "lower", INGEST),
    ("experiments.generate_synthetic.self_s", "s", "lower", "setup_s on all workloads"),
    ("trace.overhead_frac", "ratio", "lower", "traced over untraced median wall time, minus 1"),
)
# Measured on the traced input generation, per setup; all others on
# the traced workload invocations.
SETUP_METRICS = ("experiments.generate_synthetic.self_s",)
COUNT_NAMES = ("cascades", "rounds", "edges_fired", "defaults")
SETUP = "setup"
PROBE = "trace.probe"
# Called once per edge: a span per call added about a third to the wall
# time of iso-n180 and charged the wrapper to its callers' self time.
# Its time counts in the self time of its callers instead.
UNTRACED = ("calibration.edge_weight",)


def _payout_probe(counts: Counter, args, kwargs, result) -> None:
    counts["payout_calls"] += 1
    counts["payout_useful"] += bool(np.any(np.asarray(result) > 0.0))


def _ensemble_arrays(ensemble):
    """(final distress per seed, total steps, total defaults) of an ensemble."""
    outcomes = getattr(ensemble, "outcomes", None)
    if outcomes is not None:
        distress = np.array([o.final_distress for o in outcomes])
        return distress, sum(o.steps for o in outcomes), sum(len(o.defaulted) for o in outcomes)
    # An array-native ensemble: (seeds x nodes) distress, steps, default mask.
    distress = np.asarray(ensemble.final_distress)
    return distress, int(np.sum(ensemble.steps)), int(np.sum(ensemble.defaulted))


def _ensemble_probe(counts: Counter, args, kwargs, result) -> None:
    """Exact cascade counts from the returned distress.

    An edge (borrower -> lender) fires exactly once iff its source ends
    with positive distress, so the edges fired by one cascade are the
    lender counts of its distressed nodes.
    """
    cal = args[0] if args else kwargs["cal"]
    try:
        distress, steps, defaults = _ensemble_arrays(result)
        lenders = (cal.net.matrix() > 0.0).sum(axis=0)
    except (AttributeError, TypeError, ValueError):
        counts["ensembles_unreadable"] += 1
        return
    counts["cascades"] += distress.shape[0]
    counts["rounds"] += int(steps)
    counts["edges_fired"] += int(((distress > 0.0) @ lenders).sum())
    counts["defaults"] += int(defaults)


PROBES = {
    "contagion.compute_rescue_payouts": _payout_probe,
    "contagion.run_ensemble": _ensemble_probe,
}


class Tracer:
    """Wraps the package's public functions; records spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.invocation: object = None
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.invocation))
            if probe is not None:
                probe_start = clock()
                probe(self.counts[self.invocation], args, kwargs, result)
                spans.append((next(ids), PROBE, probe_start, clock(), parent, self.invocation))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        importlib.import_module(PACKAGE)
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:  # its metrics are reported absent
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
                    self.wrapped.add(f"{layer}.{attr}")
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._restore.append((module, attr, obj, True))
                    setattr(module, attr, wrappers[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._restore.append((obj, key, value, False))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for holder, key, original, is_module in reversed(self._restore):
            if is_module:
                setattr(holder, key, original)
            else:
                holder[key] = original
        self._restore.clear()

    def per_invocation(self) -> dict[object, dict[str, float]]:
        """Self seconds, call counts and probe counts per invocation."""
        child_time: dict[int, float] = defaultdict(float)
        names = {}
        for span_id, name, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
            names[span_id] = (name, parent)
        stats: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span_id, name, start, end, parent, invocation in self.spans:
            if name == PROBE:
                continue
            row = stats[invocation]
            row[f"{name}.self_s"] += (end - start) - child_time[span_id]
            row[f"{name}.calls"] += 1
            if name == "contagion.run_ensemble" and self._under(parent, names, "experiments.iso_curve"):
                row["experiments.iso_curve.ensembles"] += 1
        for invocation, counts in self.counts.items():
            row = stats[invocation]
            for key in COUNT_NAMES:
                row[f"contagion.{key}"] = counts[key]
            calls = counts["payout_calls"]
            row["contagion.payout_useful_ratio"] = counts["payout_useful"] / calls if calls else 0.0
            row["contagion.ensembles_unreadable"] = counts["ensembles_unreadable"]
        return stats

    @staticmethod
    def _under(span_id: int, names: dict, ancestor: str) -> bool:
        while span_id != -1:
            name, span_id = names[span_id]
            if name == ancestor:
                return True
        return False

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,name,start,end,parent,invocation\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


def _source(name: str) -> str:
    """The traced function a per-layer metric is measured on."""
    if name == "contagion.payout_useful_ratio":
        return "contagion.compute_rescue_payouts"
    if name.startswith("contagion.") and name.split(".", 1)[1] in COUNT_NAMES:
        return "contagion.run_ensemble"
    return name.rsplit(".", 1)[0]


def layer_metrics(tracer: Tracer, stats: dict, invocations: list, overhead: float) -> tuple[dict, list]:
    """Median per-invocation value of every per-layer metric.

    Returns (metrics, absent), where ``absent`` lists metrics whose
    traced function no longer exists, or counts from ensembles that are
    neither ``outcomes`` nor arrays ``final_distress`` (seeds x nodes),
    ``steps`` and ``defaulted``; those read zero.
    """
    unreadable = any(stats[i].get("contagion.ensembles_unreadable") for i in invocations)
    metrics, absent = {}, []
    for name, unit, _, _ in LAYER_METRICS:
        if name == "trace.overhead_frac":
            value = overhead
        else:
            if _source(name) not in tracer.wrapped or (
                    unreadable and name.split(".", 1)[1] in COUNT_NAMES):
                absent.append(name)
            rows = [stats[SETUP]] if name in SETUP_METRICS else [stats[i] for i in invocations]
            value = statistics.median(row.get(name, 0) for row in rows)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
