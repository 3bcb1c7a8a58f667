"""Span tracer for the traced benchmark run.

Wraps public punits functions from outside, in every punits module
namespace that binds them, and keeps one span per call in memory:
(span id, parent span id, op id, name, start, end, work).  ``work`` is a
small dict of counts taken at the call boundary (rows in and out of a
Howell form, units enumerated, bytes emitted).  Nothing in the package is
edited; ``uninstall`` puts every original binding back.

Spans that start on a thread pool worker have no parent: the caller's
stack lives on another thread.  Their time still counts for their own
layer, so on a multi-threaded workload layer self times can add up to
more than the wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from types import ModuleType

import punits
from punits import cli, oracle, pgroup, ring, theory, zpelin

LAYERS = ("pgroup", "ring", "zpelin", "theory", "oracle", "cli")
MODULES = (punits, pgroup, ring, zpelin, theory, oracle, cli)
CHECK_IDS = oracle.CHECK_IDS


def _work_mul(args, result) -> dict:
    self, other = args
    n = self.spec.size
    return {"coeff_products": n * n if isinstance(other, ring.RingElement) else n}


def _work_howell(args, result) -> dict:
    return {"rows_in": args[0].nrows, "rows_out": result.nrows}


def _work_generators(args, result) -> dict:
    return {"rows": result.nrows}


def _work_census(args, result) -> dict:
    return {"units": oracle.unit_count(args[0])}


def _work_emit(args, result) -> dict:
    return {"bytes": len(result.encode())}


# (span name, owner, attribute, work counter).  The owner is a module for a
# function, or the class for a method.
TARGETS = (
    ("pgroup.product_index_table", pgroup, "product_index_table", None),
    ("ring.mul", ring.RingElement, "__mul__", _work_mul),
    ("ring.pow", ring.RingElement, "__pow__", None),
    ("zpelin.howell_form", zpelin, "howell_form", _work_howell),
    ("zpelin.ideal_power_generators", zpelin, "ideal_power_generators", _work_generators),
    ("zpelin.nilpotency_index", zpelin, "nilpotency_index", None),
    ("theory.structure_report", theory, "structure_report", None),
    ("theory.v_invariants", theory, "v_invariants", None),
    ("theory.s_and_l", theory, "s_and_l", None),
    ("oracle.verify_check", oracle, "verify_check", None),
    ("oracle.order_histogram", oracle, "order_histogram", _work_census),
    ("oracle.plan_checks", oracle, "plan_checks", None),
    ("cli.run_suite", cli, "run_suite", None),
    ("cli.emit_report", cli, "emit_report", _work_emit),
)

# Units of the per-layer metrics.  "count_computed" marks a count derived
# from call arguments (sizes), not one the program reports.
METRIC_UNITS = {
    "pgroup.product_index_table.misses": "count",
    "pgroup.product_index_table.s": "s",
    "ring.mul.calls": "count",
    "ring.mul.s": "s",
    "ring.mul.coeff_products": "count_computed",
    "ring.pow.calls": "count",
    "ring.pow.s": "s",
    "zpelin.howell_form.calls": "count",
    "zpelin.howell_form.s": "s",
    "zpelin.howell_form.rows_in": "count",
    "zpelin.howell_form.rows_out": "count",
    "zpelin.howell_form.keep_ratio": "ratio",
    "zpelin.ideal_power_generators.s": "s",
    "zpelin.ideal_power_generators.rows": "count",
    "zpelin.nilpotency_index.s": "s",
    "theory.structure_report.calls": "count",
    "theory.structure_report.s": "s",
    "theory.v_invariants.s": "s",
    "theory.s_and_l.s": "s",
    "oracle.verify_check.calls": "count",
    **{f"oracle.verify_check.{c}.s": "s" for c in CHECK_IDS},
    "oracle.order_histogram.calls": "count",
    "oracle.order_histogram.s": "s",
    "oracle.order_histogram.units": "count_computed",
    "oracle.units_per_s": "1/s",
    "oracle.plan_checks.s": "s",
    "cli.run_suite.s": "s",
    "cli.emit_report.s": "s",
    "cli.emit_report.bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs span-recording wrappers; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, ids, local = self.spans, self._ids, self._local
        per_check = name == "oracle.verify_check"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span_name = f"{name}.{args[0]}" if per_check else name
            counts = work(args, result) if work else None
            spans.append((sid, parent, self.op, span_name, start, end, counts))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, owner, attr, work in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            if isinstance(owner, ModuleType):
                for module in MODULES:
                    if vars(module).get(attr) is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON line per span, in the order the spans ended:
        [id, parent, op, name, start, end, work]; parent 0 means none."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of METRIC_UNITS.  The caller overwrites
        the two it measures itself: pgroup.product_index_table.misses and
        trace.overhead_s."""
        out: dict[str, float] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, name, start, end, counts in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            child[parent] += end - start
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        for sid, _, _, name, start, end, _ in self.spans:
            out[f"{name.split('.', 1)[0]}.self_s"] += end - start - child[sid]
        out["oracle.verify_check.calls"] = sum(
            out[f"oracle.verify_check.{c}.calls"] for c in CHECK_IDS
        )
        out["zpelin.howell_form.keep_ratio"] = _ratio(
            out["zpelin.howell_form.rows_out"], out["zpelin.howell_form.rows_in"]
        )
        out["oracle.units_per_s"] = _ratio(
            out["oracle.order_histogram.units"], out["oracle.order_histogram.s"]
        )
        out["trace.spans"] = len(self.spans)
        return {name: out[name] for name in METRIC_UNITS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
