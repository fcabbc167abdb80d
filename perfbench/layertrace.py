"""Span tracing around the calls into each wws layer.

The tracer patches the name a caller looks a function up by (for example
``wws.miqp.solve_qp``, which is what branch-and-bound calls) with a wrapper
that records one span per call: name, start, end, parent span and pass id,
plus a few counters read off the arguments and the result.  Spans stay in
memory and are written out once, when the benchmark ends.  Nothing inside
``src/wws`` is changed; uninstalling restores every patched name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _build_attrs(args, kwargs, res):
    return {"binaries": int(res[2])}


def _qp_attrs(args, kwargs, res):
    return {"infeasible": int(res.status == "infeasible"),
            "optimal": int(res.status == "optimal"),
            "ipm_iters": int(res.iterations)}


def _miqp_attrs(args, kwargs, res):
    return {"nodes": int(res.nodes), "qp_solves": int(res.qp_solves)}


def _plan_attrs(args, kwargs, res):
    return {"k": int(_arg(args, kwargs, 3, "k"))}


# (module, attribute, span name, counter extractor).  The module is the one
# the caller looks the name up in, so the patch catches every call the
# workload makes through that caller.
PATCHES = (
    ("wws.plant", "step", "plant.step", None),
    ("wws.predictor", "generate_dataset", "predictor.generate_dataset", None),
    ("wws.predictor", "fit_edmd_from_dataset", "predictor.fit_edmd_from_dataset", None),
    ("wws.mpc", "build_step_problem", "mpc.build_step_problem", _build_attrs),
    ("wws.mpc", "condense", "condense.condense", None),
    ("wws.mpc", "encode_formula", "stl.encode_formula", None),
    ("wws.mpc", "robustness", "stl.robustness", None),
    ("wws.miqp", "solve_qp", "qp.solve_qp", _qp_attrs),
    ("wws.qp", "phase1_violation", "qp.phase1_violation", None),
    ("wws.mpc", "solve_miqp", "miqp.solve_miqp", _miqp_attrs),
    ("wws.mpc", "plan_step", "mpc.plan_step", _plan_attrs),
    ("wws.mpc", "run_closed_loop", "mpc.run_closed_loop", None),
    ("wws.mpc", "feasibility_sweep", "mpc.feasibility_sweep", None),
    ("wws.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self.enabled = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Patch every target that exists; record the ones that do not."""
        for mod_name, attr, span_name, attrs in PATCHES:
            mod = modules[mod_name]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(orig, span_name, attrs))
            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "pass": self.pass_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                res = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, res)
            return res
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span}) + "\n")

    def pass_summary(self, pass_id: int) -> dict:
        """Calls, self seconds and summed counters per span name in one pass.

        Self time is a span's duration minus the time its direct children
        cover.  Calls are sequential on one thread, so children never
        overlap and that cover is the sum of their durations.
        """
        ids = [i for i, s in enumerate(self.spans) if s["pass"] == pass_id]
        child_time: dict[int, float] = defaultdict(float)
        for i in ids:
            s = self.spans[i]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                    "total_s": 0.0,
                                                    "attrs": defaultdict(float)})
        plans = {"cold": [], "warm": []}
        for i in ids:
            s = self.spans[i]
            dur = s["end"] - s["start"]
            rec = out[s["name"]]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[i]
            for key, val in s.get("attrs", {}).items():
                rec["attrs"][key] += val
            if s["name"] == "mpc.plan_step":
                plans["cold" if s["attrs"]["k"] == 0 else "warm"].append(dur)
        return {"layers": out, "plans": plans}


# (metric, unit) of the traced run, in report order.
LAYER_METRICS = (
    ("plant.step.calls", "count"),
    ("plant.step.s", "s"),
    ("predictor.generate_dataset.s", "s"),
    ("predictor.fit_edmd_from_dataset.s", "s"),
    ("mpc.build_step_problem.calls", "count"),
    ("mpc.build_step_problem.s", "s"),
    ("condense.condense.s", "s"),
    ("stl.encode_formula.s", "s"),
    ("stl.robustness.calls", "count"),
    ("stl.robustness.s", "s"),
    ("milp.binaries_per_step", "count"),
    ("qp.solve_qp.calls", "count"),
    ("qp.solve_qp.s", "s"),
    ("qp.solve_qp.infeasible", "count"),
    ("qp.optimal_frac", "fraction"),
    ("qp.ipm_iters", "count"),
    ("qp.phase1_violation.calls", "count"),
    ("qp.phase1_violation.s", "s"),
    ("qp.phase1_share", "fraction"),
    ("miqp.solve_miqp.calls", "count"),
    ("miqp.solve_miqp.s", "s"),
    ("miqp.nodes", "count"),
    ("miqp.qp_solves", "count"),
    ("miqp.qp_per_node", "ratio"),
    ("mpc.plan_step.s", "s"),
    ("mpc.plan_cold_ms_p50", "ms"),
    ("mpc.plan_warm_ms_p50", "ms"),
    ("mpc.plan_warm_ms_p90", "ms"),
    ("mpc.run_closed_loop.s", "s"),
    ("mpc.feasibility_sweep.s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass (no ``trace.*`` entries).

    Times are self seconds.  A layer that did not run reads 0, and so does
    a ratio whose base is 0.
    """
    layers = summary["layers"]

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def self_s(name):
        return layers[name]["self_s"] if name in layers else 0.0

    def attr(name, key):
        return layers[name]["attrs"].get(key, 0.0) if name in layers else 0.0

    qp_total = layers["qp.solve_qp"]["total_s"] if "qp.solve_qp" in layers else 0.0
    cold = summary["plans"]["cold"]
    warm = summary["plans"]["warm"]
    vals = {
        "plant.step.calls": calls("plant.step"),
        "plant.step.s": self_s("plant.step"),
        "predictor.generate_dataset.s": self_s("predictor.generate_dataset"),
        "predictor.fit_edmd_from_dataset.s": self_s("predictor.fit_edmd_from_dataset"),
        "mpc.build_step_problem.calls": calls("mpc.build_step_problem"),
        "mpc.build_step_problem.s": self_s("mpc.build_step_problem"),
        "condense.condense.s": self_s("condense.condense"),
        "stl.encode_formula.s": self_s("stl.encode_formula"),
        "stl.robustness.calls": calls("stl.robustness"),
        "stl.robustness.s": self_s("stl.robustness"),
        "milp.binaries_per_step": _ratio(attr("mpc.build_step_problem", "binaries"),
                                         calls("mpc.build_step_problem")),
        "qp.solve_qp.calls": calls("qp.solve_qp"),
        "qp.solve_qp.s": self_s("qp.solve_qp"),
        "qp.solve_qp.infeasible": attr("qp.solve_qp", "infeasible"),
        "qp.optimal_frac": _ratio(attr("qp.solve_qp", "optimal"), calls("qp.solve_qp")),
        "qp.ipm_iters": attr("qp.solve_qp", "ipm_iters"),
        "qp.phase1_violation.calls": calls("qp.phase1_violation"),
        "qp.phase1_violation.s": self_s("qp.phase1_violation"),
        "qp.phase1_share": _ratio(self_s("qp.phase1_violation"), qp_total),
        "miqp.solve_miqp.calls": calls("miqp.solve_miqp"),
        "miqp.solve_miqp.s": self_s("miqp.solve_miqp"),
        "miqp.nodes": attr("miqp.solve_miqp", "nodes"),
        "miqp.qp_solves": attr("miqp.solve_miqp", "qp_solves"),
        "miqp.qp_per_node": _ratio(attr("miqp.solve_miqp", "qp_solves"),
                                   attr("miqp.solve_miqp", "nodes")),
        "mpc.plan_step.s": self_s("mpc.plan_step"),
        "mpc.plan_cold_ms_p50": float(np.median(cold)) * 1e3 if cold else 0.0,
        "mpc.plan_warm_ms_p50": float(np.median(warm)) * 1e3 if warm else 0.0,
        "mpc.plan_warm_ms_p90": float(np.percentile(warm, 90)) * 1e3 if warm else 0.0,
        "mpc.run_closed_loop.s": self_s("mpc.run_closed_loop"),
        "mpc.feasibility_sweep.s": self_s("mpc.feasibility_sweep"),
        "cli.main.s": self_s("cli.main"),
    }
    return {k: float(v) for k, v in vals.items()}
