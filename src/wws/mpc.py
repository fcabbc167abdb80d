"""Receding-horizon control with temporal-logic constraints.

Each step lifts the measured state, condenses the predictor over the
horizon, encodes every specification over the concatenation of frozen
history samples and decision-bound horizon samples, solves the resulting
MIQP and applies the first input under zeroth-order hold.

Specification windows follow the shrinking-horizon reading: past samples
are constants, samples inside the horizon are decision variables, and
window indices beyond the horizon are deferred to later steps.  That makes
long-window guarantees (for example a supply guarantee spanning the whole
run) solvable step by step: every index is enforced exactly once it enters
the horizon and is frozen once realized.
"""

from __future__ import annotations

import csv
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import plant as plant_mod
from .condense import add_horizon_objective, condense
from .integrators import IntegratorConfig
from .milp import LinExpr, ProblemBuilder
from .miqp import solve_miqp
from .plant import DivergenceError, PlantModel
from .predictor import LinearPredictor
from .stl import (
    EncodingConfig,
    Formula,
    SampledSignal,
    encode_formula,
    parse,
    resolve_end,
    robustness,
)

DEFAULT_SUPPLY_SPEC = "alw_[420,end] (y >= 40)"
DEFAULT_POWER_SPEC = ("alw_[0,end] (((u > 0.001) and (u < 0.01))"
                      " or ((u >= 21.2) and (u <= 26.5)))")


def supply_spec(start_time_s: float) -> str:
    """Supply guarantee with a configurable warm-up deadline."""
    start = int(start_time_s) if float(start_time_s).is_integer() else start_time_s
    return f"alw_[{start},end] (y >= 40)"


@dataclass(frozen=True)
class ControllerConfig:
    """Horizon, weights, bounds and specifications of the controller."""

    horizon: int = 10
    h: float = 60.0
    q_weight: float = 1.0
    r_weight: float = 10.0
    reference: float = 40.0
    u_min: float = 0.0
    u_max: float = 26.5
    end_time: float = 1200.0
    stl_specs: tuple[str, ...] = (DEFAULT_SUPPLY_SPEC, DEFAULT_POWER_SPEC)
    w_forecast: float = 10.0
    eps: float = 1e-6
    y_bounds: tuple[float, float] = plant_mod.STATE_BOUNDS
    output_index: int = 5
    miqp_gap: float = 1e-6
    node_limit: int = 200_000

    def __post_init__(self):
        if self.horizon < 1 or self.h <= 0 or self.end_time <= 0:
            raise ValueError("horizon, h and end_time must be positive")
        if self.q_weight <= 0 or self.r_weight <= 0:
            raise ValueError("weights must be positive")
        if self.end_time / self.h != round(self.end_time / self.h):
            raise ValueError("end_time must be a multiple of the sampling period")

    @property
    def n_steps(self) -> int:
        return int(round(self.end_time / self.h))

    def formulas(self) -> list[Formula]:
        return [resolve_end(parse(text), self.end_time) for text in self.stl_specs]

    def encoding(self) -> EncodingConfig:
        return EncodingConfig(
            channel_bounds={"y": self.y_bounds, "u": (self.u_min, self.u_max)},
            eps=self.eps)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one receding-horizon solve."""

    status: str                 # "optimal" | "infeasible" | "iteration-limit"
    u0: float | None
    objective: float | None
    assignment: dict[str, float] | None
    binaries: int
    nodes: int
    infeasible_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def build_step_problem(cfg: ControllerConfig, pred: LinearPredictor,
                       x_k: Sequence[float], k: int, y_hist: Sequence[float],
                       u_hist: Sequence[float],
                       formulas: Sequence[Formula] | None = None):
    """Assemble the horizon MIQP at step ``k`` without solving it.

    Returns ``(problem, u_names, n_binaries)``; usable directly for problem
    dumps and cross-checking against external solvers.
    """
    if len(y_hist) != k + 1:
        raise ValueError(f"need {k + 1} output samples, got {len(y_hist)}")
    if len(u_hist) != k:
        raise ValueError(f"need {k} applied inputs, got {len(u_hist)}")
    np_h = cfg.horizon
    builder = ProblemBuilder()
    u_names = [builder.add_continuous(f"u{k + i}", cfg.u_min, cfg.u_max)
               for i in range(np_h)]
    z0 = pred.lift(np.asarray(x_k, dtype=float))
    cond = condense(pred, z0, np_h, [cfg.w_forecast] * np_h, cfg.output_index)
    add_horizon_objective(builder, cond, u_names, cfg.q_weight, cfg.r_weight,
                          cfg.reference)

    binding = {
        "y": {**{j: float(y_hist[j]) for j in range(k + 1)},
              **{k + i: cond.y_expr(i, u_names) for i in range(1, np_h + 1)}},
        "u": {**{j: float(u_hist[j]) for j in range(k)},
              **{k + i: LinExpr.variable(u_names[i]) for i in range(np_h)}},
    }
    enc_cfg = cfg.encoding()
    n_binaries = 0
    for j, f in enumerate(formulas if formulas is not None else cfg.formulas()):
        enc = encode_formula(builder, f, binding, 0, cfg.h, enc_cfg, name=f"stl{j}")
        n_binaries += len(enc.binaries)
    return builder.build(), u_names, n_binaries


def plan_step(cfg: ControllerConfig, pred: LinearPredictor, x_k: Sequence[float],
              k: int, y_hist: Sequence[float], u_hist: Sequence[float],
              warm: dict[str, float] | None = None,
              formulas: Sequence[Formula] | None = None) -> StepResult:
    """Assemble and solve the horizon MIQP at step ``k``.

    ``y_hist`` holds measured outputs up to and including step ``k``;
    ``u_hist`` holds the ``k`` inputs already applied.  Returns the first
    optimal input, with the full solver assignment retained for warm
    starting the next step.
    """
    problem, u_names, n_binaries = build_step_problem(cfg, pred, x_k, k, y_hist,
                                                      u_hist, formulas)
    warm_binaries = _shift_warm(warm, problem) if warm else None
    res = solve_miqp(problem, gap_tol=cfg.miqp_gap, node_limit=cfg.node_limit,
                     warm_binaries=warm_binaries)
    u0 = None
    if res.x is not None:
        u0 = float(res.assignment[u_names[0]])
    return StepResult(status=res.status, u0=u0,
                      objective=res.objective, assignment=res.assignment,
                      binaries=n_binaries, nodes=res.nodes,
                      infeasible_reason=problem.infeasible_reason)


_BINARY_NAME = re.compile(r"^(?P<stem>.*\.t)(?P<t>\d+)(?P<tail>\.[dp]\d+)$")


def _shift_warm(prev: dict[str, float], problem) -> dict[str, float]:
    """Map the previous step's binary values onto this step's names.

    Disjunction binaries (``.d``) and predicate literals (``.p``) are named
    by absolute time index, so shared indices carry over directly; indices
    newly entering the horizon inherit the value of the same disjunction or
    predicate one step earlier.
    """
    warm: dict[str, float] = {}
    for i in np.flatnonzero(problem.binary):
        name = problem.names[i]
        if name in prev:
            warm[name] = prev[name]
            continue
        m = _BINARY_NAME.match(name)
        if m is None:
            warm[name] = 1.0
            continue
        t = int(m.group("t"))
        for back in range(1, 4):
            cand = f"{m.group('stem')}{t - back}{m.group('tail')}"
            if cand in prev:
                warm[name] = prev[cand]
                break
        else:
            warm[name] = 1.0
    return warm


@dataclass
class ClosedLoopTrace:
    """Per-step record of the realized closed loop.

    Row ``k`` holds the state measured at time ``k h``, the input chosen at
    that time (the final row's input is planned but never applied) and the
    solver outcome.  ``robustness_so_far`` monitors each specification over
    the realized prefix with the end token resolved to the current time.
    """

    h: float
    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    disturbances: np.ndarray
    outputs: np.ndarray
    statuses: list[str]
    objectives: np.ndarray
    binaries: np.ndarray
    nodes: np.ndarray
    robustness_so_far: np.ndarray     # (steps, n_formulas)
    spec_texts: tuple[str, ...]
    plan_seconds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def n_infeasible(self) -> int:
        return sum(1 for s in self.statuses if s != "optimal")

    def signal(self, upto: int | None = None) -> SampledSignal:
        end = len(self.times) if upto is None else upto + 1
        return SampledSignal(channels={"y": self.outputs[:end],
                                       "u": self.inputs[:end]}, h=self.h)

    def final_robustness(self) -> list[float]:
        """Realized robustness of each spec over the whole trace."""
        sig = self.signal()
        out = []
        for text in self.spec_texts:
            f = resolve_end(parse(text), self.times[-1])
            out.append(robustness(f, sig, 0))
        return out

    def write_csv(self, path: str | Path) -> None:
        header = plant_mod.TRAJECTORY_HEADER + ["status", "objective",
                                                "binaries", "bb_nodes"]
        header += [f"rob{j}" for j in range(len(self.spec_texts))]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(len(self.times)):
                row = [repr(float(self.times[i]))]
                row += [repr(float(v)) for v in self.states[i]]
                row += [repr(float(self.inputs[i])), repr(float(self.disturbances[i])),
                        repr(float(self.outputs[i])), self.statuses[i],
                        repr(float(self.objectives[i])) if np.isfinite(self.objectives[i]) else "",
                        str(int(self.binaries[i])), str(int(self.nodes[i]))]
                row += [repr(float(v)) if np.isfinite(v) else "inf"
                        for v in self.robustness_so_far[i]]
                w.writerow(row)


def run_closed_loop(model: PlantModel, cfg: ControllerConfig,
                    pred: LinearPredictor, x0: Sequence[float],
                    integrator: IntegratorConfig = IntegratorConfig(),
                    stop_on_infeasible: bool = False) -> ClosedLoopTrace:
    """Simulate the loop: measure, plan, apply the first input, repeat.

    The plan at the final sample is solved (so the input channel covers the
    whole window of the power specification) but not applied.  On an
    infeasible step the best-effort incumbent is applied if the solver
    produced one, otherwise the previous input is held.
    """
    n = cfg.n_steps
    parsed = [parse(text) for text in cfg.stl_specs]
    formulas = [resolve_end(f, cfg.end_time) for f in parsed]
    times = np.arange(n + 1) * cfg.h
    states = np.zeros((n + 1, plant_mod.N_STATES))
    inputs = np.zeros(n + 1)
    outputs = np.zeros(n + 1)
    objectives = np.full(n + 1, np.nan)
    binaries = np.zeros(n + 1, dtype=int)
    nodes = np.zeros(n + 1, dtype=int)
    statuses: list[str] = []
    rob = np.full((n + 1, len(cfg.stl_specs)), np.inf)
    plan_seconds = np.zeros(n + 1)
    x = np.asarray(x0, dtype=float)
    warm: dict[str, float] | None = None
    y_hist: list[float] = []
    u_hist: list[float] = []
    aborted = False
    abort_reason = None
    last_k = n

    for k in range(n + 1):
        states[k] = x
        y_k = plant_mod.output(x, cfg.output_index)
        outputs[k] = y_k
        y_hist.append(y_k)
        t_plan = time.perf_counter()
        step_res = plan_step(cfg, pred, x, k, y_hist, u_hist, warm=warm,
                             formulas=formulas)
        plan_seconds[k] = time.perf_counter() - t_plan
        statuses.append(step_res.status)
        if step_res.objective is not None:
            objectives[k] = step_res.objective
        binaries[k] = step_res.binaries
        nodes[k] = step_res.nodes
        if step_res.u0 is not None:
            u_k = step_res.u0
        else:
            u_k = u_hist[-1] if u_hist else 0.0
        inputs[k] = u_k
        warm = step_res.assignment if step_res.assignment is not None else warm
        sig = SampledSignal(channels={"y": np.array(y_hist),
                                      "u": np.append(np.array(u_hist), u_k)},
                            h=cfg.h)
        for j, spec in enumerate(parsed):
            rob[k, j] = robustness(resolve_end(spec, times[k]), sig, 0)
        if stop_on_infeasible and not step_res.feasible:
            last_k = k
            break
        if k == n:
            break
        try:
            x = plant_mod.step(model, x, u_k, cfg.w_forecast, cfg.h, integrator)
        except DivergenceError as exc:
            aborted = True
            abort_reason = str(exc)
            last_k = k
            break
        u_hist.append(u_k)

    end = last_k + 1 if (aborted or last_k < n) else n + 1
    return ClosedLoopTrace(
        h=cfg.h, times=times[:end], states=states[:end], inputs=inputs[:end],
        disturbances=np.full(end, cfg.w_forecast), outputs=outputs[:end],
        statuses=statuses[:end], objectives=objectives[:end],
        binaries=binaries[:end], nodes=nodes[:end], robustness_so_far=rob[:end],
        spec_texts=cfg.stl_specs, plan_seconds=plan_seconds[:end],
        aborted=aborted, abort_reason=abort_reason)


# ---------------------------------------------------------------------------
# Feasibility sweep
# ---------------------------------------------------------------------------

DEFAULT_INITIAL_TEMPS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
DEFAULT_START_TIMES = (240.0, 300.0, 360.0, 420.0, 480.0, 540.0)


@dataclass(frozen=True)
class SweepResult:
    initial_temps: tuple[float, ...]
    start_times: tuple[float, ...]
    table: np.ndarray               # 1 feasible / 0 infeasible
    notes: dict[tuple[float, float], str] = field(default_factory=dict)

    def is_monotone_staircase(self) -> bool:
        """Feasibility must not decrease with warmer starts or later deadlines."""
        t = self.table
        rows_ok = np.all(t[:, 1:] >= t[:, :-1])
        cols_ok = np.all(t[1:, :] >= t[:-1, :])
        return bool(rows_ok and cols_ok)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["initial\\start"] + [_fmt(s) for s in self.start_times])
            for temp, row in zip(self.initial_temps, self.table):
                w.writerow([_fmt(temp)] + [str(int(v)) for v in row])


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def evaluate_cell(model: PlantModel, cfg: ControllerConfig, pred: LinearPredictor,
                  initial_temp: float, start_time: float,
                  integrator: IntegratorConfig = IntegratorConfig()
                  ) -> tuple[int, str]:
    """One sweep cell: uniform initial state, shifted supply deadline."""
    cell_cfg = replace(cfg, stl_specs=(supply_spec(start_time), DEFAULT_POWER_SPEC))
    x0 = np.full(plant_mod.N_STATES, float(initial_temp))
    try:
        trace = run_closed_loop(model, cell_cfg, pred, x0, integrator=integrator,
                                stop_on_infeasible=True)
    except Exception as exc:  # cell failures are recorded, the sweep continues
        return 0, f"error: {exc}"
    if trace.aborted:
        return 0, f"aborted: {trace.abort_reason}"
    if trace.n_infeasible > 0:
        first = next(i for i, s in enumerate(trace.statuses) if s != "optimal")
        return 0, f"infeasible at step {first}"
    final = trace.final_robustness()
    if min(final) < 0.0:
        return 0, f"realized robustness {min(final):.3g} < 0"
    return 1, "feasible"


def _cell_worker(args) -> tuple[int, int, int, str]:
    model, cfg, pred, i, j, temp, start, integrator = args
    val, note = evaluate_cell(model, cfg, pred, temp, start, integrator)
    return i, j, val, note


def feasibility_sweep(model: PlantModel, cfg: ControllerConfig,
                      pred: LinearPredictor,
                      initial_temps: Sequence[float] = DEFAULT_INITIAL_TEMPS,
                      start_times: Sequence[float] = DEFAULT_START_TIMES,
                      integrator: IntegratorConfig = IntegratorConfig(),
                      jobs: int = 1) -> SweepResult:
    """Grid of closed-loop feasibility over initial temperature and deadline.

    Cells are independent closed loops; ``jobs > 1`` runs them in separate
    processes with identical per-cell results.
    """
    initial_temps = tuple(float(v) for v in initial_temps)
    start_times = tuple(float(v) for v in start_times)
    table = np.zeros((len(initial_temps), len(start_times)), dtype=int)
    notes: dict[tuple[float, float], str] = {}
    tasks = [(model, cfg, pred, i, j, temp, start, integrator)
             for i, temp in enumerate(initial_temps)
             for j, start in enumerate(start_times)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell_worker, tasks))
    else:
        results = [_cell_worker(t) for t in tasks]
    for i, j, val, note in results:
        table[i, j] = val
        notes[(initial_temps[i], start_times[j])] = note
    return SweepResult(initial_temps=initial_temps, start_times=start_times,
                       table=table, notes=notes)
