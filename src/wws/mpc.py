"""Receding-horizon control with temporal-logic constraints.

The predictor is condensed over the horizon once per run (``condense``)
and once per deadline column of a sweep, and each specification is
compiled once per controller configuration into a template
(``stl.FormulaTemplate``).  Each step maps the lifted measured state onto
its free response y0 (one affine map), binds the template's slots (history
samples to their recorded values, horizon outputs to ``Y u + y0``, horizon
inputs to u), takes the template's rows (folded and emitted once per leaf
pattern, so only their right-hand side is new), maps each row's one slot
onto u, assembles the MIQP directly, solves it and applies the first input
under zeroth-order hold.

Specification windows follow the shrinking-horizon reading: past samples
are constants, samples inside the horizon are decision variables, and
window indices beyond the horizon are deferred to later steps.  That makes
long-window guarantees (for example a supply guarantee spanning the whole
run) solvable step by step: every index is enforced exactly once it enters
the horizon and is frozen once realized.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import plant as plant_mod
from .condense import CondensedHorizon, condense
from .milp import MiqpProblem
from .miqp import solve_miqp
from .plant import DivergenceError, PlantModel
from .predictor import LinearPredictor
from .stl import (
    DECISION,
    HISTORY,
    EncodingConfig,
    Formula,
    FormulaTemplate,
    SampledSignal,
    parse,
    resolve_end,
    robustness,
)

#: Heat-pump operating bands: the pump either idles (a few watts of standby
#: draw) or runs between 80% of rated power and the rated 26.5 kW.
DEFAULT_POWER_SPEC = ("alw_[0,end] (((u > 0.001) and (u < 0.01))"
                      " or ((u >= 21.2) and (u <= 26.5)))")


def supply_spec(start_time_s: float) -> str:
    """Supply guarantee with a configurable warm-up deadline."""
    return f"alw_[{format_number(start_time_s)},end] (y >= 40)"


def format_number(v: float) -> str:
    """``v`` as an integer when it is integral, else as its float repr."""
    return str(int(v)) if float(v).is_integer() else repr(float(v))


#: End of the warm-up transient [s], the default supply deadline.
DEFAULT_START_TIME = 420.0
#: Warm-water supply temperature guarantee: the tank output must stay at or
#: above 40 degC from the end of the warm-up transient until the final time.
DEFAULT_SUPPLY_SPEC = supply_spec(DEFAULT_START_TIME)


@dataclass(frozen=True)
class ControllerConfig:
    """Horizon, weights, bounds and specifications of the controller.

    The specifications are parsed once, at construction, into ``formulas``
    with the ``end`` token resolved to ``end_time``; the encoder and the
    prefix monitor both read them (a realized prefix clips every window
    to its last sample, which is never past ``end_time``).  ``templates``
    compiles the formulas on first use, once per configuration; they do
    not depend on the predictor.  A pickled configuration carries only its
    fields: the process that unpickles it compiles its own templates.
    """

    horizon: int = 10
    h: float = 60.0
    q_weight: float = 1.0
    r_weight: float = 10.0
    reference: float = 40.0
    u_min: float = 0.0
    u_max: float = 26.5
    end_time: float = 1200.0
    stl_specs: tuple[str, ...] = (DEFAULT_SUPPLY_SPEC, DEFAULT_POWER_SPEC)
    eps: float = 1e-6
    output_index: int = 5
    formulas: tuple[Formula, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.horizon < 1 or self.h <= 0 or self.end_time <= 0:
            raise ValueError("horizon, h and end_time must be positive")
        if self.q_weight <= 0 or self.r_weight <= 0:
            raise ValueError("weights must be positive")
        if not self.eps > 0:
            raise ValueError(f"eps, the strictness margin, must be positive, got {self.eps}")
        if self.end_time / self.h != round(self.end_time / self.h):
            raise ValueError("end_time must be a multiple of the sampling period")
        if not (np.isfinite(self.u_min) and np.isfinite(self.u_max) and self.u_min <= self.u_max):
            raise ValueError(f"inputs need a finite box, got [{self.u_min}, {self.u_max}]")
        object.__setattr__(self, "formulas", tuple(
            resolve_end(parse(text), self.end_time) for text in self.stl_specs))

    @property
    def n_steps(self) -> int:
        return int(round(self.end_time / self.h))

    def encoding(self) -> EncodingConfig:
        return EncodingConfig(
            channel_bounds={"y": plant_mod.STATE_BOUNDS, "u": (self.u_min, self.u_max)},
            eps=self.eps)

    @cached_property
    def templates(self) -> tuple[FormulaTemplate, ...]:
        enc = self.encoding()
        return tuple(FormulaTemplate(f, self.h, enc, name=f"stl{j}")
                     for j, f in enumerate(self.formulas))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("templates", None)
        return state


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


class StepProblem(NamedTuple):
    """The horizon MIQP of one step and what the step needs besides it.

    ``warm_sources`` holds, per binary in column order, its name followed
    by the names of the same disjunction or literal one to three samples
    earlier; ``u0_bounds`` holds ``(col, lo0, hi0, lo1, hi1)`` for every
    row that bounds the first input to an interval, the second interval
    applying when binary column ``col`` rounds to 1 (``col`` is -1 for an
    unconditional row).
    """

    problem: MiqpProblem
    u_names: list[str]
    n_binaries: int
    warm_sources: list[tuple[str, ...]]
    u0_bounds: list[tuple[int, float, float, float, float]]


def _bind(tmpl: FormulaTemplate, k: int, y_hist: np.ndarray, u_hist: np.ndarray,
          y0: np.ndarray, Y: np.ndarray):
    """State, value and map onto u of each slot of ``tmpl`` at step ``k``.

    Outputs up to sample k and inputs before it are history; the horizon's
    outputs k+1..k+Np are ``Y u + y0`` and its inputs k..k+Np-1 are u.  ``M``
    has one more row, the pad slot's zeros.
    """
    np_h = len(Y)
    n = len(tmpl.slots)
    state = np.zeros(n, dtype=np.int8)
    values = np.zeros(n)
    M = np.zeros((n + 1, np_h))
    # a channel's slots are one run ordered by sample: history, then the
    # horizon's decision samples, then unbound ones
    if "y" in tmpl.channel_slots:
        s0, t = tmpl.channel_slots["y"]
        d0, d1 = s0 + np.searchsorted(t, [k, k + np_h], side="right")
        i = t[d0 - s0:d1 - s0] - k - 1
        state[s0:d0], values[s0:d0] = HISTORY, y_hist[t[:d0 - s0]]
        state[d0:d1], values[d0:d1], M[d0:d1] = DECISION, y0[i], Y[i]
    if "u" in tmpl.channel_slots:
        s0, t = tmpl.channel_slots["u"]
        d0, d1 = s0 + np.searchsorted(t, [k, k + np_h], side="left")
        state[s0:d0], values[s0:d0] = HISTORY, u_hist[t[:d0 - s0]]
        state[d0:d1] = DECISION
        M[np.arange(d0, d1), t[d0 - s0:d1 - s0] - k] = 1.0
    return state, values, M


def build_step_problem(cfg: ControllerConfig, cond: CondensedHorizon,
                       x_k: Sequence[float], k: int, y_hist: Sequence[float],
                       u_hist: Sequence[float]) -> StepProblem:
    """Assemble the horizon MIQP at step ``k`` without solving it.

    ``cond`` is ``condense(pred, cfg)``, shared by every step of a run; a
    horizon condensed for another horizon, period, weight, reference or
    output is refused.  The columns are u, then each template's auxiliary
    variables in template order, and the rows follow the templates.  A row
    left with no coefficient is the constant ``0 <= b``: it is dropped, and
    a violated one marks the problem infeasible.  The problem is usable
    directly for problem dumps and cross-checking against external solvers.
    """
    if len(y_hist) != k + 1:
        raise ValueError(f"need {k + 1} output samples, got {len(y_hist)}")
    if len(u_hist) != k:
        raise ValueError(f"need {k} applied inputs, got {len(u_hist)}")
    cond.check(cfg)
    np_h = cond.horizon
    u_names = [f"u{k + i}" for i in range(np_h)]
    y0 = cond.free_response(x_k)
    f_u, obj_const = cond.linear_cost(y0)
    y_hist = np.asarray(y_hist, dtype=float)
    u_hist = np.asarray(u_hist, dtype=float)
    names, binary, blocks, sources, bounds, reasons = [*u_names], [False] * np_h, [], [], [], []
    for tmpl in cfg.templates:
        state, values, M = _bind(tmpl, k, y_hist, u_hist, y0, cond.Y)
        rows = tmpl.instantiate(state, values)
        if rows.infeasible:
            reasons.append(f"{rows.name}: violated by already-fixed samples")
        RM, aux, rhs = -rows.sign[:, None] * M[rows.slot], rows.aux, rows.rhs(values)
        live = RM.any(axis=1) | aux.any(axis=1)
        if not live.all():
            reasons += [f"constant constraint violated ({-v:.3g} > 0)"
                        for v in rhs[~live] if v < -1e-12]
            RM, aux, rhs = RM[live], aux[live], rhs[live]
        u_k = tmpl.slots.get(("u", k))
        bounds += [(-1 if a < 0 else len(names) + a, *box)
                   for slot, a, *box in rows.bounds if slot == u_k]
        blocks.append((len(names), RM, aux, rhs))
        names += rows.aux_names
        binary += rows.aux_binary
        sources += rows.warm_sources
    n = len(names)
    A = np.zeros((sum(len(rhs) for *_, rhs in blocks), n))
    b = np.zeros(len(A))
    r = 0
    for col, RM, aux, rhs in blocks:
        A[r:r + len(rhs), :np_h] = RM
        A[r:r + len(rhs), col:col + aux.shape[1]] = aux
        b[r:r + len(rhs)] = rhs
        r += len(rhs)
    H, f, lb, ub = np.zeros((n, n)), np.zeros(n), np.zeros(n), np.ones(n)
    H[:np_h, :np_h], f[:np_h], lb[:np_h], ub[:np_h] = cond.H, f_u, cfg.u_min, cfg.u_max
    problem = MiqpProblem(names=tuple(names), H=H, f=f, obj_const=obj_const, A=A, b=b,
                          lb=lb, ub=ub, binary=np.array(binary, dtype=bool),
                          infeasible_reason=reasons[0] if reasons else None)
    return StepProblem(problem, u_names, len(sources), sources, bounds)


def plan_step(cfg: ControllerConfig, cond: CondensedHorizon, x_k: Sequence[float],
              k: int, y_hist: Sequence[float], u_hist: Sequence[float],
              warm: dict[str, float] | None = None) -> StepResult:
    """Assemble and solve the horizon MIQP at step ``k``.

    ``y_hist`` holds measured outputs up to and including step ``k``;
    ``u_hist`` holds the ``k`` inputs already applied.  Returns the first
    optimal input, with the full solver assignment retained for warm
    starting the next step.
    """
    step = build_step_problem(cfg, cond, x_k, k, y_hist, u_hist)
    warm_binaries = _shift_warm(warm, step.warm_sources) if warm else None
    res = solve_miqp(step.problem, warm_binaries=warm_binaries)
    u0 = None
    if res.x is not None:
        u0 = _clamp_u0(res.x, step.u0_bounds)
    return StepResult(status=res.status, u0=u0,
                      objective=res.objective, assignment=res.assignment,
                      binaries=step.n_binaries, nodes=res.nodes,
                      infeasible_reason=step.problem.infeasible_reason)


def _clamp_u0(x: np.ndarray, bounds: Sequence[tuple[int, float, float, float, float]]
              ) -> float:
    """The first input moved onto the intervals its rows selected.

    The solver meets a row only to its tolerance, so the first input can
    sit a little outside the band its rounded binary chose; once applied
    it is history, and history folds with no tolerance.  Clamping to the
    predicates' own edges keeps the applied input on the band it was
    planned under.  Intervals that do not intersect leave it unclamped.
    """
    lo, hi = -np.inf, np.inf
    for col, lo0, hi0, lo1, hi1 in bounds:
        a, b = (lo1, hi1) if col >= 0 and x[col] >= 0.5 else (lo0, hi0)
        lo, hi = max(lo, a), min(hi, b)
    u0 = float(x[0])
    return min(max(u0, lo), hi) if lo <= hi else u0


def _shift_warm(prev: dict[str, float], sources: Sequence[tuple[str, ...]]
                ) -> list[float]:
    """Seed each binary, in column order, from the previous step's assignment.

    A binary takes its own previous value, else that of the same
    disjunction or literal one to three samples earlier, else 1.
    """
    return [next((prev[n] for n in chain if n in prev), 1.0) for chain in sources]


@dataclass
class ClosedLoopTrace:
    """Per-step record of the realized closed loop.

    Row ``k`` holds the state measured at time ``k h``, the input chosen at
    that time and the solver outcome.  The final row's input is planned but
    never applied, whether the loop ran to its end, stopped or aborted.
    ``robustness_so_far`` monitors each specification over the realized
    prefix, every window clipped to that prefix.
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
    plan_seconds: np.ndarray
    aborted: bool = False
    abort_reason: str | None = None

    @property
    def n_infeasible(self) -> int:
        return sum(1 for s in self.statuses if s != "optimal")

    def final_robustness(self) -> list[float]:
        """Realized robustness of each spec over the whole trace (the last
        row of ``robustness_so_far``)."""
        return self.robustness_so_far[-1].tolist()

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
                row += [repr(float(v)) for v in self.robustness_so_far[i]]
                w.writerow(row)


def run_closed_loop(model: PlantModel, cfg: ControllerConfig,
                    pred: LinearPredictor, x0: Sequence[float],
                    stop_on_infeasible: bool = False) -> ClosedLoopTrace:
    """Simulate the loop: measure, plan, apply the first input, repeat.

    ``run_condensed`` on ``condense(pred, cfg)``.
    """
    return run_condensed(model, condense(pred, cfg), x0, stop_on_infeasible)


def run_condensed(model: PlantModel, cond: CondensedHorizon, x0: Sequence[float],
                  stop_on_infeasible: bool = False) -> ClosedLoopTrace:
    """The closed loop of ``cond.cfg`` on ``model`` from ``x0``.

    Each step appends its row to plain lists, from which the trace is built
    once.  The last step's plan is solved but not applied: at the final
    sample (so the input channel covers the whole window of the power
    specification), at an infeasible step under ``stop_on_infeasible``,
    and before a plant step that raises ``DivergenceError`` (the trace is
    then ``aborted``).  On an infeasible step the best-effort incumbent is
    applied if the solver produced one, otherwise the previous input is
    held.  The plant runs at the predictor's ambient ``cond.pred.w``.  The
    controller must read the plant's output state.
    """
    cfg, pred = cond.cfg, cond.pred
    if cfg.output_index != model.output_index:
        raise ValueError(f"controller reads x{cfg.output_index}, "
                         f"plant output is x{model.output_index}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (plant_mod.N_STATES,):
        raise ValueError(f"initial state needs shape ({plant_mod.N_STATES},), got {x.shape}")
    cfg.templates  # compiled once per configuration, before the first step
    warm: dict[str, float] | None = None
    states, y_hist, u_hist, statuses, objectives = [], [], [], [], []
    binaries, nodes, rob, plan_seconds = [], [], [], []
    abort_reason = None
    for k in range(cfg.n_steps + 1):
        states.append(x)
        y_hist.append(plant_mod.output(x, cfg.output_index))
        t_plan = time.perf_counter()
        step_res = plan_step(cfg, cond, x, k, y_hist, u_hist, warm=warm)
        plan_seconds.append(time.perf_counter() - t_plan)
        statuses.append(step_res.status)
        objectives.append(np.nan if step_res.objective is None else step_res.objective)
        binaries.append(step_res.binaries)
        nodes.append(step_res.nodes)
        u_k = step_res.u0 if step_res.u0 is not None else (u_hist[-1] if u_hist else 0.0)
        warm = step_res.assignment if step_res.assignment is not None else warm
        sig = SampledSignal({"y": np.array(y_hist), "u": np.array(u_hist + [u_k])}, cfg.h)
        rob.append([robustness(f, sig, 0, prefix=True) for f in cfg.formulas])
        if k == cfg.n_steps or (stop_on_infeasible and step_res.status != "optimal"):
            break
        try:
            x = plant_mod.step(model, x, u_k, pred.w, cfg.h)
        except DivergenceError as exc:
            abort_reason = str(exc)
            break
        u_hist.append(u_k)
    steps = len(states)
    return ClosedLoopTrace(
        h=cfg.h, times=np.arange(steps) * cfg.h, states=np.array(states),
        inputs=np.array(u_hist + [u_k]), disturbances=np.full(steps, pred.w),
        outputs=np.array(y_hist), statuses=statuses, objectives=np.array(objectives),
        binaries=np.array(binaries, dtype=int), nodes=np.array(nodes, dtype=int),
        robustness_so_far=np.array(rob), spec_texts=cfg.stl_specs,
        plan_seconds=np.array(plan_seconds),
        aborted=abort_reason is not None, abort_reason=abort_reason)


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
            w.writerow(["initial\\start"] + [format_number(s) for s in self.start_times])
            for temp, row in zip(self.initial_temps, self.table):
                w.writerow([format_number(temp)] + [str(int(v)) for v in row])


def evaluate_cell(model: PlantModel, cond: CondensedHorizon,
                  initial_temp: float) -> tuple[int, str]:
    """One sweep cell: uniform initial state under its column's condensed
    controller."""
    x0 = np.full(plant_mod.N_STATES, float(initial_temp))
    try:
        trace = run_condensed(model, cond, x0, stop_on_infeasible=True)
    except Exception as exc:  # cell failures are recorded, the sweep continues
        return 0, f"error: {exc}"
    if trace.aborted:
        return 0, f"aborted: {trace.abort_reason}"
    if trace.n_infeasible > 0:  # the loop stopped at its first infeasible step
        return 0, f"infeasible at step {len(trace.statuses) - 1}"
    final = trace.final_robustness()
    if min(final) < 0.0:
        return 0, f"realized robustness {min(final):.3g} < 0"
    return 1, "feasible"


def feasibility_sweep(model: PlantModel, cfg: ControllerConfig,
                      pred: LinearPredictor,
                      initial_temps: Sequence[float] = DEFAULT_INITIAL_TEMPS,
                      start_times: Sequence[float] = DEFAULT_START_TIMES,
                      jobs: int = 1) -> SweepResult:
    """Grid of closed-loop feasibility over initial temperature and deadline.

    The sweep owns the specifications: each deadline column replaces
    ``cfg.stl_specs`` with the supply guarantee at its deadline and the
    power specification.  Each column is condensed once, here, and its
    cells share that condensed horizon and its configuration, so in one
    process a column's specs are parsed and compiled once; a column whose
    condensing fails gives each of its cells that error.  Cells are
    independent closed loops; ``jobs > 1`` spreads them over that many
    processes, each cell's condensed horizon travelling with its
    arguments (its configuration without templates, which each worker
    compiles), with identical per-cell results, and ``jobs == 1`` runs
    them here in order.
    """
    initial_temps = tuple(float(v) for v in initial_temps)
    start_times = tuple(float(v) for v in start_times)
    table = np.zeros((len(initial_temps), len(start_times)), dtype=int)
    notes: dict[tuple[float, float], str] = {}
    columns: list[CondensedHorizon | str] = []
    for start in start_times:
        column = replace(cfg, stl_specs=(supply_spec(start), DEFAULT_POWER_SPEC))
        try:
            columns.append(condense(pred, column))
        except Exception as exc:  # recorded in each of the column's cells
            columns.append(f"error: {exc}")
    cells = [(i, j) for i in range(len(initial_temps)) for j in range(len(start_times))]
    run = [(i, j) for i, j in cells if not isinstance(columns[j], str)]
    results = dict(zip(run, plant_mod.map_blocks(
        evaluate_cell, [(model, columns[j], initial_temps[i]) for i, j in run], jobs)))
    for i, j in cells:
        val, note = results.get((i, j), (0, columns[j]))
        table[i, j] = val
        notes[(initial_temps[i], start_times[j])] = note
    return SweepResult(initial_temps=initial_temps, start_times=start_times,
                       table=table, notes=notes)
