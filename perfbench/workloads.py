"""The three benchmark workloads and the checks on their outputs.

Each workload has an in-process set-up (plant load and any predictor fit),
a timed unit of work, and a check that counts failed operations in one
unit's output.  The seed drives only the generated inputs: the snapshot
draws of every fit and the held-out states of the fit check.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIT_K = 1000            # snapshot pairs per `wws fit` call (fit-nominal)
DEMO_FIT_K = 1000       # pairs of the demo predictor fitted at set-up
HELD_OUT = 40           # held-out columns checked against plant.step
EXPECTED_RANK = 18      # 16 observables + input + disturbance
READOUT_TOL = 1e-8      # max |C lift(x) - x| on the training set
HELD_OUT_TOL = 1e-6     # max |one-step prediction - plant.step|, degC
ROBUSTNESS_TOL = 1e-6
SUPPLY_FLOOR = 40.0
SWEEP_NOTE = "infeasible at step 0"
SWEEP_DEADLINES = (60,)  # seconds; unreachable from every start temperature


@dataclass
class UnitResult:
    """One timed unit: its wall time, operations done, latency samples."""

    wall_s: float
    ops: int
    latencies_s: list[float]
    payload: object = None


@dataclass
class CheckResult:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def _quiet_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class FitNominal:
    """`wws fit --plant nominal` through cli.main; the plant layer dominates."""

    op_name = "snapshot pair"
    latency_of = "one `wws fit` call"

    def __init__(self, wws: dict, seed: int, workdir: Path):
        self.wws = wws
        self.seed = seed
        self.out = workdir / "fit"
        self.first_bytes: bytes | None = None

    def setup(self) -> None:
        self.model = self.wws["wws.plant"].PlantModel.nominal()
        self.integrator = self.wws["wws.cli"].ExperimentConfig().integrator_config()

    def unit(self) -> UnitResult:
        argv = ["fit", "--plant", "nominal", "--K", str(FIT_K),
                "--seed", str(self.seed), "--out", str(self.out)]
        t0 = time.perf_counter()
        rc = _quiet_cli(self.wws["wws.cli"], argv)
        wall = time.perf_counter() - t0
        return UnitResult(wall, FIT_K, [wall], rc)

    def check(self, res: UnitResult) -> CheckResult:
        chk = CheckResult()
        if res.payload != 0:
            chk.fail(res.ops, f"wws fit exited {res.payload}")
            return chk
        report = json.loads((self.out / "fit_report.json").read_text())
        rank = report["dynamics"]["rank"]
        if rank != EXPECTED_RANK:
            chk.fail(res.ops, f"dynamics rank {rank} != {EXPECTED_RANK}")
            return chk
        if not report["readout"]["residual_max"] <= READOUT_TOL:
            chk.fail(res.ops, f"readout residual {report['readout']['residual_max']:.3g}")
            return chk
        blob = (self.out / "predictor.json").read_bytes()
        if self.first_bytes is None:
            self.first_bytes = blob
            err = self._held_out_error()
            if not err <= HELD_OUT_TOL:
                chk.fail(res.ops, f"held-out one-step error {err:.3g} degC")
        elif blob != self.first_bytes:
            chk.fail(res.ops, "predictor bytes differ between equal-seed fits")
        return chk

    def _held_out_error(self) -> float:
        """Worst one-step disagreement with the plant on fresh draws."""
        plant = self.wws["wws.plant"]
        pred = self.wws["wws.predictor"].LinearPredictor.from_json(
            self.out / "predictor.json")
        cfg = self.wws["wws.cli"].ExperimentConfig()
        rng = np.random.default_rng([self.seed, 1])
        X = rng.uniform(*cfg.state_range, size=(plant.N_STATES, HELD_OUT))
        off = rng.uniform(size=HELD_OUT) < cfg.p_off
        U = np.where(off, 0.0, rng.uniform(*cfg.u_band, size=HELD_OUT))
        worst = 0.0
        for i in range(HELD_OUT):
            truth = plant.step(self.model, X[:, i], U[i], cfg.w0, cfg.h,
                               self.integrator)
            guess = pred.predict(X[:, i], [U[i]], [cfg.w0])[1]
            worst = max(worst, float(np.max(np.abs(guess - truth))))
        return worst


def _fit_demo(wws: dict, seed: int):
    """The demo predictor of the README's closed-loop example."""
    P = wws["wws.predictor"]
    data = P.generate_dataset(wws["wws.plant"].PlantModel.demo(), P.DatasetConfig(
        K=DEMO_FIT_K, state_range=(5.0, 60.0), seed=seed))
    return P.fit_edmd_from_dataset(P.DEFAULT_OBSERVABLES, data)


class LoopDemo:
    """Closed loops of the demo controller from every default start temperature."""

    op_name = "plan"
    latency_of = "one plan at step >= 1"

    def __init__(self, wws: dict, seed: int, workdir: Path):
        self.wws = wws
        self.seed = seed
        self.reference: list[np.ndarray] | None = None

    def setup(self) -> None:
        mpc = self.wws["wws.mpc"]
        self.model = self.wws["wws.plant"].PlantModel.demo()
        self.pred = _fit_demo(self.wws, self.seed)
        self.cfg = mpc.ControllerConfig(reference=42.0, r_weight=0.02)
        self.temps = mpc.DEFAULT_INITIAL_TEMPS

    def unit(self) -> UnitResult:
        mpc = self.wws["wws.mpc"]
        traces = []
        wall = 0.0
        for temp in self.temps:
            x0 = np.full(6, float(temp))
            t0 = time.perf_counter()
            traces.append(mpc.run_closed_loop(self.model, self.cfg, self.pred, x0))
            wall += time.perf_counter() - t0
        warm = [float(s) for tr in traces for s in tr.plan_seconds[1:]]
        ops = sum(len(tr.statuses) for tr in traces)
        return UnitResult(wall, ops, warm, traces)

    def check(self, res: UnitResult) -> CheckResult:
        chk = CheckResult()
        start_idx = int(np.ceil(420.0 / self.cfg.h - 1e-9))
        traces = res.payload
        for temp, tr in zip(self.temps, traces):
            steps = len(tr.statuses)
            if steps != self.cfg.n_steps + 1 or tr.aborted:
                chk.fail(self.cfg.n_steps + 1,
                         f"x0={temp}: {steps} steps, aborted={tr.aborted}")
                continue
            if tr.n_infeasible:
                chk.fail(tr.n_infeasible, f"x0={temp}: {tr.n_infeasible} infeasible steps")
                continue
            y_min = float(np.min(tr.outputs[start_idx:]))
            rob = min(tr.final_robustness())
            if y_min < SUPPLY_FLOOR or rob < -ROBUSTNESS_TOL:
                chk.fail(steps, f"x0={temp}: min y {y_min:.4f}, robustness {rob:.3g}")
        outputs = [tr.outputs for tr in traces]
        if self.reference is None:
            self.reference = outputs
        elif any(a.shape != b.shape or not np.array_equal(a, b)
                 for a, b in zip(outputs, self.reference)):
            chk.fail(res.ops, "closed-loop outputs differ between equal inputs")
        return chk


class SweepCertify:
    """`wws sweep --plant demo` at a 60 s deadline; every QP is a certificate.

    From any of the seven default start temperatures the demo plant cannot
    lift the supply to 40 degC within one minute, so every cell ends at
    step 0 with a phase-1 infeasibility proof on a well-scaled problem.
    """

    op_name = "sweep cell"
    latency_of = "one `wws sweep` call (7 cells)"

    def __init__(self, wws: dict, seed: int, workdir: Path):
        self.wws = wws
        self.seed = seed
        self.pred_path = workdir / "demo_predictor.json"
        self.out = workdir / "sweep"

    def setup(self) -> None:
        _fit_demo(self.wws, self.seed).to_json(self.pred_path)

    def unit(self) -> UnitResult:
        cells = len(self.wws["wws.mpc"].DEFAULT_INITIAL_TEMPS) * len(SWEEP_DEADLINES)
        argv = ["sweep", "--plant", "demo", "--predictor", str(self.pred_path),
                "--reference", "42", "--r-weight", "0.02",
                "--start-times", *[str(d) for d in SWEEP_DEADLINES],
                "--out", str(self.out), "--jobs", "1"]
        t0 = time.perf_counter()
        rc = _quiet_cli(self.wws["wws.cli"], argv)
        wall = time.perf_counter() - t0
        return UnitResult(wall, cells, [wall], rc)

    def check(self, res: UnitResult) -> CheckResult:
        chk = CheckResult()
        if res.payload != 0:
            chk.fail(res.ops, f"wws sweep exited {res.payload}")
            return chk
        notes = json.loads((self.out / "sweep_notes.json").read_text())["notes"]
        if len(notes) != res.ops:
            chk.fail(res.ops, f"{len(notes)} notes for {res.ops} cells")
            return chk
        for cell, note in notes.items():
            # an "error: ..." note is a crash, never an infeasible cell
            if note != SWEEP_NOTE:
                chk.fail(1, f"cell {cell}: {note}")
        return chk


WORKLOADS = {
    "fit-nominal": FitNominal,
    "loop-demo": LoopDemo,
    "sweep-certify": SweepCertify,
}
