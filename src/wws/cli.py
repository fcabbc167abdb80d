"""Experiment driver: ``wws fit|run|sweep|bench``.

Configuration is resolved in order: built-in defaults, then a JSON config
file (``--config``), then ``WWS_*`` environment variables, then explicit
command-line flags; an unknown config key or ``WWS_*`` variable is an
error, so a typo cannot silently leave a default in place.  All outputs (predictor files, trace CSVs, summaries,
sweep tables, reports) land in ``--out`` and every subcommand is
deterministic under a fixed seed.

Exit codes: 0 success, 2 a closed-loop run recorded an infeasible step,
1 any other failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mpc, plant as plant_mod, predictor as pred_mod
from .milp import dump_lp
from .mpc import ControllerConfig
from .plant import IntegratorConfig, PlantModel
from .predictor import DEFAULT_OBSERVABLES, DatasetConfig, LinearPredictor
from .stl import spec_lines

ENV_PREFIX = "WWS_"


@dataclass
class ExperimentConfig:
    """Everything a subcommand needs, JSON- and environment-overridable."""

    plant: str = "nominal"              # "nominal" | "demo" | path to JSON
    predictor: str | None = None        # path; fitted on the fly when absent
    out: str = "out"
    seed: int = 0
    # dataset / fit
    K: int = 10_000
    state_range: tuple[float, float] = (10.0, 40.0)
    u_band: tuple[float, float] = (21.2, 26.5)
    p_off: float = 0.2
    w0: float = 10.0
    local: bool = False
    target_y: float = 40.0
    # controller
    horizon: int = 10
    h: float = 60.0
    q_weight: float = 1.0
    r_weight: float = 10.0
    reference: float = 40.0
    u_min: float = 0.0
    u_max: float = 26.5
    end_time: float = 1200.0
    start_time: float = 420.0
    w_forecast: float = 10.0
    eps: float = 1e-6
    stl_file: str | None = None
    no_stl: bool = False
    x0: float = 15.0
    jobs: int = 1
    # sweep grids
    initial_temps: tuple[float, ...] = mpc.DEFAULT_INITIAL_TEMPS
    start_times: tuple[float, ...] = mpc.DEFAULT_START_TIMES
    # bench
    bench_rollouts: int = 20
    bench_steps: int = 10
    # extras
    svg: bool = False
    dump_lp: str | None = None

    def integrator_config(self) -> IntegratorConfig:
        """LSODA's tolerances, the ones every plant step uses."""
        return IntegratorConfig()

    def load_plant(self) -> PlantModel:
        if self.plant == "nominal":
            return PlantModel.nominal()
        if self.plant == "demo":
            return PlantModel.demo()
        return PlantModel.from_json(self.plant)

    def spec_texts(self) -> tuple[str, ...]:
        if self.no_stl:
            return ()
        if self.stl_file is None:
            return (mpc.supply_spec(self.start_time), mpc.DEFAULT_POWER_SPEC)
        return tuple(spec_lines(Path(self.stl_file).read_text()))

    def controller(self, model: PlantModel) -> ControllerConfig:
        """The controller that reads ``model``'s output; parses the specs."""
        return ControllerConfig(
            horizon=self.horizon, h=self.h, q_weight=self.q_weight,
            r_weight=self.r_weight, reference=self.reference,
            u_min=self.u_min, u_max=self.u_max, end_time=self.end_time,
            stl_specs=self.spec_texts(), w_forecast=self.w_forecast,
            eps=self.eps, output_index=model.output_index)

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(K=self.K, state_range=self.state_range,
                             u_band=self.u_band, p_off=self.p_off, w0=self.w0,
                             h=self.h, seed=self.seed)


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce(value: str, current):
    if isinstance(current, bool):
        if value.lower() in _TRUE + _FALSE:
            return value.lower() in _TRUE
        raise ValueError(f"{value!r} is not one of {', '.join(_TRUE + _FALSE)}")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    if isinstance(current, tuple):
        parsed = json.loads(value)
        if not isinstance(parsed, list):
            raise ValueError(f"{value!r} is not a JSON list")
        return _floats(parsed)
    return value


def _floats(items) -> tuple[float, ...]:
    """A tuple setting from a list, every element a finite float()."""
    if not isinstance(items, list):
        raise ValueError(f"{items!r} is not a list")
    try:
        values = tuple(float(v) for v in items)
    except (TypeError, ValueError):
        raise ValueError(f"{items!r} is not a list of numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{items!r} is not a list of finite numbers")
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        for key, val in doc.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            if isinstance(getattr(cfg, key), tuple):
                try:
                    val = _floats(val)
                except ValueError as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
            setattr(cfg, key, val)
    env_fields = {ENV_PREFIX + f.name.upper(): f.name
                  for f in dataclasses.fields(ExperimentConfig)}
    for var in sorted(v for v in os.environ if v.startswith(ENV_PREFIX)):
        if var not in env_fields:
            raise ValueError(f"unknown environment variable {var}")
        name = env_fields[var]
        try:
            setattr(cfg, name, _coerce(os.environ[var], getattr(cfg, name)))
        except ValueError as exc:
            raise ValueError(f"{var}: {exc}") from exc
    for f in dataclasses.fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None and isinstance(getattr(cfg, f.name), tuple):
            try:
                val = _floats(val)
            except ValueError as exc:
                raise ValueError(f"--{f.name.replace('_', '-')}: {exc}") from None
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _load_or_fit_predictor(cfg: ExperimentConfig, model: PlantModel) -> LinearPredictor:
    if cfg.predictor is not None:
        return LinearPredictor.from_json(cfg.predictor)
    data = pred_mod.generate_dataset(model, cfg.dataset_config())
    return pred_mod.fit_edmd_from_dataset(DEFAULT_OBSERVABLES, data)


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(cfg: ExperimentConfig) -> int:
    model = cfg.load_plant()
    t0 = time.perf_counter()
    if cfg.local:
        eq = pred_mod.find_equilibrium(model, cfg.w0, cfg.target_y,
                                       u_bounds=(cfg.u_min, cfg.u_max))
        predictor = pred_mod.linearize_local(model, eq.x, eq.u, cfg.w0, cfg.h)
        predictor.meta.update({"seed": cfg.seed, "target_y": cfg.target_y,
                               "u_within_bounds": eq.u_within_bounds})
        report = {"kind": "local-linearization", "target_y": cfg.target_y,
                  "equilibrium_u": eq.u, "residual": eq.residual,
                  "u_within_bounds": eq.u_within_bounds}
    else:
        data = pred_mod.generate_dataset(model, cfg.dataset_config())
        predictor = pred_mod.fit_edmd_from_dataset(DEFAULT_OBSERVABLES, data)
        report = {"kind": "lifted-regression", **predictor.meta["fit"]}
    report["seconds"] = time.perf_counter() - t0

    out = Path(cfg.out)
    if out.suffix == ".json":
        out.parent.mkdir(parents=True, exist_ok=True)
        pred_path = out
        report_path = out.with_name(out.stem + "_report.json")
    else:
        out.mkdir(parents=True, exist_ok=True)
        pred_path = out / "predictor.json"
        report_path = out / "fit_report.json"
    predictor.to_json(pred_path)
    report_path.write_text(json.dumps(report, indent=1, default=float))
    print(f"wrote {pred_path} and {report_path}")
    return 0


def cmd_run(cfg: ExperimentConfig) -> int:
    model = cfg.load_plant()
    controller = cfg.controller(model)
    predictor = _load_or_fit_predictor(cfg, model)
    out = _outdir(cfg)
    x0 = np.full(plant_mod.N_STATES, cfg.x0)
    if cfg.dump_lp:
        step = mpc.build_step_problem(
            controller, mpc.condense(predictor, controller), x0, 0,
            [plant_mod.output(x0, model.output_index)], [])
        dump_lp(step.problem, cfg.dump_lp)
    t0 = time.perf_counter()
    trace = mpc.run_closed_loop(model, controller, predictor, x0)
    wall = time.perf_counter() - t0
    trace.write_csv(out / "trace.csv")
    start_idx = int(np.ceil(cfg.start_time / cfg.h - 1e-9))
    y_after = trace.outputs[start_idx:] if len(trace.outputs) > start_idx else np.array([])
    summary = {
        "statuses": trace.statuses,
        "n_infeasible": trace.n_infeasible,
        "aborted": trace.aborted,
        "min_y_after_start": float(y_after.min()) if y_after.size else None,
        "max_y_after_start": float(y_after.max()) if y_after.size else None,
        "final_robustness": trace.final_robustness() if not trace.aborted and
                            len(trace.times) == controller.n_steps + 1 else None,
        "solver_seconds": float(trace.plan_seconds.sum()),
        "wall_seconds": wall,
        "seed": cfg.seed,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1, default=float))
    if cfg.svg:
        _write_run_svg(out / "trace.svg", trace, cfg)
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    return 2 if trace.n_infeasible > 0 or trace.aborted else 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    for name in ("stl_file", "no_stl"):
        if getattr(cfg, name):
            raise ValueError(f"wws sweep sets the specifications of each cell; "
                             f"{name} is not supported here")
    model = cfg.load_plant()
    controller = cfg.controller(model)
    predictor = _load_or_fit_predictor(cfg, model)
    out = _outdir(cfg)
    result = mpc.feasibility_sweep(model, controller, predictor,
                                   initial_temps=cfg.initial_temps,
                                   start_times=cfg.start_times, jobs=cfg.jobs)
    result.write_csv(out / "sweep.csv")
    notes = {f"{mpc._fmt(k[0])},{mpc._fmt(k[1])}": v for k, v in result.notes.items()}
    (out / "sweep_notes.json").write_text(json.dumps(
        {"monotone_staircase": result.is_monotone_staircase(), "notes": notes},
        indent=1))
    print(f"wrote {out / 'sweep.csv'}")
    errors = [f"{cell}: {note}" for cell, note in notes.items()
              if note.startswith("error:")]
    if errors:
        # a crashed cell reads 0 in the table; it must not pass as infeasible
        print(f"{len(errors)} sweep cell(s) failed:", *errors, sep="\n  ",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench(cfg: ExperimentConfig) -> int:
    model = cfg.load_plant()
    predictor = _load_or_fit_predictor(cfg, model)
    if predictor.h != cfg.h:
        raise ValueError(f"predictor sampled at h={predictor.h:g} s, "
                         f"plant stepped at h={cfg.h:g} s")
    draw = cfg.dataset_config()  # rollouts start from the fit's validated draw
    out = _outdir(cfg)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = draw.state_range
    steps = cfg.bench_steps
    rollouts = cfg.bench_rollouts
    x0 = np.empty((plant_mod.N_STATES, rollouts))
    u = np.empty((steps, rollouts))
    for i in range(rollouts):
        x0[:, i] = rng.uniform(lo, hi, size=plant_mod.N_STATES)
        off = rng.uniform(size=steps) < draw.p_off
        u[:, i] = np.where(off, 0.0,
                           rng.uniform(draw.u_band[0], draw.u_band[1], size=steps))
    w = np.full(steps, draw.w0)
    # all rollouts advance together: one block plant step per time step
    truth = plant_mod.simulate(model, x0, u, w, cfg.h)
    sq_err = np.zeros((steps + 1, plant_mod.N_STATES))
    zero_step = 0.0
    for i in range(rollouts):
        guess = predictor.predict(x0[:, i], u[:, i], w)
        sq_err += (truth[:, :, i] - guess) ** 2
        zero_step = max(zero_step, float(np.max(np.abs(guess[0] - x0[:, i]))))
    rmse = np.sqrt(sq_err / rollouts)
    report = {
        "rollouts": rollouts,
        "steps": steps,
        "h": cfg.h,
        "seed": cfg.seed,
        "zero_step_max_error": zero_step,
        "rmse_per_step": {f"x{i + 1}": rmse[:, i].tolist()
                          for i in range(plant_mod.N_STATES)},
    }
    (out / "bench.json").write_text(json.dumps(report, indent=1, default=float))
    print(f"wrote {out / 'bench.json'}")
    return 0


# ---------------------------------------------------------------------------
# Minimal SVG emission (line plots of the run trace)
# ---------------------------------------------------------------------------


def _polyline(xs, ys, x0, y0, w, h, xmin, xmax, ymin, ymax, color) -> str:
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    pts = " ".join(
        f"{x0 + (x - xmin) / span_x * w:.2f},{y0 + h - (y - ymin) / span_y * h:.2f}"
        for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>')


def _write_run_svg(path: Path, trace: mpc.ClosedLoopTrace,
                   cfg: ExperimentConfig) -> None:
    t = trace.times
    panels = [
        ("supply temperature [degC]", trace.outputs, [cfg.reference], "#1f77b4"),
        ("heat pump power [kW]", trace.inputs, [cfg.u_band[0], cfg.u_band[1]], "#d62728"),
    ]
    w, h, pad = 640, 180, 45
    rows = []
    for i, (label, ys, guides, color) in enumerate(panels):
        y0 = pad + i * (h + pad)
        ymin = min(float(np.min(ys)), min(guides)) - 2
        ymax = max(float(np.max(ys)), max(guides)) + 2
        rows.append(f'<text x="{pad}" y="{y0 - 8}" font-size="12">{label}</text>')
        rows.append(f'<rect x="{pad}" y="{y0}" width="{w}" height="{h}" '
                    f'fill="none" stroke="#999"/>')
        for g in guides:
            gy = y0 + h - (g - ymin) / (ymax - ymin) * h
            rows.append(f'<line x1="{pad}" y1="{gy:.2f}" x2="{pad + w}" y2="{gy:.2f}" '
                        f'stroke="#bbb" stroke-dasharray="4 3"/>')
        rows.append(_polyline(t, ys, pad, y0, w, h, t[0], t[-1], ymin, ymax, color))
        rows.append(f'<text x="{pad}" y="{y0 + h + 16}" font-size="11">'
                    f't = {t[0]:.0f} .. {t[-1]:.0f} s; '
                    f'range {ymin + 2:.1f} .. {ymax - 2:.1f}</text>')
    total_h = pad + len(panels) * (h + pad)
    doc = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w + 2 * pad}" '
           f'height="{total_h}">' + "".join(rows) + "</svg>")
    path.write_text(doc)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory (fit: file or dir)")
    p.add_argument("--plant", default=None, help="'nominal', 'demo' or a JSON path")
    p.add_argument("--predictor", default=None, help="predictor JSON to reuse")
    p.add_argument("--jobs", type=int, default=None)


def _add_fit_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=int, default=None, dest="K")
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--state-range", type=float, nargs=2, default=None,
                   dest="state_range")
    p.add_argument("--u-band", type=float, nargs=2, default=None, dest="u_band")
    p.add_argument("--p-off", type=float, default=None, dest="p_off")
    p.add_argument("--w0", type=float, default=None)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wws",
                                 description="warm-water supply control stack")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate a predictor and write it to disk")
    _add_common(fit)
    _add_fit_params(fit)
    fit.add_argument("--local", action="store_true", default=None,
                     help="local-linearization baseline instead of regression")
    fit.add_argument("--target-y", type=float, default=None, dest="target_y")

    run = sub.add_parser("run", help="closed-loop simulation")
    _add_common(run)
    _add_fit_params(run)
    run.add_argument("--x0", type=float, default=None, help="uniform initial state")
    run.add_argument("--no-stl", action="store_true", default=None, dest="no_stl")
    run.add_argument("--stl-file", default=None, dest="stl_file")
    run.add_argument("--start-time", type=float, default=None, dest="start_time")
    run.add_argument("--end-time", type=float, default=None, dest="end_time")
    run.add_argument("--horizon", type=int, default=None)
    run.add_argument("--q-weight", type=float, default=None, dest="q_weight")
    run.add_argument("--r-weight", type=float, default=None, dest="r_weight")
    run.add_argument("--reference", type=float, default=None)
    run.add_argument("--svg", action="store_true", default=None)
    run.add_argument("--dump-lp", default=None, dest="dump_lp",
                     help="write the step-0 problem in LP-style text")

    sweep = sub.add_parser("sweep", help="feasibility table over initial "
                                         "temperatures and deadlines")
    _add_common(sweep)
    _add_fit_params(sweep)
    sweep.add_argument("--initial-temps", type=float, nargs="+", default=None,
                       dest="initial_temps")
    sweep.add_argument("--start-times", type=float, nargs="+", default=None,
                       dest="start_times")
    sweep.add_argument("--end-time", type=float, default=None, dest="end_time")
    sweep.add_argument("--q-weight", type=float, default=None, dest="q_weight")
    sweep.add_argument("--r-weight", type=float, default=None, dest="r_weight")
    sweep.add_argument("--reference", type=float, default=None)

    bench = sub.add_parser("bench", help="predictor-vs-plant rollout accuracy")
    _add_common(bench)
    _add_fit_params(bench)
    bench.add_argument("--bench-rollouts", type=int, default=None,
                       dest="bench_rollouts")
    bench.add_argument("--bench-steps", type=int, default=None, dest="bench_steps")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "bench":
            return cmd_bench(cfg)
        raise SystemExit(f"unknown command {args.command!r}")
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
