"""Experiment driver: ``wws fit|run|sweep|bench``.

Configuration is resolved in order: built-in defaults, then a JSON config
file (``--config``), then ``WWS_*`` environment variables, then explicit
command-line flags.  One function checks every value against its
setting's default type, whatever the source: numbers must be finite (and
integral for integer settings), config files take strict JSON types
(``true``, not ``"yes"``; ``100``, not ``"100"``) and optional paths may be
``null``.  An unknown config key or ``WWS_*`` variable is an error, so a
typo cannot silently leave a default in place.  Each subcommand lists the
settings it reads in :data:`COMMANDS` and takes exactly those, as flags,
config keys and ``WWS_*`` variables; any other is an error (``jobs``, for
one, is read by ``sweep`` only), and so is a fit setting of
:data:`FIT_ONLY` while a predictor file is given.  All outputs (predictor
files, trace CSVs, summaries, sweep tables, reports) land in ``--out`` and
every subcommand is deterministic under a fixed seed.

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
    """Everything a subcommand needs, JSON- and environment-overridable;
    controller and dataset defaults are read from their owners."""

    plant: str = "nominal"              # "nominal" | "demo" | path to JSON
    predictor: str | None = None        # path; fitted on the fly when absent
    out: str = "out"
    seed: int = DatasetConfig.seed
    # dataset / fit
    K: int = DatasetConfig.K
    state_range: tuple[float, float] = DatasetConfig.state_range
    u_band: tuple[float, float] = DatasetConfig.u_band
    p_off: float = DatasetConfig.p_off
    w0: float = DatasetConfig.w0
    local: bool = False
    target_y: float = 40.0
    # controller
    horizon: int = ControllerConfig.horizon
    h: float = ControllerConfig.h
    r_weight: float = ControllerConfig.r_weight
    reference: float = ControllerConfig.reference
    u_min: float = ControllerConfig.u_min
    u_max: float = ControllerConfig.u_max
    end_time: float = ControllerConfig.end_time
    start_time: float = mpc.DEFAULT_START_TIME
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
            horizon=self.horizon, h=self.h, r_weight=self.r_weight,
            reference=self.reference, u_min=self.u_min, u_max=self.u_max,
            end_time=self.end_time, stl_specs=self.spec_texts(),
            output_index=model.output_index)

    def dataset_config(self) -> DatasetConfig:
        return DatasetConfig(K=self.K, state_range=self.state_range,
                             u_band=self.u_band, p_off=self.p_off, w0=self.w0,
                             h=self.h, seed=self.seed)


_WORDS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
SETTINGS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _setting(name: str, value, where: str):
    """``value`` as setting ``name``, checked against its default's type.

    ``where`` names the source and starts every error: ``config key 'x'``,
    ``--x`` or ``WWS_X``.  An environment value is text, read first as a
    bool word, a JSON list or a number; the other sources arrive typed.
    """
    default = getattr(ExperimentConfig, name)
    kind = type(default)
    try:
        if where.startswith(ENV_PREFIX):
            if kind is bool:
                if value.lower() not in _WORDS:
                    raise ValueError(f"{value!r} is not one of {', '.join(_WORDS)}")
                value = _WORDS[value.lower()]
            elif kind is tuple:
                parsed = json.loads(value)
                if not isinstance(parsed, list):
                    raise ValueError(f"{value!r} is not a JSON list")
                value = parsed
            elif kind in (int, float):
                value = kind(value)
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError(f"{value!r} is not true or false")
            return value
        if kind is tuple:
            if not isinstance(value, list):
                raise ValueError(f"{value!r} is not a list")
            if not all(_number(v) for v in value):
                raise ValueError(f"{value!r} is not a list of numbers")
            if not all(math.isfinite(v) for v in value):
                raise ValueError(f"{value!r} is not a list of finite numbers")
            return tuple(float(v) for v in value)
        if kind in (int, float):
            finite = _number(value) and math.isfinite(value)
            if kind is int and not (finite and value == int(value)):
                raise ValueError(f"{value!r} is not an integer")
            if not finite:
                raise ValueError(f"{value!r} is not a finite number")
            return kind(value)
        if isinstance(value, str) or value is default is None:
            return value
        raise ValueError(f"{value!r} is not a string" + (" or null" if default is None else ""))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the ``--config`` file, then ``WWS_*`` variables, then
    flags; a setting the subcommand does not read is refused (with a
    predictor, so is one of its :data:`FIT_ONLY` settings), and every
    value is converted and checked by :func:`_setting`."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(doc, dict):
        raise ValueError(f"config file {args.config} does not hold a JSON object")
    sources = []
    for key, val in doc.items():
        if key not in SETTINGS:
            raise ValueError(f"unknown config key {key!r}")
        sources.append((key, val, f"config key {key!r}"))
    env_names = {ENV_PREFIX + name.upper(): name for name in SETTINGS}
    for var in sorted(v for v in os.environ if v.startswith(ENV_PREFIX)):
        if var not in env_names:
            raise ValueError(f"unknown environment variable {var}")
        sources.append((env_names[var], os.environ[var], var))
    sources += [(name, getattr(args, name), _flag(name)) for name in SETTINGS
                if getattr(args, name, None) is not None]
    reads = set(COMMANDS[args.command][2])
    cfg = ExperimentConfig()
    for name, val, where in sources:
        if name not in reads:
            raise ValueError(f"{where}: wws {args.command} does not read this setting")
        setattr(cfg, name, _setting(name, val, where))
    if cfg.predictor is not None:
        fit_only = FIT_ONLY.get(args.command, ())
        for name, _, where in sources:
            if name in fit_only:
                raise ValueError(f"{where}: wws {args.command} with a predictor "
                                 "does not read this setting")
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
    cond = mpc.condense(predictor, controller)
    if cfg.dump_lp:
        step = mpc.build_step_problem(controller, cond, x0, 0,
                                      [plant_mod.output(x0, model.output_index)], [])
        dump_lp(step.problem, cfg.dump_lp)
    t0 = time.perf_counter()
    trace = mpc.run_condensed(model, cond, x0)
    wall = time.perf_counter() - t0
    trace.write_csv(out / "trace.csv")
    start_idx = int(np.ceil(cfg.start_time / cfg.h - 1e-9))
    y_after = trace.outputs[start_idx:]
    summary = {
        "statuses": trace.statuses,
        "n_infeasible": trace.n_infeasible,
        "aborted": trace.aborted,
        "min_y_after_start": float(y_after.min()) if y_after.size else None,
        "max_y_after_start": float(y_after.max()) if y_after.size else None,
        "final_robustness": None if trace.aborted else trace.final_robustness(),
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
    mpc.check_sweep(cfg.initial_temps, cfg.start_times, cfg.jobs)
    model = cfg.load_plant()
    controller = cfg.controller(model)
    predictor = _load_or_fit_predictor(cfg, model)
    out = _outdir(cfg)
    result = mpc.feasibility_sweep(model, controller, predictor,
                                   initial_temps=cfg.initial_temps,
                                   start_times=cfg.start_times, jobs=cfg.jobs)
    result.write_csv(out / "sweep.csv")
    notes = {",".join(map(mpc.format_number, cell)): v for cell, v in result.notes.items()}
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
    for name in ("bench_rollouts", "bench_steps"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(cfg, name)}")
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
    w = np.full(steps, predictor.w)
    # all rollouts advance together: one block plant step per time step
    truth = plant_mod.simulate(model, x0, u, w, cfg.h)
    sq_err = np.zeros((steps + 1, plant_mod.N_STATES))
    for i in range(rollouts):
        sq_err += (truth[:, :, i] - predictor.predict(x0[:, i], u[:, i], w)) ** 2
    rmse = np.sqrt(sq_err / rollouts)
    report = {
        "rollouts": rollouts,
        "steps": steps,
        "h": cfg.h,
        "seed": cfg.seed,
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


_HELP = {
    "config": "JSON config file",
    "out": "output directory (fit: file or dir)",
    "plant": "'nominal', 'demo' or a JSON path",
    "w0": "constant ambient of a fit [degC]",
    "predictor": "predictor JSON to reuse",
    "local": "local-linearization baseline instead of regression",
    "x0": "uniform initial state",
    "dump_lp": "write the step-0 problem in LP-style text",
}
_FIT = ("config", "seed", "out", "plant", "K", "h", "state_range", "u_band", "p_off", "w0")
#: Each subcommand's function, help and the settings it reads, the only ones
#: it takes from any source ("config" names the config file itself); run,
#: sweep and bench fit a predictor when none is given.
COMMANDS = {
    "fit": (cmd_fit, "estimate a predictor and write it to disk",
            (*_FIT, "local", "target_y", "u_min", "u_max")),
    "run": (cmd_run, "closed-loop simulation",
            (*_FIT, "predictor", "x0", "no_stl", "stl_file", "start_time", "end_time",
             "horizon", "r_weight", "reference", "u_min", "u_max", "svg", "dump_lp")),
    "sweep": (cmd_sweep, "feasibility table over initial temperatures and deadlines",
              (*_FIT, "predictor", "jobs", "initial_temps", "start_times", "end_time",
               "horizon", "r_weight", "reference", "u_min", "u_max")),
    "bench": (cmd_bench, "predictor-vs-plant rollout accuracy",
              (*_FIT, "predictor", "bench_rollouts", "bench_steps")),
}
#: The settings a subcommand reads only to fit its own predictor; with
#: ``predictor`` set they are refused (bench's rollouts still draw from
#: the fit's state range, input band, off share and seed).
FIT_ONLY = {
    "run": ("K", "w0", "state_range", "u_band", "p_off"),
    "sweep": ("seed", "K", "w0", "state_range", "u_band", "p_off"),
    "bench": ("K", "w0"),
}


def _add_flag(p: argparse.ArgumentParser, name: str) -> None:
    """The flag of setting ``name``, typed by its default: a bool is a
    switch, a pair takes two numbers and a list one or more."""
    default = getattr(ExperimentConfig, name, None)
    kw = {"dest": name, "default": None, "help": _HELP.get(name)}
    if isinstance(default, bool):
        kw["action"] = "store_true"
    elif isinstance(default, tuple):
        pair = ExperimentConfig.__annotations__[name] == "tuple[float, float]"
        kw.update(type=float, nargs=2 if pair else "+")
    elif isinstance(default, (int, float)):
        kw["type"] = type(default)
    p.add_argument(_flag(name), **kw)


def make_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``wws`` parser with every subcommand; with ``command`` only that
    subcommand gets its flags, which is all that parsing its line needs."""
    ap = argparse.ArgumentParser(prog="wws",
                                 description="warm-water supply control stack")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, settings) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            for setting in settings:
                _add_flag(p, setting)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command][0](resolve_config(args))
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
