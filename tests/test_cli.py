import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wws import mpc
from wws.cli import COMMANDS, SETTINGS, main, make_parser, resolve_config
from wws.plant import PlantModel
from wws.predictor import LinearPredictor
from wws.stl import SampledSignal, parse, robustness

from oracles import read_sweep_csv, read_trace_csv, write_plant_json

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def demo_pred_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit") / "pred.json"
    code = main(["fit", "--plant", "demo", "--K", "400", "--seed", "3",
                 "--state-range", "5", "60", "--out", str(out)])
    assert code == 0
    return out


RUN_FLAGS = ["--plant", "demo", "--reference", "42", "--r-weight", "0.02",
             "--x0", "15"]


def test_fit_writes_predictor_and_report(demo_pred_file):
    pred = LinearPredictor.from_json(demo_pred_file)
    assert pred.n == 16
    report = json.loads(
        demo_pred_file.with_name("pred_report.json").read_text())
    assert report["kind"] == "lifted-regression"
    assert "dynamics" in report and "readout" in report


def test_fit_deterministic_bytes(tmp_path, demo_pred_file):
    out2 = tmp_path / "pred2.json"
    assert main(["fit", "--plant", "demo", "--K", "400", "--seed", "3",
                 "--state-range", "5", "60", "--out", str(out2)]) == 0
    assert out2.read_bytes() == demo_pred_file.read_bytes()


def test_fit_local_baseline(tmp_path):
    out = tmp_path / "local.json"
    code = main(["fit", "--plant", "demo", "--local", "--target-y", "40",
                 "--out", str(out)])
    assert code == 0
    pred = LinearPredictor.from_json(out)
    assert pred.n == 6 and np.any(pred.c != 0.0)
    doc = json.loads(out.read_text())
    assert set(doc["meta"]) >= {"x_ref", "u_ref"} and doc["w"] == 10.0
    assert "equilibrium_u" not in doc["meta"] and "w_ref" not in doc["meta"]


def test_fit_local_fails_cleanly_on_nominal(tmp_path, capsys):
    out = tmp_path / "local.json"
    code = main(["fit", "--plant", "nominal", "--local", "--target-y", "40",
                 "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_feasible(tmp_path, demo_pred_file):
    out = tmp_path / "run"
    lp = tmp_path / "step0.lp"
    code = main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                 "--out", str(out), "--svg", "--dump-lp", str(lp)])
    assert code == 0
    cols = read_trace_csv(out / "trace.csv")
    assert len(cols["t"]) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_infeasible"] == 0
    assert summary["min_y_after_start"] >= 40.0
    assert min(summary["final_robustness"]) >= -1e-9
    assert summary["solver_seconds"] > 0
    svg = (out / "trace.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "Binaries" in lp.read_text()


def test_run_infeasible_exit_code(tmp_path, demo_pred_file):
    out = tmp_path / "run_bad"
    code = main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                 "--x0", "5", "--start-time", "60", "--end-time", "240",
                 "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_infeasible"] > 0


def test_run_without_stl(tmp_path, demo_pred_file):
    out = tmp_path / "run_plain"
    code = main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                 "--no-stl", "--out", str(out)])
    assert code == 0
    cols = read_trace_csv(out / "trace.csv")
    assert np.all(np.array(cols["binaries"]) == 0)


def test_run_steps_the_plant_at_the_fit_ambient(tmp_path):
    out = tmp_path / "run_w0"
    code = main(["run", "--plant", "demo", "--K", "200", "--w0", "0", "--no-stl",
                 "--end-time", "300", "--out", str(out)])
    assert code == 0
    assert read_trace_csv(out / "trace.csv")["w"] == [0.0] * 6


def test_bench_rolls_out_at_the_predictor_ambient(tmp_path, capsys):
    pred = tmp_path / "pred_w0.json"
    assert main(["fit", "--plant", "demo", "--K", "200", "--w0", "0",
                 "--state-range", "5", "60", "--out", str(pred)]) == 0
    flags = ["bench", "--plant", "demo", "--predictor", str(pred), "--state-range", "5", "60",
             "--bench-rollouts", "3", "--bench-steps", "4"]
    assert main([*flags, "--out", str(tmp_path / "plain")]) == 0
    # the ambient is the predictor's; a --w0 beside it is refused, not ignored
    assert main([*flags, "--w0", "0", "--out", str(tmp_path / "w0")]) == 1
    assert "--w0: wws bench with a predictor does not read this setting" \
        in capsys.readouterr().err
    assert not (tmp_path / "w0").exists()


def test_settings_out_of_range_are_refused_up_front(tmp_path, monkeypatch, capsys):
    # refused by name before any fit or plant step: an empty bench block
    # from any source, an input weight that is not positive, and a sweep
    # with no process to run on, an empty grid or a grid value given
    # twice (its cells would share one note)
    out = tmp_path / "refused"
    empty_temps = tmp_path / "empty_temps.json"
    empty_temps.write_text(json.dumps({"initial_temps": []}))
    cases = [(["bench", "--bench-rollouts", "0"], {}, "bench_rollouts must be at least 1, got 0"),
             (["bench"], {"WWS_BENCH_ROLLOUTS": "-3"},
              "bench_rollouts must be at least 1, got -3"),
             (["bench", "--bench-steps", "0"], {}, "bench_steps must be at least 1, got 0"),
             (["run", "--r-weight", "0"], {}, "r_weight must be positive, got 0.0"),
             (["sweep", "--jobs", "0"], {}, "jobs must be at least 1, got 0"),
             (["sweep"], {"WWS_JOBS": "-3"}, "jobs must be at least 1, got -3"),
             (["sweep", "--config", str(empty_temps)], {}, "initial_temps must not be empty"),
             (["sweep"], {"WWS_START_TIMES": "[]"}, "start_times must not be empty"),
             (["sweep", "--initial-temps", "5", "5", "10"], {}, "initial_temps repeats 5"),
             (["sweep", "--start-times", "60", "60"], {}, "start_times repeats 60")]
    for argv, env, message in cases:
        with monkeypatch.context() as m:
            for var, value in env.items():
                m.setenv(var, value)
            assert main([*argv, "--plant", "demo", "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting, value", [
    ("run", "K", 5), ("run", "w0", 0.0), ("run", "state_range", [5.0, 60.0]),
    ("run", "u_band", [20.0, 26.5]), ("run", "p_off", 0.5),
    ("sweep", "seed", 3), ("sweep", "K", 5), ("sweep", "w0", 0.0),
    ("sweep", "state_range", [5.0, 60.0]), ("sweep", "u_band", [20.0, 26.5]),
    ("sweep", "p_off", 0.5), ("bench", "K", 5), ("bench", "w0", 0.0),
])
@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_fit_settings_refused_with_a_predictor(tmp_path, demo_pred_file, monkeypatch,
                                               capsys, command, setting, value, source):
    # a predictor file fixes the fit; its settings would be silently dropped
    argv = [command, "--plant", "demo", "--out", str(tmp_path / "out")]
    if source == "flag":
        where = "--" + setting.replace("_", "-")
        argv += [where, *map(str, value if isinstance(value, list) else [value])]
    elif source == "config":
        where = f"config key {setting!r}"
        (tmp_path / "cfg.json").write_text(json.dumps({setting: value}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        where = "WWS_" + setting.upper()
        monkeypatch.setenv(where, json.dumps(value))
    monkeypatch.setenv("WWS_PREDICTOR", str(demo_pred_file))
    assert main(argv) == 1
    assert f"{where}: wws {command} with a predictor does not read this setting" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_with_a_predictor_draws_from_the_fit_settings(tmp_path, demo_pred_file):
    # bench's rollouts still read the draw settings and the seed
    base = ["bench", "--plant", "demo", "--predictor", str(demo_pred_file),
            "--state-range", "5", "60", "--bench-rollouts", "2", "--bench-steps", "2"]
    reports = []
    for name, extra in (("a", []), ("b", ["--u-band", "22", "24", "--p-off", "0.5"]),
                        ("c", ["--seed", "3"])):
        assert main([*base, *extra, "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "bench.json").read_bytes())
    assert len(set(reports)) == 3


def test_sweep_csv(tmp_path, demo_pred_file):
    out = tmp_path / "sweep"
    code = main(["sweep", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--reference", "42", "--r-weight", "0.02",
                 "--initial-temps", "15", "30",
                 "--start-times", "120", "360", "--out", str(out)])
    assert code == 0
    result = read_sweep_csv(out / "sweep.csv")
    assert result.table.shape == (2, 2)
    notes = json.loads((out / "sweep_notes.json").read_text())
    assert "monotone_staircase" in notes


def test_sweep_exits_nonzero_when_a_cell_crashes(tmp_path, demo_pred_file,
                                                 monkeypatch, capsys):
    original = mpc.run_condensed

    def crash_at_15(model, cond, x0, **kwargs):
        if x0[0] == 15.0:
            raise RuntimeError("planted solver crash")
        return original(model, cond, x0, **kwargs)

    monkeypatch.setattr(mpc, "run_condensed", crash_at_15)
    out = tmp_path / "sweep_err"
    code = main(["sweep", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--reference", "42", "--r-weight", "0.02",
                 "--initial-temps", "15", "15.4", "--start-times", "60",
                 "--out", str(out)])
    assert code == 1
    # 15.4 degC gets its own note: sharing one with 15 would hide the crash
    notes = json.loads((out / "sweep_notes.json").read_text())["notes"]
    assert notes == {"15,60": "error: planted solver crash",
                     "15.4,60": "infeasible at step 0"}
    assert read_sweep_csv(out / "sweep.csv").table.shape == (2, 1)
    assert "planted solver crash" in capsys.readouterr().err


def test_nominal_sweep_on_near_singular_rows_does_not_crash(tmp_path):
    # this predictor's output rows are near-singular rounding noise; every
    # cell must still end in a certified verdict, never a solver error
    pred = tmp_path / "nominal_pred.json"
    assert main(["fit", "--plant", "nominal", "--K", "300", "--seed", "4",
                 "--out", str(pred)]) == 0
    out = tmp_path / "sweep_nominal"
    code = main(["sweep", "--plant", "nominal", "--predictor", str(pred),
                 "--jobs", "1", "--out", str(out)])
    notes = json.loads((out / "sweep_notes.json").read_text())["notes"]
    assert [n for n in notes.values() if n.startswith("error:")] == []
    assert code == 0


def test_bench_report(tmp_path, demo_pred_file):
    out = tmp_path / "bench"
    code = main(["bench", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--state-range", "5", "60", "--bench-rollouts", "4",
                 "--bench-steps", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "bench.json").read_text())
    assert report["rollouts"] == 4
    assert "zero_step_max_error" not in report
    assert all(v[0] == 0.0 for v in report["rmse_per_step"].values())
    assert set(report["rmse_per_step"]) == {f"x{i}" for i in range(1, 7)}
    assert all(len(v) == 5 for v in report["rmse_per_step"].values())


def test_env_override(tmp_path, demo_pred_file, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("WWS_BENCH_ROLLOUTS", "2")
    assert main(["bench", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--state-range", "5", "60", "--bench-steps", "3",
                 "--out", str(out_a)]) == 0
    assert json.loads((out_a / "bench.json").read_text())["rollouts"] == 2
    monkeypatch.delenv("WWS_BENCH_ROLLOUTS")
    assert main(["bench", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--state-range", "5", "60", "--bench-steps", "3",
                 "--bench-rollouts", "2", "--out", str(out_b)]) == 0
    assert (out_a / "bench.json").read_bytes() == (out_b / "bench.json").read_bytes()


def test_run_deterministic_apart_from_timing(tmp_path, demo_pred_file):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    summaries = [json.loads((o / "summary.json").read_text()) for o in outs]
    for s in summaries:
        s.pop("solver_seconds")
        s.pop("wall_seconds")
    assert summaries[0] == summaries[1]


def test_config_file(tmp_path, demo_pred_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "plant": "demo", "predictor": str(demo_pred_file),
        "reference": 42.0, "r_weight": 0.02, "x0": 15.0,
        "out": str(tmp_path / "from_config"),
    }))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config" / "summary.json").exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1]")
    assert main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")]) == 1
    assert capsys.readouterr().err == \
        f"error: config file {cfg_path} does not hold a JSON object\n"


def test_unknown_config_key_rejected(tmp_path, capsys):
    # the strictness margin and the output weight are constants, not settings
    cfg_path = tmp_path / "cfg.json"
    for key in ("not_a_key", "eps", "q_weight"):
        cfg_path.write_text(json.dumps({key: 1}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("command, doc, reason", [
    ("fit", {"state_range": 5}, "config key 'state_range': 5 is not a list"),
    ("sweep", {"initial_temps": ["a"]},
     "config key 'initial_temps': ['a'] is not a list of numbers"),
    ("sweep", {"start_times": [60, None]},
     "config key 'start_times': [60, None] is not a list of numbers"),
    ("sweep", {"start_times": [60, float("nan")]},
     "config key 'start_times': [60, nan] is not a list of finite numbers"),
], ids=["state_range-scalar", "initial_temps-string", "start_times-null",
        "start_times-nan"])
def test_config_tuple_setting_must_be_a_list(tmp_path, capsys, command, doc, reason):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command, var, value, reason", [
    ("bench", "WWS_ATOLL", "5", "unknown environment variable WWS_ATOLL"),
    ("bench", "WWS_Z_BOUNDS", "1", "unknown environment variable WWS_Z_BOUNDS"),
    ("run", "WWS_SVG", "maybe", "WWS_SVG: 'maybe' is not one of"),
    ("bench", "WWS_ATOL", "1e-8", "unknown environment variable WWS_ATOL"),
    ("bench", "WWS_MIQP_GAP", "1e-3", "unknown environment variable WWS_MIQP_GAP"),
    ("bench", "WWS_SHARED_STATE_DRAW", "1",
     "unknown environment variable WWS_SHARED_STATE_DRAW"),
    ("run", "WWS_W_FORECAST", "10", "unknown environment variable WWS_W_FORECAST"),
    ("bench", "WWS_H", "abc", "WWS_H: could not convert string to float: 'abc'"),
    ("bench", "WWS_STATE_RANGE", "5", "WWS_STATE_RANGE: '5' is not a JSON list"),
    ("bench", "WWS_STATE_RANGE", "[1, 2, 3]",
     "state_range must be two finite numbers lo <= hi"),
    ("sweep", "WWS_INITIAL_TEMPS", '["a"]',
     "WWS_INITIAL_TEMPS: ['a'] is not a list of numbers"),
    ("sweep", "WWS_INITIAL_TEMPS", "[1e999]",
     "WWS_INITIAL_TEMPS: [inf] is not a list of finite numbers"),
    ("sweep", "WWS_START_TIMES", "[NaN]",
     "WWS_START_TIMES: [nan] is not a list of finite numbers"),
    ("bench", "WWS_JOBS", "2", "WWS_JOBS: wws bench does not read this setting"),
    ("run", "WWS_EPS", "1e-6", "unknown environment variable WWS_EPS"),
    ("sweep", "WWS_Q_WEIGHT", "1", "unknown environment variable WWS_Q_WEIGHT"),
], ids=["WWS_ATOLL", "WWS_Z_BOUNDS", "WWS_SVG", "WWS_ATOL", "WWS_MIQP_GAP",
        "WWS_SHARED_STATE_DRAW", "WWS_W_FORECAST", "WWS_H", "WWS_STATE_RANGE-scalar",
        "WWS_STATE_RANGE-triple", "WWS_INITIAL_TEMPS-string", "WWS_INITIAL_TEMPS-inf",
        "WWS_START_TIMES-nan", "WWS_JOBS", "WWS_EPS", "WWS_Q_WEIGHT"])
def test_bad_environment_variable_rejected(tmp_path, demo_pred_file, monkeypatch,
                                           capsys, command, var, value, reason):
    monkeypatch.setenv(var, value)
    assert main([command, "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--out", str(tmp_path / "out")]) == 1
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, reason", [
    (["sweep", "--initial-temps", "20", "inf"],
     "--initial-temps: [20.0, inf] is not a list of finite numbers"),
    (["sweep", "--start-times", "nan"], "--start-times: [nan] is not a list of finite numbers"),
    (["fit", "--state-range", "10", "inf"],
     "--state-range: [10.0, inf] is not a list of finite numbers"),
    (["fit", "--u-band", "21.2", "nan"], "--u-band: [21.2, nan] is not a list of finite numbers"),
], ids=["initial-temps", "start-times", "state-range", "u-band"])
def test_non_finite_tuple_flag_rejected(tmp_path, capsys, argv, reason):
    out = tmp_path / "out"
    assert main(argv + ["--plant", "demo", "--K", "100", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, reason", [
    ({"svg": "no"}, "config key 'svg': 'no' is not true or false"),
    ({"K": "100"}, "config key 'K': '100' is not an integer"),
    ({"h": None}, "config key 'h': None is not a finite number"),
    ({"reference": float("nan")}, "config key 'reference': nan is not a finite number"),
    ({"plant": 3}, "config key 'plant': 3 is not a string"),
], ids=["svg-string", "K-string", "h-null", "reference-nan", "plant-number"])
def test_config_scalar_setting_checked(tmp_path, capsys, doc, reason):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--plant", "demo", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, env, reason", [
    (["fit", "--w0", "nan"], {}, "--w0: nan is not a finite number"),
    (["sweep"], {"WWS_H": "inf"}, "WWS_H: inf is not a finite number"),
    (["sweep", "--reference", "nan"], {}, "--reference: nan is not a finite number"),
], ids=["fit-w0", "sweep-WWS_H", "sweep-reference"])
def test_non_finite_scalar_setting_rejected(tmp_path, monkeypatch, capsys, argv, env, reason):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    out = tmp_path / "out"
    assert main(argv + ["--plant", "demo", "--K", "100", "--out", str(out)]) == 1
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_config_values_converted_to_their_setting_type(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"K": 400.0, "reference": 42, "predictor": None,
                                    "state_range": [5, 60]}))
    monkeypatch.setenv("WWS_SVG", "yes")  # a WWS_* bool is read as a word
    cfg = resolve_config(make_parser().parse_args(["run", "--config", str(cfg_path)]))
    assert cfg.svg is True
    assert type(cfg.K) is int and cfg.K == 400
    assert type(cfg.reference) is float and cfg.reference == 42.0
    assert cfg.predictor is None and cfg.state_range == (5.0, 60.0)


@pytest.mark.parametrize("command", ["fit", "run", "bench"])
def test_jobs_is_a_sweep_flag(command, tmp_path, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--jobs", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    assert make_parser().parse_args(["sweep", "--jobs", "1"]).jobs == 1
    # nor does the command take it from the environment or a config file
    out = tmp_path / "out"
    monkeypatch.setenv("WWS_JOBS", "2")
    assert main([command, "--plant", "demo", "--K", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: WWS_JOBS: wws {command} does not read this setting\n"
    monkeypatch.delenv("WWS_JOBS")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"jobs": 2}))
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: config key 'jobs': wws {command} does not read this setting\n"
    assert not out.exists()


FIT_FLAGS = {"--config", "--seed", "--out", "--plant", "--K", "--h", "--state-range",
             "--u-band", "--p-off", "--w0"}
LOOP_FLAGS = {"--predictor", "--end-time", "--horizon", "--r-weight", "--reference",
              "--u-min", "--u-max"}


def test_flag_table():
    # each subcommand takes exactly the settings it reads as flags
    subparsers = next(a for a in make_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for command, p in subparsers.choices.items()}
    assert flags == {
        "fit": FIT_FLAGS | {"--local", "--target-y", "--u-min", "--u-max"},
        "run": FIT_FLAGS | LOOP_FLAGS | {"--x0", "--no-stl", "--stl-file", "--start-time",
                                         "--svg", "--dump-lp"},
        "sweep": FIT_FLAGS | LOOP_FLAGS | {"--jobs", "--initial-temps", "--start-times"},
        "bench": FIT_FLAGS | {"--predictor", "--bench-rollouts", "--bench-steps"},
    }
    helps = {s: a.help for p in subparsers.choices.values() for a in p._actions
             for s in a.option_strings if a.help and s != "--help" and s != "-h"}
    assert helps == {
        "--config": "JSON config file",
        "--out": "output directory (fit: file or dir)",
        "--plant": "'nominal', 'demo' or a JSON path",
        "--w0": "constant ambient of a fit [degC]",
        "--predictor": "predictor JSON to reuse",
        "--local": "local-linearization baseline instead of regression",
        "--x0": "uniform initial state",
        "--dump-lp": "write the step-0 problem in LP-style text",
    }
    # every setting is read by some subcommand
    assert set().union(*(names for *_, names in COMMANDS.values())) == {*SETTINGS, "config"}


def _help(parser, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_parser_of_one_command_matches_the_full_parser(capsys):
    # main gives flags only to the subcommand it parses
    full = make_parser()
    for command in COMMANDS:
        assert _help(make_parser(command), [command, "--help"], capsys) \
            == _help(full, [command, "--help"], capsys)
    text = _help(full, ["--help"], capsys)
    assert all(command in text for command in COMMANDS)
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == text


def test_cli_import_leaves_scipy_integrate_unloaded():
    # the plant imports it on its first step: a module-level import would
    # add its load time to every `wws` start
    code = "import sys, wws.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_z_bounds_flag_removed(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--z-bounds"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --z-bounds" in capsys.readouterr().err


def test_nominal_run_with_noise_output_rows(tmp_path):
    # the nominal output rows carry coefficients of about 3e-14, rounding
    # noise that reaches the node QPs
    pred = tmp_path / "nominal_pred"
    assert main(["fit", "--plant", "nominal", "--K", "300", "--seed", "4",
                 "--out", str(pred)]) == 0
    spec = tmp_path / "s.stl"
    spec.write_text(f"alw_[0,end] (y >= 5)\n{mpc.DEFAULT_POWER_SPEC}\n")
    out = tmp_path / "run_nominal"
    code = main(["run", "--plant", "nominal", "--predictor",
                 str(pred / "predictor.json"), "--x0", "20",
                 "--stl-file", str(spec), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_infeasible"] == 0 and not summary["aborted"]
    assert len(read_trace_csv(out / "trace.csv")["t"]) == 21


def test_sampling_period_mismatch_rejected(tmp_path, demo_pred_file, capsys):
    # the predictor was fitted at h = 60 s; a 30 s loop would apply it every 30 s
    code = main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                 "--h", "30", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "predictor sampled at h=60 s, controller at h=30 s" in capsys.readouterr().err
    out = tmp_path / "sweep"
    code = main(["sweep", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--reference", "42", "--r-weight", "0.02", "--h", "30",
                 "--initial-temps", "15", "30", "--start-times", "360",
                 "--out", str(out)])
    assert code == 1
    notes = json.loads((out / "sweep_notes.json").read_text())["notes"]
    assert all(n.startswith("error: predictor sampled at h=60 s") for n in notes.values())
    assert len(notes) == 2
    code = main(["bench", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--h", "30", "--bench-rollouts", "2", "--bench-steps", "2",
                 "--out", str(tmp_path / "bench")])
    assert code == 1
    assert "predictor sampled at h=60 s, plant stepped at h=30 s" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


def test_output_index_taken_from_plant(tmp_path, demo_pred_file):
    plant_file = tmp_path / "plant_x4.json"
    write_plant_json(replace(PlantModel.demo(), output_index=4), plant_file)
    out = tmp_path / "run_x4"
    code = main(["run", *RUN_FLAGS, "--plant", str(plant_file),
                 "--predictor", str(demo_pred_file), "--out", str(out)])
    assert code in (0, 2)
    cols = read_trace_csv(out / "trace.csv")
    assert cols["y"] == cols["x4"] and cols["y"] != cols["x5"]
    with pytest.raises(ValueError, match="controller reads x5, plant output is x4"):
        mpc.run_closed_loop(PlantModel.from_json(plant_file), mpc.ControllerConfig(),
                            LinearPredictor.from_json(demo_pred_file), np.full(6, 15.0))


@pytest.mark.parametrize("spec", ["alw_[0,600] (y >= 10)", "ev_[600,900] (y >= 43)"])
def test_monitor_clips_numeric_windows_to_the_prefix(tmp_path, demo_pred_file, spec):
    # before the window's end is realized, the monitor reads the samples so far
    spec_file = tmp_path / "b.stl"
    spec_file.write_text(spec + "\n")
    out = tmp_path / "run"
    code = main(["run", *RUN_FLAGS, "--predictor", str(demo_pred_file),
                 "--stl-file", str(spec_file), "--out", str(out)])
    assert code in (0, 2)
    cols = read_trace_csv(out / "trace.csv")
    assert len(cols["t"]) == 21
    y, u = np.array(cols["y"]), np.array(cols["u"])
    for k in range(len(y)):
        sig = SampledSignal(channels={"y": y[:k + 1], "u": u[:k + 1]}, h=60.0)
        assert cols["rob0"][k] == robustness(parse(spec), sig, prefix=True)
    if spec.startswith("ev"):
        assert cols["rob0"][:10] == [-np.inf] * 10


@pytest.mark.parametrize("var, name", [("WWS_STL_FILE", "stl_file"),
                                       ("WWS_NO_STL", "no_stl")])
def test_sweep_refuses_configured_specs(tmp_path, demo_pred_file, monkeypatch,
                                        capsys, var, name):
    # each sweep cell sets its own specs; a configured set must not be dropped silently
    spec_file = tmp_path / "s.stl"
    spec_file.write_text("\n".join([mpc.DEFAULT_SUPPLY_SPEC, mpc.DEFAULT_POWER_SPEC,
                                    "alw_[0,end] (u <= 0.5)"]) + "\n")
    monkeypatch.setenv(var, str(spec_file) if name == "stl_file" else "1")
    out = tmp_path / "sweep"
    code = main(["sweep", "--plant", "demo", "--predictor", str(demo_pred_file),
                 "--initial-temps", "15", "--start-times", "420", "--out", str(out)])
    assert code == 1
    assert f"{var}: wws sweep does not read this setting" in capsys.readouterr().err
    assert not out.exists()
