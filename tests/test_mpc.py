import numpy as np
import pytest
from dataclasses import replace

from wws import mpc
from wws.mpc import (
    ClosedLoopTrace,
    ControllerConfig,
    DEFAULT_POWER_SPEC,
    evaluate_cell,
    feasibility_sweep,
    plan_step,
    run_closed_loop,
    supply_spec,
)
from wws.stl import SampledSignal, parse, resolve_end, robustness

from oracles import read_sweep_csv, read_trace_csv


def _in_band(u, eps=1e-6, slack=1e-7):
    off = (0.001 + eps - slack) <= u <= (0.01 - eps + slack)
    run = (21.2 - slack) <= u <= (26.5 + slack)
    return off or run


def test_plan_step_infeasible_on_violated_history(demo_cfg, demo_predictor):
    # a recorded sample below the floor inside the supply window is final
    y_hist = [15.0, 20.0, 30.0, 35.0, 38.0, 41.0, 42.0, 39.0, 42.0]
    u_hist = [22.0] * 8
    res = plan_step(demo_cfg, demo_predictor, np.full(6, 42.0), 8, y_hist, u_hist)
    assert res.status == "infeasible"
    assert "fixed samples" in (res.infeasible_reason or "")
    assert res.nodes == 0  # no search needed: constants already decide


def test_plan_step_initial_heating(demo_cfg, demo_predictor):
    res = plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal"
    assert 21.2 - 1e-7 <= res.u0 <= 26.5 + 1e-7  # heating required, pump on


def test_plan_step_without_specs_is_plain_tracking(demo_cfg, demo_predictor):
    cfg = replace(demo_cfg, stl_specs=())
    res = plan_step(cfg, demo_predictor, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal"
    assert res.binaries == 0
    assert res.nodes == 1


def test_plan_step_validates_history_lengths(demo_cfg, demo_predictor):
    with pytest.raises(ValueError, match="output samples"):
        plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 1, [15.0], [])
    with pytest.raises(ValueError, match="applied inputs"):
        plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 1, [15.0, 16.0], [1.0, 2.0])


def test_warm_start_consistency(demo_cfg, demo_predictor):
    cold = plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 0, [15.0], [])
    warm = plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 0, [15.0], [],
                     warm=cold.assignment)
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


@pytest.fixture(scope="module")
def demo_trace(demo_model, demo_cfg, demo_predictor) -> ClosedLoopTrace:
    return run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, 15.0))


def _seeded(name: str, prev: dict[str, float]) -> bool:
    """Whether a binary's warm value comes from the previous plan."""
    if name in prev:
        return True
    m = mpc._BINARY_NAME.match(name)
    return m is not None and any(
        f"{m.group('stem')}{int(m.group('t')) - back}{m.group('tail')}" in prev
        for back in range(1, 4))


def test_warm_plans_take_one_node(monkeypatch, demo_model, demo_cfg, demo_predictor):
    # every binary of a later step, those entering the horizon included, is
    # seeded from the previous plan, and the seed closes the search at the root
    complete = []
    original = mpc._shift_warm

    def recording(prev, problem):
        names = [problem.names[i] for i in np.flatnonzero(problem.binary)]
        complete.append(bool(names) and all(_seeded(n, prev) for n in names))
        return original(prev, problem)

    monkeypatch.setattr(mpc, "_shift_warm", recording)
    for temp in mpc.DEFAULT_INITIAL_TEMPS:
        complete.clear()
        trace = run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, temp))
        assert trace.n_infeasible == 0
        assert complete == [True] * demo_cfg.n_steps, temp
        assert np.all(trace.nodes[1:] == 1), (temp, trace.nodes)


def test_closed_loop_shape_and_feasibility(demo_trace, demo_cfg):
    n = demo_cfg.n_steps
    assert len(demo_trace.times) == n + 1
    assert np.array_equal(demo_trace.times, np.arange(n + 1) * demo_cfg.h)
    assert demo_trace.n_infeasible == 0
    assert not demo_trace.aborted


def test_closed_loop_satisfies_both_specs(demo_trace):
    final = demo_trace.final_robustness()
    assert len(final) == 2
    assert final[0] >= 0.0  # supply guarantee on the realized trace
    assert final[1] >= -1e-9  # power bands on every applied input


def test_closed_loop_supply_window(demo_trace, demo_cfg):
    start_idx = int(420.0 / demo_cfg.h)
    assert np.all(demo_trace.outputs[start_idx:] >= 40.0)


def test_closed_loop_input_admissibility(demo_trace):
    assert all(_in_band(u) for u in demo_trace.inputs)


def test_closed_loop_history_consistency(demo_trace, demo_cfg):
    # re-monitoring the realized trace reproduces the recorded robustness
    sig = SampledSignal(channels={"y": demo_trace.outputs,
                                  "u": demo_trace.inputs}, h=demo_cfg.h)
    for j, text in enumerate(demo_trace.spec_texts):
        f = resolve_end(parse(text), demo_trace.times[-1])
        assert robustness(f, sig, 0) == pytest.approx(
            demo_trace.robustness_so_far[-1, j], abs=1e-12)


def test_closed_loop_prefix_robustness_monotone_information(demo_trace):
    # before the window opens the supply spec is vacuously satisfied
    assert np.isinf(demo_trace.robustness_so_far[0, 0])
    assert np.isfinite(demo_trace.robustness_so_far[-1, 0])


def test_closed_loop_prefix_robustness_equals_fresh_monitor(demo_trace, demo_cfg):
    # every recorded prefix value equals a monitor run on freshly parsed specs
    for k, t in enumerate(demo_trace.times):
        sig = SampledSignal(channels={"y": demo_trace.outputs[:k + 1],
                                      "u": demo_trace.inputs[:k + 1]}, h=demo_cfg.h)
        for j, text in enumerate(demo_trace.spec_texts):
            f = resolve_end(parse(text), t)
            assert robustness(f, sig, 0) == demo_trace.robustness_so_far[k, j]


def test_closed_loop_parses_each_spec_once(monkeypatch, demo_model, demo_cfg,
                                           demo_predictor):
    calls = []
    original = mpc.parse

    def counting_parse(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(mpc, "parse", counting_parse)
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC),
                  end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 5.0))
    assert len(trace.times) == cfg.n_steps + 1
    assert sorted(calls) == sorted(cfg.stl_specs)


def test_infeasible_policy_holds_input(demo_model, demo_cfg, demo_predictor):
    # an impossible deadline from a cold start: step 0 already infeasible
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC),
                  end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 5.0))
    assert trace.statuses[0] == "infeasible"
    assert trace.inputs[0] == 0.0  # nothing applied yet: hold zero
    assert len(trace.times) == cfg.n_steps + 1  # loop continues recording


def test_stop_on_infeasible_truncates(demo_model, demo_cfg, demo_predictor):
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC),
                  end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 5.0),
                            stop_on_infeasible=True)
    assert len(trace.times) == 1


def test_trace_csv_roundtrip(tmp_path, demo_trace):
    path = tmp_path / "trace.csv"
    demo_trace.write_csv(path)
    cols = read_trace_csv(path)
    assert np.allclose(cols["y"], demo_trace.outputs)
    assert np.allclose(cols["u"], demo_trace.inputs)
    assert cols["status"] == demo_trace.statuses
    assert np.allclose(cols["bb_nodes"], demo_trace.nodes)
    assert np.isinf(cols["rob0"][0])


def test_off_band_chosen_in_loop(demo_model, demo_predictor):
    # with the reference already exceeded and no supply floor, the cheapest
    # admissible inputs live in the standby band
    cfg = ControllerConfig(reference=12.0, stl_specs=(DEFAULT_POWER_SPEC,),
                           end_time=300.0, q_weight=1.0, r_weight=10.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 30.0))
    assert trace.n_infeasible == 0
    assert all(0.001 < u < 0.01 for u in trace.inputs)


def test_mini_sweep_staircase(demo_model, demo_cfg, demo_predictor):
    sweep = feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                              initial_temps=(5.0, 15.0, 30.0),
                              start_times=(120.0, 240.0, 360.0))
    assert sweep.table.shape == (3, 3)
    assert sweep.is_monotone_staircase()
    # frozen expectation for the shipped demo coefficients and seed
    assert np.array_equal(sweep.table, [[0, 0, 1], [0, 0, 1], [0, 1, 1]])
    assert sweep.notes[(30.0, 360.0)] == "feasible"


def test_sweep_cell_parallel_equals_serial(demo_model, demo_cfg, demo_predictor):
    serial = feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                               initial_temps=(15.0, 30.0),
                               start_times=(120.0, 360.0), jobs=1)
    parallel = feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                                 initial_temps=(15.0, 30.0),
                                 start_times=(120.0, 360.0), jobs=2)
    assert np.array_equal(serial.table, parallel.table)


def test_sweep_csv_roundtrip(tmp_path, demo_model, demo_cfg, demo_predictor):
    cell, note = evaluate_cell(demo_model, demo_cfg, demo_predictor, 30.0, 360.0)
    assert cell == 1 and note == "feasible"
    sweep = feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                              initial_temps=(30.0,), start_times=(360.0,))
    path = tmp_path / "sweep.csv"
    sweep.write_csv(path)
    again = read_sweep_csv(path)
    assert np.array_equal(again.table, sweep.table)
    assert again.initial_temps == sweep.initial_temps
    assert again.start_times == sweep.start_times


def test_controller_config_validation():
    with pytest.raises(ValueError, match="positive"):
        ControllerConfig(horizon=0)
    with pytest.raises(ValueError, match="weights"):
        ControllerConfig(q_weight=0.0)
    with pytest.raises(ValueError, match="multiple"):
        ControllerConfig(end_time=1000.0)
