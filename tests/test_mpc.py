import pickle

import numpy as np
import pytest
from dataclasses import replace

from wws import miqp, mpc, plant, qp, stl
from wws.mpc import (
    ClosedLoopTrace,
    ControllerConfig,
    DEFAULT_POWER_SPEC,
    build_step_problem,
    condense,
    evaluate_cell,
    feasibility_sweep,
    plan_step,
    run_closed_loop,
    supply_spec,
)
from wws.plant import DivergenceError
from wws.predictor import LinearPredictor
from wws.stl import SampledSignal, parse, resolve_end, robustness

from oracles import builder_step_problem, read_sweep_csv, read_trace_csv


def _in_band(u, eps=1e-6, slack=1e-7):
    off = (0.001 + eps - slack) <= u <= (0.01 - eps + slack)
    run = (21.2 - slack) <= u <= (26.5 + slack)
    return off or run


def test_plan_step_infeasible_on_violated_history(demo_cfg, demo_cond):
    # a recorded sample below the floor inside the supply window is final
    y_hist = [15.0, 20.0, 30.0, 35.0, 38.0, 41.0, 42.0, 39.0, 42.0]
    u_hist = [22.0] * 8
    res = plan_step(demo_cfg, demo_cond, np.full(6, 42.0), 8, y_hist, u_hist)
    assert res.status == "infeasible"
    assert "fixed samples" in (res.infeasible_reason or "")
    assert res.nodes == 0  # no search needed: constants already decide


def test_violated_history_after_a_cached_feasible_pattern(demo_cfg, demo_cond):
    # the same step index and horizon, but sample 7 of the supply window now
    # folds false: a new leaf pattern, not the cached feasible one
    cfg, x = replace(demo_cfg), np.full(6, 42.0)
    u_hist = [22.0] * 8
    ok = [15.0, 20.0, 30.0, 35.0, 38.0, 41.0, 42.0, 41.0, 42.0]
    bad = [15.0, 20.0, 30.0, 35.0, 38.0, 41.0, 42.0, 39.0, 42.0]
    assert build_step_problem(cfg, demo_cond, x, 8, ok, u_hist).problem.infeasible_reason is None
    warm = build_step_problem(cfg, demo_cond, x, 8, bad, u_hist).problem
    fresh = build_step_problem(replace(demo_cfg), demo_cond, x, 8, bad, u_hist).problem
    assert warm.infeasible_reason == fresh.infeasible_reason \
        == "stl0: violated by already-fixed samples"


def test_constant_rows_are_checked_and_dropped():
    # with b_u = 0 no output moves with the inputs (Y = 0), so each supply
    # row is the constant 0 <= y0 - 40: violated, it makes the problem
    # infeasible; satisfied, it is dropped, where an input gain keeps it
    still = LinearPredictor(A=np.eye(6), b_u=np.zeros(6), b_d=np.zeros(6), c=np.zeros(6),
                            h=60.0, w=10.0)
    cfg = ControllerConfig(stl_specs=(supply_spec(60.0),))
    assert not condense(still, cfg).Y.any()

    def problem(pred, x):
        return build_step_problem(cfg, condense(pred, cfg), np.full(6, x), 0, [x], []).problem

    assert problem(still, 30.0).infeasible_reason == "constant constraint violated (10 > 0)"
    warm = problem(still, 50.0)
    assert warm.infeasible_reason is None and warm.A.shape == (0, cfg.horizon)
    moved = problem(replace(still, b_u=np.full(6, 0.1)), 50.0)
    assert moved.infeasible_reason is None and moved.A.shape == (cfg.horizon, cfg.horizon)


@pytest.mark.parametrize("extra", [
    pytest.param((), id="default"),
    # n-ary selectors, predicate literals and rows on the pad slot
    pytest.param(("alw_[0,end] (ev_[0,120] (u >= 21.2))",), id="nested-ev"),
])
def test_cached_layouts_build_the_fresh_problems(monkeypatch, demo_model, demo_cfg,
                                                 demo_predictor, extra):
    # every step of the seven demo loops is built by templates that have
    # seen all earlier steps, by freshly compiled ones, and by the builder
    warm_cfg = replace(demo_cfg, stl_specs=demo_cfg.stl_specs + extra)
    original = mpc.build_step_problem
    steps = []

    def all_three(cfg, cond, *args):
        warm = original(cfg, cond, *args)
        fresh = original(replace(cfg), cond, *args)
        steps.append((warm, fresh, builder_step_problem(replace(cfg), cond, *args)))
        return warm

    monkeypatch.setattr(mpc, "build_step_problem", all_three)
    for temp in mpc.DEFAULT_INITIAL_TEMPS:
        run_closed_loop(demo_model, warm_cfg, demo_predictor, np.full(6, temp))
    assert len(steps) == len(mpc.DEFAULT_INITIAL_TEMPS) * (warm_cfg.n_steps + 1)
    assert sum(len(t._rows) for t in warm_cfg.templates) < len(steps)
    assert any(t.pad in rows.slot for t in warm_cfg.templates
               for rows in t._rows.values()) == bool(extra)
    for warm, fresh, built in steps:
        for p in (fresh.problem, built):
            for name in ("A", "H", "lb", "ub", "binary"):
                assert np.array_equal(getattr(warm.problem, name), getattr(p, name)), name
            assert (warm.problem.names, warm.problem.infeasible_reason) \
                == (p.names, p.infeasible_reason)
        for name in ("b", "f", "obj_const"):
            assert np.array_equal(getattr(warm.problem, name), getattr(fresh.problem, name))
            # the builder's free response is iterated, not the condensed map
            a, c = getattr(warm.problem, name), getattr(built, name)
            assert np.max(np.abs(a - c), initial=0.0) \
                <= 1e-12 * (1.0 + np.max(np.abs(a), initial=0.0)), name
        assert warm.warm_sources == fresh.warm_sources
        assert warm.u0_bounds == fresh.u0_bounds


def test_propagation_only_removes_node_qp_work(monkeypatch, demo_model, demo_cfg,
                                               demo_predictor):
    # with the propagation pass finding nothing, the active-set method
    # decides every node; the seven demo loops must come out bit-identical
    def loops():
        return [run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, temp))
                for temp in mpc.DEFAULT_INITIAL_TEMPS]

    with_pass = loops()
    monkeypatch.setattr(qp, "_propagation_certificate", lambda *args: -np.inf)
    for a, b in zip(with_pass, loops()):
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.objectives, b.objectives, equal_nan=True)
        assert np.array_equal(a.nodes, b.nodes)
        assert a.statuses == b.statuses


def test_incumbent_fathoming_only_removes_node_qp_work(monkeypatch, demo_model, demo_cfg,
                                                        demo_predictor):
    # with the incumbent's bound proving nothing, every node it fathoms is
    # solved and then pruned; the seven demo loops must come out
    # bit-identical, and the bound must have saved some solves
    solves = []
    solve = miqp.solve_qp

    def counting(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    def loops():
        solves.clear()
        traces = [run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, temp))
                  for temp in mpc.DEFAULT_INITIAL_TEMPS]
        return traces, len(solves)

    monkeypatch.setattr(miqp, "solve_qp", counting)
    fathomed, with_bound = loops()
    monkeypatch.setattr(qp, "_objective_dual_bound", lambda *args: lambda lb, ub: -np.inf)
    solved, without_bound = loops()
    for a, b in zip(fathomed, solved):
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.objectives, b.objectives, equal_nan=True)
        assert np.array_equal(a.nodes, b.nodes)
        assert a.statuses == b.statuses
    assert with_bound < without_bound


def test_step_layout_rejects_an_unused_binary(monkeypatch, demo_cfg, demo_cond):
    def binary_without_rows(self, node):
        self.disjunction_binary(node)
        return True

    monkeypatch.setattr(stl._Emitter, "hull_rows", binary_without_rows)
    with pytest.raises(ValueError, match=r"binary 'stl1\.t0\.d0' appears in no row"):
        build_step_problem(replace(demo_cfg), demo_cond, np.full(6, 15.0), 0, [15.0], [])


def test_plan_step_initial_heating(demo_cfg, demo_cond):
    res = plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal"
    assert 21.2 - 1e-7 <= res.u0 <= 26.5 + 1e-7  # heating required, pump on


def test_plan_step_without_specs_is_plain_tracking(demo_cfg, demo_cond):
    cfg = replace(demo_cfg, stl_specs=())
    res = plan_step(cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal"
    assert res.binaries == 0
    assert res.nodes == 1


def test_plan_step_validates_history_lengths(demo_cfg, demo_cond):
    with pytest.raises(ValueError, match="output samples"):
        plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 1, [15.0], [])
    with pytest.raises(ValueError, match="applied inputs"):
        plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 1, [15.0, 16.0], [1.0, 2.0])


def test_warm_start_consistency(demo_cfg, demo_cond):
    cold = plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [])
    warm = plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [],
                     warm=cold.assignment)
    assert warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


@pytest.fixture(scope="module")
def demo_trace(demo_model, demo_cfg, demo_predictor) -> ClosedLoopTrace:
    return run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, 15.0))


def test_warm_plans_take_one_node(monkeypatch, demo_model, demo_cfg, demo_predictor):
    # every binary of a later step, those entering the horizon included, is
    # seeded from the previous plan through its predecessor chain (itself,
    # then the same disjunction 1..3 samples earlier), and the seed closes
    # the search at the root
    complete = []
    original = mpc._shift_warm

    def recording(prev, sources):
        complete.append(bool(sources) and all(any(n in prev for n in chain)
                                              for chain in sources))
        for chain in sources:
            t = [int(n.split(".t")[1].split(".")[0]) for n in chain]
            assert t == list(range(t[0], t[0] - len(t), -1)) and len(t) <= 4
            assert {n.split(".")[-1] for n in chain} == {chain[0].split(".")[-1]}
        seed = original(prev, sources)
        assert len(seed) == len(sources)
        return seed

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


class _CountingTemplate(mpc.FormulaTemplate):
    compiled: list = []

    def __init__(self, f, *args, **kwargs):
        self.compiled.append(f)
        super().__init__(f, *args, **kwargs)


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
    trace.final_robustness()  # reads the monitored last row, parses nothing
    assert sorted(calls) == sorted(cfg.stl_specs)


def test_closed_loop_compiles_each_spec_once(monkeypatch, demo_model, demo_cfg,
                                             demo_predictor):
    monkeypatch.setattr(mpc, "FormulaTemplate", _CountingTemplate)
    monkeypatch.setattr(_CountingTemplate, "compiled", [])
    cfg = replace(demo_cfg, end_time=240.0)
    for temp in (15.0, 30.0):  # a second loop reuses the configuration's templates
        trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, temp))
        assert len(trace.times) == cfg.n_steps + 1
    assert _CountingTemplate.compiled == list(cfg.formulas)


def test_sweep_compiles_once_per_deadline_column(monkeypatch, demo_model, demo_cfg,
                                                 demo_predictor):
    monkeypatch.setattr(mpc, "FormulaTemplate", _CountingTemplate)
    monkeypatch.setattr(_CountingTemplate, "compiled", [])
    starts = (120.0, 240.0, 360.0)
    feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                      initial_temps=(15.0, 30.0), start_times=starts)
    supply = [resolve_end(parse(supply_spec(s)), demo_cfg.end_time) for s in starts]
    power = resolve_end(parse(DEFAULT_POWER_SPEC), demo_cfg.end_time)
    assert _CountingTemplate.compiled == [f for s in supply for f in (s, power)]


@pytest.mark.parametrize("power_spec", [DEFAULT_POWER_SPEC, "alw_[0,end] (u >= 21.2)"],
                         ids=["hull", "plain"])
def test_applied_inputs_stay_on_their_band(demo_model, demo_cfg, demo_predictor,
                                           power_spec):
    # at the paper's reference the plan puts u0 on the band edge 21.2; the
    # solver meets that row only to its tolerance, and an applied input a
    # hair below the edge used to fold as a violated history sample
    cfg = replace(demo_cfg, reference=40.0,
                  stl_specs=(demo_cfg.stl_specs[0], power_spec))
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 15.0))
    assert trace.n_infeasible == 0, trace.statuses
    assert min(trace.final_robustness()) >= 0.0


def test_infeasible_policy_holds_input(demo_model, demo_cfg, demo_predictor):
    # an impossible deadline from a cold start: step 0 already infeasible
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC),
                  end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 5.0))
    assert trace.statuses[0] == "infeasible"
    assert trace.inputs[0] == 0.0  # nothing applied yet: hold zero
    assert len(trace.times) == cfg.n_steps + 1  # loop continues recording


#: the per-step fields of a trace, one row per step taken
TRACE_ROWS = ("times", "states", "inputs", "disturbances", "outputs", "statuses",
              "objectives", "binaries", "nodes", "robustness_so_far", "plan_seconds")


def _rows(trace: ClosedLoopTrace) -> dict[str, int]:
    return {name: len(getattr(trace, name)) for name in TRACE_ROWS}


def test_stop_on_infeasible_truncates(demo_model, demo_cfg, demo_predictor):
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC),
                  end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 5.0),
                            stop_on_infeasible=True)
    assert _rows(trace) == dict.fromkeys(TRACE_ROWS, 1)
    assert trace.statuses == ["infeasible"] and not trace.aborted


def test_initial_state_of_another_shape_is_refused(demo_model, demo_cond):
    for x0 in (np.full(7, 20.0), np.full((6, 1), 20.0)):
        with pytest.raises(ValueError, match=r"initial state needs shape \(6,\)"):
            mpc.run_condensed(demo_model, demo_cond, x0)


def test_divergence_aborts_after_the_planned_step(monkeypatch, demo_model, demo_cfg,
                                                  demo_cond):
    # the plant step after step 3 diverges: the trace keeps steps 0..3, and
    # step 3's input is the one planned there, never applied
    step, applied, planned = plant.step, [], []

    def diverging(model, x, u, *args):
        if len(applied) == 3:
            raise DivergenceError("state left the temperature bounds")
        applied.append(u)
        return step(model, x, u, *args)

    def recording(*args, **kwargs):
        res = plan_step(*args, **kwargs)
        planned.append(res.u0)
        return res

    monkeypatch.setattr(plant, "step", diverging)
    monkeypatch.setattr(mpc, "plan_step", recording)
    trace = mpc.run_condensed(demo_model, demo_cond, np.full(6, 20.0))
    assert _rows(trace) == dict.fromkeys(TRACE_ROWS, 4)
    assert trace.aborted and trace.abort_reason == "state left the temperature bounds"
    assert trace.statuses == ["optimal"] * 4
    assert trace.inputs.tolist() == applied + planned[3:] == planned
    assert trace.times.tolist() == [0.0, 60.0, 120.0, 180.0]
    applied.clear()
    assert evaluate_cell(demo_model, demo_cond, 20.0) == \
        (0, "aborted: state left the temperature bounds")


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
    assert list(serial.notes.items()) == list(parallel.notes.items())


def test_pickled_config_compiles_its_own_templates(demo_model, demo_cfg, demo_predictor):
    # what a sweep worker receives: the column's condensed horizon after
    # this process compiled the column's templates
    cfg = replace(demo_cfg, stl_specs=(supply_spec(360.0), DEFAULT_POWER_SPEC))
    cond = condense(demo_predictor, cfg)
    here = evaluate_cell(demo_model, cond, 30.0)
    assert "templates" in vars(cfg)
    sent = pickle.loads(pickle.dumps(cond))
    assert "templates" not in vars(sent.cfg)
    assert sent.cfg == cfg
    assert evaluate_cell(demo_model, sent, 30.0) == here


def test_sweep_csv_roundtrip(tmp_path, demo_model, demo_cfg, demo_predictor):
    cell_cfg = replace(demo_cfg, stl_specs=(supply_spec(360.0), DEFAULT_POWER_SPEC))
    cell, note = evaluate_cell(demo_model, condense(demo_predictor, cell_cfg), 30.0)
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
    with pytest.raises(ValueError, match="finite box"):
        ControllerConfig(u_min=5.0, u_max=1.0)
    # a margin of 0 admits u = 0.01 kW, which breaks the strict u < 0.01, and
    # a negative one admits inputs in neither power band
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps"):
            ControllerConfig(eps=eps)
