from dataclasses import replace

import numpy as np
import pytest

from wws import predictor as P
from wws.milp import dump_lp
from wws.mpc import (DEFAULT_POWER_SPEC, ControllerConfig, build_step_problem, condense,
                     run_closed_loop)
from wws import miqp
from wws.miqp import MiqpError, solve_miqp
from wws.plant import output

from boxqp import solve_box
from oracles import (ProblemBuilder, add_squared_cost, encode_formula, enumerate_miqp,
                     max_violation, random_miqp)


def _band_problem(y0=42.0, gain=0.1):
    """One-step warm-water shaped problem: y1 = y0 + gain*u0, u in off/run band."""
    from wws import stl

    b = ProblemBuilder()
    b.add_variables(["u0"], 0.0, 26.5, [False])
    f = stl.parse("((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))")
    encode_formula(b, f, {"u": {0: "u0"}}, 60.0, {"u": (0.0, 26.5)})
    add_squared_cost(b, ["u0"], [gain], 1.0, target=40.0 - y0)
    add_squared_cost(b, ["u0"], [1.0], 10.0)
    return b.build()


def test_no_binaries_reduces_to_qp():
    b = ProblemBuilder()
    b.add_variables(["x"], -4.0, 4.0, [False])
    add_squared_cost(b, ["x"], [1.0], 1.0, target=3.0)
    b.add_rows(["x"], [[1.0]], [2.0])
    prob = b.build()
    res = solve_miqp(prob)
    qp = solve_box(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
                   obj_const=prob.obj_const)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(qp.objective, abs=1e-9)
    assert res.nodes == 1


def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(40):
        prob = random_miqp(rng)
        oracle_obj, _ = enumerate_miqp(prob)
        res = solve_miqp(prob)
        if oracle_obj == np.inf:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert abs(res.objective - oracle_obj) <= 1e-6
            assert max_violation(prob, res.x) <= 1e-7


def test_root_relaxation_bounds_integer_optimum():
    rng = np.random.default_rng(7)
    for _ in range(15):
        prob = random_miqp(rng)
        oracle_obj, _ = enumerate_miqp(prob)
        if oracle_obj == np.inf:
            continue
        root = solve_box(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
                         obj_const=prob.obj_const)
        assert root.status == "optimal"
        assert root.objective <= oracle_obj + 1e-8
        # a partial integer fix still lower-bounds its completions
        bin_idx = np.flatnonzero(prob.binary)
        lb, ub = prob.lb.copy(), prob.ub.copy()
        lb[bin_idx[0]] = ub[bin_idx[0]] = 1.0
        part = solve_box(prob.H, prob.f, prob.A, prob.b, lb, ub,
                         obj_const=prob.obj_const)
        sub_best = np.inf
        import itertools
        for bits in itertools.product((0.0, 1.0), repeat=len(bin_idx) - 1):
            l2, u2 = lb.copy(), ub.copy()
            for i, v in zip(bin_idx[1:], bits):
                l2[i] = u2[i] = v
            leaf = solve_box(prob.H, prob.f, prob.A, prob.b, l2, u2,
                             obj_const=prob.obj_const)
            if leaf.status == "optimal":
                sub_best = min(sub_best, leaf.objective)
        if part.status == "optimal" and sub_best < np.inf:
            assert part.objective <= sub_best + 1e-8


def test_off_branch_selected_when_reference_met():
    prob = _band_problem(y0=42.0, gain=0.1)
    res = solve_miqp(prob)
    oracle_obj, oracle_x = enumerate_miqp(prob)
    assert res.status == "optimal"
    assert abs(res.objective - oracle_obj) <= 1e-6
    u = res.assignment["u0"]
    assert 0.001 < u < 0.01  # heating off: the reference is already exceeded


def test_deterministic_resolve():
    rng = np.random.default_rng(3)
    prob = random_miqp(rng)
    a = solve_miqp(prob)
    b = solve_miqp(prob)
    assert a.status == b.status
    assert a.nodes == b.nodes and a.qp_solves == b.qp_solves
    if a.x is not None:
        assert np.array_equal(a.x, b.x)


def test_warm_start_reaches_same_optimum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        prob = random_miqp(rng)
        cold = solve_miqp(prob)
        if cold.status != "optimal":
            continue
        warm_bins = cold.x[prob.binary]
        with pytest.raises(ValueError, match="warm seed needs"):
            solve_miqp(prob, warm_binaries=warm_bins[1:])
        warm = solve_miqp(prob, warm_binaries=warm_bins)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert warm.nodes <= cold.nodes + 1


def test_gap_reported_within_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob = random_miqp(rng)
        res = solve_miqp(prob)
        if res.status == "optimal":
            assert res.gap is not None and res.gap <= 1e-6 + 1e-12


def test_equal_bounds_search_newest_first():
    # zero objective: every relaxation bound ties at 0, and only a dive
    # (newest node first) reaches an integral leaf before the fixings pile up
    b = ProblemBuilder()
    p = [f"p{i}" for i in range(12)]
    b.add_variables(p, 0.0, 1.0, [True] * 12)
    b.add_rows(p, [[1.0] * 12, [-1.0] * 12], [6.0, -6.0])
    res = solve_miqp(b.build())
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert sum(res.assignment.values()) == pytest.approx(6.0, abs=1e-9)
    assert res.nodes == 7


def test_node_limit_returns_incumbent(monkeypatch):
    # an instance whose full solve needs 5 nodes, cut after the first: the
    # warm incumbent is returned with its gap to the open node's bound
    prob = random_miqp(np.random.default_rng(13), max_binaries=6)
    full = solve_miqp(prob)
    assert full.status == "optimal" and full.nodes >= 3
    monkeypatch.setattr(miqp, "NODE_LIMIT", 1)
    res = solve_miqp(prob, warm_binaries=full.x[prob.binary])
    assert res.status == "iteration-limit"
    assert res.nodes == miqp.NODE_LIMIT + 1
    assert res.x is not None and res.assignment is not None
    assert res.objective >= full.objective - 1e-9
    assert res.gap >= 0.0


def test_binary_limit_enforced():
    n = miqp.BINARY_LIMIT + 1
    b = ProblemBuilder()
    p = [f"p{i}" for i in range(n)]
    b.add_variables(p, 0.0, 1.0, [True] * n)
    b.add_rows(p, [[1.0] * n], [1.0])
    with pytest.raises(MiqpError, match="exceed"):
        solve_miqp(b.build())


def test_marked_infeasible_short_circuits():
    b = ProblemBuilder()
    b.add_variables(["x"], 0.0, 1.0, [False])
    b.mark_infeasible("history violated")
    res = solve_miqp(b.build())
    assert res.status == "infeasible" and res.nodes == 0


def test_empty_problem_is_trivially_optimal():
    res = solve_miqp(ProblemBuilder().build())
    assert res.status == "optimal" and res.objective == 0.0


def test_build_keeps_rows_no_box_point_can_violate(nominal_model, demo_cfg, demo_cond):
    # a nominal predictor fitted on 300 draws (seed 4) gives output rows
    # whose coefficients are rounding noise against their right-hand side;
    # they stay in the step problem, and its node QPs still decide the
    # 21-step loop from 20 degC under y >= 5 and the power bands
    data = P.generate_dataset(nominal_model, P.DatasetConfig(K=300, seed=4))
    pred = P.fit_edmd_from_dataset(P.DEFAULT_OBSERVABLES, data)
    cfg = ControllerConfig(stl_specs=("alw_[0,end] (y >= 5)", DEFAULT_POWER_SPEC),
                           output_index=nominal_model.output_index)
    x0 = np.full(6, 20.0)
    y0 = output(x0, nominal_model.output_index)
    A = build_step_problem(cfg, condense(pred, cfg), x0, 0, [y0], []).problem.A
    assert (np.abs(A).max(axis=1) < 1e-12).sum() == 10
    trace = run_closed_loop(nominal_model, cfg, pred, x0)
    assert len(trace.times) == 21 and trace.n_infeasible == 0 and not trace.aborted
    # a binary used only in rows that u <= 26.5 meets still passes the usage
    # rule, its rows kept
    np_h = demo_cond.horizon
    cfg = replace(demo_cfg, stl_specs=("alw_[0,end] ((u <= 27) or (u <= 28))",))
    step = build_step_problem(cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [])
    assert step.problem.A.shape == (2 * np_h, 2 * np_h) and step.n_binaries == np_h


def test_dump_lp_writes_sections(tmp_path):
    rng = np.random.default_rng(4)
    prob = random_miqp(rng)
    path = tmp_path / "prob.lp"
    dump_lp(prob, path)
    text = path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
