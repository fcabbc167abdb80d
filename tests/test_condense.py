import os

import numpy as np
import pytest
from dataclasses import replace

from wws import mpc
from wws.condense import CONDENSED_SETTINGS, condense
from wws.mpc import ControllerConfig, build_step_problem, run_closed_loop
from wws.predictor import LinearPredictor, lift, linearize_local

from boxqp import solve_box
from oracles import iterated_free_response


def _identity_predictor(A, b_u, b_d, h=60.0):
    return LinearPredictor(A=np.asarray(A, float), b_u=np.asarray(b_u, float),
                           b_d=np.asarray(b_d, float), c=np.zeros(6), h=h,
                           w=10.0)


def _tracking_cfg(**kwargs):
    return ControllerConfig(stl_specs=(), **kwargs)


def test_single_step_unrolling():
    rng = np.random.default_rng(0)
    A = rng.normal(0, 0.3, size=(6, 6))
    bu = rng.normal(size=6)
    bd = rng.normal(size=6)
    pred = replace(_identity_predictor(A, bu, bd), w=3.0)
    cond = condense(pred, _tracking_cfg(horizon=1))
    z0 = rng.normal(size=6)
    u0 = 1.7
    y1 = cond.Y[0, 0] * u0 + cond.free_response(z0)[0]
    assert y1 == pytest.approx((A @ z0 + bu * u0 + bd * 3.0)[4], abs=1e-14)


def test_scalar_toy_running_sum():
    # with identity dynamics and unit input direction, y_{i+1} = sum_{k<=i} u_k
    pred = _identity_predictor(np.eye(6), np.ones(6), np.zeros(6))
    cond = condense(pred, _tracking_cfg(horizon=5))
    assert np.array_equal(cond.Y, np.tril(np.ones((5, 5))))
    assert np.array_equal(cond.free_response(np.zeros(6)), np.zeros(5))


def test_condensed_rollout_matches_iterated_predictor(demo_predictor):
    rng = np.random.default_rng(1)
    pred = replace(demo_predictor, w=float(rng.uniform(5, 15)))
    cfg = _tracking_cfg()
    cond = condense(pred, cfg)
    for _ in range(4):
        x0 = rng.uniform(10, 40, size=6)
        u = rng.uniform(0, 26.5, size=cfg.horizon)
        y = pred.predict(x0, u, [pred.w] * cfg.horizon)[1:, 4]
        got = cond.Y @ u + cond.free_response(x0)
        assert np.max(np.abs(got - y)) <= 1e-10 * np.max(np.abs(y))


@pytest.mark.parametrize("fit", ["demo_predictor", "nominal_predictor", "local"])
def test_free_response_matches_iterated_dynamics(request, fit):
    # the affine map Phi lift(x) + psi against stepping the lifted dynamics;
    # the local linearization carries a nonzero affine constant c
    if fit == "local":
        eq = request.getfixturevalue("demo_equilibrium")
        pred = linearize_local(request.getfixturevalue("demo_model"), eq.x, eq.u, 10.0, 60.0)
        assert pred.c.any()
    else:
        pred = request.getfixturevalue(fit)
    rng = np.random.default_rng(2)
    for cfg in (_tracking_cfg(), _tracking_cfg(horizon=3, reference=42.0)):
        cond = condense(pred, cfg)
        for _ in range(8):
            x = rng.uniform(5, 60, size=6)
            want = iterated_free_response(pred, cfg, x)
            assert np.max(np.abs(cond.free_response(x) - want)) \
                <= 1e-12 * np.max(np.abs(want))


def test_horizon_refused_for_another_configuration(demo_cfg, demo_cond):
    args = (np.full(6, 15.0), 0, [15.0], [])
    # the specifications and the input box are not condensed: any may pair
    build_step_problem(replace(demo_cfg, stl_specs=(), u_max=20.0), demo_cond, *args)
    for change in ({"horizon": 5}, {"r_weight": 10.0},
                   {"reference": 40.0}, {"output_index": 4}, {"h": 30.0, "end_time": 1200.0}):
        with pytest.raises(ValueError, match="condensed for another controller configuration"):
            build_step_problem(replace(demo_cfg, **change), demo_cond, *args)


def test_objective_matches_expanded_tracking_cost(demo_predictor):
    # expand sum_i (y_i - ref)^2 + r u_i^2 with y = M u + y0 read off
    # predictor rollouts, independently of the condensed recursion
    cfg = _tracking_cfg(r_weight=0.2, reference=42.0)
    x0 = np.full(6, 15.0)
    n, w = cfg.horizon, [demo_predictor.w] * cfg.horizon
    y0 = demo_predictor.predict(x0, np.zeros(n), w)[1:, 4]
    M = np.column_stack([demo_predictor.predict(x0, np.eye(n)[j], w)[1:, 4] - y0
                         for j in range(n)])
    H = 2.0 * (M.T @ M + cfg.r_weight * np.eye(n))
    f = 2.0 * M.T @ (y0 - cfg.reference)
    const = np.sum((y0 - cfg.reference) ** 2)

    problem, u_names = build_step_problem(cfg, condense(demo_predictor, cfg),
                                          x0, 0, [15.0], [])[:2]
    assert list(problem.names) == u_names
    assert np.max(np.abs(problem.H - H)) <= 1e-12 * np.max(np.abs(H))
    assert np.max(np.abs(problem.f - f)) <= 1e-12 * np.max(np.abs(f))
    assert abs(problem.obj_const - const) <= 1e-12 * const


def test_unconstrained_tracking_hits_reference():
    # toy: y_1 = u_0 exactly; Q = 1, R = 1e-9 -> minimizer 40 / (1 + 1e-9)
    bu = np.zeros(6)
    bu[4] = 1.0
    pred = _identity_predictor(np.zeros((6, 6)), bu, np.zeros(6))
    cfg = _tracking_cfg(horizon=1, reference=40.0, r_weight=1e-9, u_max=100.0)
    prob = build_step_problem(cfg, condense(pred, cfg), np.zeros(6), 0,
                              [0.0], []).problem
    res = solve_box(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
                    obj_const=prob.obj_const)
    assert res.x[0] == pytest.approx(40.0, abs=1e-7)


def test_default_weights():
    # the output error weighs 1: the input weight alone sets the trade-off
    cfg = ControllerConfig()
    assert cfg.r_weight == 10.0
    assert CONDENSED_SETTINGS == ("horizon", "h", "r_weight", "reference", "output_index")
    assert cfg.horizon == 10 and cfg.h == 60.0 and cfg.reference == 40.0
    assert (cfg.u_min, cfg.u_max) == (0.0, 26.5)
    assert cfg.end_time == 1200.0


def test_full_horizon_hessian_is_psd(demo_predictor):
    H = condense(demo_predictor, ControllerConfig()).H
    assert np.array_equal(H, H.T)
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() >= 2.0 * 10.0 - 1e-9  # the R-block guarantees strict convexity


def test_one_condense_per_closed_loop(monkeypatch, demo_model, demo_cfg, demo_predictor):
    calls = []
    original = mpc.condense

    def counting(pred, cfg):
        calls.append(cfg)
        return original(pred, cfg)

    monkeypatch.setattr(mpc, "condense", counting)
    cfg = replace(demo_cfg, end_time=240.0)
    trace = run_closed_loop(demo_model, cfg, demo_predictor, np.full(6, 15.0))
    assert len(trace.statuses) == cfg.n_steps + 1
    assert calls == [cfg]


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_condense_per_sweep(monkeypatch, demo_model, demo_cfg, demo_predictor, jobs):
    # the sweep's configuration is condensed once, in the calling process,
    # never in a cell: every column pairs that horizon with its own specs
    calls, caller = [], os.getpid()
    original = mpc.condense

    def counting(pred, cfg):
        if os.getpid() != caller:
            raise RuntimeError("condensed in a worker")
        calls.append(cfg)
        return original(pred, cfg)

    monkeypatch.setattr(mpc, "condense", counting)
    sweep = mpc.feasibility_sweep(demo_model, demo_cfg, demo_predictor,
                                  initial_temps=(5.0, 15.0, 30.0), start_times=(60.0, 120.0),
                                  jobs=jobs)
    assert calls == [demo_cfg]
    assert not [n for n in sweep.notes.values() if n.startswith("error:")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_column_condense_reaches_every_cell(demo_model, demo_cfg, demo_predictor,
                                                   jobs):
    sweep = mpc.feasibility_sweep(demo_model, demo_cfg, replace(demo_predictor, h=30.0),
                                  initial_temps=(5.0, 15.0), start_times=(60.0, 120.0),
                                  jobs=jobs)
    assert not sweep.table.any()
    assert set(sweep.notes.values()) \
        == {"error: predictor sampled at h=30 s, controller at h=60 s"}
    assert len(sweep.notes) == 4


def test_condensed_equals_explicit_state_formulation(demo_model, demo_equilibrium):
    """Eliminating the states must not change the optimum.

    The explicit formulation keeps every lifted state as a variable tied by
    equality dynamics; it is solved by one KKT system in numpy, without
    ``wws.qp``.  Its solution lies inside every box of the explicit problem
    (u in [0, 26.5], z in [-500, 500]), so it is also the box-constrained
    optimum that the condensed QP must reproduce.
    """
    eq = demo_equilibrium
    pred = linearize_local(demo_model, eq.x, eq.u, 10.0, 60.0)
    x0 = np.full(6, 30.0)
    np_h = 3
    w = [10.0] * np_h
    r_w, ref = 10.0, 40.0

    # condensed
    cfg = _tracking_cfg(horizon=np_h, r_weight=r_w, reference=ref)
    p1 = build_step_problem(cfg, condense(pred, cfg), x0, 0, [30.0], []).problem
    r1 = solve_box(p1.H, p1.f, p1.A, p1.b, p1.lb, p1.ub, obj_const=p1.obj_const)

    # explicit lifted states: v = (u_0..u_{Np-1}, z_0, .., z_Np), E v = d
    n_z = 6 * (np_h + 1)
    n = np_h + n_z

    def z(i, j):
        return np_h + 6 * i + j

    H = np.zeros((n, n))
    f = np.zeros(n)
    const = 0.0
    for i in range(np_h):
        H[i, i] = 2.0 * r_w
        y = z(i + 1, 4)
        H[y, y] = 2.0
        f[y] = -2.0 * ref
        const += ref ** 2
    E = np.zeros((n_z, n))
    d = np.zeros(n_z)
    E[:6, np_h:np_h + 6] = np.eye(6)
    d[:6] = lift(x0, pred.n)
    for i in range(np_h):
        rows = slice(6 * (i + 1), 6 * (i + 2))
        E[rows, z(i + 1, 0):z(i + 1, 6)] = np.eye(6)
        E[rows, z(i, 0):z(i, 6)] = -pred.A
        E[rows, i] = -pred.b_u
        d[rows] = pred.b_d * w[i] + pred.c
    kkt = np.block([[H, E.T], [E, np.zeros((n_z, n_z))]])
    v = np.linalg.solve(kkt, np.concatenate([-f, d]))[:n]
    assert np.max(np.abs(E @ v - d)) <= 1e-9
    assert np.all((v[:np_h] >= 0.0) & (v[:np_h] <= 26.5))
    assert np.all(np.abs(v[np_h:]) <= 500.0)

    assert r1.status == "optimal"
    assert abs(r1.objective - (0.5 * v @ H @ v + f @ v + const)) <= 1e-6
    assert np.max(np.abs(r1.x[:np_h] - v[:np_h])) <= 1e-5
