import numpy as np
import pytest

from wws.condense import add_horizon_objective, condense
from wws.milp import ProblemBuilder
from wws.mpc import ControllerConfig
from wws.predictor import IDENTITY_OBSERVABLES, LinearPredictor
from wws.qp import solve_qp


def _identity_predictor(A, b_u, b_d, h=60.0):
    return LinearPredictor(A=np.asarray(A, float), b_u=np.asarray(b_u, float),
                           b_d=np.asarray(b_d, float), C=np.eye(6), h=h,
                           observables=IDENTITY_OBSERVABLES)


def test_single_step_unrolling():
    rng = np.random.default_rng(0)
    A = rng.normal(0, 0.3, size=(6, 6))
    bu = rng.normal(size=6)
    bd = rng.normal(size=6)
    pred = _identity_predictor(A, bu, bd)
    z0 = rng.normal(size=6)
    cond = condense(pred, z0, 1, [3.0])
    u0 = 1.7
    z1 = cond.G[1] @ np.array([u0]) + cond.g[1]
    assert np.allclose(z1, A @ z0 + bu * u0 + bd * 3.0, atol=1e-14)
    assert np.array_equal(cond.G[0], np.zeros((6, 1)))
    assert np.array_equal(cond.g[0], z0)


def test_scalar_toy_running_sum():
    pred = _identity_predictor(np.eye(6), np.ones(6), np.zeros(6))
    cond = condense(pred, np.zeros(6), 5, [0.0] * 5)
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    Z = cond.rollout(u)
    # with identity dynamics and unit input direction, z_i = sum_{k<i} u_k
    partial = np.concatenate([[0.0], np.cumsum(u)])
    for i in range(6):
        assert np.allclose(Z[i], partial[i])


def test_condensed_rollout_matches_iterated_predictor(demo_predictor):
    rng = np.random.default_rng(1)
    x0 = rng.uniform(10, 40, size=6)
    u = rng.uniform(0, 26.5, size=10)
    w = rng.uniform(5, 15, size=10)
    z0 = demo_predictor.lift(x0)
    cond = condense(demo_predictor, z0, 10, w)
    Z = cond.rollout(u)
    z = z0.copy()
    c = demo_predictor.affine_const()
    for i in range(10):
        assert np.max(np.abs(Z[i] - z)) <= 1e-10 * max(1.0, np.max(np.abs(z)))
        z = demo_predictor.A @ z + demo_predictor.b_u * u[i] \
            + demo_predictor.b_d * w[i] + c
    assert np.max(np.abs(Z[10] - z)) <= 1e-10 * max(1.0, np.max(np.abs(z)))


def test_y_expr_matches_rollout(demo_predictor):
    rng = np.random.default_rng(2)
    x0 = rng.uniform(10, 40, size=6)
    u = rng.uniform(0, 26.5, size=4)
    cond = condense(demo_predictor, demo_predictor.lift(x0), 4, [10.0] * 4)
    names = [f"u{i}" for i in range(4)]
    assign = dict(zip(names, u))
    for i in range(5):
        expr = cond.y_expr(i, names)
        assert expr.value(assign) == pytest.approx(cond.rollout(u)[i][4], abs=1e-9)


def test_unconstrained_tracking_hits_reference():
    # toy: y_1 = u_0 exactly; Q = 1, R = 0 -> minimizer is the reference
    A = np.zeros((6, 6))
    bu = np.zeros(6)
    bu[4] = 1.0
    pred = _identity_predictor(A, bu, np.zeros(6))
    cond = condense(pred, np.zeros(6), 1, [0.0])
    builder = ProblemBuilder()
    u0 = builder.add_continuous("u0", 0.0, 100.0)
    add_horizon_objective(builder, cond, [u0], q_weight=1.0, r_weight=0.0,
                          reference=40.0)
    prob = builder.build()
    res = solve_qp(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
                   obj_const=prob.obj_const)
    assert res.x[0] == pytest.approx(40.0, abs=1e-7)


def test_default_weights():
    cfg = ControllerConfig()
    assert cfg.q_weight == 1.0 and cfg.r_weight == 10.0
    assert cfg.horizon == 10 and cfg.h == 60.0 and cfg.reference == 40.0
    assert (cfg.u_min, cfg.u_max) == (0.0, 26.5)
    assert cfg.end_time == 1200.0 and cfg.w_forecast == 10.0


def test_full_horizon_hessian_is_psd(demo_predictor):
    builder = ProblemBuilder()
    names = [builder.add_continuous(f"u{i}", 0.0, 26.5) for i in range(10)]
    cond = condense(demo_predictor, demo_predictor.lift(np.full(6, 15.0)),
                    10, [10.0] * 10)
    add_horizon_objective(builder, cond, names, 1.0, 10.0, 40.0)
    prob = builder.build()  # build() already validates PSD
    eigs = np.linalg.eigvalsh(prob.H)
    assert eigs.min() >= -1e-8 * max(1.0, eigs.max())
    assert eigs.min() >= 2.0 * 10.0 - 1e-9  # the R-block guarantees strict convexity


def test_condensed_equals_explicit_state_formulation(demo_model, demo_equilibrium):
    """Eliminating the states must not change the optimum.

    The explicit formulation keeps every lifted state as a variable tied by
    equality dynamics; it is solved by one KKT system in numpy, without
    ``wws.qp``.  Its solution lies inside every box of the explicit problem
    (u in [0, 26.5], z in [-500, 500]), so it is also the box-constrained
    optimum that the condensed QP must reproduce.
    """
    from wws.predictor import linearize_local

    eq = demo_equilibrium
    pred = linearize_local(demo_model, eq.x, eq.u, 10.0, 60.0)
    x0 = np.full(6, 30.0)
    np_h = 3
    w = [10.0] * np_h
    q_w, r_w, ref = 1.0, 10.0, 40.0

    # condensed
    cond = condense(pred, pred.lift(x0), np_h, w)
    builder = ProblemBuilder()
    names = [builder.add_continuous(f"u{i}", 0.0, 26.5) for i in range(np_h)]
    add_horizon_objective(builder, cond, names, q_w, r_w, ref)
    p1 = builder.build()
    r1 = solve_qp(p1.H, p1.f, p1.A, p1.b, p1.lb, p1.ub, obj_const=p1.obj_const)

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
        H[y, y] = 2.0 * q_w
        f[y] = -2.0 * q_w * ref
        const += q_w * ref ** 2
    E = np.zeros((n_z, n))
    d = np.zeros(n_z)
    E[:6, np_h:np_h + 6] = np.eye(6)
    d[:6] = pred.lift(x0)
    c = pred.affine_const()
    for i in range(np_h):
        rows = slice(6 * (i + 1), 6 * (i + 2))
        E[rows, z(i + 1, 0):z(i + 1, 6)] = np.eye(6)
        E[rows, z(i, 0):z(i, 6)] = -pred.A
        E[rows, i] = -pred.b_u
        d[rows] = pred.b_d * w[i] + c
    kkt = np.block([[H, E.T], [E, np.zeros((n_z, n_z))]])
    v = np.linalg.solve(kkt, np.concatenate([-f, d]))[:n]
    assert np.max(np.abs(E @ v - d)) <= 1e-9
    assert np.all((v[:np_h] >= 0.0) & (v[:np_h] <= 26.5))
    assert np.all(np.abs(v[np_h:]) <= 500.0)

    assert r1.status == "optimal"
    assert abs(r1.objective - (0.5 * v @ H @ v + f @ v + const)) <= 1e-6
    assert np.max(np.abs(r1.x[:np_h] - v[:np_h])) <= 1e-5
