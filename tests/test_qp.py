import itertools

import numpy as np
import pytest

from oracles import elastic_violation_highs, kkt_residual, random_miqp
from wws import miqp, qp
from wws.mpc import plan_step
from wws.qp import QpSolverError, solve_qp


def test_clipped_parabola():
    res = solve_qp(H=np.array([[2.0]]), f=np.array([-6.0]),
                   A=np.array([[1.0]]), b=np.array([2.0]),
                   lb=np.array([-10.0]), ub=np.array([10.0]), obj_const=9.0)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-8)
    assert res.objective == pytest.approx(1.0, abs=1e-8)


def test_infeasible_box_pair():
    res = solve_qp(H=np.array([[2.0]]), f=np.array([0.0]),
                   A=np.array([[1.0], [-1.0]]), b=np.array([0.0, -1.0]),
                   lb=np.array([-5.0]), ub=np.array([5.0]))
    assert res.status == "infeasible"
    assert res.phase1_violation > 1e-3  # certified separation


def test_random_inequality_qps_satisfy_kkt():
    rng = np.random.default_rng(1)
    solved = 0
    for _ in range(50):
        n, m = 6, 8
        M = rng.normal(size=(n, n))
        H = M @ M.T + 0.1 * np.eye(n)
        f = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 1.0
        lb = np.full(n, -10.0)
        ub = np.full(n, 10.0)
        res = solve_qp(H, f, A, b, lb, ub)
        if res.status != "optimal":
            continue
        solved += 1
        assert res.kkt_residual <= 1e-8
        # stationarity against active-set multipliers (independent of the IPM)
        stationarity, violation = kkt_residual(H, f, A, b, lb, ub, res.x)
        assert violation <= 1e-9
        assert stationarity <= 1e-5 * (1.0 + float(np.max(np.abs(f))))
    assert solved >= 30


def test_singular_hessian_with_free_literals():
    H = np.zeros((3, 3))
    H[0, 0] = 2.0
    res = solve_qp(H, np.array([-2.0, 0.0, 0.0]),
                   A=np.array([[1.0, 1.0, 0.0]]), b=np.array([1.5]),
                   lb=np.zeros(3), ub=np.ones(3))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-6)


def test_degenerate_pinned_variable():
    res = solve_qp(np.zeros((2, 2)), np.array([1.0, 0.0]),
                   A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                   b=np.array([0.5, -0.5]),
                   lb=np.zeros(2), ub=np.ones(2))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.5, abs=1e-7)


def test_finite_boxes_required():
    with pytest.raises(ValueError, match="finite"):
        solve_qp(np.eye(1), np.zeros(1), None, None,
                 lb=np.array([-np.inf]), ub=np.array([1.0]))


FEASIBLE_QP = (np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
               np.zeros(2), np.ones(2))


def test_failed_feasibility_check_raises(monkeypatch):
    # a converged point that fails the check is a solver fault, never a verdict
    assert solve_qp(*FEASIBLE_QP).status == "optimal"
    monkeypatch.setattr(qp, "check_feasible_point", lambda *a, **k: False)
    with pytest.raises(QpSolverError, match="feasibility check"):
        solve_qp(*FEASIBLE_QP)


def _agrees_with_highs(qps, stationarity_tol=None):
    """Status matches HiGHS feasibility; infeasible bounds are valid.

    With ``stationarity_tol``, every optimal point must also pass the
    active-set KKT check, relative to the size of H and f.
    """
    infeasible = 0
    for H, f, A, b, lb, ub in qps:
        res = solve_qp(H, f, A, b, lb, ub)
        t_star = elastic_violation_highs(A, b, lb, ub)
        if res.status == "infeasible":
            infeasible += 1
            assert 1e-9 < res.phase1_violation <= t_star + 1e-9
        else:
            assert res.status == "optimal"
            assert t_star <= 1e-9
            if stationarity_tol is not None:
                stationarity, violation = kkt_residual(H, f, A, b, lb, ub, res.x)
                scale = 1.0 + float(np.max(np.abs(f)) + np.max(np.abs(H)))
                assert violation <= 1e-9
                assert stationarity <= stationarity_tol * scale
    return infeasible


def test_random_leaves_agree_with_highs():
    rng = np.random.default_rng(7)
    qps = []
    for _ in range(25):
        prob = random_miqp(rng, max_binaries=5)
        bin_idx = np.flatnonzero(prob.binary)
        for bits in itertools.product((0.0, 1.0), repeat=len(bin_idx)):
            lb = prob.lb.copy()
            ub = prob.ub.copy()
            lb[bin_idx] = ub[bin_idx] = bits
            qps.append((prob.H, prob.f, prob.A, prob.b, lb, ub))
    # x1 + x2 <= -0.5 on the unit box: t* = 0.5
    qps.append((np.zeros((2, 2)), np.zeros(2), np.array([[1.0, 1.0]]),
                np.array([-0.5]), np.zeros(2), np.ones(2)))
    infeasible = _agrees_with_highs(qps)
    assert 0 < infeasible < len(qps)


def test_demo_step0_node_qps_agree_with_highs(monkeypatch, demo_cfg, demo_predictor):
    qps = []
    original = miqp.solve_qp

    def capture(H, f, A, b, lb, ub, **kwargs):
        qps.append((H, f, A, b, lb.copy(), ub.copy()))
        return original(H, f, A, b, lb, ub, **kwargs)

    monkeypatch.setattr(miqp, "solve_qp", capture)
    res = plan_step(demo_cfg, demo_predictor, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal" and res.nodes > 1
    infeasible = _agrees_with_highs(qps, stationarity_tol=1e-6)
    assert 0 < infeasible < len(qps)
