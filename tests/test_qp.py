import itertools

import numpy as np
import pytest

from oracles import elastic_violation_highs, random_miqp
from wws import miqp, qp
from wws.mpc import plan_step
from wws.qp import phase1_violation, solve_qp


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


def _active_set_stationarity(H, f, A, b, lb, ub, x, tol=1e-5):
    """Nonnegative multipliers on the active rows certify stationarity."""
    from scipy.optimize import nnls

    rows = [A[k] for k in range(A.shape[0]) if A[k] @ x >= b[k] - tol]
    rows += [e for i, e in enumerate(np.eye(len(x))) if x[i] >= ub[i] - tol]
    rows += [-e for i, e in enumerate(np.eye(len(x))) if x[i] <= lb[i] + tol]
    g = H @ x + f
    if not rows:
        return float(np.max(np.abs(g)))
    Aact = np.array(rows)
    lam, _ = nnls(Aact.T, -g)
    return float(np.max(np.abs(g + Aact.T @ lam)))


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
        x = res.x
        assert np.max(A @ x - b) <= 1e-8
        assert np.all(x >= lb - 1e-8) and np.all(x <= ub + 1e-8)
        assert res.kkt_residual <= 1e-8
        # stationarity against active-set multipliers (independent of the IPM)
        scale = 1.0 + float(np.max(np.abs(f)))
        assert _active_set_stationarity(H, f, A, b, lb, ub, x) <= 1e-5 * scale
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


def test_phase1_certificate_signs():
    lb = np.zeros(2)
    ub = np.ones(2)
    feasible = phase1_violation(np.array([[1.0, 1.0]]), np.array([1.5]), lb, ub)
    assert feasible <= 1e-9
    infeasible = phase1_violation(np.array([[1.0, 1.0]]), np.array([-0.5]), lb, ub)
    assert infeasible > 0.1  # row-scaled true violation is 0.25
    tight = phase1_violation(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                             np.array([0.5, -0.5]), lb, ub)
    assert tight <= 1e-9


def test_finite_boxes_required():
    with pytest.raises(ValueError, match="finite"):
        solve_qp(np.eye(1), np.zeros(1), None, None,
                 lb=np.array([-np.inf]), ub=np.array([1.0]))


FEASIBLE_QP = (np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
               np.zeros(2), np.ones(2))


@pytest.fixture
def phase1_calls(monkeypatch):
    """Count calls to the elastic phase-1 LP made by ``solve_qp``."""
    calls = []
    original = qp.phase1_violation

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qp, "phase1_violation", counting)
    return calls


def test_main_solve_decides_without_phase1(phase1_calls):
    assert solve_qp(*FEASIBLE_QP).status == "optimal"
    infeasible = solve_qp(H=np.array([[2.0]]), f=np.array([0.0]),
                          A=np.array([[1.0], [-1.0]]), b=np.array([0.0, -1.0]),
                          lb=np.array([-5.0]), ub=np.array([5.0]))
    assert infeasible.status == "infeasible"
    assert infeasible.phase1_violation > 1e-3
    assert phase1_calls == []


def test_failed_feasibility_check_falls_back_to_phase1(monkeypatch, phase1_calls):
    direct = solve_qp(*FEASIBLE_QP)
    monkeypatch.setattr(qp, "check_feasible_point", lambda *a, **k: False)
    fallback = solve_qp(*FEASIBLE_QP)
    assert len(phase1_calls) == 1
    assert fallback.status == "optimal"
    assert np.array_equal(fallback.x, direct.x)
    assert fallback.phase1_violation <= 1e-9


def _agrees_with_highs(qps):
    """Status matches HiGHS feasibility; infeasible bounds are valid."""
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
    infeasible = _agrees_with_highs(qps)
    assert 0 < infeasible < len(qps)
