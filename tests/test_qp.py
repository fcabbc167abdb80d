import heapq
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from boxqp import solve_box
from oracles import elastic_violation_highs, kkt_residual, random_miqp
from wws import miqp, mpc, qp
from wws import predictor as P
from wws.mpc import DEFAULT_INITIAL_TEMPS, DEFAULT_POWER_SPEC, plan_step, supply_spec
from wws.plant import PlantModel
from wws.qp import QpSolverError


def test_clipped_parabola():
    res = solve_box(H=np.array([[2.0]]), f=np.array([-6.0]),
                    A=np.array([[1.0]]), b=np.array([2.0]),
                    lb=np.array([-10.0]), ub=np.array([10.0]), obj_const=9.0)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(2.0, abs=1e-8)
    assert res.objective == pytest.approx(1.0, abs=1e-8)


def test_infeasible_box_pair():
    res = solve_box(H=np.array([[2.0]]), f=np.array([0.0]),
                    A=np.array([[1.0], [-1.0]]), b=np.array([0.0, -1.0]),
                    lb=np.array([-5.0]), ub=np.array([5.0]))
    assert res.status == "infeasible"
    assert res.certified_violation > 1e-3  # certified separation


def _propagation_verdict(A, b, lb, ub):
    res = solve_box(np.zeros((len(lb), len(lb))), np.zeros(len(lb)),
                    np.array(A, dtype=float), np.array(b, dtype=float),
                    np.array(lb, dtype=float), np.array(ub, dtype=float))
    assert res.status == "infeasible" and res.iterations == 0
    assert 1e-9 < res.certified_violation <= elastic_violation_highs(A, b, lb, ub) + 1e-9
    return res.certified_violation


def test_conflicting_singleton_rows_certified_before_the_active_set():
    # x <= 0.3 and x >= 0.6 on [0, 1]: t* = 0.15 at x = 0.45
    bound = _propagation_verdict([[1.0], [-1.0]], [0.3, -0.6], [0.0], [1.0])
    assert bound == pytest.approx(0.15, abs=1e-12)


def test_row_unmet_through_a_fixed_column_certified_before_the_active_set():
    # x0 + x1 <= 0.2 with x1 fixed at 1: t* = 0.8 at x0 = 0
    bound = _propagation_verdict([[1.0, 1.0]], [0.2], [0.0, 1.0], [1.0, 1.0])
    assert bound == pytest.approx(0.8, abs=1e-12)


def test_conflict_of_three_rows_is_certified_by_the_dual_ray():
    # x0 + x1 >= 1.2, x1 + x2 >= 1.2, x0 + x2 <= 0.2 on the unit box: any two
    # rows can be met, all three force x1 >= 1.1; t* = 0.2 / 3.  No row is a
    # singleton and none is unmeetable alone, so propagation finds nothing.
    A = np.array([[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [1.0, 0.0, 1.0]])
    b = np.array([-1.2, -1.2, 0.2])
    lb, ub = np.zeros(3), np.ones(3)
    res = solve_box(np.zeros((3, 3)), np.zeros(3), A, b, lb, ub)
    assert res.status == "infeasible" and res.iterations > 0
    assert 1e-9 < res.certified_violation <= elastic_violation_highs(A, b, lb, ub) + 1e-9


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
        res = solve_box(H, f, A, b, lb, ub)
        if res.status != "optimal":
            continue
        solved += 1
        assert res.kkt_residual <= 1e-8
        # stationarity against active-set multipliers fitted independently
        stationarity, violation = kkt_residual(H, f, A, b, lb, ub, res.x)
        assert violation <= 1e-9
        assert stationarity <= 1e-5 * (1.0 + float(np.max(np.abs(f))))
    assert solved >= 30


def test_fixed_columns_without_curvature_solve():
    # zero objective; of the ten columns, five are fixed and the rows pin
    # the sum of the rest
    H, f = np.zeros((10, 10)), np.zeros(10)
    A, b = np.array([np.ones(10), -np.ones(10)]), np.array([5.0, -5.0])
    lb = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1.0])
    ub = np.array([0, 1, 1, 0, 1, 0, 1, 1, 0, 1.0])
    res = solve_box(H, f, A, b, lb, ub)
    assert res.status == "optimal"
    stationarity, violation = kkt_residual(H, f, A, b, lb, ub, res.x)
    assert stationarity <= 1e-9 and violation <= 1e-9


def test_singular_hessian_with_free_literals():
    H = np.zeros((3, 3))
    H[0, 0] = 2.0
    res = solve_box(H, np.array([-2.0, 0.0, 0.0]),
                    A=np.array([[1.0, 1.0, 0.0]]), b=np.array([1.5]),
                    lb=np.zeros(3), ub=np.ones(3))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-6)


def test_degenerate_pinned_variable():
    res = solve_box(np.zeros((2, 2)), np.array([1.0, 0.0]),
                    A=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                    b=np.array([0.5, -0.5]),
                    lb=np.zeros(2), ub=np.ones(2))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(0.5, abs=1e-7)


def test_finite_boxes_required():
    with pytest.raises(ValueError, match="finite"):
        solve_box(np.eye(1), np.zeros(1), np.zeros((0, 1)), np.zeros(0),
                  lb=np.array([-np.inf]), ub=np.array([1.0]))


def _random_node_box(rng, prob):
    """A box inside the problem's: each binary fixed to 0 or 1 or left free,
    each continuous variable on a random sub-interval."""
    lb, ub = prob.lb.copy(), prob.ub.copy()
    for j in range(prob.n):
        if prob.binary[j]:
            side = int(rng.integers(3))
            if side < 2:
                lb[j] = ub[j] = float(side)
        else:
            lb[j], ub[j] = np.sort(rng.uniform(prob.lb[j], prob.ub[j], 2))
    return lb, ub


def test_objective_dual_bound_stays_below_every_node_optimum():
    # any point and any multipliers lam >= 0 bound every node box from
    # below; a node's own solution bounds it within 1e-6
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        prob = random_miqp(rng)
        A, b = qp._equilibrate_rows(prob.A, prob.b)
        optimal = []
        for _ in range(6):
            lb, ub = _random_node_box(rng, prob)
            res = solve_box(prob.H, prob.f, prob.A, prob.b, lb, ub, obj_const=prob.obj_const)
            if res.status == "optimal":
                assert res.multipliers.shape == b.shape and np.all(res.multipliers >= 0.0)
                optimal.append((lb, ub, res))
        pairs = [(rng.uniform(prob.lb - 1.0, prob.ub + 1.0),
                  rng.exponential(size=len(b)) * (rng.random(len(b)) < 0.7))
                 for _ in range(4)]
        for _, _, res in optimal:
            pairs += [(res.x, res.multipliers),
                      (rng.uniform(prob.lb - 1.0, prob.ub + 1.0), res.multipliers)]
        for x, lam in pairs:
            bound = qp._objective_dual_bound(prob.H, prob.f, A, b, x, lam, prob.lb, prob.ub)
            for lb, ub, res in optimal:
                # the solve's point meets rows and bounds to qp.TOL, so its
                # objective may lie below the exact optimum by TOL times the
                # mass of its row and bound multipliers
                c = prob.H @ res.x + prob.f + A.T @ res.multipliers
                slack = 1e-9 * (1.0 + abs(res.objective) + res.multipliers.sum()
                                + np.abs(c).sum())
                assert bound(lb, ub) + prob.obj_const <= res.objective + slack
                checked += 1
        for lb, ub, res in optimal:
            own = qp._objective_dual_bound(prob.H, prob.f, A, b, res.x, res.multipliers,
                                           prob.lb, prob.ub)
            assert own(lb, ub) + prob.obj_const >= res.objective - 1e-6
    assert checked > 1000


FEASIBLE_QP = (np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
               np.zeros(2), np.ones(2))


def test_failed_feasibility_check_raises(monkeypatch):
    # a converged point that fails the check is a solver fault, never a verdict
    assert solve_box(*FEASIBLE_QP).status == "optimal"
    monkeypatch.setattr(qp, "check_feasible_point", lambda *a, **k: False)
    with pytest.raises(QpSolverError, match="feasibility check"):
        solve_box(*FEASIBLE_QP)


def test_indefinite_hessian_raises():
    # dpotrf reports H + eps I indefinite: a solver fault, never a verdict
    with pytest.raises(QpSolverError, match="not positive definite"):
        solve_box(np.diag([1.0, -1.0]), np.zeros(2), np.zeros((0, 2)), np.zeros(0),
                  -np.ones(2), np.ones(2))


def test_singular_working_set_factor_raises():
    # two equal normals: their QR leaves an exact zero on R's diagonal,
    # which dtrtri reports instead of returning an inverse
    qr, _ = qp._qr(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert qr[1, 1] == 0.0
    with pytest.raises(QpSolverError, match="singular"):
        qp._triangular_inverse(np.triu(qr))


def test_singular_kkt_system_is_not_polished():
    # no curvature and no constraint on x1: dgesv finds the KKT matrix
    # singular, and the solve falls back to the active-set point
    H, f, N, h = np.zeros((2, 2)), np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.0])
    assert qp._polish(H, f, N, h, np.array([False]), 1.0) == []
    res = solve_box(np.zeros((2, 2)), np.array([1.0, 0.0]), np.zeros((0, 2)), np.zeros(0),
                    np.zeros(2), np.ones(2))
    assert res.status == "optimal" and res.x[0] == pytest.approx(0.0, abs=1e-9)


def test_warm_node_solves_match_cold_solves(monkeypatch):
    # branch-and-bound hands a working set only to a child, the working set
    # of the node it just expanded.  The child's box differs from the node's
    # in one newly fixed binary, fractional at the node and so without a
    # bound in that set.  The child opens without a fresh factorization: no
    # QR before its first working-set change, which is a drop when the new
    # equality lies in the span of the node's working set.  It agrees with
    # a cold solve of its box.  The seed, the root and an integral node's
    # re-solve get no working set
    events = []
    for name in ("drop", "solve"):
        method = getattr(qp._DualActiveSet, name)

        def record(self, *args, _method=method, _name=name):
            events.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(qp._DualActiveSet, name, record)
    qr = qp._qr

    def record_qr(D):
        events.append("_qr")
        return qr(D)

    monkeypatch.setattr(qp, "_qr", record_qr)
    popped = []

    def pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    monkeypatch.setattr(miqp, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=pop))
    solve = miqp.solve_qp
    checked = dict.fromkeys(("seed", "root", "integral", "child", "inherited"), 0)

    def warm_and_cold(node, lb, ub, parent=None):
        events.clear()
        res = solve(node, lb, ub, parent)
        if not popped:
            kind = "root" if (lb == node.lb).all() and (ub == node.ub).all() else "seed"
        else:
            x = popped[-1].x[prob.binary]
            kind = "integral" if (np.abs(x - x.round()) <= miqp.INTEGRALITY_TOL).all() else "child"
        checked[kind] += 1
        if kind != "child":
            assert parent is None, kind
            return res
        expanded = popped[-1]
        assert parent is expanded.working_set
        changed = ((expanded.lb != lb) | (expanded.ub != ub)).nonzero()[0]
        assert len(changed) == 1, changed
        j = int(changed[0])
        assert prob.binary[j] and lb[j] == ub[j] and expanded.lb[j] < expanded.ub[j]
        m, n = node.A.shape
        assert not np.isin([m + j, m + n + j], parent.W).any()
        opening = events[:events.index("solve")] if "solve" in events else events
        assert opening[:1] in ([], ["drop"]), opening
        checked["inherited"] += opening == []
        cold = solve(node, lb, ub)
        assert res.status == cold.status
        if res.status == "optimal":
            assert abs(res.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
            stationarity, violation = kkt_residual(node.H, node.f, node.A, node.b, lb, ub, res.x)
            assert stationarity <= 1e-9 and violation <= 1e-9
        return res

    monkeypatch.setattr(miqp, "solve_qp", warm_and_cold)
    rng = np.random.default_rng(123)
    for i in range(80):
        prob = random_miqp(rng)
        seed = rng.integers(0, 2, int(prob.binary.sum())) if i % 2 else None
        popped.clear()
        miqp.solve_miqp(prob, seed)
    assert checked["seed"] == 40 and checked["root"] > 60 and checked["integral"] > 60
    assert checked["child"] > 80 and checked["inherited"] > 60


def _agrees_with_highs(qps, stationarity_tol=None):
    """Status matches HiGHS feasibility; infeasible bounds are valid.

    Returns the number of infeasible verdicts and how many of them the
    propagation pass gave (zero iterations).  With ``stationarity_tol``,
    every optimal point must also pass the active-set KKT check, relative
    to the size of H and f.
    """
    infeasible = propagated = 0
    for H, f, A, b, lb, ub in qps:
        res = solve_box(H, f, A, b, lb, ub)
        t_star = elastic_violation_highs(A, b, lb, ub)
        if res.status == "infeasible":
            infeasible += 1
            propagated += res.iterations == 0
            assert 1e-9 < res.certified_violation <= t_star + 1e-9
        else:
            assert res.status == "optimal"
            assert t_star <= 1e-9
            if stationarity_tol is not None:
                stationarity, violation = kkt_residual(H, f, A, b, lb, ub, res.x)
                scale = 1.0 + float(np.max(np.abs(f)) + np.max(np.abs(H)))
                assert violation <= 1e-9
                assert stationarity <= stationarity_tol * scale
    return infeasible, propagated


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
    infeasible, propagated = _agrees_with_highs(qps)
    # some verdicts rest on the active-set method's dual ray
    assert 0 < propagated < infeasible < len(qps)


def test_demo_step0_node_qps_agree_with_highs(monkeypatch, demo_cfg, demo_cond):
    qps = []
    original = miqp.solve_qp

    def capture(node, lb, ub, *warm):
        qps.append((node.H, node.f, node.A, node.b, lb.copy(), ub.copy()))
        return original(node, lb, ub, *warm)

    monkeypatch.setattr(miqp, "solve_qp", capture)
    res = plan_step(demo_cfg, demo_cond, np.full(6, 15.0), 0, [15.0], [])
    assert res.status == "optimal" and res.nodes > 1
    infeasible, propagated = _agrees_with_highs(qps, stationarity_tol=1e-6)
    assert 0 < infeasible < len(qps) and propagated > 0


def _capture_node_qps(monkeypatch):
    """Record the node QPs of every plan, one list per ``plan_step`` call."""
    steps = []
    solve, plan = miqp.solve_qp, mpc.plan_step

    def capture(node, lb, ub, *warm):
        steps[-1].append((node.H, node.f, node.A, node.b, lb.copy(), ub.copy()))
        return solve(node, lb, ub, *warm)

    def each_plan(*args, **kwargs):
        steps.append([])
        return plan(*args, **kwargs)

    monkeypatch.setattr(miqp, "solve_qp", capture)
    monkeypatch.setattr(mpc, "plan_step", each_plan)
    return steps


def test_warm_step_node_qps_agree_with_highs(monkeypatch, demo_model, demo_cfg,
                                             demo_predictor):
    # the first warm step (k >= 1) of the 15 degC loop with an infeasible child
    steps = _capture_node_qps(monkeypatch)
    trace = mpc.run_closed_loop(demo_model, demo_cfg, demo_predictor, np.full(6, 15.0))
    assert trace.n_infeasible == 0
    for qps in steps[1:]:
        if any(solve_box(*node).status == "infeasible" for node in qps):
            break
    else:
        pytest.fail("no warm step with an infeasible child")
    infeasible, propagated = _agrees_with_highs(qps, stationarity_tol=1e-6)
    assert 0 < infeasible < len(qps) and propagated > 0


def test_sweep_certify_step0_qps_agree_with_highs(monkeypatch, demo_cfg, demo_cond):
    # a 60 s deadline is out of reach from every default start temperature
    cfg = replace(demo_cfg, stl_specs=(supply_spec(60.0), DEFAULT_POWER_SPEC))
    steps = _capture_node_qps(monkeypatch)
    for temp in DEFAULT_INITIAL_TEMPS:
        assert mpc.plan_step(cfg, demo_cond, np.full(6, temp), 0, [temp], []).status \
            == "infeasible"
    qps = [node for step in steps for node in step]
    infeasible, propagated = _agrees_with_highs(qps)
    assert infeasible == len(qps) > 0 and propagated > 0


def test_reference40_node_qps_are_decided(monkeypatch):
    # seed-11 demo predictor (K = 1000, states 5..60 degC) at reference 40,
    # r-weight 10 and a 420 s deadline: the first steps of these three loops
    # hold node QPs with fixed columns, binaries without curvature and thin
    # feasible sets, on which an interior point meets a singular system.
    # No cell may fail, and each of those steps' node QPs must be decided:
    # optimal points by their KKT conditions, every verdict by HiGHS
    model = PlantModel.demo()
    data = P.generate_dataset(model, P.DatasetConfig(K=1000, seed=11, state_range=(5.0, 60.0)))
    pred = P.fit_edmd_from_dataset(P.DEFAULT_OBSERVABLES, data)
    cfg = replace(mpc.ControllerConfig(), reference=40.0, r_weight=10.0,
                  stl_specs=(supply_spec(420.0), DEFAULT_POWER_SPEC))
    cond = mpc.condense(pred, cfg)
    steps = _capture_node_qps(monkeypatch)
    qps = []
    for temp in (20.0, 25.0, 35.0):
        steps.clear()
        note = mpc.evaluate_cell(model, cond, temp)[1]
        assert not note.startswith("error"), (temp, note)
        qps += [node for step in steps[:3] for node in step]
    infeasible, _ = _agrees_with_highs(qps, stationarity_tol=1e-6)
    assert 0 < infeasible < len(qps)
