import numpy as np
import pytest

from wws.milp import LinExpr, ProblemBuilder, dump_lp
from wws.miqp import MiqpError, solve_miqp
from wws.qp import solve_qp

from oracles import enumerate_miqp, max_violation, random_miqp


def _band_problem(y0=42.0, gain=0.1):
    """One-step warm-water shaped problem: y1 = y0 + gain*u0, u in off/run band."""
    from wws import stl

    b = ProblemBuilder()
    u0 = b.add_continuous("u0", 0.0, 26.5)
    binding = {"u": {0: LinExpr.variable(u0)}}
    f = stl.parse("((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))")
    stl.encode_formula(b, f, binding, 0, 60.0,
                       stl.EncodingConfig(channel_bounds={"u": (0.0, 26.5)}))
    y1 = y0 + gain * LinExpr.variable(u0)
    b.add_squared_cost(y1, 1.0, target=40.0)
    b.add_squared_cost(LinExpr.variable(u0), 10.0)
    return b.build()


def test_no_binaries_reduces_to_qp():
    b = ProblemBuilder()
    x = b.add_continuous("x", -4.0, 4.0)
    b.add_squared_cost(LinExpr.variable(x), 1.0, target=3.0)
    b.add_leq(LinExpr.variable(x), 2.0)
    prob = b.build()
    res = solve_miqp(prob)
    qp = solve_qp(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
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
        root = solve_qp(prob.H, prob.f, prob.A, prob.b, prob.lb, prob.ub,
                        obj_const=prob.obj_const)
        assert root.status == "optimal"
        assert root.objective <= oracle_obj + 1e-8
        # a partial integer fix still lower-bounds its completions
        bin_idx = np.flatnonzero(prob.binary)
        lb, ub = prob.lb.copy(), prob.ub.copy()
        lb[bin_idx[0]] = ub[bin_idx[0]] = 1.0
        part = solve_qp(prob.H, prob.f, prob.A, prob.b, lb, ub,
                        obj_const=prob.obj_const)
        sub_best = np.inf
        import itertools
        for bits in itertools.product((0.0, 1.0), repeat=len(bin_idx) - 1):
            l2, u2 = lb.copy(), ub.copy()
            for i, v in zip(bin_idx[1:], bits):
                l2[i] = u2[i] = v
            leaf = solve_qp(prob.H, prob.f, prob.A, prob.b, l2, u2,
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
        warm_bins = {n: v for n, v in cold.assignment.items()
                     if n.startswith("p")}
        warm = solve_miqp(prob, warm_binaries=warm_bins)
        assert warm.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert warm.nodes <= cold.nodes + 1


def test_gap_reported_within_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob = random_miqp(rng)
        res = solve_miqp(prob, gap_tol=1e-6)
        if res.status == "optimal":
            assert res.gap is not None and res.gap <= 1e-6 + 1e-12


def test_equal_bounds_search_newest_first():
    # zero objective: every relaxation bound ties at 0, and only a dive
    # (newest node first) reaches an integral leaf before the fixings pile up
    b = ProblemBuilder()
    p = [b.add_binary(f"p{i}") for i in range(12)]
    total = LinExpr.combination(p, [1.0] * 12)
    b.add_leq(total, 6.0)
    b.add_geq(total, 6.0)
    res = solve_miqp(b.build())
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert sum(res.assignment.values()) == pytest.approx(6.0, abs=1e-9)
    assert res.nodes == 7


def test_node_limit_returns_incumbent():
    rng = np.random.default_rng(9)
    prob = random_miqp(rng, max_binaries=6)
    full = solve_miqp(prob)
    if full.status != "optimal":
        pytest.skip("instance infeasible")
    warm_bins = {n: v for n, v in full.assignment.items() if n.startswith("p")}
    res = solve_miqp(prob, node_limit=1, warm_binaries=warm_bins)
    assert res.status in ("iteration-limit", "optimal")
    if res.status == "iteration-limit":
        assert res.objective is not None  # best effort incumbent retained


def test_binary_limit_enforced():
    rng = np.random.default_rng(2)
    prob = random_miqp(rng, max_binaries=5)
    with pytest.raises(MiqpError, match="exceed"):
        solve_miqp(prob, binary_limit=2)


def test_marked_infeasible_short_circuits():
    b = ProblemBuilder()
    b.add_continuous("x", 0.0, 1.0)
    b.mark_infeasible("history violated")
    res = solve_miqp(b.build())
    assert res.status == "infeasible" and res.nodes == 0


def test_empty_problem_is_trivially_optimal():
    res = solve_miqp(ProblemBuilder().build())
    assert res.status == "optimal" and res.objective == 0.0


def test_builder_validations():
    b = ProblemBuilder()
    p = b.add_binary("p")
    with pytest.raises(ValueError, match="no constraint"):
        b.build()
    b2 = ProblemBuilder()
    x = b2.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        b2.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ValueError, match="finite box"):
        b2.add_continuous("z", 0.0, np.inf)
    with pytest.raises(ValueError, match="unknown variable"):
        b2.add_leq(LinExpr.variable("nope"), 1.0)


def test_build_drops_rows_no_box_point_can_violate():
    b = ProblemBuilder()
    x = LinExpr.variable(b.add_continuous("x", 0.0, 26.5))
    y = LinExpr.variable(b.add_continuous("y", -1.0, 1.0))
    p = LinExpr.variable(b.add_binary("p"))
    b.add_leq(3e-14 * x, 15.0)            # rounding noise against its rhs: dropped
    b.add_geq(20.0 - 3e-14 * x, 5.0)      # the same row written as >=: dropped
    b.add_leq(x + 2.0 * y + p, 29.6)      # box maximum 29.5: dropped
    b.add_leq(x + 2.0 * y + p, 29.5)      # binding at a corner: kept
    b.add_leq(x - 26.5 * p, 0.0)          # violable: kept
    b.add_geq(3e-14 * x, 1.0)             # violated by every box point: kept
    b.add_squared_cost(x, 1.0)
    prob = b.build()
    assert prob.A.shape == (3, 3)
    assert np.array_equal(prob.b, [29.5, 0.0, -1.0])
    assert np.array_equal(prob.A[1], [1.0, 0.0, -26.5])
    # a binary used only in a dropped row still passes the usage rule
    b2 = ProblemBuilder()
    q = LinExpr.variable(b2.add_binary("q"))
    b2.add_leq(q, 2.0)
    assert b2.build().A.shape == (0, 1)


def test_dump_lp_writes_sections(tmp_path):
    rng = np.random.default_rng(4)
    prob = random_miqp(rng)
    path = tmp_path / "prob.lp"
    dump_lp(prob, path)
    text = path.read_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
