import numpy as np
import pytest

from wws import stl
from wws.milp import LinExpr, ProblemBuilder
from wws.miqp import solve_miqp
from wws.stl import EncodingConfig, StlEncodingError, encode_formula

from oracles import encode_fixed_signal, soundness_case

CFG = EncodingConfig(channel_bounds={"y": (-50.0, 150.0), "u": (0.0, 26.5)})


def _pin(builder, name, value):
    builder.add_continuous(name, float(value), float(value))
    return LinExpr.variable(name)


def test_conjunctive_spec_needs_no_binaries():
    builder = ProblemBuilder()
    binding = {"y": {t: _pin(builder, f"y{t}", 41.0 + t) for t in range(4)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 180.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert enc.binaries == [] and enc.literals == []
    res = solve_miqp(builder.build())
    assert res.status == "optimal" and res.nodes <= 1


def test_conjunctive_spec_infeasible_on_violating_signal():
    builder = ProblemBuilder()
    binding = {"y": {t: _pin(builder, f"y{t}", 41.0 - 2 * t) for t in range(4)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 180.0)
    encode_formula(builder, f, binding, 0, 60.0, CFG)
    res = solve_miqp(builder.build())
    assert res.status == "infeasible"


def test_power_band_binary_and_literal_count():
    builder = ProblemBuilder()
    u0 = builder.add_continuous("u0", 0.0, 26.5)
    binding = {"u": {0: LinExpr.variable(u0)}}
    f = stl.resolve_end(stl.parse(
        "((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))"), 0.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert len(enc.binaries) == 4
    assert len(enc.literals) == 1


def test_power_band_selects_off_branch_when_cheap():
    builder = ProblemBuilder()
    u0 = builder.add_continuous("u0", 0.0, 26.5)
    binding = {"u": {0: LinExpr.variable(u0)}}
    f = stl.resolve_end(stl.parse(
        "((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))"), 0.0)
    encode_formula(builder, f, binding, 0, 60.0, CFG)
    builder.add_squared_cost(LinExpr.variable(u0), 1.0)
    res = solve_miqp(builder.build())
    assert res.status == "optimal"
    u = res.assignment["u0"]
    assert 0.001 < u < 0.01
    # cost-minimal point is the epsilon-shifted band edge, recovered to
    # interior-point accuracy (the objective is nearly flat there)
    assert u == pytest.approx(0.001 + CFG.eps, abs=1e-5)


def test_history_constants_fold_away():
    builder = ProblemBuilder()
    binding = {"y": {0: 41.0, 1: 42.0, 2: 43.0}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 120.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert enc.constraints == 0 and not enc.infeasible
    problem = builder.build()
    assert problem.n == 0
    assert solve_miqp(problem).status == "optimal"


def test_violated_history_marks_problem_infeasible():
    builder = ProblemBuilder()
    binding = {"y": {0: 41.0, 1: 39.0, 2: 43.0}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 120.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert enc.infeasible
    res = solve_miqp(builder.build())
    assert res.status == "infeasible"


def test_strict_dead_zone_is_infeasible_at_fixed_signal():
    # strictness is encoded with an epsilon margin, so a pinned signal inside
    # (-eps, eps) of a strict boundary admits no binary assignment
    builder = ProblemBuilder()
    binding = {"u": {0: _pin(builder, "u0", 5.0 + 0.5 * CFG.eps)}}
    encode_formula(builder, stl.parse("u > 5"), binding, 0, 60.0, CFG)
    assert solve_miqp(builder.build()).status == "infeasible"


def test_windows_beyond_binding_are_deferred():
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 50.0)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 300.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert enc.deferred and enc.constraints == 0


def test_partially_visible_window_enforces_visible_part():
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 50.0), 1: _pin(builder, "y1", 50.0)}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 300.0)
    enc = encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert not enc.deferred
    assert enc.constraints == 2  # indices 0 and 1 only


def test_eventually_with_invisible_tail_is_stricter():
    # only index 0 is bound; the eventually must already hold there
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 20.0)}}
    f = stl.resolve_end(stl.parse("ev_[0,end] (y >= 40)"), 300.0)
    encode_formula(builder, f, binding, 0, 60.0, CFG)
    assert solve_miqp(builder.build()).status == "infeasible"


def test_missing_channel_bounds_raise():
    # only predicates under disjunctions need a big-M constant
    f = stl.parse("q >= 0 or q >= 1")
    builder = ProblemBuilder()
    binding = {"q": {0: _pin(builder, "q0", 1.0)}}
    with pytest.raises(StlEncodingError, match="no declared bounds"):
        encode_formula(builder, f, binding, 0, 60.0,
                       EncodingConfig(channel_bounds={}))


def test_encoding_soundness_random_suite():
    rng = np.random.default_rng(2024)
    disagreements = []
    for case in range(60):
        formula, signal, rho = soundness_case(rng)
        problem = encode_fixed_signal(formula, signal)
        res = solve_miqp(problem)
        feasible = res.status == "optimal"
        if feasible != (rho >= 0.0):
            disagreements.append((case, rho, res.status,
                                  stl.format_formula(formula)))
    assert not disagreements, disagreements[:3]
