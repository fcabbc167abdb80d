import numpy as np
import pytest

from wws import stl
from wws.miqp import solve_miqp
from wws.stl import EncodingConfig, StlEncodingError

from oracles import (ProblemBuilder, add_squared_cost, encode_fixed_signal, encode_formula,
                     format_formula, milp_feasible, soundness_case)

CFG = EncodingConfig(channel_bounds={"y": (-50.0, 150.0), "u": (0.0, 26.5)})
POWER_BAND = "((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))"
# case 56 of the random suite below: an n-ary Or over nested 2-way and 3-way Ors
CASE_56 = ("ev_[2,5] ((u < 3.2327503949826752 or y >= 2.4985852820182544) or "
           "(u <= 4.154776091992526 or y >= 1.1499212699464127 or u < -3.189823397577809))")


def _pin(builder, name, value):
    builder.add_variables([name], float(value), float(value), [False])
    return name


def test_conjunctive_spec_needs_no_binaries():
    builder = ProblemBuilder()
    binding = {"y": {t: _pin(builder, f"y{t}", 41.0 + t) for t in range(4)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 180.0)
    enc = encode_formula(builder, f, binding, 60.0, CFG)
    assert enc.binaries == [] and enc.literals == []
    res = solve_miqp(builder.build())
    assert res.status == "optimal" and res.nodes <= 1


def test_conjunctive_spec_infeasible_on_violating_signal():
    builder = ProblemBuilder()
    binding = {"y": {t: _pin(builder, f"y{t}", 41.0 - 2 * t) for t in range(4)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 180.0)
    encode_formula(builder, f, binding, 60.0, CFG)
    res = solve_miqp(builder.build())
    assert res.status == "infeasible"


def test_power_band_binary_and_literal_count():
    # two intervals on one sample: one binary and the two convex-hull rows
    builder = ProblemBuilder()
    builder.add_variables(["u0"], 0.0, 26.5, [False])
    enc = encode_formula(builder, stl.parse(POWER_BAND), {"u": {0: "u0"}}, 60.0, CFG)
    assert enc.binaries == ["stl.t0.d0"]
    assert enc.literals == []
    assert enc.constraints == 2


def test_power_band_hull_rows_are_exact_at_interval_ends():
    eps = CFG.eps
    for end in (0.001, 0.01, 21.2, 26.5):
        for u in (end - 1e-5, end + 1e-5):
            builder = ProblemBuilder()
            binding = {"u": {0: _pin(builder, "u0", u)}}
            encode_formula(builder, stl.parse(POWER_BAND), binding, 60.0, CFG)
            problem = builder.build()
            inside = 0.001 + eps <= u <= 0.01 - eps or 21.2 <= u <= 26.5
            assert (solve_miqp(problem).status == "optimal") == inside, u
            assert milp_feasible(problem) == inside, u


def test_mixed_channel_disjunction_uses_implied_rows():
    # branches on different channels: a binary per sample and one big-M row
    # per predicate, no predicate literals and no continuous selectors
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40 or u <= 1)"), 120.0)
    for u1, holds in ((0.5, True), (2.0, False)):
        signal = stl.SampledSignal(channels={"y": np.array([41.0, 30.0, 45.0]),
                                             "u": np.array([5.0, u1, 3.0])}, h=60.0)
        assert (stl.robustness(f, signal) >= 0.0) == holds
        builder = ProblemBuilder()
        binding = {ch: {t: _pin(builder, f"{ch}{t}", v) for t, v in enumerate(vals)}
                   for ch, vals in signal.channels.items()}
        enc = encode_formula(builder, f, binding, 60.0, CFG)
        assert enc.binaries == ["stl.t0.d0", "stl.t1.d0", "stl.t2.d0"]
        assert enc.literals == [] and enc.constraints == 6
        problem = builder.build()
        assert (solve_miqp(problem).status == "optimal") == holds
        assert milp_feasible(problem) == holds


def test_power_band_selects_off_branch_when_cheap():
    builder = ProblemBuilder()
    builder.add_variables(["u0"], 0.0, 26.5, [False])
    f = stl.resolve_end(stl.parse(
        "((u > 0.001) and (u < 0.01)) or ((u >= 21.2) and (u <= 26.5))"), 0.0)
    encode_formula(builder, f, {"u": {0: "u0"}}, 60.0, CFG)
    add_squared_cost(builder, ["u0"], [1.0], 1.0)
    res = solve_miqp(builder.build())
    assert res.status == "optimal"
    u = res.assignment["u0"]
    assert 0.001 < u < 0.01
    # cost-minimal point is the epsilon-shifted band edge, recovered to
    # solver accuracy (the objective is nearly flat there)
    assert u == pytest.approx(0.001 + CFG.eps, abs=1e-5)


def test_cached_rows_are_read_only():
    # a second binding with the same leaf pattern gets the first one's rows
    # themselves; only their right-hand side follows the slot values
    tmpl = stl.FormulaTemplate(stl.parse(f"alw_[0,120] ({POWER_BAND})"), 60.0, CFG)
    state = np.full(len(tmpl.slots), stl.DECISION, dtype=np.int8)
    zeros, ones = np.zeros(len(tmpl.slots)), np.ones(len(tmpl.slots))
    rows = tmpl.instantiate(state, zeros)
    assert tmpl.instantiate(state, ones) is rows and len(tmpl._rows) == 1
    for name in ("slot", "sign", "aux", "const", "k1", "k2"):
        a = getattr(rows, name)
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    # a row reads -sign * slot, so a unit shift of every slot moves each
    # right-hand side by its sign
    assert len(rows.slot) and np.allclose(rows.rhs(ones) - rows.rhs(zeros), rows.sign)


def test_history_constants_fold_away():
    builder = ProblemBuilder()
    binding = {"y": {0: 41.0, 1: 42.0, 2: 43.0}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 120.0)
    enc = encode_formula(builder, f, binding, 60.0, CFG)
    assert enc.constraints == 0 and not enc.infeasible
    problem = builder.build()
    assert problem.n == 0
    assert solve_miqp(problem).status == "optimal"


def test_violated_history_marks_problem_infeasible():
    builder = ProblemBuilder()
    binding = {"y": {0: 41.0, 1: 39.0, 2: 43.0}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 120.0)
    enc = encode_formula(builder, f, binding, 60.0, CFG)
    assert enc.infeasible
    res = solve_miqp(builder.build())
    assert res.status == "infeasible"


def test_strict_dead_zone_is_infeasible_at_fixed_signal():
    # strictness is encoded with an epsilon margin, so a pinned signal inside
    # (-eps, eps) of a strict boundary admits no binary assignment
    builder = ProblemBuilder()
    binding = {"u": {0: _pin(builder, "u0", 5.0 + 0.5 * CFG.eps)}}
    encode_formula(builder, stl.parse("u > 5"), binding, 60.0, CFG)
    assert solve_miqp(builder.build()).status == "infeasible"


def test_windows_beyond_binding_are_deferred():
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 50.0)}}
    f = stl.resolve_end(stl.parse("alw_[60,end] (y >= 40)"), 300.0)
    enc = encode_formula(builder, f, binding, 60.0, CFG)
    assert enc.deferred and enc.constraints == 0


def test_partially_visible_window_enforces_visible_part():
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 50.0), 1: _pin(builder, "y1", 50.0)}}
    f = stl.resolve_end(stl.parse("alw_[0,end] (y >= 40)"), 300.0)
    enc = encode_formula(builder, f, binding, 60.0, CFG)
    assert not enc.deferred
    assert enc.constraints == 2  # indices 0 and 1 only


def test_eventually_with_invisible_tail_is_stricter():
    # only index 0 is bound; the eventually must already hold there
    builder = ProblemBuilder()
    binding = {"y": {0: _pin(builder, "y0", 20.0)}}
    f = stl.resolve_end(stl.parse("ev_[0,end] (y >= 40)"), 300.0)
    encode_formula(builder, f, binding, 60.0, CFG)
    assert solve_miqp(builder.build()).status == "infeasible"


def test_missing_channel_bounds_raise():
    # only predicates under disjunctions need a big-M constant
    f = stl.parse("q >= 0 or q >= 1")
    builder = ProblemBuilder()
    binding = {"q": {0: _pin(builder, "q0", 1.0)}}
    with pytest.raises(StlEncodingError, match="no declared bounds"):
        encode_formula(builder, f, binding, 60.0,
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
                                  format_formula(formula)))
    assert not disagreements, disagreements[:3]


def test_highs_milp_agrees_with_robustness():
    # the same 60 cases as above, decided without the branch-and-bound
    rng = np.random.default_rng(2024)
    disagreements = []
    for case in range(60):
        formula, signal, rho = soundness_case(rng)
        if milp_feasible(encode_fixed_signal(formula, signal)) != (rho >= 0.0):
            disagreements.append((case, rho, format_formula(formula)))
    assert not disagreements, disagreements[:3]


def test_nested_disjunction_case_is_solved():
    # binary selectors under this case's 4-way Or leave a zero-objective
    # search with fractional relaxations; continuous selectors keep it small
    rng = np.random.default_rng(2024)
    for _ in range(57):
        formula, signal, rho = soundness_case(rng)
    assert format_formula(formula) == CASE_56 and rho > 0.0
    assert solve_miqp(encode_fixed_signal(formula, signal)).status == "optimal"
