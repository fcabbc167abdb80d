import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wws.stl import (
    END,
    Alw,
    And,
    Ev,
    Not,
    Or,
    Pred,
    SampledSignal,
    StlEvaluationError,
    StlSyntaxError,
    Until,
    parse,
    resolve_end,
    robustness,
    spec_lines,
)

from oracles import format_formula, horizon


# -- parsing ------------------------------------------------------------------

def test_parse_supply_guarantee():
    f = parse("alw_[420,end] (y >= 40)")
    assert f == Alw(420.0, END, Pred("y", ">=", 40.0))


def test_parse_power_band():
    f = parse("alw_[0,end] (((u > 0.001) and (u < 0.01))"
              " or ((u >= 21.2) and (u <= 26.5)))")
    assert isinstance(f, Alw) and f.a == 0.0 and f.b is END
    assert isinstance(f.child, Or) and len(f.child.children) == 2
    off, run = f.child.children
    assert off == And((Pred("u", ">", 0.001), Pred("u", "<", 0.01)))
    assert run == And((Pred("u", ">=", 21.2), Pred("u", "<=", 26.5)))


def test_parse_eventually():
    assert parse("ev_[0,10] (y >= 1)") == Ev(0.0, 10.0, Pred("y", ">=", 1.0))


def test_parse_until_and_precedence():
    f = parse("y >= 1 until_[0,5] u <= 2 and y < 3")
    # until binds tighter than and
    assert isinstance(f, And)
    assert isinstance(f.children[0], Until)


def test_parse_errors_carry_positions():
    with pytest.raises(StlSyntaxError) as err:
        parse("alw_[0,10] (y >= )")
    assert err.value.pos == 17
    with pytest.raises(StlSyntaxError):
        parse("y >= 40 )")
    with pytest.raises(StlSyntaxError, match="precedes"):
        parse("alw_[10,5] (y >= 0)")
    with pytest.raises(StlSyntaxError, match="unexpected character"):
        parse("y >= 40 & u <= 2")
    for text in ("u + y >= 1", "2 * u >= 1", "y >= u"):  # one channel against a number
        with pytest.raises(StlSyntaxError):
            parse(text)
    # a number that overflows to infinity is refused where it stands
    for text, pos in (("alw_[0,1e999] (y >= 1)", 7), ("alw_[0,end] (y >= 1e999)", 18)):
        with pytest.raises(StlSyntaxError, match="not finite") as err:
            parse(text)
        assert err.value.pos == pos


def test_spec_lines_skips_comments():
    text = "# comment\nalw_[0,end] (y >= 40)\n\n  ev_[0,5] (u > 1) # trailing\n"
    assert spec_lines(text) == ["alw_[0,end] (y >= 40)", "ev_[0,5] (u > 1)"]
    assert isinstance(parse(spec_lines(text)[1]), Ev)


_WINDOW = (st.integers(0, 10), st.integers(0, 10))

formula_strategy = st.recursive(
    st.builds(Pred, st.sampled_from(["y", "u"]), st.sampled_from([">=", "<=", ">", "<"]),
              st.integers(-50, 50).map(float)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(lambda a, b: And((a, b)), sub, sub),
        st.builds(lambda a, b: Or((a, b)), sub, sub),
        st.builds(lambda a, b, f: Alw(float(min(a, b)), float(max(a, b)), f),
                  *_WINDOW, sub),
        st.builds(lambda a, b, f: Ev(float(min(a, b)), float(max(a, b)), f),
                  *_WINDOW, sub),
        st.builds(lambda a, b, l, r: Until(float(min(a, b)), float(max(a, b)), l, r),
                  *_WINDOW, sub, sub),
    ),
    max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(formula_strategy)
def test_parse_format_roundtrip(f):
    assert parse(format_formula(f)) == f


def test_format_parse_is_canonical():
    texts = [
        "alw_[420,end] (y >= 40)",
        "(y >= 1 and u < 2) or not (y <= 0)",
        "y >= 1 until_[0,5] (u <= 2 or y > 3)",
    ]
    for text in texts:
        canon = format_formula(parse(text))
        assert format_formula(parse(canon)) == canon


# -- end resolution and horizon -------------------------------------------------

def test_resolve_end():
    f = resolve_end(parse("alw_[420,end] (y >= 40)"), 1200.0)
    assert f == Alw(420.0, 1200.0, Pred("y", ">=", 40.0))
    # through negation and until, into both of until's operands
    g = resolve_end(parse("not (ev_[0,end] (u > 1)) or "
                          "((ev_[0,end] (y >= 1)) until_[0,end] (alw_[0,end] (u <= 2)))"),
                    600.0)
    assert g == Or((Not(Ev(0.0, 600.0, Pred("u", ">", 1.0))),
                    Until(0.0, 600.0, Ev(0.0, 600.0, Pred("y", ">=", 1.0)),
                          Alw(0.0, 600.0, Pred("u", "<=", 2.0)))))
    assert "end" not in format_formula(g)
    fixed = parse("not (y >= 1 until_[0,60] (ev_[0,120] (u <= 2)))")
    assert resolve_end(fixed, 600.0) == fixed


def test_horizon_examples():
    assert horizon(parse("y >= 40"), 60.0) == 0
    assert horizon(parse("alw_[0,600] (y >= 40)"), 60.0) == 10
    assert horizon(parse("alw_[0,120] (ev_[0,60] (y >= 1))"), 60.0) == 3


def test_horizon_requires_bounded_intervals():
    with pytest.raises(StlEvaluationError, match="unbounded"):
        horizon(parse("alw_[0,end] (y >= 40)"), 60.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 50), st.integers(1, 10))
def test_horizon_of_predicate_window(b, h):
    f = Alw(0.0, float(b), Pred("y", ">=", 0.0))
    assert horizon(f, float(h)) == math.ceil(b / h)


# -- robustness ------------------------------------------------------------------

def test_robustness_always():
    sig = SampledSignal(channels={"y": np.array([41.0, 42.0, 43.0])}, h=60.0)
    assert robustness(parse("alw_[0,120] (y >= 40)"), sig) == pytest.approx(1.0)


def test_robustness_eventually():
    sig = SampledSignal(channels={"y": np.array([38.0, 39.0, 41.0])}, h=60.0)
    assert robustness(parse("ev_[0,120] (y >= 40)"), sig) == pytest.approx(1.0)


def test_robustness_power_band_single_sample():
    sig = SampledSignal(channels={"u": np.array([23.0])}, h=60.0)
    f = resolve_end(parse("alw_[0,end] (((u > 0.001) and (u < 0.01))"
                          " or ((u >= 21.2) and (u <= 26.5)))"), 0.0)
    assert robustness(f, sig) == pytest.approx(1.8)


def test_robustness_strict_shift():
    sig = SampledSignal(channels={"u": np.array([23.0])}, h=60.0)
    strict = parse("u > 21.2")
    loose = parse("u >= 21.2")
    assert robustness(strict, sig, strict_shift=0.5) == pytest.approx(1.3)
    assert robustness(loose, sig, strict_shift=0.5) == pytest.approx(1.8)


def test_robustness_until_matches_eventually_for_true_guard():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-5, 5, size=8)
        sig = SampledSignal(channels={"y": y}, h=1.0)
        guard = Pred("y", ">=", -1e9)  # effectively always true
        u = Until(1.0, 5.0, guard, Pred("y", ">=", 0.0))
        e = Ev(1.0, 5.0, Pred("y", ">=", 0.0))
        assert robustness(u, sig) == pytest.approx(robustness(e, sig))


def test_robustness_until_hand_case():
    # right side first satisfied at index 2; left must hold before that
    y = np.array([1.0, 2.0, -1.0, 5.0])
    r = np.array([-1.0, -2.0, 3.0, 4.0])
    sig = SampledSignal(channels={"y": y, "u": r}, h=1.0)
    f = Until(0.0, 3.0, Pred("y", ">=", 0.0), Pred("u", ">=", 0.0))
    # t'=2: min(3, min(1,2)) = 1 ; t'=3: min(4, min(1,2,-1)) = -1 ; best is 1
    assert robustness(f, sig) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(30, 50), min_size=8, max_size=8),
       st.lists(st.floats(0, 5), min_size=8, max_size=8))
def test_robustness_monotone_in_output(y, bump):
    base = SampledSignal(channels={"y": np.array(y)}, h=60.0)
    raised = SampledSignal(channels={"y": np.array(y) + np.array(bump)}, h=60.0)
    f = resolve_end(parse("alw_[120,end] (y >= 40)"), 420.0)
    assert robustness(f, raised) >= robustness(f, base) - 1e-12


def test_robustness_signal_too_short():
    sig = SampledSignal(channels={"y": np.array([41.0, 42.0])}, h=60.0)
    with pytest.raises(StlEvaluationError, match="needs index 2, have 0..1"):
        robustness(parse("alw_[0,240] (y >= 40)"), sig)


def test_robustness_unknown_channel():
    sig = SampledSignal(channels={"y": np.array([41.0])}, h=60.0)
    with pytest.raises(StlEvaluationError, match="unknown channel"):
        robustness(parse("u >= 0"), sig)


def test_sampled_signal_validation():
    with pytest.raises(ValueError, match="length"):
        SampledSignal(channels={"y": np.zeros(3), "u": np.zeros(2)}, h=1.0)
