"""Acceptance gate: one check per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Four checks exercise the full pipeline on the bundled nominal coefficient
set with the documented defaults.  That coefficient set couples every
passive state to the ambient temperature three orders of magnitude more
strongly than to its neighbours, which pins the supply output at the
ambient level for every admissible input (input-to-output steady gain is
about 3e-14), so the closed-loop targets those checks encode are not
attainable by any controller.  They are kept as stated and fail honestly;
see README and tests marked ``blocked_by_model``.
"""

import numpy as np
import pytest

from wws import predictor as P
from wws.miqp import solve_miqp
from wws.mpc import ControllerConfig, feasibility_sweep, run_closed_loop
from wws.predictor import (
    DEFAULT_OBSERVABLES,
    DatasetConfig,
    EquilibriumError,
    find_equilibrium,
    fit_linear_maps,
    generate_dataset,
    linearize_local,
)

from oracles import encode_fixed_signal, enumerate_miqp, random_miqp, soundness_case

pytestmark = pytest.mark.acceptance

#: published 7x6 feasibility pattern that the sweep aims to reproduce
#: (rows: initial 5..35 degC, columns: deadline 240..540 s)
EXPECTED_FEASIBILITY = np.array([
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1, 1],
    [0, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1],
])


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" [{detail}]" if detail else ""))
    return ok


@pytest.fixture(scope="module")
def predictors(nominal_model, nominal_predictor):
    preds = {0: nominal_predictor}
    for seed in (1, 2):
        data = generate_dataset(nominal_model, DatasetConfig(K=10_000, seed=seed))
        preds[seed] = P.fit_edmd_from_dataset(DEFAULT_OBSERVABLES, data)
    return preds


@pytest.fixture(scope="module")
def default_trace(nominal_model, nominal_predictor):
    cfg = ControllerConfig()
    return run_closed_loop(nominal_model, cfg, nominal_predictor,
                           np.full(6, 15.0))


@pytest.mark.blocked_by_model
def test_closed_loop_specification_satisfaction(default_trace):
    """From 15 degC uniform with all defaults, the realized trace must
    satisfy both specifications with robustness >= -1e-6."""
    rob = default_trace.final_robustness()
    ok = verdict(
        "closed-loop specification satisfaction (defaults, x0 = 15)",
        min(rob) >= -1e-6,
        f"robustness={['%.3g' % r for r in rob]}, "
        f"infeasible_steps={default_trace.n_infeasible}")
    assert ok, (
        "the realized trace violates the specifications; the nominal "
        f"coefficient set cannot raise the output above the ambient level "
        f"(realized y range {default_trace.outputs.min():.2f}.."
        f"{default_trace.outputs.max():.2f} degC)")


@pytest.mark.blocked_by_model
def test_post_transient_band(default_trace):
    """Realized output over [420 s, end] stays within [40, 45] degC
    (0.5 degC upper-edge tolerance for fit randomness)."""
    start = int(420.0 / default_trace.h)
    window = default_trace.outputs[start:]
    ok = verdict("post-transient output band [40, 45.5] degC",
                 bool(np.all(window >= 40.0) and np.all(window <= 45.5)),
                 f"window range {window.min():.2f}..{window.max():.2f}")
    assert ok, "post-transient band violated (see closed-loop criterion)"


@pytest.mark.blocked_by_model
def test_feasibility_table(nominal_model, predictors):
    """Sweep reproduces >= 38/42 cells of the published pattern for three
    fit seeds, and the monotone staircase holds for every seed."""
    staircase_all = True
    min_matches = 42
    for seed, pred in predictors.items():
        sweep = feasibility_sweep(nominal_model, ControllerConfig(), pred)
        staircase_all &= sweep.is_monotone_staircase()
        matches = int(np.sum(sweep.table == EXPECTED_FEASIBILITY))
        min_matches = min(min_matches, matches)
        print(f"  seed {seed}: staircase={sweep.is_monotone_staircase()} "
              f"matches={matches}/42 ones={int(sweep.table.sum())}")
    verdict("feasibility-table monotone staircase (all seeds)", staircase_all)
    ok = verdict("feasibility-table pattern match >= 38/42 (all seeds)",
                 min_matches >= 38, f"worst match {min_matches}/42")
    assert staircase_all
    assert ok, (
        "every sweep cell is infeasible on the nominal coefficient set "
        "(the supply deadline is unreachable), so the published pattern "
        "cannot be matched")


def test_encoding_soundness():
    """>= 200 random bounded formulas: MILP feasibility at a pinned signal
    coincides with the sign of the eps-adjusted robustness."""
    rng = np.random.default_rng(77)
    disagreements = 0
    total = 220
    for _ in range(total):
        formula, signal, rho = soundness_case(rng)
        res = solve_miqp(encode_fixed_signal(formula, signal))
        if (res.status == "optimal") != (rho >= 0.0):
            disagreements += 1
    assert verdict("encoding soundness (220 random formulas)",
                   disagreements == 0, f"{disagreements} disagreements")


def test_miqp_exactness():
    """>= 100 random instances with <= 12 binaries match exhaustive
    enumeration within 1e-6 absolute."""
    rng = np.random.default_rng(123)
    worst = 0.0
    mismatches = 0
    for _ in range(100):
        prob = random_miqp(rng, max_binaries=12)
        oracle_obj, _ = enumerate_miqp(prob)
        res = solve_miqp(prob)
        if oracle_obj == np.inf:
            if res.status != "infeasible":
                mismatches += 1
            continue
        if res.status != "optimal":
            mismatches += 1
            continue
        worst = max(worst, abs(res.objective - oracle_obj))
    ok = mismatches == 0 and worst <= 1e-6
    assert verdict("MIQP exactness vs enumeration (100 instances)", ok,
                   f"worst gap {worst:.2e}, mismatches {mismatches}")


def test_edmd_correctness(nominal_predictor, nominal_dataset_10k):
    """Planted lifted linear system recovered to 1e-8; the training set's
    states read out of their lift by selection bit for bit."""
    rng = np.random.default_rng(7)
    K = 60
    X = rng.uniform(10, 40, size=(6, K))
    Z = P.lift(X, DEFAULT_OBSERVABLES)
    A0 = rng.normal(0, 0.3, size=(16, 16))
    bu0 = rng.normal(0, 0.5, size=16)
    bd0 = rng.normal(0, 0.5, size=16)
    U = rng.uniform(0, 26.5, size=K)
    W = rng.uniform(5, 15, size=K)
    A, bu, bd, _ = fit_linear_maps(Z, U, W, A0 @ Z + np.outer(bu0, U)
                                   + np.outer(bd0, W))
    recovery = max(np.max(np.abs(A - A0)), np.max(np.abs(bu - bu0)),
                   np.max(np.abs(bd - bd0)))
    train = nominal_dataset_10k.X
    recon = float(np.max(np.abs(P.lift(train, nominal_predictor.n)[:6] - train)))
    ok = recovery <= 1e-8 and recon == 0.0
    assert verdict("lifted-regression exactness",
                   ok, f"recovery {recovery:.2e}, reconstruction {recon:.2e}")


def test_numerical_derivatives(nominal_model):
    """Analytic Jacobian matches central differences to 1e-6 relative at
    10 random states."""
    rng = np.random.default_rng(31)
    worst = 0.0
    delta = 1e-5
    for _ in range(10):
        x = rng.uniform(5.0, 45.0, size=6)
        J = nominal_model.jac()(x)
        Jfd = np.zeros((6, 6))
        for j in range(6):
            xp, xm = x.copy(), x.copy()
            xp[j] += delta
            xm[j] -= delta
            Jfd[:, j] = (np.array(nominal_model.rhs(3.0, 10.0)(xp))
                         - np.array(nominal_model.rhs(3.0, 10.0)(xm))) / (2 * delta)
        worst = max(worst, np.max(np.abs(J - Jfd)) / max(1.0, np.max(np.abs(Jfd))))
    assert verdict("analytic Jacobian vs central differences",
                   worst <= 1e-6, f"worst relative error {worst:.2e}")


@pytest.mark.blocked_by_model
def test_lifted_vs_local_predictor_comparison(nominal_model, nominal_predictor):
    """Both controller variants satisfy the specifications from 15 degC and
    their post-transient input switching differs in phase."""
    try:
        eq = find_equilibrium(nominal_model, 10.0, 40.0)
    except EquilibriumError as exc:
        verdict("lifted vs local controller comparison", False,
                f"no 40 degC equilibrium exists: {exc}")
        pytest.fail(
            "the local-linearization baseline needs an equilibrium with "
            "40 degC output at 10 degC ambient; on the nominal coefficient "
            f"set the solve diverges ({exc}), because the reachable "
            "equilibrium outputs sit at the ambient level")
    local = linearize_local(nominal_model, eq.x, eq.u, 10.0, 60.0)
    cfg = ControllerConfig()
    trace_k = run_closed_loop(nominal_model, cfg, nominal_predictor,
                              np.full(6, 15.0))
    trace_l = run_closed_loop(nominal_model, cfg, local, np.full(6, 15.0))
    rob_k = trace_k.final_robustness()
    rob_l = trace_l.final_robustness()
    start = int(420.0 / cfg.h)
    uk = trace_k.inputs[start:] - trace_k.inputs[start:].mean()
    ul = trace_l.inputs[start:] - trace_l.inputs[start:].mean()
    lags = range(-3, 4)
    corr = {lag: float(np.sum(np.roll(uk, lag)[3:-3] * ul[3:-3])) for lag in lags}
    best = max(corr, key=lambda lag: abs(corr[lag]))
    ok = min(rob_k) >= -1e-6 and min(rob_l) >= -1e-6 and best != 0
    assert verdict("lifted vs local controller comparison", ok,
                   f"rob_k={min(rob_k):.3g}, rob_l={min(rob_l):.3g}, "
                   f"peak lag {best}")
