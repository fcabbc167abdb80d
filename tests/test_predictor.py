import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wws import plant as plant_mod
from wws.plant import DivergenceError, PlantModel, simulate
from wws.predictor import (
    DEFAULT_OBSERVABLES,
    DatasetConfig,
    EquilibriumError,
    LinearPredictor,
    find_equilibrium,
    fit_edmd_from_dataset,
    fit_linear_maps,
    generate_dataset,
    lift,
    linearize_local,
    zoh_discretize,
)


# -- observables -------------------------------------------------------------

def test_default_observables_match_published_order():
    x = np.array([1.0, 2, 3, 4, 5, 6])
    expected = [1, 2, 3, 4, 5, 6, 9, 16, 25, 36, 48, 80, 100, 27, 64, 125]
    assert DEFAULT_OBSERVABLES == 16
    assert np.array_equal(lift(x, DEFAULT_OBSERVABLES), expected)
    assert np.array_equal(lift(np.ones(6), DEFAULT_OBSERVABLES), np.ones(16))
    assert np.array_equal(lift(np.zeros(6), DEFAULT_OBSERVABLES), np.zeros(16))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-50, 150), min_size=6, max_size=6))
def test_lift_identity_coordinates(x):
    z = lift(np.array(x), DEFAULT_OBSERVABLES)
    assert np.array_equal(z[:6], np.array(x))


def test_lift_batch_matches_columns():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 50, size=(6, 20))
    Z = lift(X, DEFAULT_OBSERVABLES)
    assert Z.shape == (16, 20)
    for i in range(20):
        assert np.allclose(Z[:, i], lift(X[:, i], DEFAULT_OBSERVABLES))


def test_lift_is_the_plants_monomial_evaluation(demo_model):
    # F_x lift(x) must be the plant's right-hand side at zero drive, bit for
    # bit: the predictor lifts by the very products the plant integrates
    rng = np.random.default_rng(3)
    X = rng.uniform(-50, 150, size=(6, 200))
    Fx = demo_model.coefficients[:, :plant_mod.N_MONOMIALS]
    assert np.array_equal(Fx @ lift(X, DEFAULT_OBSERVABLES),
                          demo_model.rhs(np.zeros(200), np.zeros(200))(X))
    for x in X.T:
        assert np.array_equal(Fx @ lift(x, DEFAULT_OBSERVABLES), demo_model.rhs(0.0, 0.0)(x))


def test_observable_validation():
    skipped = plant_mod.MONOMIALS[:6] + plant_mod.MONOMIALS[7:]
    doc = {"N": 15, "h": 60.0, "A": np.eye(15).tolist(), "bu": [0.0] * 15,
           "bd": [0.0] * 15, "c": [0.0] * 15, "w": 10.0,
           "observables": [list(e) for e in skipped]}
    with pytest.raises(ValueError, match="prefix"):
        LinearPredictor.from_dict(doc)


@pytest.mark.parametrize("n", [0, 5, 17])
def test_predictor_observable_count_bounds(n):
    # the first six observables are the state the predictor reads out
    with pytest.raises(ValueError, match="6..16 observables"):
        LinearPredictor(A=np.eye(n), b_u=np.zeros(n), b_d=np.zeros(n), c=np.zeros(n),
                        h=60.0, w=10.0)


# -- dataset -----------------------------------------------------------------

def test_dataset_input_values_and_determinism(nominal_model):
    cfg = DatasetConfig(K=64, seed=7)
    a = generate_dataset(nominal_model, cfg)
    b = generate_dataset(nominal_model, cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Xp, b.Xp)
    assert np.all((a.U == 0.0) | ((a.U >= 21.2) & (a.U <= 26.5)))
    assert np.all(a.W == 10.0)
    assert np.all((a.X >= 10.0) & (a.X <= 40.0))


def test_dataset_off_fraction(nominal_dataset_10k):
    frac = float(np.mean(nominal_dataset_10k.U == 0.0))
    assert abs(frac - 0.2) <= 0.02


@pytest.mark.parametrize("which", ["nominal", "demo"])
def test_dataset_equal_seeds_byte_identical(which):
    model = getattr(PlantModel, which)()
    cfg = DatasetConfig(K=300, seed=5)
    a = generate_dataset(model, cfg)
    b = generate_dataset(model, cfg)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.Xp.tobytes() == b.Xp.tobytes()


def test_dataset_is_one_block_plant_step(monkeypatch, demo_model):
    calls = []
    original = plant_mod.step

    def counting_step(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(plant_mod, "step", counting_step)
    generate_dataset(demo_model, DatasetConfig(K=50, seed=1))
    assert calls == [(6, 50)]


def test_dataset_reports_failing_column(nominal_model):
    with pytest.raises(DivergenceError, match="column"):
        generate_dataset(nominal_model, DatasetConfig(K=8, seed=0, w0=400.0))


def test_dataset_minimum_size():
    with pytest.raises(ValueError, match="sample count"):
        DatasetConfig(K=4)


# -- regression --------------------------------------------------------------

def test_planted_linear_system_recovery():
    rng = np.random.default_rng(7)
    K = 60
    X = rng.uniform(10, 40, size=(6, K))
    Z = lift(X, DEFAULT_OBSERVABLES)
    A0 = rng.normal(0, 0.3, size=(16, 16))
    bu0 = rng.normal(0, 0.5, size=16)
    bd0 = rng.normal(0, 0.5, size=16)
    U = rng.uniform(0, 26.5, size=K)
    W = rng.uniform(5, 15, size=K)
    Zp = A0 @ Z + np.outer(bu0, U) + np.outer(bd0, W)
    A, bu, bd, diag = fit_linear_maps(Z, U, W, Zp)
    assert diag["rank"] == 18
    assert np.max(np.abs(A - A0)) <= 1e-8
    assert np.max(np.abs(bu - bu0)) <= 1e-8
    assert np.max(np.abs(bd - bd0)) <= 1e-8


def test_rank_deficiency_is_reported_not_fatal():
    rng = np.random.default_rng(8)
    K = 50
    X = rng.uniform(10, 40, size=(6, K))
    Z = lift(X, DEFAULT_OBSERVABLES)
    U = np.zeros(K)  # input row identically zero: rank drops by one
    W = np.full(K, 10.0)
    Zp = 0.5 * Z
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        A, _, _, diag = fit_linear_maps(Z, U, W, Zp)
    assert diag["rank"] < 18
    assert any("rank" in str(w.message) for w in caught)
    assert np.max(np.abs(A - 0.5 * np.eye(16))) < 1e-7


def test_zero_disturbance_row_is_not_a_deficiency():
    # a constant ambient of 0 leaves the disturbance row all zero: b_d is 0,
    # the rank drops by one and the fit is as good as it can be
    rng = np.random.default_rng(9)
    K = 60
    X = rng.uniform(10, 40, size=(6, K))
    Z = lift(X, DEFAULT_OBSERVABLES)
    A0 = rng.normal(0, 0.3, size=(16, 16))
    bu0 = rng.normal(0, 0.5, size=16)
    U = rng.uniform(0, 26.5, size=K)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, bu, bd, diag = fit_linear_maps(Z, U, np.zeros(K), A0 @ Z + np.outer(bu0, U))
    assert diag["rank"] == 17
    assert np.max(np.abs(A - A0)) <= 1e-8 and np.max(np.abs(bu - bu0)) <= 1e-8
    assert np.array_equal(bd, np.zeros(16))
    # a dependent row besides it still warns
    U = Z[0]
    with pytest.warns(UserWarning, match=r"rank-deficient regressor \(rank 16 of 18\)"):
        _, _, _, diag = fit_linear_maps(Z, U, np.zeros(K), A0 @ Z + np.outer(bu0, U))
    assert diag["rank"] == 16


def test_training_set_output_reconstruction(nominal_predictor, nominal_dataset_10k):
    # the read-out is the selection of the first six observables: exact
    X = nominal_dataset_10k.X
    assert np.array_equal(lift(X, nominal_predictor.n)[:6], X)
    assert nominal_predictor.meta["fit"]["readout"] == {"residual_max": 0.0}


def test_fit_shapes(nominal_predictor):
    assert nominal_predictor.A.shape == (16, 16)
    assert nominal_predictor.b_u.shape == (16,)
    assert nominal_predictor.b_d.shape == (16,)
    assert nominal_predictor.h == 60.0


# -- prediction ----------------------------------------------------------------

def test_predict_zero_steps(nominal_predictor):
    x0 = np.full(6, 20.0)
    out = nominal_predictor.predict(x0, [], [])
    assert out.shape == (1, 6)
    assert np.array_equal(out[0], x0)


def test_predict_reproduces_planted_trajectory():
    rng = np.random.default_rng(9)
    A0 = rng.normal(0, 0.2, size=(16, 16))
    bu0 = rng.normal(size=16)
    bd0 = rng.normal(size=16)
    pred = LinearPredictor(A=A0, b_u=bu0, b_d=bd0, c=np.zeros(16), h=60.0, w=1.0)
    x0 = rng.uniform(10, 40, size=6)
    u = rng.uniform(0, 5, size=4)
    w = rng.uniform(0, 2, size=4)
    z = lift(x0, DEFAULT_OBSERVABLES)
    manual = [z[:6]]
    for k in range(4):
        z = A0 @ z + bu0 * u[k] + bd0 * w[k]
        manual.append(z[:6])
    assert np.allclose(pred.predict(x0, u, w), np.array(manual), atol=1e-12)


def test_open_loop_rollout_tracks_demo_plant(demo_model, demo_predictor):
    rng = np.random.default_rng(5)
    x0 = np.full(6, 15.0)
    u = rng.uniform(21.2, 26.5, size=10)
    w = np.full(10, 10.0)
    truth = simulate(demo_model, x0, u, w, 60.0)
    guess = demo_predictor.predict(x0, u, w)
    assert np.max(np.abs(truth - guess)) < 0.5


# -- equilibrium and local linearization --------------------------------------

def test_find_equilibrium_demo(demo_model, demo_equilibrium):
    eq = demo_equilibrium
    assert eq.residual <= 1e-10
    assert abs(eq.x[4] - 40.0) <= 1e-10
    assert eq.u_within_bounds
    from wws.plant import step
    after = step(demo_model, eq.x, eq.u, 10.0, 60.0)
    assert np.max(np.abs(after - eq.x)) < 1e-6
    eigs = np.linalg.eigvals(demo_model.jac()(eq.x))
    assert np.all(eigs.real < 0)


def test_find_equilibrium_unreachable_target_raises(nominal_model):
    # the nominal coefficient set pins the output near the ambient level, so
    # a 40 degC output is not attainable and the solve must report it
    with pytest.raises(EquilibriumError) as err:
        find_equilibrium(nominal_model, 10.0, 40.0)
    assert err.value.residual > 0


def test_find_equilibrium_flags_out_of_band_input(demo_model):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eq = find_equilibrium(demo_model, 10.0, 55.0)
    assert not eq.u_within_bounds
    assert any("outside" in str(w.message) for w in caught)


def test_zoh_scalar_decay():
    Ad, Bd = zoh_discretize(np.array([[-1.0]]), np.array([[0.0]]), 1.0)
    assert Ad[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_zoh_consistency_first_order(demo_model, demo_equilibrium):
    eq = demo_equilibrium
    A_c = demo_model.jac()(eq.x)
    B = np.column_stack([demo_model.input_direction(),
                         demo_model.disturbance_direction()])
    errs = []
    for h in (1e-3, 1e-4):
        A_d, _ = zoh_discretize(A_c, B, h)
        errs.append(np.max(np.abs((A_d - np.eye(6)) / h - A_c)))
    ratio = errs[1] / errs[0]
    assert 0.05 < ratio < 0.2  # first-order convergence in h


def test_linearize_local_equilibrium_invariance(demo_model, demo_equilibrium):
    eq = demo_equilibrium
    pred = linearize_local(demo_model, eq.x, eq.u, 10.0, 60.0)
    assert pred.n == 6
    traj = pred.predict(eq.x, [eq.u] * 5, [10.0] * 5)
    assert np.max(np.abs(traj - eq.x[None, :])) < 1e-9


def test_linearize_local_rejects_non_equilibrium(demo_model):
    with pytest.raises(ValueError, match="not an equilibrium"):
        linearize_local(demo_model, np.full(6, 30.0), 5.0, 10.0, 60.0)


# -- persistence ---------------------------------------------------------------

def test_predictor_json_roundtrip(tmp_path, nominal_predictor):
    # a regression fit records the ambient its data held, and only there
    assert nominal_predictor.w == 10.0 and "w0" not in nominal_predictor.meta
    path = tmp_path / "pred.json"
    replace(nominal_predictor, w=-2.5).to_json(path)
    again = LinearPredictor.from_json(path)
    assert np.array_equal(again.A, nominal_predictor.A)
    assert np.array_equal(again.b_u, nominal_predictor.b_u)
    assert np.array_equal(again.c, np.zeros(16))
    assert again.w == -2.5
    doc = json.loads(path.read_text())
    assert set(doc) == {"N", "h", "w", "A", "bu", "bd", "c", "observables", "meta"}
    assert doc["N"] == 16
    assert doc["observables"] == [list(e) for e in plant_mod.MONOMIALS]


def test_local_predictor_json_carries_offset(tmp_path, demo_model, demo_equilibrium):
    eq = demo_equilibrium
    pred = linearize_local(demo_model, eq.x, eq.u, 10.0, 60.0)
    # the operating point folds into c once, by the deviation-form identity
    assert np.array_equal(pred.c, eq.x - pred.A @ eq.x - pred.b_u * eq.u - pred.b_d * 10.0)
    assert pred.meta["x_ref"] == eq.x.tolist()
    assert pred.meta["u_ref"] == eq.u and "w_ref" not in pred.meta
    path = tmp_path / "local.json"
    pred.to_json(path)
    again = LinearPredictor.from_json(path)
    assert np.array_equal(again.c, pred.c)
    assert again.meta == pred.meta and again.w == pred.w == 10.0


def test_linearize_local_records_its_ambient(demo_model):
    eq = find_equilibrium(demo_model, 20.0, 40.0)
    pred = linearize_local(demo_model, eq.x, eq.u, 20.0, 60.0)
    assert pred.w == 20.0
    # at its own ambient the predictor holds the equilibrium
    traj = pred.predict(eq.x, [eq.u] * 5, [pred.w] * 5)
    assert np.max(np.abs(traj - eq.x[None, :])) < 1e-9


def test_predictor_ambient_must_be_finite(demo_predictor):
    with pytest.raises(ValueError, match="ambient w must be finite"):
        replace(demo_predictor, w=float("nan"))


def test_predictor_file_without_c_is_refused(demo_model, demo_equilibrium):
    # a file written before c was stored carried the local operating point as
    # "offset"; loading it with c = 0 would predict the wrong trajectory
    eq = demo_equilibrium
    doc = linearize_local(demo_model, eq.x, eq.u, 10.0, 60.0).to_dict()
    del doc["c"]
    doc["offset"] = {"x_ref": eq.x.tolist(), "u_ref": eq.u, "w_ref": 10.0}
    with pytest.raises(ValueError, match="'c'.*refit"):
        LinearPredictor.from_dict(doc)


def test_predictor_file_without_w_is_refused(demo_predictor):
    # a file written before the ambient was stored was used at whatever
    # ambient the loop was configured with, not necessarily its fit's
    doc = demo_predictor.to_dict()
    del doc["w"]
    with pytest.raises(ValueError, match="'w'.*refit"):
        LinearPredictor.from_dict(doc)


def test_legacy_readout_must_be_the_selection(demo_predictor):
    # files from before the read-out was a selection carry a fitted "C"; it
    # loads when it is [I 0] to within 1e-9 and is refused by name otherwise
    doc = demo_predictor.to_dict()
    C = np.eye(6, 16)
    C[4, 7] = 3e-15
    again = LinearPredictor.from_dict({**doc, "C": C.tolist()})
    assert json.dumps(again.to_dict()) == json.dumps(doc)
    wrong_row = np.eye(6, 16)[[1, 0, 2, 3, 4, 5]]
    for bad in (wrong_row, np.eye(6, 16) * (1 + 1e-6), np.eye(6, 15), np.full((6, 16), np.nan)):
        with pytest.raises(ValueError, match="read-out 'C' is not the selection"):
            LinearPredictor.from_dict({**doc, "C": bad.tolist()})


def test_fit_pipeline_deterministic(nominal_model):
    cfg = DatasetConfig(K=150, seed=5)
    a = fit_edmd_from_dataset(DEFAULT_OBSERVABLES, generate_dataset(nominal_model, cfg))
    b = fit_edmd_from_dataset(DEFAULT_OBSERVABLES, generate_dataset(nominal_model, cfg))
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
