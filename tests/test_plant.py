import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import block_diag

from oracles import reference_jac, reference_rhs, reference_step, write_plant_json
from wws import plant
from wws.plant import (MONOMIALS, TERMS, DivergenceError, IntegrationError, PlantModel,
                       band_pack, output, simulate, step)
from wws.predictor import DEFAULT_OBSERVABLES

# the published nominal coefficient values, restated independently here so a
# data-file regression cannot go unnoticed
NOMINAL_COEFFS = (
    -9.8e-2, 4.0e-2, 9.8e-2, 3.8, -2.4e2, 2.4e2, 3.0e-2, -3.0e3, 1.1, -1.7e-3,
    1.7e-3, -6.0e-6, 6.0e-6, -3.0e-6, 3.0e-6, 3.0e3, 1.1, -2.0e3, 1.1, 1.7e-3,
    -3.4e-3, 1.7e-3, 6.0e-6, -6.0e-6, -6.0e-6, 6.0e-6, 3.0e-6, -6.0e-6, 3.0e-6,
    2.0e3, 1.1, -3.0e3, 1.7e-3, -1.7e-3, 6.0e-6, -6.0e-6, 3.0e-6, -3.0e-6,
    3.0e3, 3.8, -2.4e2, 2.4e2,
)

# regression anchor for step(ones, 0, 0, 60), computed by an adaptive
# Dormand-Prince 5(4) pair at atol 1e-8 under a 2e-4 s substep ceiling and
# confirmed by halving that ceiling; it shares no integration code with LSODA
RK45_ANCHOR = np.array([
    2.795251853426e-03, 4.427623380804e-05, 4.427768914233e-10,
    2.435392728227e-13, 8.930065052291e-17, 1.414504555973e-18,
])


def test_nominal_coefficients_bit_equal(nominal_model):
    assert nominal_model.a == NOMINAL_COEFFS
    assert nominal_model.output_index == 5


def test_vector_field_zero_state(nominal_model):
    assert np.array_equal(nominal_model.rhs(0.0, 0.0)(np.zeros(6)), np.zeros(6))


def test_vector_field_all_ones(nominal_model):
    # hand sums of the table rows at the all-ones point
    expected = np.array([-0.058, -236.2, -2998.87, -1997.8, -2998.9, -236.2])
    got = np.array(nominal_model.rhs(0.0, 0.0)(np.ones(6)))
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_vector_field_input_enters_first_component_only(nominal_model):
    base = np.array(nominal_model.rhs(0.0, 0.0)(np.ones(6)))
    with_u = np.array(nominal_model.rhs(1.0, 0.0)(np.ones(6)))
    assert with_u[0] == pytest.approx(0.04, abs=1e-15)
    assert np.array_equal(with_u[1:], base[1:])


def test_step_rejects_non_finite_state(nominal_model):
    with pytest.raises(ValueError, match="non-finite state"):
        step(nominal_model, [np.nan, 0, 0, 0, 0, 0], 0.0, 0.0, 60.0)
    X = np.ones((6, 3))
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite state"):
        step(nominal_model, X, 0.0, 0.0, 60.0)


def _no_lsoda(*args):
    raise AssertionError("LSODA called")


def test_step_rejects_non_finite_inputs(demo_model, monkeypatch):
    # a bad input is named before any LSODA call, never reported as divergence
    monkeypatch.setattr(plant, "_step_block", _no_lsoda)
    x = np.full(6, 20.0)
    with pytest.raises(ValueError, match="non-finite input u"):
        step(demo_model, x, np.nan, 10.0, 60.0)
    with pytest.raises(ValueError, match="non-finite disturbance w"):
        step(demo_model, x, 0.0, np.nan, 60.0)
    X, U = _block_draw(5, 600)
    U[437] = np.nan
    with pytest.raises(ValueError, match="non-finite input u"):
        step(demo_model, X, U, 10.0, 60.0)
    for h in (np.inf, np.nan):
        with pytest.raises(ValueError, match="hold interval must be positive and finite"):
            step(demo_model, x, 0.0, 10.0, h)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-40, 80), min_size=6, max_size=6),
       st.floats(0, 26.5), st.floats(-20, 40))
def test_vector_field_linear_in_u_and_w(x, u, w):
    model = PlantModel.nominal()
    x = np.array(x)

    def f(u, w):
        return np.array(model.rhs(u, w)(x))

    f00 = f(0.0, 0.0)
    fu = f(1.0, 0.0) - f00
    fw = f(0.0, 1.0) - f00
    combined = f00 + u * fu + w * fw
    direct = f(u, w)
    assert np.allclose(direct, combined, rtol=1e-9, atol=1e-9)


def test_jacobian_matches_central_differences(nominal_model):
    rng = np.random.default_rng(11)
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
        scale = max(1.0, np.max(np.abs(Jfd)))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-6


def test_step_rejects_empty_interval(nominal_model):
    with pytest.raises(ValueError, match="positive"):
        step(nominal_model, np.ones(6), 0.0, 0.0, 0.0)


def test_reference_step_matches_rk45_anchor(nominal_model):
    ref = reference_step(nominal_model, np.ones(6), 0.0, 0.0, 60.0)
    assert np.max(np.abs(ref - RK45_ANCHOR)) < 1e-9


def test_lsoda_matches_rk45_anchor(nominal_model):
    lsoda = step(nominal_model, np.ones(6), 0.0, 0.0, 60.0)
    assert np.max(np.abs(lsoda - RK45_ANCHOR)) < 5e-8


def test_step_holds_equilibrium(nominal_model):
    from wws.predictor import find_equilibrium
    rest = simulate(nominal_model, np.full(6, 10.0), [12.0] * 50, [10.0] * 50,
                    60.0)[-1]
    eq = find_equilibrium(nominal_model, 10.0, output(rest), x_guess=rest,
                          u_guess=12.0)
    after = step(nominal_model, eq.x, eq.u, 10.0, 60.0)
    assert np.max(np.abs(after - eq.x)) < 1e-6


def test_simulate_single_step_equals_step(nominal_model):
    x0 = np.full(6, 12.0)
    via_sim = simulate(nominal_model, x0, [5.0], [10.0], 60.0)
    direct = step(nominal_model, x0, 5.0, 10.0, 60.0)
    assert np.array_equal(via_sim[1], direct)
    assert np.array_equal(via_sim[0], x0)


def test_simulate_chaining_is_exact(nominal_model):
    x0 = np.full(6, 12.0)
    u = [5.0, 6, 7, 8, 9, 10, 11, 12, 13, 14]
    w = [10.0] * 10
    whole = simulate(nominal_model, x0, u, w, 60.0)
    first = simulate(nominal_model, x0, u[:5], w[:5], 60.0)
    second = simulate(nominal_model, first[-1], u[5:], w[5:], 60.0)
    assert np.array_equal(whole, np.vstack([first, second[1:]]))


def test_simulate_constant_at_equilibrium(nominal_model):
    from wws.predictor import find_equilibrium
    rest = simulate(nominal_model, np.full(6, 10.0), [12.0] * 50, [10.0] * 50,
                    60.0)[-1]
    eq = find_equilibrium(nominal_model, 10.0, output(rest), x_guess=rest,
                          u_guess=12.0)
    traj = simulate(nominal_model, eq.x, [eq.u] * 10, [10.0] * 10, 60.0)
    assert np.max(np.abs(traj - eq.x[None, :])) < 1e-5


def test_simulate_length_mismatch(nominal_model):
    with pytest.raises(ValueError, match="equal length"):
        simulate(nominal_model, np.ones(6), [1.0, 2.0], [10.0], 60.0)


def test_divergence_is_flagged_with_step_index(nominal_model):
    # an ambient excursion far above the physical band drives the pipe
    # states out of range within the third hold interval
    with pytest.raises(DivergenceError) as err:
        simulate(nominal_model, np.full(6, 15.0), [0.0] * 5, [400.0] * 5, 60.0)
    assert err.value.step_index == 0
    assert "step 0" in str(err.value)


def test_determinism_bit_identical(nominal_model):
    a = step(nominal_model, np.full(6, 14.0), 8.0, 10.0, 0.5)
    b = step(nominal_model, np.full(6, 14.0), 8.0, 10.0, 0.5)
    assert np.array_equal(a, b)
    X, U = _block_draw(27, 8)
    a = step(nominal_model, X, U, 10.0, 60.0)
    b = step(nominal_model, X, U, 10.0, 60.0)
    assert np.array_equal(a, b)


def test_output_projection():
    assert output(np.array([1.0, 2, 3, 4, 5, 6])) == 5.0
    assert output(np.zeros(6)) == 0.0
    x = np.zeros(6)
    x[4] = 40.0
    assert output(x) == 40.0


def test_plant_json_roundtrip(tmp_path, nominal_model):
    path = tmp_path / "plant.json"
    write_plant_json(nominal_model, path)
    again = PlantModel.from_json(path)
    assert again == nominal_model
    doc = json.loads(path.read_text())
    assert len(doc["a"]) == 42 and doc["output_index"] == 5


def test_plant_validation():
    with pytest.raises(ValueError, match="42"):
        PlantModel(a=(1.0,) * 41)
    with pytest.raises(ValueError, match="output_index"):
        PlantModel(a=(1.0,) * 42, output_index=7)
    with pytest.raises(ValueError, match="finite"):
        PlantModel(a=(float("nan"),) + (1.0,) * 41)


# -- block (K-column) propagation ---------------------------------------------

def _block_draw(seed: int, K: int):
    rng = np.random.default_rng(seed)
    X = rng.uniform(10.0, 40.0, size=(6, K))
    U = np.where(rng.uniform(size=K) < 0.2, 0.0, rng.uniform(21.2, 26.5, size=K))
    return X, U


@pytest.mark.parametrize("which", ["nominal", "demo"])
def test_block_step_matches_single_columns(which):
    model = getattr(PlantModel, which)()
    X, U = _block_draw(21, 100)
    block = step(model, X, U, 10.0, 60.0)
    assert block.shape == X.shape
    single = np.column_stack([step(model, X[:, i], U[i], 10.0, 60.0)
                              for i in range(X.shape[1])])
    assert np.max(np.abs(block - single)) < 5e-8


@pytest.mark.parametrize("which", ["nominal", "demo"])
def test_block_step_matches_independent_reference(which):
    model = getattr(PlantModel, which)()
    X, U = _block_draw(22, 32)
    U[0] = 0.0  # one pump-off column
    block = step(model, X, U, 10.0, 60.0)
    for i in range(4):
        ref = reference_step(model, X[:, i], U[i], 10.0, 60.0)
        assert np.max(np.abs(block[:, i] - ref)) < 5e-8


def test_block_rhs_and_jacobian_match_single_columns():
    # Both shapes of rhs and jac against the hand-written oracle, within the
    # rounding bound C * eps * sum|terms| per entry (eps = 2u, u the unit
    # roundoff); sum|terms| is the oracle at |a|, |u|, |w| and |x|.  rhs: a
    # term F_m * phi_m carries at most 3 roundings (x3 * x3, then * x4, then
    # the coefficient) and passes at most 16 additions (15 inside F_x @ phi,
    # 1 for the drive), so the code is within 19u; the oracle's terms carry
    # 3 roundings and pass at most 13 additions (14 terms), within 16u.
    # jac: F_x @ dphi is within (2 + 1 + 15)u, the oracle within (3 + 6)u.
    # The worse difference is 35u < 36u, so C = 18.
    C = 18
    eps = np.finfo(float).eps
    X, U = _block_draw(23, 33)
    U[0] = 0.0  # one pump-off column
    W = np.linspace(5.0, 15.0, 33)
    for model in (PlantModel.nominal(), PlantModel.demo()):
        size = PlantModel(a=tuple(abs(v) for v in model.a))
        F = model.rhs(U, W)(X)
        Js = model.jac()(X)
        assert F.shape == (6, 33) and Js.shape == (6, 6, 33)
        for i in range(33):
            x = X[:, i]
            ref = reference_rhs(model, U[i], W[i])(x)
            tol = C * eps * reference_rhs(size, U[i], abs(W[i]))(np.abs(x))
            assert np.all(np.abs(F[:, i] - ref) <= tol)
            assert np.all(np.abs(model.rhs(U[i], W[i])(x) - ref) <= tol)
            ref = reference_jac(model)(x)
            tol = C * eps * reference_jac(size)(np.abs(x))
            assert np.all(np.abs(Js[:, :, i] - ref) <= tol)
            assert np.all(np.abs(model.jac()(x) - ref) <= tol)


def test_coefficient_table_places_each_coefficient_once():
    rows, cols, idx = zip(*TERMS)
    assert sorted(idx) == list(range(42))
    assert len(set(zip(rows, cols))) == len(TERMS)
    assert DEFAULT_OBSERVABLES == len(MONOMIALS)


def test_band_pack_matches_documented_odeint_layout():
    # odeint's banded Dfun stores d f_i / d y_j at band[i - j + mu, j]
    rng = np.random.default_rng(5)
    n, K = 6, 4
    blocks = rng.normal(size=(n, n, K))
    dense = block_diag(*(blocks[:, :, k] for k in range(K)))
    mu = n - 1
    expected = np.zeros((2 * n - 1, n * K))
    for i in range(n * K):
        for j in range(n * K):
            if abs(i - j) <= mu:
                expected[i - j + mu, j] = dense[i, j]
    assert np.array_equal(band_pack(blocks), expected)


def test_divergent_block_names_lowest_column(nominal_model):
    X, U = _block_draw(24, 12)
    W = np.full(12, 10.0)
    W[[9, 4, 7]] = 400.0
    with pytest.raises(DivergenceError, match="column 4") as err:
        step(nominal_model, X, U, W, 60.0)
    assert err.value.column == 4


def test_block_simulate_steps_all_columns(demo_model):
    X, U = _block_draw(26, 4)
    traj = simulate(demo_model, X, [U, U], [10.0, 10.0], 60.0)
    assert traj.shape == (3, 6, 4)
    assert np.array_equal(traj[0], X)
    assert np.array_equal(traj[1], step(demo_model, X, U, 10.0, 60.0))


# -- column blocks across processes -------------------------------------------

# K = 1100 is cut into the blocks [0, 366), [366, 733) and [733, 1100)
BLOCK_EDGES = (0, 366, 733, 1100)
_TEST_PID = os.getpid()


def _cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))


def test_block_schedules_are_bit_identical(demo_model, monkeypatch):
    X, U = _block_draw(27, 1100)
    _cores(monkeypatch, 1)
    serial = step(demo_model, X, U, 10.0, 60.0)
    pools = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            pools.append(max_workers)

    monkeypatch.setattr(plant, "ProcessPoolExecutor", Spy)
    _cores(monkeypatch, 3)
    forked = step(demo_model, X, U, 10.0, 60.0)
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert forked.tobytes() == serial.tobytes()
    for a, b in zip(BLOCK_EDGES, BLOCK_EDGES[1:]):
        for i in (a, b - 1):
            ref = reference_step(demo_model, X[:, i], U[i], 10.0, 60.0)
            assert np.max(np.abs(forked[:, i] - ref)) < 5e-8


def test_divergent_blocks_name_the_lowest_column(nominal_model, monkeypatch):
    # both divergent columns lie in blocks that forked workers integrate
    X, U = _block_draw(28, 1100)
    W = np.full(1100, 10.0)
    W[[1050, 620]] = 400.0
    _cores(monkeypatch, 3)
    with pytest.raises(DivergenceError, match="^column 620: state diverged") as err:
        step(nominal_model, X, U, W, 60.0)
    assert err.value.column == 620
    assert multiprocessing.active_children() == []


def _fails_in_worker(model, x, u, w, h, config, start):
    if os.getpid() == _TEST_PID:
        return np.zeros_like(x)
    raise IntegrationError("lsoda failed: in a worker")


def _dies_in_worker(model, x, u, w, h, config, start):
    if os.getpid() == _TEST_PID:
        return np.zeros_like(x)
    os._exit(1)


@pytest.mark.parametrize("block, error", [
    (_fails_in_worker, IntegrationError), (_dies_in_worker, BrokenProcessPool),
], ids=["integration-error", "killed"])
def test_worker_failure_reaches_the_caller(demo_model, monkeypatch, block, error):
    monkeypatch.setattr(plant, "_step_block", block)
    _cores(monkeypatch, 2)
    X, U = _block_draw(29, 1000)
    with pytest.raises(error):
        step(demo_model, X, U, 10.0, 60.0)
    assert multiprocessing.active_children() == []
