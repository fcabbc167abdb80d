"""Six-state nonlinear warm-water supply plant under zeroth-order-hold inputs.

States are water temperatures in degC, in loop order: heat pump outlet (x1),
supply pipe (x2), tank layers one to three (x3..x5), return pipe (x6).  The
supply output is the third tank layer.  The single input ``u`` is heat-pump
electrical power in kW (enters x1 only); the single disturbance ``w`` is the
ambient temperature in degC.  The right-hand side is a fixed 42-coefficient
polynomial, held as data: it is linear in the 16 :data:`MONOMIALS` phi(x)
(states, squares, cubes and mixed cubic exchange terms between adjacent tank
layers; the predictor lifts by the same ones), and :data:`TERMS` places each
coefficient in a (6, 18) matrix F with dx/dt = F [phi(x); u; w].
Coefficients live in versioned JSON data files: ``PlantModel.nominal()``
loads the bundled nominal set and ``demo()`` a re-rated set with identical
structure used by demos and machinery tests.

:func:`step` advances one state or a block of K column states; it cuts a
block into contiguous pieces of at most :data:`BLOCK` columns, one LSODA
call each, spread over the available cores.  A column's result depends
(within the tolerance) on the piece it was integrated in, which depends
only on K, not on the number of cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

N_STATES = 6
N_COEFFS = 42

#: Exponents over (x1..x6) of phi(x): states, squares, mixed products, cubes.
MONOMIALS = (
    (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
    (0, 0, 2, 0, 0, 0), (0, 0, 0, 2, 0, 0), (0, 0, 0, 0, 2, 0),
    (0, 0, 2, 1, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 2, 1, 0), (0, 0, 0, 1, 2, 0),
    (0, 0, 3, 0, 0, 0), (0, 0, 0, 3, 0, 0), (0, 0, 0, 0, 3, 0),
)
N_MONOMIALS = len(MONOMIALS)
U, W = N_MONOMIALS, N_MONOMIALS + 1  # columns of the held input and disturbance

#: (row, column, coefficient index): dx_row/dt has the term a[index] times
#: entry ``column`` of [phi(x); u; w].
TERMS = (
    (0, 0, 0), (0, 5, 1), (0, U, 2), (1, 0, 3), (1, 1, 4), (1, W, 5),
    (2, 1, 6), (2, 2, 7), (2, 3, 8), (2, 6, 9), (2, 7, 10), (2, 9, 11), (2, 10, 12),
    (2, 13, 13), (2, 14, 14), (2, W, 15),
    (3, 2, 16), (3, 3, 17), (3, 4, 18), (3, 6, 19), (3, 7, 20), (3, 8, 21), (3, 9, 22),
    (3, 10, 23), (3, 11, 24), (3, 12, 25), (3, 13, 26), (3, 14, 27), (3, 15, 28), (3, W, 29),
    (4, 3, 30), (4, 4, 31), (4, 7, 32), (4, 8, 33), (4, 11, 34), (4, 12, 35),
    (4, 14, 36), (4, 15, 37), (4, W, 38), (5, 4, 39), (5, 5, 40), (5, W, 41),
)

#: Widest column block one LSODA call integrates; wider blocks are cut.
BLOCK = 500

# Divergence flagging limits; excursions are reported, never clamped.
STATE_BOUNDS = (-50.0, 150.0)

TRAJECTORY_HEADER = ["t", "x1", "x2", "x3", "x4", "x5", "x6", "u", "w", "y"]


class DivergenceError(RuntimeError):
    """A trajectory left the physical temperature bounds."""

    def __init__(self, message: str, step_index: int | None = None,
                 state: np.ndarray | None = None, column: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.state = state
        self.column = column


class IntegrationError(RuntimeError):
    """LSODA failed (step-size underflow, iteration budget, ...) or returned
    a non-finite state."""


@dataclass(frozen=True)
class IntegratorConfig:
    """LSODA's absolute and relative error tolerances for :func:`step`."""

    atol: float = 1e-10
    rtol: float = 1e-10


@dataclass(frozen=True)
class PlantModel:
    """Immutable coefficient set of the warm-water supply dynamics.

    ``a`` holds the 42 polynomial coefficients (``a[0]`` is the coefficient
    named a1 in the accompanying docs).  ``output_index`` is 1-based and
    selects the supply temperature state (x5, third tank layer).
    """

    a: tuple[float, ...]
    output_index: int = 5
    name: str = ""

    def __post_init__(self):
        if len(self.a) != N_COEFFS:
            raise ValueError(f"expected {N_COEFFS} coefficients, got {len(self.a)}")
        if not all(np.isfinite(self.a)):
            raise ValueError("non-finite coefficient")
        if not (1 <= self.output_index <= N_STATES):
            raise ValueError(f"output_index must be in 1..{N_STATES}")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "PlantModel":
        return cls(a=tuple(float(v) for v in doc["a"]),
                   output_index=int(doc.get("output_index", 5)),
                   name=str(doc.get("name", "")))

    @classmethod
    def from_json(cls, path: str | Path) -> "PlantModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def _from_resource(cls, filename: str) -> "PlantModel":
        text = resources.files("wws.data").joinpath(filename).read_text()
        return cls.from_dict(json.loads(text))

    @classmethod
    def nominal(cls) -> "PlantModel":
        """The bundled nominal coefficient set, loaded verbatim."""
        return cls._from_resource("warm_water_plant.json")

    @classmethod
    def demo(cls) -> "PlantModel":
        """Re-rated controllable set with the same polynomial structure."""
        return cls._from_resource("demo_plant.json")

    # -- evaluation closures ----------------------------------------------

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The read-only (6, 18) matrix F of :data:`TERMS`: dx/dt = F [phi(x); u; w]."""
        F = np.zeros((N_STATES, N_MONOMIALS + 2))
        rows, cols, idx = np.array(TERMS).T
        F[rows, cols] = np.asarray(self.a)[idx]
        F.flags.writeable = False
        return F

    def rhs(self, u, w) -> Callable[[np.ndarray], np.ndarray]:
        """Right-hand side closure ``F_x phi(x) + drive`` for fixed held inputs.

        ``F_x`` is the monomial block of :attr:`coefficients`, ``drive`` its
        u and w columns times the held inputs.  With scalar ``u`` and ``w``
        the closure maps one state to its six derivatives, with per-column
        vectors of length K a (6, K) state block to its (6, K) derivatives.
        """
        F = self.coefficients
        Fx = F[:, :N_MONOMIALS]
        drive = np.multiply.outer(F[:, U], u) + np.multiply.outer(F[:, W], w)
        phi = np.empty((N_MONOMIALS,) + drive.shape[1:])

        def f(x) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            phi[:] = monomials(*(x.tolist() if x.ndim == 1 else x))
            return Fx @ phi + drive

        return f

    def jac(self) -> Callable[[np.ndarray], np.ndarray]:
        """State-Jacobian closure ``F_x d phi / d x`` (input independent): one
        state to its (6, 6) Jacobian, a (6, K) block to the (6, 6, K) stack."""
        Fx = self.coefficients[:, :N_MONOMIALS]

        def J(x) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            ones_x = np.concatenate([np.ones((1,) + x.shape[1:]), x])
            scale = _GRAD_SCALE.reshape((-1,) + (1,) * (x.ndim - 1))
            dphi = np.zeros((N_MONOMIALS,) + x.shape)
            dphi[_GRAD_M, _GRAD_I] = scale * ones_x[_GRAD_A] * ones_x[_GRAD_B]
            return (Fx @ dphi.reshape(N_MONOMIALS, -1)).reshape((N_STATES,) + x.shape)

        return J

    def input_direction(self) -> np.ndarray:
        """d f / d u (constant: power enters the heat pump state only)."""
        return self.coefficients[:, U].copy()

    def disturbance_direction(self) -> np.ndarray:
        """d f / d w (constant: ambient coupling of every passive component)."""
        return self.coefficients[:, W].copy()


def monomials(x1, x2, x3, x4, x5, x6) -> tuple:
    """The monomials of :data:`MONOMIALS`, in order, over floats or rows."""
    s3, s4, s5 = x3 * x3, x4 * x4, x5 * x5
    return (x1, x2, x3, x4, x5, x6, s3, s4, s5,
            s3 * x4, x3 * s4, s4 * x5, x4 * s5, s3 * x3, s4 * x4, s5 * x5)


# d phi_m / d x_i = e x ** (MONOMIALS[m] - unit_i) for each exponent e = MONOMIALS[m][i]
# > 0; at degree <= 3 that power is the product of two entries A, B of (1, x1..x6)
_GRAD_M, _GRAD_I = np.nonzero(MONOMIALS)
_GRAD_SCALE = np.array(MONOMIALS, dtype=float)[_GRAD_M, _GRAD_I]
_GRAD_A, _GRAD_B = np.array([
    ([j + 1 for j, p in enumerate(MONOMIALS[m]) for _ in range(p - (j == i))] + [0, 0])[:2]
    for m, i in zip(_GRAD_M, _GRAD_I)]).T


def output(x: Sequence[float], output_index: int = 5) -> float:
    """Supply temperature: the selected state coordinate (1-based index)."""
    return float(x[output_index - 1])


def step(
    model: PlantModel,
    x: Sequence[float] | np.ndarray,
    u,
    w,
    h: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate the plant over one hold interval of length ``h`` seconds.

    ``x`` is one state of shape (6,) or a block of K column states of shape
    (6, K); ``u`` and ``w`` are scalars or per-column vectors of length K.
    The result has the shape of ``x``.  The K columns are cut into
    ceil(K / :data:`BLOCK`) contiguous blocks of nearly equal width, and one
    LSODA call with the analytic Jacobian advances each block: LSODA
    switches between Adams and BDF on its own, so it serves both the stiff
    nominal set and the milder demo set.  The blocks run across the
    available cores in forked processes (in order, in this process, on one
    core).  Columns of a block share step sizes, so a column's result
    depends (within the tolerance) on the block it was integrated in; the
    cut depends only on K, so identical inputs give bit-identical results
    on one platform, whatever the number of cores.  A state outside
    :data:`STATE_BOUNDS` at one of the quarters of the interval raises
    :class:`DivergenceError`, in a block naming the lowest such column; an
    excursion between those grid points goes unseen.  A non-finite state,
    input, disturbance or ``h``, or a block of no columns, raises
    ``ValueError`` before any LSODA call.
    """
    # imported here, before any fork, so that the block workers inherit it
    # and `import wws` stays free of scipy.integrate
    from scipy.integrate import odeint  # noqa: F401

    if not 0.0 < h < np.inf:
        raise ValueError(f"hold interval must be positive and finite, got {h}")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != N_STATES:
        raise ValueError(f"state must have shape ({N_STATES},) or ({N_STATES}, K), "
                         f"got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state")
    k = 1 if x.ndim == 1 else x.shape[1]
    if k == 0:
        raise ValueError(f"state block has no columns, got {x.shape}")
    u = np.broadcast_to(np.asarray(u, dtype=float), (k,))
    w = np.broadcast_to(np.asarray(w, dtype=float), (k,))
    for name, v in (("input u", u), ("disturbance w", w)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite {name}")
    n_blocks = max(1, -(-k // BLOCK))
    if n_blocks == 1:
        return _step_block(model, x, u, w, h, config, 0)
    edges = [k * i // n_blocks for i in range(n_blocks + 1)]
    # results are gathered in block order, so the lowest failing block
    # raises first whatever the schedule
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return np.concatenate(map_blocks(_step_block, [
        (model, x[:, a:b], u[a:b], w[a:b], h, config, a)
        for a, b in zip(edges, edges[1:])], cores), axis=1)


def _step_block(model: PlantModel, x: np.ndarray, u: np.ndarray, w: np.ndarray,
                h: float, config: IntegratorConfig, start: int) -> np.ndarray:
    """One LSODA call over ``x``, one state or a (6, k) block whose first
    column is column ``start`` of the caller's; a :class:`DivergenceError`
    from k > 1 columns names the lowest diverging column in the caller's
    numbering."""
    from scipy.integrate import odeint

    n = N_STATES
    k = len(u)
    jac = model.jac()
    tgrid = np.linspace(0.0, h, 5)
    if k == 1:
        # dense Jacobian: on one column LSODA needs several times fewer
        # steps with it than with the band form
        f = model.rhs(u[0], w[0])
        band = {}

        def fun(y, _t):
            return f(y)

        def dfun(y, _t):
            return jac(y)
    else:
        # column-major state: column i holds entries n*i .. n*i + n - 1, so
        # the Jacobian is block diagonal and goes over in band form
        f = model.rhs(u, w)
        band = {"ml": n - 1, "mu": n - 1}

        def fun(y, _t):
            return f(y.reshape(k, n).T).T.ravel()

        def dfun(y, _t):
            return band_pack(jac(y.reshape(k, n).T))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, info = odeint(fun, x.reshape(n, k).T.ravel(), tgrid, Dfun=dfun,
                           rtol=config.rtol, atol=config.atol, mxstep=200_000,
                           full_output=True, **band)
    if info["message"] != "Integration successful.":
        raise IntegrationError(f"lsoda failed: {info['message']}")
    lo, hi = STATE_BOUNDS
    grid = sol[1:].reshape(-1, k, n)
    bad = ~((grid >= lo) & (grid <= hi)).all(axis=2)
    if bad.any():
        col = int(np.flatnonzero(bad.any(axis=0))[0])
        row = int(np.flatnonzero(bad[:, col])[0])
        y = grid[row, col].tolist()
        msg = f"state diverged at t={tgrid[row + 1]:.6g}: {y} outside [{lo}, {hi}]"
        if k == 1:
            raise DivergenceError(msg, state=np.array(y))
        raise DivergenceError(f"column {start + col}: {msg}", state=np.array(y),
                              column=start + col)
    out = sol[-1]
    if not np.all(np.isfinite(out)):
        raise IntegrationError("lsoda produced non-finite state")
    return out.reshape(k, n).T.reshape(x.shape).copy()


def map_blocks(fn: Callable, calls: list[tuple], procs: int) -> list:
    """``[fn(*args) for args in calls]``, spread over ``procs`` processes.

    With p = min(procs, len(calls)), p - 1 forked worker processes take the
    calls whose index is not a multiple of p while this process makes the
    others; with p < 2, or where ``fork`` does not exist, all calls run
    here in order.  The workers are gone when this returns; a worker that
    dies raises ``BrokenProcessPool``.
    """
    procs = min(len(calls), procs)
    if procs < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*args) for args in calls]
    with ProcessPoolExecutor(procs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(fn, *args) if i % procs else None
                   for i, args in enumerate(calls)]
        return [fn(*args) if fut is None else fut.result()
                for args, fut in zip(calls, futures)]


def band_pack(blocks: np.ndarray) -> np.ndarray:
    """Band storage of the block-diagonal matrix of an (n, n, K) block stack.

    Block k covers rows and columns ``n*k .. n*k + n - 1``, so the matrix
    has ``ml = mu = n - 1`` off-diagonals.  Entry (i, j) of the full matrix
    lands at ``band[i - j + mu, j]``, the layout ``odeint`` documents for a
    banded ``Dfun``.
    """
    n, _, k = blocks.shape
    band = np.zeros((2 * n - 1, k, n))
    rows, cols = np.indices((n, n)).reshape(2, -1)
    band[rows - cols + n - 1, :, cols] = blocks.reshape(n * n, k)
    return band.reshape(2 * n - 1, n * k)


def simulate(
    model: PlantModel,
    x0: Sequence[float] | np.ndarray,
    u_seq: Sequence,
    w_seq: Sequence,
    h: float,
) -> np.ndarray:
    """Repeated ZOH stepping; returns ``n+1`` states with row 0 equal to x0.

    ``x0`` may be a (6, K) block of column states; then each input and
    disturbance sample is a scalar or a per-column vector, every step is
    one block :func:`step`, and the result has shape (n+1, 6, K).
    """
    u_seq = list(u_seq)
    w_seq = list(w_seq)
    if len(u_seq) != len(w_seq):
        raise ValueError("input and disturbance sequences must have equal length")
    if not u_seq:
        raise ValueError("need at least one input sample")
    x0 = np.asarray(x0, dtype=float)
    out = np.empty((len(u_seq) + 1,) + x0.shape)
    out[0] = x0
    for k, (u, w) in enumerate(zip(u_seq, w_seq)):
        try:
            out[k + 1] = step(model, out[k], u, w, h)
        except DivergenceError as exc:
            raise DivergenceError(f"divergence at step {k}: {exc}", step_index=k,
                                  state=exc.state, column=exc.column) from exc
    return out

