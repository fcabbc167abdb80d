"""Fixed-input ODE propagation of a block of states over one hold interval.

``propagate`` advances K independent columns of one system, each under its
own held input and disturbance, with scipy's LSODA and the analytic
Jacobian.  LSODA switches between Adams (non-stiff) and BDF (stiff) methods
on its own, so one engine serves both the stiff nominal coefficient set and
the milder demo set.  The K columns are integrated jointly in one call: the
state is ordered column by column, so the Jacobian is block diagonal and is
handed over in band form (``ml = mu = n - 1``) when K > 1.  A single column
keeps the dense Jacobian, on which LSODA needs several times fewer steps.
Columns of one call share step sizes, so a column's result depends (within
the tolerance) on the batch it was integrated in.

Propagation is deterministic: identical inputs and settings produce
bit-identical results on a given platform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

Rhs = Callable[[np.ndarray], np.ndarray]
RhsFactory = Callable[[object, object], Rhs]
Jac = Callable[[np.ndarray], np.ndarray]


class IntegrationError(RuntimeError):
    """Propagation failed (step-size underflow, iteration budget, ...)."""


class StateDivergence(IntegrationError):
    """A state component left the declared bounds during propagation.

    ``column`` is the index of the offending column in a block of K > 1
    columns (the lowest one if several left the bounds), else ``None``.
    """

    def __init__(self, message: str, t: float, state: np.ndarray,
                 column: int | None = None):
        super().__init__(message)
        self.t = t
        self.state = np.asarray(state, dtype=float)
        self.column = column


@dataclass(frozen=True)
class IntegratorConfig:
    """LSODA's absolute and relative error tolerances for :func:`propagate`."""

    atol: float = 1e-10
    rtol: float = 1e-10


def propagate(
    rhs: RhsFactory,
    jac: Jac,
    x0: np.ndarray,
    u,
    w,
    horizon: float,
    config: IntegratorConfig = IntegratorConfig(),
    state_bounds: tuple[float, float] | None = None,
) -> np.ndarray:
    """Advance every column of ``x0`` over ``[0, horizon]`` under held inputs.

    ``x0`` is one state of shape (n,) or a block of K column states of shape
    (n, K); ``u`` and ``w`` are scalars or per-column vectors of length K.
    ``rhs(u, w)`` returns the right-hand side closure for held inputs: it
    maps one state to the array of its n derivatives when ``u`` and ``w``
    are scalars, and an (n, K) block to the (n, K) array of its derivatives
    when they are vectors.  ``jac`` maps one state to its (n, n) Jacobian
    and a block to an (n, n, K) stack.  The caller guarantees a positive
    ``horizon`` and a finite ``x0``.  ``state_bounds`` enables divergence
    flagging: a state outside ``[lo, hi]`` at one of LSODA's output grid
    points (the quarters of the interval) raises :class:`StateDivergence`
    rather than clamping; an excursion between grid points goes unseen.
    The result has the shape of ``x0``.
    """
    from scipy.integrate import odeint

    x0 = np.asarray(x0, dtype=float)
    block = x0.reshape(x0.shape[0], -1)
    n, k = block.shape
    u = np.broadcast_to(np.asarray(u, dtype=float), (k,))
    w = np.broadcast_to(np.asarray(w, dtype=float), (k,))
    tgrid = np.linspace(0.0, horizon, 5)
    if k == 1:
        # dense Jacobian: on one column LSODA needs far fewer steps with it
        f = rhs(u[0], w[0])
        band = {}

        def fun(y, _t):
            return f(y)

        def dfun(y, _t):
            return jac(y)
    else:
        # column-major state: column i holds entries n*i .. n*i + n - 1
        f = rhs(u, w)
        band = {"ml": n - 1, "mu": n - 1}

        def fun(y, _t):
            return f(y.reshape(k, n).T).T.ravel()

        def dfun(y, _t):
            return band_pack(jac(y.reshape(k, n).T))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol, info = odeint(
            fun,
            block.T.ravel(),
            tgrid,
            Dfun=dfun,
            rtol=config.rtol,
            atol=config.atol,
            mxstep=200_000,
            full_output=True,
            **band,
        )
    if info["message"] != "Integration successful.":
        raise IntegrationError(f"lsoda failed: {info['message']}")
    _check_grid(sol[1:].reshape(-1, k, n), tgrid[1:], state_bounds)
    out = sol[-1]
    if not np.all(np.isfinite(out)):
        raise IntegrationError("lsoda produced non-finite state")
    return out.reshape(k, n).T.reshape(x0.shape).copy()


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


def _check_grid(states: np.ndarray, times: np.ndarray,
                bounds: tuple[float, float] | None) -> None:
    """Bounds check of (T, K, n) column states at the T grid ``times``.

    Reports the lowest offending column at its first offending time.
    """
    if bounds is None:
        return
    lo, hi = bounds
    bad = ~((states >= lo) & (states <= hi)).all(axis=2)
    if not bad.any():
        return
    col = int(np.flatnonzero(bad.any(axis=0))[0])
    row = int(np.flatnonzero(bad[:, col])[0])
    y = states[row, col].tolist()
    raise StateDivergence(
        f"state diverged at t={times[row]:.6g}: {y} outside [{lo}, {hi}]",
        float(times[row]), np.array(y), col if states.shape[1] > 1 else None)
