"""Condensed finite-horizon program construction.

The lifted dynamics  z_{i+1} = A z_i + b_u u_i + b_d w_i + c  are equality
constraints, so the horizon states are eliminated exactly by forward
substitution: the predicted outputs are  y = Y u + y0,  with u the stacked
input vector, Y the input-to-output map and y0 the free response of the
measured state.  This drops the decision dimension from (N+1) lifted states
plus inputs down to the inputs alone.

Y, the input Hessian of the tracking cost and the free response's affine
map  y0 = Phi lift(x) + psi  depend only on the predictor and the
controller's horizon, weights and output (Korda & Mezic 2018), so
``condense`` computes them once per closed loop, and a sweep once per
deadline column; each step computes only y0 and the cost's linear term,
the parametric-QP split of qpOASES (Ferreau et al. 2014).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg import toeplitz

from .predictor import LinearPredictor, lift

if TYPE_CHECKING:
    from .mpc import ControllerConfig

#: The controller settings ``condense`` reads; a horizon serves any
#: configuration that agrees with its own on all of them.
CONDENSED_SETTINGS = ("horizon", "h", "q_weight", "r_weight", "reference", "output_index")


@dataclass(frozen=True)
class CondensedHorizon:
    """What every step of one closed loop shares.

    Predicted outputs at horizon offsets 1..Np are ``Y @ u + y0``, where
    ``free_response`` gives y0 = Phi lift(x) + psi for a measured state x.
    The tracking cost  sum_i q (y_i - ref)^2 + r u_i^2  is
    0.5 u'Hu + f'u + const  with the fixed  H = 2 (q Y'Y + r I);
    ``linear_cost`` gives f and const.  ``cfg`` is the configuration it was
    condensed for.
    """

    pred: LinearPredictor
    cfg: "ControllerConfig"
    Y: np.ndarray          # (Np, Np)   output rows of offsets 1..Np over u
    H: np.ndarray          # (Np, Np)
    Phi: np.ndarray        # (Np, N)    row i: e A^(i+1)
    psi: np.ndarray        # (Np,)      output response to b_d w + c alone

    @property
    def horizon(self) -> int:
        return len(self.Y)

    def check(self, cfg: "ControllerConfig") -> None:
        """Refuse a configuration this horizon was not condensed for."""
        if cfg is not self.cfg and any(getattr(cfg, name) != getattr(self.cfg, name)
                                       for name in CONDENSED_SETTINGS):
            raise ValueError("horizon condensed for another controller configuration")

    def free_response(self, x: Sequence[float]) -> np.ndarray:
        """Outputs at offsets 1..Np from the measured state ``x`` with u = 0."""
        return self.Phi @ lift(x, self.pred.n) + self.psi

    def linear_cost(self, y0: np.ndarray) -> tuple[np.ndarray, float]:
        """Linear term f = 2q Y'(y0 - ref) and constant q |y0 - ref|^2."""
        q = self.cfg.q_weight
        e = y0 - self.cfg.reference
        return 2.0 * q * (self.Y.T @ e), q * float(e @ e)


def condense(pred: LinearPredictor, cfg: "ControllerConfig") -> CondensedHorizon:
    """Unroll the predictor over the controller's horizon, once per run.

    The output is selected from the lift, so the powers  r_i = e A^i  of its
    unit row e give Y (the lower-triangular Toeplitz matrix of the Markov
    parameters r_i b_u), Phi[i] = r_{i+1} and psi[i] = sum_{k<=i} r_k d,
    d = b_d w + c.  The predictor's sampling period must be the controller's.
    The Hessian is checked symmetric and positive semidefinite here, once per
    run: every step problem reuses it and checks neither.
    """
    if pred.h != cfg.h:
        raise ValueError(f"predictor sampled at h={pred.h:g} s, "
                         f"controller at h={cfg.h:g} s")
    np_h = cfg.horizon
    rows = np.zeros((np_h + 1, pred.n))   # row i: r_i = e A^i
    rows[0, cfg.output_index - 1] = 1.0
    for i in range(np_h):
        rows[i + 1] = rows[i] @ pred.A
    Y = toeplitz(rows[:-1] @ pred.b_u, np.zeros(np_h))
    H = 2.0 * (cfg.q_weight * (Y.T @ Y) + cfg.r_weight * np.eye(np_h))
    if not np.allclose(H, H.T, atol=1e-12):
        raise ValueError("objective quadratic term is not symmetric")
    w = np.linalg.eigvalsh(H)
    if w.min() < -1e-8 * (1.0 + float(np.max(np.abs(H)))):
        raise ValueError(f"objective quadratic term not PSD (min eig {w.min():.3g})")
    psi = np.cumsum(rows[:-1] @ (pred.b_d * pred.w + pred.c))
    return CondensedHorizon(pred=pred, cfg=cfg, Y=Y, H=H, Phi=rows[1:], psi=psi)
