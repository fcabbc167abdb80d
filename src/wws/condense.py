"""Condensed finite-horizon program construction.

The lifted dynamics  z_{i+1} = A z_i + b_u u_i + b_d w_i + c  are equality
constraints, so the horizon states are eliminated exactly by forward
substitution:  z_i = G_i u + g_i  with u the stacked input vector.  This
drops the decision dimension from (N+1) lifted states plus inputs down to
the inputs alone; predicted outputs become affine rows over u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .milp import LinExpr, ProblemBuilder
from .predictor import LinearPredictor


@dataclass(frozen=True)
class CondensedHorizon:
    """Affine maps z_i = G[i] @ u + g[i] and the output rows they induce."""

    G: np.ndarray        # (Np+1, N, Np)
    g: np.ndarray        # (Np+1, N)
    y_coef: np.ndarray   # (Np+1, Np)   output row of C applied to G
    y_const: np.ndarray  # (Np+1,)
    horizon: int

    def y_expr(self, i: int, u_names: Sequence[str]) -> LinExpr:
        """Predicted output at horizon offset ``i`` as an expression over u."""
        return LinExpr.combination(u_names, self.y_coef[i], float(self.y_const[i]))

    def rollout(self, u: np.ndarray) -> np.ndarray:
        """Lifted trajectory for a concrete input vector (Np+1, N)."""
        return np.einsum("inp,p->in", self.G, u) + self.g


def condense(pred: LinearPredictor, z0: np.ndarray, horizon: int,
             w_seq: Sequence[float], output_index: int = 5) -> CondensedHorizon:
    """Unroll the predictor over ``horizon`` steps from lifted state ``z0``."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    w_seq = list(w_seq)
    if len(w_seq) != horizon:
        raise ValueError(f"need {horizon} disturbance samples, got {len(w_seq)}")
    n = pred.n
    A = pred.A
    c = pred.affine_const()
    G = np.zeros((horizon + 1, n, horizon))
    g = np.zeros((horizon + 1, n))
    g[0] = np.asarray(z0, dtype=float)
    for i in range(horizon):
        G[i + 1] = A @ G[i]
        G[i + 1][:, i] += pred.b_u
        g[i + 1] = A @ g[i] + pred.b_d * w_seq[i] + c
    out_row = pred.C[output_index - 1]
    y_coef = np.einsum("j,ijp->ip", out_row, G)
    y_const = g @ out_row
    return CondensedHorizon(G=G, g=g, y_coef=y_coef, y_const=y_const, horizon=horizon)


def add_horizon_objective(builder: ProblemBuilder, cond: CondensedHorizon,
                          u_names: Sequence[str], q_weight: float,
                          r_weight: float, reference: float) -> None:
    """Tracking cost sum_i { Q (y_{i+1} - ref)^2 + R u_i^2 } over the horizon."""
    for i in range(cond.horizon):
        builder.add_squared_cost(cond.y_expr(i + 1, u_names), q_weight,
                                 target=reference)
        builder.add_squared_cost(LinExpr.variable(u_names[i]), r_weight)
