"""Linear predictors for the nonlinear plant.

Two routes produce the same predictor interface:

* lifted least-squares regression on snapshot pairs (monomial observables,
  pseudo-inverse estimation of the lifted transition), and
* local linearization at an equilibrium with exact ZOH discretization,
  exposed in absolute coordinates by folding the operating point into an
  affine constant.

Both yield a discrete-time map  z+ = A z + b_u u + b_d w + c,  x_hat = z[:6]
with z the lifted state, whose first six observables are the state itself
(so no output map is fitted), and c zero for the regression route.  Each
predictor records the constant ambient w it was built for: the one its data
held, or the one it was linearized at.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from . import plant as plant_mod
from .plant import PlantModel

# ---------------------------------------------------------------------------
# Observables and the predictor
# ---------------------------------------------------------------------------


def lift(x: Sequence[float] | np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` of the plant's :data:`~wws.plant.MONOMIALS` at a state
    (6,) or a batch (6, K), by the plant's own products; the first six are
    the state itself, and the plant's right-hand side is linear in all 16."""
    x = np.asarray(x, dtype=float)
    return np.array(plant_mod.monomials(*(x.tolist() if x.ndim == 1 else x))[:n])


#: Observable count of a regression fit: all of the plant's monomials.
DEFAULT_OBSERVABLES = plant_mod.N_MONOMIALS


@dataclass(frozen=True)
class LinearPredictor:
    """Discrete-time lifted linear model  z+ = A z + b_u u + b_d w + c,  x = z[:6].

    z holds the first n = len(b_u) of the plant's monomials, 6 <= n <= 16,
    so its first six entries are the state.  c is zero for a regression fit;
    a local linearization folds its operating point into c, so both routes
    share one interface.  ``w`` is the constant ambient the
    predictor was built for (a regression fit's data hold it, so there b_d
    acts only as a constant term); the loop predicts and runs at it.
    """

    A: np.ndarray
    b_u: np.ndarray
    b_d: np.ndarray
    c: np.ndarray
    h: float
    w: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = self.n if self.b_u.ndim == 1 else 0
        if not plant_mod.N_STATES <= n <= plant_mod.N_MONOMIALS:
            raise ValueError(f"a predictor has {plant_mod.N_STATES}..{plant_mod.N_MONOMIALS} "
                             f"observables, got b_u of shape {self.b_u.shape}")
        if self.A.shape != (n, n) or self.b_d.shape != (n,) or self.c.shape != (n,):
            raise ValueError("inconsistent predictor dimensions")
        if self.h <= 0:
            raise ValueError("sampling period must be positive")
        if not np.isfinite(self.w):
            raise ValueError(f"ambient w must be finite, got {self.w}")
        for arr in (self.A, self.b_u, self.b_d, self.c):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite predictor entry")

    @property
    def n(self) -> int:
        return len(self.b_u)

    def predict(self, x0: Sequence[float], u_seq: Sequence[float],
                w_seq: Sequence[float]) -> np.ndarray:
        """Open-loop rollout; returns n+1 predicted states (row 0 is ``x0``)."""
        u_seq = list(u_seq)
        w_seq = list(w_seq)
        if len(u_seq) != len(w_seq):
            raise ValueError("input and disturbance sequences must have equal length")
        z = lift(x0, self.n)
        out = np.empty((len(u_seq) + 1, plant_mod.N_STATES))
        out[0] = z[:plant_mod.N_STATES]
        for k, (u, w) in enumerate(zip(u_seq, w_seq)):
            z = self.A @ z + self.b_u * u + self.b_d * w + self.c
            out[k + 1] = z[:plant_mod.N_STATES]
        return out

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "h": self.h,
            "w": self.w,
            "A": self.A.tolist(),
            "bu": self.b_u.tolist(),
            "bd": self.b_d.tolist(),
            "c": self.c.tolist(),
            "observables": [list(e) for e in plant_mod.MONOMIALS[:self.n]],
            "meta": self.meta,
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearPredictor":
        if "c" not in doc:
            raise ValueError("predictor file has no affine constant 'c' (it predates "
                             "the stored constant); refit it with 'wws fit'")
        if "w" not in doc:
            raise ValueError("predictor file has no ambient 'w' (it predates the "
                             "stored ambient); refit it with 'wws fit'")
        pred = cls(
            A=np.array(doc["A"], dtype=float),
            b_u=np.array(doc["bu"], dtype=float),
            b_d=np.array(doc["bd"], dtype=float),
            c=np.array(doc["c"], dtype=float),
            h=float(doc["h"]),
            w=float(doc["w"]),
            meta=dict(doc.get("meta", {})),
        )
        # older files carry a fitted read-out C, which must be the selection
        eye = np.eye(plant_mod.N_STATES, pred.n)
        C = np.array(doc.get("C", eye), dtype=float)
        if C.shape != eye.shape or not np.allclose(C, eye, rtol=0.0, atol=1e-9):
            raise ValueError("predictor file's read-out 'C' is not the selection "
                             f"of the first {plant_mod.N_STATES} observables")
        obs = tuple(tuple(int(v) for v in e) for e in doc["observables"])
        if obs != plant_mod.MONOMIALS[:pred.n]:
            raise ValueError(f"observables must be the {pred.n}-monomial prefix of the "
                             f"plant's monomials, got {[list(e) for e in obs]}")
        return pred

    @classmethod
    def from_json(cls, path: str | Path) -> "LinearPredictor":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Dataset synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    """Snapshot-pair synthesis settings.

    Initial states are uniform on ``state_range``, drawn independently per
    component; the input is zero with probability ``p_off`` and otherwise
    uniform on ``u_band``; the disturbance is the constant ``w0``.
    """

    K: int = 10_000
    state_range: tuple[float, float] = (10.0, 40.0)
    u_band: tuple[float, float] = (21.2, 26.5)
    p_off: float = 0.2
    w0: float = 10.0
    h: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.K < plant_mod.N_STATES + 2:
            raise ValueError("sample count too small")
        if not 0.0 <= self.p_off <= 1.0:
            raise ValueError("p_off must lie in [0, 1]")
        if self.h <= 0:
            raise ValueError("sampling period must be positive")
        for name in ("state_range", "u_band"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, Real) and np.isfinite(v) for v in pair)
                    and pair[0] <= pair[1]):
                raise ValueError(f"{name} must be two finite numbers lo <= hi, got {pair!r}")


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray   # 6 x K initial states
    U: np.ndarray   # K inputs
    W: np.ndarray   # K disturbances (constant w0)
    Xp: np.ndarray  # 6 x K one-step successors
    config: DatasetConfig


def generate_dataset(model: PlantModel, cfg: DatasetConfig) -> Dataset:
    """Draw initial conditions, hold inputs for one period, record successors.

    All K columns are propagated together in one block plant step; a
    diverging column raises :class:`DivergenceError` naming the lowest one.

    Draw order (state block, then off/on mask, then band values) is part of
    the determinism contract: equal seeds give bit-identical datasets.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.state_range
    X = rng.uniform(lo, hi, size=(plant_mod.N_STATES, cfg.K))
    off = rng.uniform(size=cfg.K) < cfg.p_off
    band = rng.uniform(cfg.u_band[0], cfg.u_band[1], size=cfg.K)
    U = np.where(off, 0.0, band)
    W = np.full(cfg.K, cfg.w0)
    Xp = plant_mod.step(model, X, U, W, cfg.h)
    return Dataset(X=X, U=U, W=W, Xp=Xp, config=cfg)


# ---------------------------------------------------------------------------
# Regression
# ---------------------------------------------------------------------------

RCOND = 1e-12  # relative singular-value cutoff of the pseudo-inverse fit


def fit_linear_maps(Z: np.ndarray, U: np.ndarray, W: np.ndarray,
                    Zp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Estimate (A, b_u, b_d) from lifted snapshot pairs.

    Solves  Zp ~= [A, b_u, b_d] @ [Z; U; W]  in the least-squares sense with
    the minimum-norm pseudo-inverse.  Rank deficiency is tolerated and
    reported in the diagnostics, not raised; it warns unless all it lacks is
    an all-zero disturbance row (data at a constant ambient of 0, where b_d
    is 0 and no more can be learned).
    """
    Z = np.asarray(Z, dtype=float)
    Zp = np.asarray(Zp, dtype=float)
    W = np.asarray(W, float)
    n, k = Z.shape
    if k < n + 2:
        raise ValueError(f"need at least {n + 2} snapshot pairs, got {k}")
    regressor = np.vstack([Z, np.asarray(U, float)[None, :], W[None, :]])
    # rows scaled to unit RMS (monomials span orders of magnitude) keep the SVD
    # well conditioned; folding the scale back leaves the solution unchanged
    scale = np.sqrt(np.mean(regressor ** 2, axis=1))
    scale[scale < 1e-300] = 1.0
    reg_s = regressor / scale[:, None]
    m = (Zp @ np.linalg.pinv(reg_s, rcond=RCOND)) / scale[None, :]
    sv = np.linalg.svd(reg_s, compute_uv=False)
    resid = Zp - m @ regressor
    diag = {
        "cond": float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf"),
        "rank": int(np.sum(sv > RCOND * sv[0])),
        "rows": int(regressor.shape[0]),
        "residual_max": float(np.max(np.abs(resid))),
        "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
    }
    if diag["rank"] < n + 1 + bool(W.any()):
        warnings.warn(f"rank-deficient regressor (rank {diag['rank']} of {n + 2})")
    return m[:, :n], m[:, n], m[:, n + 1], diag


def fit_edmd_from_dataset(n: int, data: Dataset) -> LinearPredictor:
    """Fit the lifted transition over the first ``n`` monomials from a
    snapshot dataset; the affine constant is zero.  The state is read out
    of the lift by selection, so there is no read-out map to fit; the
    report's read-out residual, max |lift(X)[:6] - X|, reads 0."""
    Z = lift(data.X, n)
    Zp = lift(data.Xp, n)
    A, b_u, b_d, dyn_diag = fit_linear_maps(Z, data.U, data.W, Zp)
    out_diag = {"residual_max": float(np.max(np.abs(Z[:plant_mod.N_STATES] - data.X)))}
    meta = {"seed": data.config.seed, "K": data.config.K,
            "state_range": list(data.config.state_range),
            "u_band": list(data.config.u_band), "p_off": data.config.p_off,
            "fit": {"dynamics": dyn_diag, "readout": out_diag,
                    "K": int(data.X.shape[1]), "rcond": RCOND}}
    return LinearPredictor(A=A, b_u=b_u, b_d=b_d, c=np.zeros(n),
                           h=float(data.config.h), w=float(data.config.w0), meta=meta)


# ---------------------------------------------------------------------------
# Equilibrium and local linearization
# ---------------------------------------------------------------------------

EQUILIBRIUM_TOL = 1e-10     # max-norm residual at which the Newton iteration stops
EQUILIBRIUM_MAX_ITER = 100  # Newton iterations before EquilibriumError


class EquilibriumError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EquilibriumPoint:
    x: np.ndarray
    u: float
    residual: float
    u_within_bounds: bool


def find_equilibrium(model: PlantModel, w: float, target_y: float,
                     x_guess: Sequence[float] | None = None,
                     u_guess: float = 13.0,
                     u_bounds: tuple[float, float] = (0.0, 26.5)) -> EquilibriumPoint:
    """Solve f(x, u, w) = 0 with the output pinned to ``target_y``.

    Damped Newton on the seven-equation system in (x, u).  Raises
    :class:`EquilibriumError` with the last residual when the iteration does
    not reach ``EQUILIBRIUM_TOL``; an input outside ``u_bounds`` only sets a
    flag, since the solved point is still a valid equilibrium of the dynamics.
    """
    out = model.output_index - 1
    jac = model.jac()
    b_u = model.input_direction()

    def residual(xv: np.ndarray, uv: float) -> np.ndarray:
        f = np.asarray(model.rhs(uv, w)(xv), dtype=float)
        return np.append(f, xv[out] - target_y)

    x = np.array(x_guess, dtype=float) if x_guess is not None \
        else np.full(plant_mod.N_STATES, float(target_y))
    u = float(u_guess)
    F = residual(x, u)
    for _ in range(EQUILIBRIUM_MAX_ITER):
        norm_inf = np.max(np.abs(F))
        if norm_inf <= EQUILIBRIUM_TOL:
            break
        J = np.zeros((7, 7))
        J[:6, :6] = jac(x)
        J[:6, 6] = b_u
        J[6, out] = 1.0
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError(f"singular Jacobian (residual {norm_inf:.3g})",
                                   norm_inf) from exc
        lam = 1.0
        n0 = np.linalg.norm(F)
        while True:
            xn = x + lam * delta[:6]
            un = u + lam * delta[6]
            Fn = residual(xn, un)
            if np.linalg.norm(Fn) <= (1.0 - 0.25 * lam) * n0 or lam < 1e-10:
                break
            lam *= 0.5
        if lam < 1e-10 and np.linalg.norm(Fn) >= n0:
            raise EquilibriumError(
                f"line search stalled (residual {norm_inf:.3g})", norm_inf)
        x, u, F = xn, un, Fn
    norm_inf = float(np.max(np.abs(F)))
    if norm_inf > EQUILIBRIUM_TOL:
        raise EquilibriumError(
            f"no convergence after {EQUILIBRIUM_MAX_ITER} iterations "
            f"(residual {norm_inf:.3g})", norm_inf)
    in_bounds = bool(u_bounds[0] <= u <= u_bounds[1])
    if not in_bounds:
        warnings.warn(f"equilibrium input {u:.4g} kW outside {u_bounds}")
    return EquilibriumPoint(x=x, u=float(u), residual=norm_inf,
                            u_within_bounds=in_bounds)


def zoh_discretize(A_c: np.ndarray, B_c: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented exponential."""
    A_c = np.atleast_2d(np.asarray(A_c, dtype=float))
    B_c = np.asarray(B_c, dtype=float)
    if B_c.ndim == 1:
        B_c = B_c[:, None]
    n, m = A_c.shape[0], B_c.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A_c * h
    aug[:n, n:] = B_c * h
    phi = expm(aug)
    if not np.all(np.isfinite(phi)):
        raise ValueError("matrix exponential did not converge")
    return phi[:n, :n], phi[:n, n:]


def linearize_local(model: PlantModel, x_star: Sequence[float], u_star: float,
                    w_star: float, h: float) -> LinearPredictor:
    """Local-linearization predictor at an equilibrium, absolute interface.

    The continuous-time Jacobians are evaluated analytically and discretized
    exactly under ZOH (n = 6, so z = x); the operating point folds
    into  c = x* - A x* - b_u u* - b_d w*; x* and u* are recorded in
    ``meta`` and w* is the predictor's ambient.
    """
    x_star = np.asarray(x_star, dtype=float)
    resid = float(np.max(np.abs(model.rhs(u_star, w_star)(x_star))))
    if resid > 1e-6:
        raise ValueError(f"(x*, u*) is not an equilibrium (|f| = {resid:.3g})")
    A_c = model.jac()(x_star)
    B = np.column_stack([model.input_direction(), model.disturbance_direction()])
    A_d, B_d = zoh_discretize(A_c, B, h)
    b_u, b_d = B_d[:, 0], B_d[:, 1]
    u_star, w_star = float(u_star), float(w_star)
    return LinearPredictor(
        A=A_d, b_u=b_u, b_d=b_d, c=x_star - A_d @ x_star - b_u * u_star - b_d * w_star,
        h=float(h), w=w_star,
        meta={"kind": "local-linearization", "residual": resid,
              "x_ref": x_star.tolist(), "u_ref": u_star},
    )
