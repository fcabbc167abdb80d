"""Linear predictors for the nonlinear plant.

Two routes produce the same predictor interface:

* lifted least-squares regression on snapshot pairs (monomial observables,
  pseudo-inverse estimation of the lifted transition and read-out maps), and
* local linearization at an equilibrium with exact ZOH discretization,
  exposed in absolute coordinates by folding the operating point into an
  affine constant.

Both yield a discrete-time map  z+ = A z + b_u u + b_d w + c,  x_hat = C z
with z the lifted state and c zero for the regression route.
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
# Observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservableSet:
    """The first ``n`` of the plant's :data:`~wws.plant.MONOMIALS`.

    Each descriptor is a 6-tuple of exponents.  The first six are the
    identity coordinates, so the raw state is always recoverable from the
    lifted vector by projection, and the plant's right-hand side is linear
    in all 16.
    """

    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.exponents or self.exponents != plant_mod.MONOMIALS[:self.n]:
            raise ValueError("observables must be a non-empty prefix of the plant's "
                             f"monomials, got {[list(e) for e in self.exponents]}")

    @property
    def n(self) -> int:
        return len(self.exponents)

    def lift(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the monomials at a state (6,) or at a batch (6, K) by the
        plant's own products."""
        x = np.asarray(x, dtype=float)
        return np.array(plant_mod._monomials(*(x.tolist() if x.ndim == 1 else x))[:self.n])

    def descriptors(self) -> list[list[int]]:
        return [list(e) for e in self.exponents]

    @classmethod
    def from_descriptors(cls, desc: Sequence[Sequence[int]]) -> "ObservableSet":
        return cls(tuple(tuple(int(v) for v in e) for e in desc))


#: All of the plant's monomials: the identity coordinates followed by every
#: nonlinear term of the plant polynomials (squares and cubics of the tank
#: layers plus the mixed products coupling adjacent layers).
DEFAULT_OBSERVABLES = ObservableSet(plant_mod.MONOMIALS)

IDENTITY_OBSERVABLES = ObservableSet(plant_mod.MONOMIALS[:plant_mod.N_STATES])


# ---------------------------------------------------------------------------
# Predictor container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearPredictor:
    """Discrete-time lifted linear model  z+ = A z + b_u u + b_d w + c.

    For a predictor built by local linearization, (x_ref, u_ref, w_ref)
    stores the operating point; the affine constant c folds the deviation
    form back into absolute coordinates so that both predictor routes share
    one interface.
    """

    A: np.ndarray
    b_u: np.ndarray
    b_d: np.ndarray
    C: np.ndarray
    h: float
    observables: ObservableSet
    x_ref: np.ndarray | None = None
    u_ref: float | None = None
    w_ref: float | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = self.observables.n
        ok = (self.A.shape == (n, n) and self.b_u.shape == (n,)
              and self.b_d.shape == (n,) and self.C.shape == (plant_mod.N_STATES, n))
        if not ok:
            raise ValueError("inconsistent predictor dimensions")
        if self.h <= 0:
            raise ValueError("sampling period must be positive")
        for arr in (self.A, self.b_u, self.b_d, self.C):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite predictor entry")

    @property
    def n(self) -> int:
        return self.observables.n

    def lift(self, x: Sequence[float]) -> np.ndarray:
        return self.observables.lift(np.asarray(x, dtype=float))

    def affine_const(self) -> np.ndarray:
        """Constant term of the lifted recursion (zero for regression fits)."""
        if self.x_ref is None:
            return np.zeros(self.n)
        z_ref = self.observables.lift(np.asarray(self.x_ref, dtype=float))
        return z_ref - self.A @ z_ref - self.b_u * self.u_ref - self.b_d * self.w_ref

    def predict(self, x0: Sequence[float], u_seq: Sequence[float],
                w_seq: Sequence[float]) -> np.ndarray:
        """Open-loop rollout; returns n+1 predicted states (row 0 = C z0)."""
        u_seq = list(u_seq)
        w_seq = list(w_seq)
        if len(u_seq) != len(w_seq):
            raise ValueError("input and disturbance sequences must have equal length")
        z = self.lift(x0)
        c = self.affine_const()
        out = np.empty((len(u_seq) + 1, plant_mod.N_STATES))
        out[0] = self.C @ z
        for k, (u, w) in enumerate(zip(u_seq, w_seq)):
            z = self.A @ z + self.b_u * u + self.b_d * w + c
            out[k + 1] = self.C @ z
        return out

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "N": self.n,
            "h": self.h,
            "A": self.A.tolist(),
            "bu": self.b_u.tolist(),
            "bd": self.b_d.tolist(),
            "C": self.C.tolist(),
            "observables": self.observables.descriptors(),
            "meta": self.meta,
        }
        if self.x_ref is not None:
            doc["offset"] = {
                "x_ref": np.asarray(self.x_ref, dtype=float).tolist(),
                "u_ref": float(self.u_ref),
                "w_ref": float(self.w_ref),
            }
        return doc

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearPredictor":
        off = doc.get("offset")
        return cls(
            A=np.array(doc["A"], dtype=float),
            b_u=np.array(doc["bu"], dtype=float),
            b_d=np.array(doc["bd"], dtype=float),
            C=np.array(doc["C"], dtype=float),
            h=float(doc["h"]),
            observables=ObservableSet.from_descriptors(doc["observables"]),
            x_ref=None if off is None else np.array(off["x_ref"], dtype=float),
            u_ref=None if off is None else float(off["u_ref"]),
            w_ref=None if off is None else float(off["w_ref"]),
            meta=dict(doc.get("meta", {})),
        )

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

RCOND = 1e-12  # relative singular-value cutoff of every pseudo-inverse fit


def _equilibrated_pinv_fit(target: np.ndarray,
                           regressor: np.ndarray) -> tuple[np.ndarray, dict]:
    """Least-squares fit  target ~= M @ regressor  via an SVD pseudo-inverse.

    Regressor rows are scaled to unit RMS before inversion (monomial rows
    span several orders of magnitude) and the scaling is folded back into M,
    which leaves the solution of the unscaled problem unchanged while
    keeping the SVD well conditioned.
    """
    scale = np.sqrt(np.mean(regressor ** 2, axis=1))
    scale[scale < 1e-300] = 1.0
    reg_s = regressor / scale[:, None]
    m_scaled = target @ np.linalg.pinv(reg_s, rcond=RCOND)
    m = m_scaled / scale[None, :]
    sv = np.linalg.svd(reg_s, compute_uv=False)
    resid = target - m @ regressor
    diag = {
        "cond": float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf"),
        "rank": int(np.sum(sv > RCOND * sv[0])),
        "rows": int(regressor.shape[0]),
        "residual_max": float(np.max(np.abs(resid))),
        "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
    }
    return m, diag


def fit_linear_maps(Z: np.ndarray, U: np.ndarray, W: np.ndarray,
                    Zp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Estimate (A, b_u, b_d) from lifted snapshot pairs.

    Solves  Zp ~= [A, b_u, b_d] @ [Z; U; W]  in the least-squares sense with
    the minimum-norm pseudo-inverse.  Rank deficiency is tolerated and
    reported in the diagnostics, not raised.
    """
    Z = np.asarray(Z, dtype=float)
    Zp = np.asarray(Zp, dtype=float)
    n, k = Z.shape
    if k < n + 2:
        raise ValueError(f"need at least {n + 2} snapshot pairs, got {k}")
    regressor = np.vstack([Z, np.asarray(U, float)[None, :], np.asarray(W, float)[None, :]])
    m, diag = _equilibrated_pinv_fit(Zp, regressor)
    if diag["rank"] < n + 2:
        warnings.warn(f"rank-deficient regressor (rank {diag['rank']} of {n + 2})")
    return m[:, :n], m[:, n], m[:, n + 1], diag


def fit_edmd_from_dataset(obs: ObservableSet, data: Dataset) -> LinearPredictor:
    """Fit the lifted transition and read-out maps from a snapshot dataset."""
    Z = obs.lift(data.X)
    Zp = obs.lift(data.Xp)
    A, b_u, b_d, dyn_diag = fit_linear_maps(Z, data.U, data.W, Zp)
    C, out_diag = _equilibrated_pinv_fit(data.X, Z)
    meta = {"seed": data.config.seed, "K": data.config.K,
            "state_range": list(data.config.state_range),
            "u_band": list(data.config.u_band), "p_off": data.config.p_off,
            "w0": data.config.w0,
            "fit": {"dynamics": dyn_diag, "readout": out_diag,
                    "K": int(data.X.shape[1]), "rcond": RCOND}}
    return LinearPredictor(A=A, b_u=b_u, b_d=b_d, C=C, h=float(data.config.h),
                           observables=obs, meta=meta)


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

    The continuous-time Jacobians are evaluated analytically, discretized
    exactly under ZOH, and the operating point is stored so the deviation
    form is hidden behind the shared predictor interface (N = 6, identity
    observables, C = I).
    """
    x_star = np.asarray(x_star, dtype=float)
    resid = float(np.max(np.abs(model.rhs(u_star, w_star)(x_star))))
    if resid > 1e-6:
        raise ValueError(f"(x*, u*) is not an equilibrium (|f| = {resid:.3g})")
    A_c = model.jac()(x_star)
    B = np.column_stack([model.input_direction(), model.disturbance_direction()])
    A_d, B_d = zoh_discretize(A_c, B, h)
    return LinearPredictor(
        A=A_d, b_u=B_d[:, 0], b_d=B_d[:, 1], C=np.eye(plant_mod.N_STATES),
        h=float(h), observables=IDENTITY_OBSERVABLES,
        x_ref=x_star, u_ref=float(u_star), w_ref=float(w_star),
        meta={"kind": "local-linearization", "residual": resid},
    )
