"""Convex quadratic programming via a primal-dual interior-point method.

Solves   minimize 0.5 x'Hx + f'x   subject to   A x <= b,  lb <= x <= ub
with H symmetric PSD and every variable finitely boxed.
The boxes are native to the interior-point method: each bound carries its
own slack and multiplier, updated with vector operations, and adds only a
diagonal to the reduced normal matrix H + A'DA.  That diagonal is positive,
so the matrix stays positive definite even for singular H (satisfaction
literals and relaxed binaries with zero quadratic cost need no extra
regularization) and one Cholesky factorization serves both Newton solves of
an iteration.

One Mehrotra predictor-corrector solve decides every problem.  Each
iterate's multipliers on the rows give a weak-duality lower bound on the
violation t* of the elastic LP (minimize the single violation variable t);
a positive bound certifies infeasibility and ends the solve early.  The stop
test includes the direct violation of the rows and bounds, so a converged
point passes the direct feasibility check that accepts it as optimal.  A
solve that neither converges to a checked point nor finds a certificate is
a solver fault and raises ``QpSolverError``; it never becomes a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs

TOL = 1e-9          # stop measure of the interior point and feasibility check
MAX_ITER = 80       # interior-point iterations per regularization


class QpSolverError(RuntimeError):
    pass


class _Infeasible(Exception):
    """Raised by ``_ipm`` when its multipliers prove the rows inconsistent."""

    def __init__(self, bound: float, iterations: int):
        super().__init__(f"infeasible: certified violation {bound:.3g}")
        self.bound = bound
        self.iterations = iterations


@dataclass(frozen=True)
class QpResult:
    status: str                 # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    iterations: int
    kkt_residual: float
    # when infeasible: certified lower bound on the elastic violation t*
    phase1_violation: float = 0.0


def _elastic_dual_bound(A, b, lb, ub):
    """Weak-duality lower bound on the elastic violation t* of the rows.

    t* = min t  s.t.  Ax - t <= b,  lb <= x <= ub.  For any lam >= 0, with
    c = A'lam, minimizing the Lagrangian over the box and scaling away the
    coefficient of t gives
    t* >= (sum_j min(c_j lb_j, c_j ub_j) - lam'b) / sum lam.
    The numerator is lowered by a bound on its rounding error, so a positive
    value proves infeasibility in exact arithmetic as well.  Returns the bound
    as a function of (lam, c); the lam-independent parts of the rounding
    bound are computed here, once per solve.
    """
    size = np.abs(A) @ np.maximum(np.abs(lb), np.abs(ub)) + np.abs(b)
    rounding = (len(b) + len(lb) + 3) * np.finfo(float).eps

    def bound(lam, c) -> float:
        weight = float(lam.sum())
        if not weight > 0.0:
            return -np.inf
        value = np.minimum(c * lb, c * ub).sum() - lam @ b
        return float((value - rounding * (lam @ size)) / weight)

    return bound


def _step_to_boundary(v, dv) -> float:
    """Largest step in (0, 1] that keeps v + alpha dv nonnegative (v > 0)."""
    with np.errstate(over="ignore"):
        lo = float((dv / v).min())
    return 1.0 if lo >= -1.0 else -1.0 / lo


def _ipm(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
         lb: np.ndarray, ub: np.ndarray, x0: np.ndarray, reg: float
         ) -> tuple[np.ndarray, int, float]:
    """Mehrotra predictor-corrector on  min 0.5x'Hx+f'x  s.t.  Ax <= b,
    lb <= x <= ub.

    The m rows and the 2n bounds each carry a slack s and a multiplier lam,
    kept in one vector ordered (rows, upper bounds, lower bounds).  Each
    Newton step factors the reduced normal matrix
    K = H + A'D_A A + diag(lam_u/s_u + lam_l/s_l) + reg I, with
    D_A = diag(lam_A / s_A), once by Cholesky; the predictor and corrector
    share the factor.  The bounds make the diagonal positive, so K is
    positive definite; a failed factorization raises ``QpSolverError``.

    The stop measure is the largest of the scaled dual residual, primal
    residual and complementarity, and of the unscaled direct violation
    max(0, max(Ax - b), max(lb - x), max(x - ub)), so a point returned at
    ``TOL`` violates no row or bound by more than ``TOL``.  Returns
    (x, iterations, kkt).  Every iterate that has not converged is tested
    for a certificate of infeasibility of the rows within the bounds
    (``_elastic_dual_bound``), and ``_Infeasible`` is raised as soon as one
    proves a positive violation.
    """
    n = len(f)
    m = len(b)
    M = m + 2 * n
    upper = slice(m, m + n)
    lower = slice(m + n, M)
    b_full = np.concatenate([b, ub, -lb])

    def lift(dx):  # [A; I; -I] dx
        return np.concatenate([A @ dx, dx, -dx])

    x = x0.astype(float).copy()
    v = np.ones(2 * M)          # (s, lam)
    s, lam = v[:M], v[M:]
    np.maximum(b_full - lift(x), 1.0, out=s)
    dv = np.empty(2 * M)        # (ds, dlam)
    ds, dlam = dv[:M], dv[M:]
    diag = np.diag_indices(n)
    bound = _elastic_dual_bound(A, b, lb, ub)

    scale_b = 1.0 + float(np.max(np.abs(b_full)))
    scale_f = 1.0 + float(np.max(np.abs(f))) + (float(np.max(np.abs(H))) if H.size else 0.0)

    best_kkt = np.inf
    for it in range(1, MAX_ITER + 1):
        c = A.T @ lam[:m]
        r_dual = H @ x + f + c + lam[upper] - lam[lower]
        residual = lift(x) - b_full
        r_pri = residual + s
        mu = float(s @ lam / M)

        kkt = max(
            float(np.abs(r_dual).max()) / scale_f,
            float(np.abs(r_pri).max()) / scale_b,
            mu / scale_f,
            float(residual.max()),
        )
        if not np.isfinite(kkt):
            raise QpSolverError("non-finite iterate")
        best_kkt = min(best_kkt, kkt)
        if kkt <= TOL:
            return x, it, kkt
        certified = bound(lam[:m], c)
        if certified > 1e-9:
            raise _Infeasible(certified, it)

        d = lam / s
        # upper triangle of K by a rank-m update of H; the update and the
        # factorization both run in scipy's BLAS, whose thread pool would
        # otherwise alternate with numpy's on every iteration
        K = np.array(H, order="F")
        if m:
            K = dsyrk(1.0, A.T * np.sqrt(d[:m]), beta=1.0, c=K, overwrite_c=1)
        K[diag] += d[upper] + d[lower] + reg
        factor, info = dpotrf(K, clean=0, overwrite_a=1)
        if info != 0:
            raise QpSolverError("singular KKT system")

        def newton(w):
            """Step for the reduced system; w is the slack-scaled target."""
            g = -(r_dual + A.T @ w[:m] + w[upper] - w[lower])
            dx, _ = dpotrs(factor, g)
            if not np.isfinite(dx).all():
                raise QpSolverError("non-finite Newton step")
            np.subtract(-r_pri, lift(dx), out=ds)
            return dx

        # affine predictor
        target = d * r_pri - lam
        newton(target)
        np.subtract(-lam, d * ds, out=dlam)
        alpha_aff = _step_to_boundary(v, dv)
        trial = v + alpha_aff * dv
        mu_aff = float(trial[:M] @ trial[M:] / M)
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector with centering
        comp = (ds * dlam - sigma * mu) / s
        dx = newton(target - comp)
        np.subtract(-lam, d * ds + comp, out=dlam)

        frac = 0.995 if mu > 1e-8 * scale_f else 0.9999
        alpha = frac * _step_to_boundary(v, dv)
        x += alpha * dx
        v += alpha * dv
        np.maximum(v, 1e-300, out=v)

    raise QpSolverError(f"no convergence in {MAX_ITER} iterations (kkt {best_kkt:.3g})")


def _equilibrate_rows(A, b):
    """Scale rows to unit max coefficient; the feasible set is unchanged."""
    if not A.size:
        return A, b
    r = np.maximum(np.max(np.abs(A), axis=1), 1e-12)
    return A / r[:, None], b / r


def check_feasible_point(x, A, b, lb, ub) -> bool:
    """Direct check of a candidate point against rows and boxes within ``TOL``."""
    if np.any(x < lb - TOL) or np.any(x > ub + TOL):
        return False
    if A.size and np.max(A @ x - b) > TOL:
        return False
    return True


def solve_qp(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
             lb: np.ndarray, ub: np.ndarray, obj_const: float = 0.0) -> QpResult:
    """Globally solve the convex QP; returns status "infeasible" with a
    certified positive lower bound on the row violation when no point
    satisfies the constraints.

    One interior-point solve decides the problem: it either converges to a
    point that passes ``check_feasible_point`` on the equilibrated rows (its
    stop test includes that check), or its multipliers certify infeasibility
    on the way.  A solve that fails, or whose point fails the check, is
    retried at the next, larger regularization; after the last one
    ``QpSolverError`` is raised.
    """
    H = np.asarray(H, dtype=float)
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float) if A is not None else np.zeros((0, len(f)))
    b = np.asarray(b, dtype=float) if b is not None else np.zeros(0)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    if np.any(lb > ub + 1e-15):
        return QpResult("infeasible", None, None, 0, np.inf,
                        float(np.max(lb - ub)))
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("all variables must carry finite boxes")
    A, b = _equilibrate_rows(A, b)

    x0 = 0.5 * (lb + ub)
    failure = ""
    for reg in (1e-12, 1e-9, 1e-6):
        try:
            x, iters, kkt = _ipm(H, f, A, b, lb, ub, x0, reg)
        except _Infeasible as proof:
            return QpResult("infeasible", None, None, proof.iterations, np.inf,
                            proof.bound)
        except QpSolverError as exc:
            failure = str(exc)
            continue
        if check_feasible_point(x, A, b, lb, ub):
            obj = float(0.5 * x @ H @ x + f @ x + obj_const)
            return QpResult("optimal", x, obj, iters, kkt)
        failure = f"converged point fails the feasibility check (kkt {kkt:.3g})"
    raise QpSolverError(f"interior point failed at all regularizations: {failure}")
