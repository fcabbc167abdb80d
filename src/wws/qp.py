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

The main Mehrotra predictor-corrector solve runs first.  Every iterate's
multipliers on the genuine rows give a weak-duality lower bound on the
optimum of the elastic phase-1 LP (minimize the single violation variable t);
a positive bound certifies infeasibility and ends the solve early.  The stop
test includes the direct violation of the rows and bounds, so a converged
point also passes the direct feasibility check that accepts it as optimal.
The elastic LP itself runs only as a fallback, when the main solve fails or
its point does not pass the check.  Its infeasibility verdict is likewise a
weak-duality lower bound, not its primal value, whose accuracy is limited by
the interior-point duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs


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
         lb: np.ndarray, ub: np.ndarray, x0: np.ndarray, tol: float,
         max_iter: int, reg: float, certify: bool = False
         ) -> tuple[np.ndarray, np.ndarray, int, float]:
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
    ``tol`` violates no row or bound by more than ``tol``.  Returns
    (x, lam, iterations, kkt), lam ordered as above.  With ``certify``, every
    iterate that has not converged is tested for a certificate of
    infeasibility of the rows within the bounds (``_elastic_dual_bound``),
    and ``_Infeasible`` is raised as soon as one proves a positive violation.
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
    bound = _elastic_dual_bound(A, b, lb, ub) if certify else None

    scale_b = 1.0 + float(np.max(np.abs(b_full)))
    scale_f = 1.0 + float(np.max(np.abs(f))) + (float(np.max(np.abs(H))) if H.size else 0.0)

    best_kkt = np.inf
    for it in range(1, max_iter + 1):
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
        if kkt <= tol:
            return x, lam, it, kkt
        if bound is not None:
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

    raise QpSolverError(f"no convergence in {max_iter} iterations (kkt {best_kkt:.3g})")


def _equilibrate_rows(A, b):
    """Scale rows to unit max coefficient; the feasible set is unchanged."""
    if not A.size:
        return A, b
    r = np.maximum(np.max(np.abs(A), axis=1), 1e-12)
    return A / r[:, None], b / r


def check_feasible_point(x, A, b, lb, ub, tol=1e-9) -> bool:
    """Direct check of a candidate point against rows and boxes within ``tol``."""
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return False
    if A is not None and A.size and np.max(A @ x - b) > tol:
        return False
    return True


def phase1_violation(A, b, lb, ub, max_iter: int = 100) -> float:
    """Certified lower bound on the minimal uniform constraint relaxation.

    Solves the elastic LP  min t  s.t.  Ax - t <= b,  lb <= x <= ub,  t >= -1,
    after scaling every row to unit max coefficient, so t* is the smallest
    uniform row-relative violation; the system is feasible iff t* <= 0.  The
    LP runs on the same kernel as the main solve, with the bounds on x and t
    native.  The primal value of an interior-point iterate overestimates t*
    by up to the duality gap (sum s_i lam_i, easily 1e-6 with hundreds of
    rows), which is far too coarse to threshold against - so the returned
    value is a rigorous dual lower bound built from the final row and bound
    multipliers: positive only when the system is provably infeasible.
    """
    A, b = _equilibrate_rows(A, b)
    m, n = len(b), len(lb)
    # variables z = (x, t); the elastic t enters the genuine rows only
    A_ph = np.column_stack([A, -np.ones(m)])
    x0 = 0.5 * (lb + ub)
    t0 = 1.0
    if m:
        t0 += float(np.max(np.abs(A @ x0 - b), initial=0.0))
    # the box on t keeps the LP bounded in every direction
    lb_z = np.append(lb, -1.0)
    ub_z = np.append(ub, 2.0 * t0 + 10.0)
    H = np.zeros((n + 1, n + 1))
    f = np.zeros(n + 1)
    f[-1] = 1.0
    z0 = np.append(x0, t0 + 1.0)
    # every variable of the elastic LP lives in a box of this radius
    z_inf = float(max(np.max(np.abs(lb)), np.max(np.abs(ub)), 2.0 * t0 + 10.0, 1.0))
    last: Exception | None = None
    for ipm_tol, reg in ((1e-10, 1e-10), (1e-9, 1e-8), (1e-8, 1e-6)):
        try:
            _z, lam, _, _ = _ipm(H, f, A_ph, b, lb_z, ub_z, z0, tol=ipm_tol,
                                 max_iter=max_iter, reg=reg)
        except QpSolverError as exc:
            last = exc
            continue
        # weak duality: t* >= -lam'b_full - |dual residual|'|z| for any
        # lam >= 0, with the bounds as rows ub_z and -lb_z of b_full
        lam_a, lam_u, lam_l = lam[:m], lam[m:m + n + 1], lam[m + n + 1:]
        r_d = f + A_ph.T @ lam_a + lam_u - lam_l
        cert = float(-(lam_a @ b + lam_u @ ub_z - lam_l @ lb_z)
                     - np.sum(np.abs(r_d)) * z_inf)
        return max(cert, -1.0)
    raise QpSolverError(f"phase-1 failed at all regularizations: {last}")


def solve_qp(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
             lb: np.ndarray, ub: np.ndarray, obj_const: float = 0.0,
             tol: float = 1e-9, max_iter: int = 80) -> QpResult:
    """Globally solve the convex QP; returns status "infeasible" with a
    certified positive lower bound on the row violation when no point
    satisfies the constraints.

    One interior-point solve decides the problem: it either converges to a
    point that passes ``check_feasible_point`` on the equilibrated rows (its
    stop test includes that check), or its multipliers certify infeasibility
    on the way.  Only when neither happens (the main solve fails at every
    regularization, or, as a safety net, its point fails the check) does
    the elastic phase-1 LP (``phase1_violation``) decide.
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
    main: QpResult | None = None
    last_error: Exception | None = None
    for reg in (1e-12, 1e-9, 1e-6):
        try:
            x, _lam, iters, kkt = _ipm(H, f, A, b, lb, ub, x0, tol=tol,
                                       max_iter=max_iter, reg=reg, certify=True)
        except _Infeasible as proof:
            return QpResult("infeasible", None, None, proof.iterations, np.inf,
                            proof.bound)
        except QpSolverError as exc:
            last_error = exc
            continue
        obj = float(0.5 * x @ H @ x + f @ x + obj_const)
        main = QpResult("optimal", x, obj, iters, kkt)
        if check_feasible_point(x, A, b, lb, ub):
            return main
        break

    violation = phase1_violation(A, b, lb, ub)
    # the certified bound is rigorous, so any positive value proves
    # infeasibility; the epsilon only guards float noise in the algebra
    if violation > 1e-9:
        return QpResult("infeasible", None, None,
                        main.iterations if main is not None else 0, np.inf,
                        violation)
    if main is None:
        raise QpSolverError(f"interior point failed at all regularizations: {last_error}")
    return replace(main, phase1_violation=violation)
