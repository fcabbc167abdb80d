"""Convex quadratic programming via a primal-dual interior-point method.

Solves   minimize 0.5 x'Hx + f'x   subject to   A x <= b,  lb <= x <= ub
with H symmetric PSD and every variable finitely boxed.
Boxes are folded into the inequality rows, which keeps the reduced normal
matrix H + A'DA positive definite even for singular H (the identity box
rows contribute a full-rank diagonal), so satisfaction literals and relaxed
binaries with zero quadratic cost need no extra regularization.

The main Mehrotra predictor-corrector solve runs first.  Every iterate's
multipliers on the genuine rows give a weak-duality lower bound on the
optimum of the elastic phase-1 LP (minimize the single violation variable t);
a positive bound certifies infeasibility and ends the solve early.  A
converged point is accepted as optimal only after a direct feasibility check.
The elastic LP itself runs only as a fallback, when the main solve fails or
its point does not pass the check.  Its infeasibility verdict is likewise a
weak-duality lower bound, not its primal value, whose accuracy is limited by
the interior-point duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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


def _elastic_dual_bound(A, b, lam, lb, ub) -> float:
    """Weak-duality lower bound on the elastic violation t* of the rows.

    t* = min t  s.t.  Ax - t <= b,  lb <= x <= ub.  For any lam >= 0, with
    c = A'lam, minimizing the Lagrangian over the box and scaling away the
    coefficient of t gives
    t* >= (sum_j min(c_j lb_j, c_j ub_j) - lam'b) / sum lam.
    The numerator is lowered by a bound on its rounding error, so a positive
    value proves infeasibility in exact arithmetic as well.
    """
    weight = float(np.sum(lam))
    if not weight > 0.0:
        return -np.inf
    c = A.T @ lam
    value = np.sum(np.minimum(c * lb, c * ub)) - lam @ b
    box = np.maximum(np.abs(lb), np.abs(ub))
    size = box @ (np.abs(A).T @ lam) + lam @ np.abs(b)
    rounding = (len(lam) + len(lb) + 3) * np.finfo(float).eps * size
    return float((value - rounding) / weight)


def _ipm(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
         x0: np.ndarray, tol: float, max_iter: int, reg: float,
         certify: tuple[int, np.ndarray, np.ndarray] | None = None
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Mehrotra predictor-corrector on  min 0.5x'Hx+f'x  s.t.  Ax <= b.

    Each Newton step factors the reduced normal matrix K = H + A'DA + reg I
    with D = diag(lam / s).  Returns (x, s, lam, iterations, kkt); the slacks
    and multipliers let callers build certified dual bounds from the final
    iterate.  With ``certify = (m, lb, ub)``, where the first m rows of A are
    the genuine rows and the rest fold the box lb <= x <= ub, every iterate
    that has not converged is tested for an infeasibility certificate, and
    ``_Infeasible`` is raised as soon as one proves a positive violation.
    """
    n = len(f)
    m = len(b)
    x = x0.astype(float).copy()
    s = np.maximum(b - A @ x, 1.0)
    lam = np.ones(m)

    scale_b = 1.0 + float(np.max(np.abs(b))) if m else 1.0
    scale_f = 1.0 + float(np.max(np.abs(f))) + (float(np.max(np.abs(H))) if H.size else 0.0)

    best_kkt = np.inf
    for it in range(1, max_iter + 1):
        r_dual = H @ x + f + A.T @ lam
        r_pri = A @ x + s - b
        mu = float(s @ lam / m) if m else 0.0

        kkt = max(
            float(np.max(np.abs(r_dual))) / scale_f,
            float(np.max(np.abs(r_pri))) / scale_b if m else 0.0,
            mu / scale_f,
        )
        if not np.isfinite(kkt):
            raise QpSolverError("non-finite iterate")
        best_kkt = min(best_kkt, kkt)
        if kkt <= tol:
            return x, s, lam, it, kkt
        if certify is not None:
            m_rows, lb, ub = certify
            bound = _elastic_dual_bound(A[:m_rows], b[:m_rows], lam[:m_rows],
                                        lb, ub)
            if bound > 1e-9:
                raise _Infeasible(bound, it)

        dinv = lam / np.maximum(s, 1e-300)
        K = H + (A.T * dinv) @ A + reg * np.eye(n)

        def solve_kkt(rhs):
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError as exc:
                raise QpSolverError("singular KKT system") from exc
            if not np.all(np.isfinite(sol)):
                raise QpSolverError("non-finite Newton step")
            return sol

        # affine predictor
        dx_aff = solve_kkt(-(r_dual + A.T @ (dinv * r_pri - lam)))
        ds_aff = -r_pri - A @ dx_aff
        dlam_aff = -lam - dinv * ds_aff

        def max_step(v, dv):
            neg = dv < 0
            if not np.any(neg):
                return 1.0
            with np.errstate(over="ignore", divide="ignore"):
                return min(1.0, float(np.min(-v[neg] / dv[neg])))

        alpha_aff = min(max_step(s, ds_aff), max_step(lam, dlam_aff))
        mu_aff = float((s + alpha_aff * ds_aff) @ (lam + alpha_aff * dlam_aff) / m) if m else 0.0
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # corrector with centering
        comp = ds_aff * dlam_aff - sigma * mu
        dx = solve_kkt(-(r_dual + A.T @ (dinv * r_pri - lam - comp / np.maximum(s, 1e-300))))
        ds = -r_pri - A @ dx
        dlam = -lam - dinv * ds - comp / np.maximum(s, 1e-300)

        frac = 0.995 if mu > 1e-8 * scale_f else 0.9999
        alpha_p = frac * max_step(s, ds)
        alpha_d = frac * max_step(lam, dlam)
        alpha = min(alpha_p, alpha_d, 1.0)
        x += alpha * dx
        s += alpha * ds
        lam += alpha * dlam
        s = np.maximum(s, 1e-300)
        lam = np.maximum(lam, 1e-300)

    raise QpSolverError(f"no convergence in {max_iter} iterations (kkt {best_kkt:.3g})")


def _fold_boxes(A, b, lb, ub):
    n = len(lb)
    eye = np.eye(n)
    A_full = np.vstack([A, eye, -eye]) if A.size else np.vstack([eye, -eye])
    b_full = np.concatenate([b, ub, -lb])
    return A_full, b_full


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
    uniform row-relative violation; the system is feasible iff t* <= 0.  The primal value of an interior-point iterate
    overestimates t* by up to the duality gap (sum s_i lam_i, easily 1e-6
    with hundreds of rows), which is far too coarse to threshold against -
    so the returned value is a rigorous dual lower bound built from the
    final multipliers: positive only when the system is provably infeasible.
    """
    A, b = _equilibrate_rows(A, b)
    A_full, b_full = _fold_boxes(A, b, lb, ub)
    m0 = A.shape[0] if A.size else 0
    n = len(lb)
    # variables (x, t); elastic only on genuine rows, not on the boxes
    ones = np.zeros(A_full.shape[0])
    ones[:m0] = 1.0
    blocks = [np.column_stack([A_full, -ones])]
    rhs = [b_full]
    x0 = 0.5 * (lb + ub)
    t0 = 1.0
    if A.size:
        t0 += float(np.max(np.abs(A @ x0 - b), initial=0.0))
    # box on t keeps the LP bounded in every direction
    blocks.append(np.array([[0.0] * n + [-1.0]]))
    rhs.append(np.array([1.0]))
    blocks.append(np.array([[0.0] * n + [1.0]]))
    rhs.append(np.array([2.0 * t0 + 10.0]))
    A_ph = np.vstack(blocks)
    b_ph = np.concatenate(rhs)
    H = np.zeros((n + 1, n + 1))
    f = np.zeros(n + 1)
    f[-1] = 1.0
    z0 = np.concatenate([x0, [t0 + 1.0]])
    # every variable of the elastic LP lives in a box of this radius
    z_inf = float(max(np.max(np.abs(lb)), np.max(np.abs(ub)), 2.0 * t0 + 10.0, 1.0))
    last: Exception | None = None
    for ipm_tol, reg in ((1e-10, 1e-10), (1e-9, 1e-8), (1e-8, 1e-6)):
        try:
            z, _s, lam, _, _ = _ipm(H, f, A_ph, b_ph, z0, tol=ipm_tol,
                                    max_iter=max_iter, reg=reg)
        except QpSolverError as exc:
            last = exc
            continue
        # weak duality: t* >= -lam'b - |dual residual|'|z| for any lam >= 0
        r_d = f + A_ph.T @ lam
        cert = float(-(lam @ b_ph) - np.sum(np.abs(r_d)) * z_inf)
        return max(cert, -1.0)
    raise QpSolverError(f"phase-1 failed at all regularizations: {last}")


def solve_qp(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
             lb: np.ndarray, ub: np.ndarray, obj_const: float = 0.0,
             tol: float = 1e-9, max_iter: int = 80) -> QpResult:
    """Globally solve the convex QP; returns status "infeasible" with a
    certified positive lower bound on the row violation when no point
    satisfies the constraints.

    One interior-point solve decides most problems: it either converges to a
    point that passes ``check_feasible_point`` on the equilibrated rows, or
    its multipliers certify infeasibility on the way.  Only when neither
    happens does the elastic phase-1 LP (``phase1_violation``) decide.
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

    A_full, b_full = _fold_boxes(A, b, lb, ub)
    x0 = 0.5 * (lb + ub)
    main: QpResult | None = None
    last_error: Exception | None = None
    for reg in (1e-12, 1e-9, 1e-6):
        try:
            x, _s, _lam, iters, kkt = _ipm(H, f, A_full, b_full, x0, tol=tol,
                                           max_iter=max_iter, reg=reg,
                                           certify=(len(b), lb, ub))
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
