"""Convex quadratic programming by a proximal dual active-set method.

Solves   minimize 0.5 x'Hx + f'x   subject to   A x <= b,  lb <= x <= ub
with H symmetric PSD and every variable finitely boxed.  H may be singular
(relaxed binaries carry no quadratic cost), so each step of a proximal-point
loop (Rockafellar 1976) minimizes with H + eps I, by the dual active-set
method of Goldfarb and Idnani (1983, Math. Prog. 27), and the unregularized
QP on its working set then gives the optimum (``solve_node``).  What the
QPs of one problem over smaller boxes share, branch-and-bound's node QPs,
is prepared once in a ``NodeQp``: the rows equilibrated, their pattern, and
H + eps I factored when the first of them needs it.  Infeasibility is
certified by row multipliers, those of a bound-propagation pass or else
the method's dual ray, that ``_elastic_dual_bound`` turns into a positive
lower bound on the elastic violation; any other failure raises
``QpSolverError`` and never becomes a verdict.  An optimal result carries
its working set, which warm-starts a smaller box's solve, and its row
multipliers, which ``NodeQp.dual_bound`` turns into a lower bound on the
optimum over any smaller box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9          # feasibility and stationarity tolerance of an optimum
MAX_PROX = 50       # proximal steps per solve
MAX_CHANGES = 2000  # working-set changes per solve
DEPENDENT = 1e-9    # sine of the angle below which a normal is in a span


class QpSolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class QpResult:
    status: str                 # "optimal" | "infeasible"
    x: np.ndarray | None
    objective: float | None
    iterations: int             # working-set changes
    kkt_residual: float
    # when infeasible: certified lower bound on the elastic violation t*
    certified_violation: float = 0.0
    # when optimal: the equilibrated rows' multipliers and the working set
    multipliers: np.ndarray | None = None
    working_set: np.ndarray | None = None


def _elastic_dual_bound(A, b, lb, ub, lam) -> float:
    """Weak-duality lower bound on the elastic violation t* of the rows.

    t* = min t  s.t.  Ax - t <= b,  lb <= x <= ub.  For any lam >= 0, with
    c = A'lam, minimizing the Lagrangian over the box and scaling away t's
    coefficient gives t* >= (sum_j min(c_j lb_j, c_j ub_j) - lam'b) / sum lam,
    its numerator lowered by a bound on its rounding error, so a positive
    value proves infeasibility in exact arithmetic as well.
    """
    weight = float(lam.sum())
    if not weight > 0.0:
        return -np.inf
    c = lam @ A
    size = np.abs(A) @ np.maximum(np.abs(lb), np.abs(ub)) + np.abs(b)
    rounding = (len(b) + len(lb) + 3) * np.finfo(float).eps
    value = np.minimum(c * lb, c * ub).sum() - lam @ b
    return float((value - rounding * (lam @ size)) / weight)


def _objective_dual_bound(H, f, A, b, x, lam, lb, ub):
    """Weak-duality lower bound on the optimum over the rows and a box.

    For H PSD, any point x and any row multipliers lam >= 0, with
    g = Hx + f and c = g + A'lam, every z with Az <= b in a box [l, u] has
    q(z) >= q(x) + g'(z - x) + lam'(Az - b), so
    min q >= q(x) - g'x - lam'b + sum_j min(c_j l_j, c_j u_j)
           = -x'Hx/2 - lam'b + sum_j min(c_j l_j, c_j u_j).
    The value is lowered by a bound on its rounding error, taken over the
    box [lb, ub], so it is sound in exact arithmetic for every box inside
    [lb, ub].  Returns the bound as a function of (l, u); c, the constant
    and the rounding bound are computed here, once per (x, lam).
    """
    Hx = H @ x
    c = Hx + f + A.T @ lam
    abs_x = np.abs(x)
    abs_H = np.abs(H)
    weight = abs_H @ abs_x + np.abs(f) + np.abs(A).T @ lam
    size = (2.0 * weight @ np.maximum(np.abs(lb), np.abs(ub))
            + abs_x @ abs_H @ abs_x + lam @ np.abs(b))
    rounding = (len(b) + len(x) + 5) * np.finfo(float).eps
    const = float(-0.5 * (x @ Hx) - lam @ b - rounding * size)

    def bound(l, u) -> float:
        return const + float(np.minimum(c * l, c * u).sum())

    return bound


def _propagation_certificate(A, b, lb, ub, nonzero) -> float:
    """Infeasibility bound from one pass of bound propagation, or -inf.

    Fixed columns (lb == ub) count as constants, so a row with one other
    nonzero a_pj is a bound on column j.  The tightest such bounds give a
    box [lo, hi].  If some column's interval is empty, the rows that bound
    it, each with weight 1/|a_pj|, are the multipliers; otherwise, if some
    row i cannot be met over the box (its minimum exceeds b_i), that row
    with weight 1 and each singleton row p that tightened a bound row i
    reads, with weight |a_ij|/|a_pj|, are.  Either way the bound columns
    cancel in A'lam and the bound is the gap that was found, divided by the
    sum of the weights.  The value is ``_elastic_dual_bound`` at these
    multipliers, so its soundness does not rest on this pass.
    ``nonzero`` is the pattern A != 0 of the rows.
    """
    if not A.size:
        return -np.inf
    fixed = lb == ub
    live = nonzero & ~fixed
    single = (live.sum(axis=1) == 1).nonzero()[0]
    col = live[single].argmax(axis=1)
    a = A[single, col]
    value = (b - A @ (lb * fixed))[single] / a
    lo, hi = lb.tolist(), ub.tolist()
    lo_row, hi_row = {}, {}     # column -> the singleton row that set its bound
    for p, j, a_pj, v in zip(single.tolist(), col.tolist(), a.tolist(), value.tolist()):
        if a_pj > 0.0:
            if v < hi[j]:
                hi[j], hi_row[j] = v, p
        elif v > lo[j]:
            lo[j], lo_row[j] = v, p
    lo, hi = np.array(lo), np.array(hi)

    lam = np.zeros(len(b))
    gap = lo - hi
    j = int(gap.argmax())
    if gap[j] > 0.0:
        for rows in (lo_row, hi_row):
            if j in rows:
                lam[rows[j]] = 1.0 / abs(A[rows[j], j])
    else:
        # minimum of each row over the box, as hi - lo >= 0
        short = A @ lo + np.minimum(A, 0.0) @ (hi - lo) - b
        i = int(short.argmax())
        if not short[i] > 0.0:
            return -np.inf
        lam[i] = 1.0
        for rows, reads in ((lo_row, 1.0), (hi_row, -1.0)):
            for j, p in rows.items():
                if reads * A[i, j] > 0.0:
                    lam[p] += abs(A[i, j] / A[p, j])
    return _elastic_dual_bound(A, b, lb, ub, lam)


class NodeQp:
    """One problem's node QPs: minimize 0.5 x'Hx + f'x + obj_const over the
    rows A x <= b and any box inside [lb, ub].  The arrays are floats, the
    boxes finite and the rows equilibrated (``_equilibrate_rows``), with
    their pattern ``nonzero`` (A != 0); eps, the residual scale, the normals
    [A; I; -I] of the constraints and L^-T for the Cholesky factor L of
    H + eps I are formed when the first node that propagation leaves open
    needs them (``setup``)."""

    def __init__(self, H, f, A, b, lb, ub, obj_const: float = 0.0):
        self.H, self.f, self.lb, self.ub = (np.asarray(v, dtype=float) for v in (H, f, lb, ub))
        # an infinite bound is refused, unless an empty interval decides first
        if (not np.isfinite(np.r_[self.lb, self.ub]).all()
                and not (self.lb > self.ub + 1e-15).any()):
            raise ValueError("all variables must carry finite boxes")
        self.A, self.b = _equilibrate_rows(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
        self.nonzero = self.A != 0.0
        self.obj_const, self.inv_chol_t = obj_const, None

    def setup(self) -> NodeQp:
        if self.inv_chol_t is None:
            n, top = len(self.H), float(np.abs(self.H).max())
            self.eps, self.scale = 1e-6 * (top or 1.0), 1.0 + float(np.abs(self.f).max()) + top
            self.normals = np.vstack([self.A, np.eye(n), -np.eye(n)])
            try:
                L = np.linalg.cholesky(self.H + self.eps * np.eye(n))
            except np.linalg.LinAlgError:
                raise QpSolverError("H + eps I is not positive definite") from None
            self.inv_chol_t = np.linalg.inv(L).T
        return self

    def dual_bound(self, x: np.ndarray, lam: np.ndarray):
        """``_objective_dual_bound`` of (x, lam) on these rows, over any box
        inside [lb, ub], without obj_const."""
        return _objective_dual_bound(self.H, self.f, self.A, self.b, x, lam, self.lb, self.ub)


class _DualActiveSet:
    """Goldfarb-Idnani on  min 0.5x'Gx + a'x  s.t.  C x <= d,  G = LL'.

    The working set W, its first ``n_eq`` entries equalities, has normals
    N = C[W]'; L^-1 N = Q [R; 0], J = L^-T Q and ``Rinv`` = R^-1.  x
    minimizes on W with multipliers u, u >= 0 on the inequalities.  An added
    constraint costs a Householder reflection of J's free columns; any
    other change factors W afresh."""

    def __init__(self, qp: NodeQp, d: np.ndarray, W: list[int], n_eq: int):
        self.inv_chol_t, self.C, self.d, self.n_eq = qp.inv_chol_t, qp.normals, d, n_eq
        self.changes = 0
        self._factor(W)

    def _factor(self, W: list[int], u: np.ndarray | None = None) -> None:
        """Factor W, less the normals in the span of earlier ones; ``u``
        holds W's multipliers when they carry over."""
        n, inv_chol_t = self.C.shape[1], self.inv_chol_t
        while True:
            D = inv_chol_t.T @ self.C[W].T
            Q, R = np.linalg.qr(D, mode="complete")
            if len(W) == self.n_eq:
                break
            keep = np.zeros(len(W), dtype=bool)
            keep[:n] = np.abs(np.diagonal(R)) > DEPENDENT * np.sqrt((D * D).sum(axis=0)[:n])
            if keep.all():
                break
            W = [w for w, k in zip(W, keep) if k]
            u = None if u is None else u[keep]
        q = self.q = len(W)
        self.J, self.W = inv_chol_t @ Q, W
        self.Rinv, self.u = np.zeros((n, n)), np.zeros(n)
        self.Rinv[:q, :q] = np.linalg.inv(R[:q])
        self.u[:q] = 0.0 if u is None else u
        self.d_free = self.d.copy()     # d, with +inf on the working set
        self.d_free[W] = np.inf

    def solve(self, a: np.ndarray) -> np.ndarray | None:
        """Minimize with linear term ``a`` from the working set; None at the
        minimum, or the dual ray over the constraints if they conflict.
        More than four constraints violated at the start join W at once: the
        steps would add mostly those, at a cost each above one factoring."""
        C, d, n_eq, bulk = self.C, self.d, self.n_eq, True
        while True:     # the minimum on W, with multipliers >= 0
            q, J, Rinv = self.q, self.J, self.Rinv[:self.q, :self.q]
            w = d[self.W] @ Rinv
            x = J[:, :q] @ w - J[:, q:] @ (a @ J[:, q:])
            u = self.u[:q] = -Rinv @ (w + a @ J[:, :q])
            if q > n_eq and (negative := u[n_eq:] < 0.0).any():
                self.changes += int(negative.sum())
                self._factor(self.W[:n_eq] + [c for c, neg in zip(self.W[n_eq:], negative)
                                              if not neg])
                continue
            v = C @ x - self.d_free
            if not bulk or (violated := (v > 0.1 * TOL).nonzero()[0]).size <= 4:
                break
            bulk = False
            self.changes += len(violated)
            self._factor(self.W + violated.tolist())
        while True:
            p = int(v.argmax())
            vp = float(v[p])
            if not vp > 0.1 * TOL:
                if math.isnan(vp):
                    raise QpSolverError("non-finite active-set iterate")
                self.x = x
                return None
            n_p, u_p = C[p], 0.0
            while True:     # make p active, dropping what blocks it
                if self.changes >= MAX_CHANGES:
                    raise QpSolverError(f"no optimum after {MAX_CHANGES} working-set changes")
                q, J, u = self.q, self.J, self.u[:self.q]
                dd = n_p @ J
                d1, d2 = dd[:q], dd[q:]
                zz = float(d2 @ d2)
                r = self.Rinv[:q, :q] @ d1
                k, t = -1, np.inf
                if q > n_eq and (top := float(r[n_eq:].max())) > 1e-12 * -float(r.min()):
                    blocking = (r[n_eq:] > 1e-12 * max(top, -float(r.min()))).nonzero()[0] + n_eq
                    ratios = u[blocking] / r[blocking]
                    k, t = int(blocking[ratios.argmin()]), float(ratios.min())
                if zz <= DEPENDENT ** 2 * (zz + float(d1 @ d1)):
                    if k < 0:   # n_p = N r with r <= 0 on the inequalities
                        self.changes += 1
                        ray = np.zeros(len(C))
                        ray[self.W], ray[p] = -r, 1.0
                        return np.maximum(ray, 0.0)
                else:
                    z = J[:, q:] @ d2
                    full = vp / zz
                    if full <= t:   # add p: J2 (I - 2hh'/h'h) maps d2 onto its first axis
                        x = x - full * z
                        u -= full * r
                        sigma = float(d2[0])
                        if len(d2) > 1:
                            sigma = -math.copysign(math.sqrt(zz), sigma)
                            h = d2.copy()
                            h[0] -= sigma
                            J[:, q:] -= (z - sigma * J[:, q])[:, None] * (h / (zz - sigma * d2[0]))
                        self.Rinv[:q, q], self.Rinv[q, q], self.Rinv[q, :q] = r / -sigma, 1 / sigma, 0
                        self.W.append(p)
                        self.d_free[p], self.u[q] = np.inf, u_p + full
                        self.q += 1
                        self.changes += 1
                        break
                    x = x - t * z
                    vp = float(n_p @ x) - d[p]
                u -= t * r
                u_p += t
                self.changes += 1
                self._factor(self.W[:k] + self.W[k + 1:], np.delete(u, k))
            v = C @ x - self.d_free


def _polish(H, f, N, h, n_eq, scale):
    """[(x, u)] for the solution of min 0.5x'Hx + f'x s.t. N x = h when it
    has u >= 0 on the inequalities (to ``TOL``, then clipped), else []."""
    n, q = len(f), len(h)
    K = np.zeros((n + q, n + q))
    K[:n, :n], K[:n, n:], K[n:, :n] = H, N.T, N
    try:
        sol = np.linalg.solve(K, np.concatenate([-f, h]))
    except np.linalg.LinAlgError:
        return []
    x, u = sol[:n], sol[n:]
    if not u[n_eq:].min(initial=0.0) >= -TOL * scale:
        return []
    u[n_eq:] = np.maximum(u[n_eq:], 0.0)
    return [(x, u)]


def _equilibrate_rows(A, b):
    """Scale rows to unit max coefficient; the feasible set is unchanged."""
    r = np.maximum(np.abs(A).max(axis=1, initial=0.0), 1e-12)
    return A / r[:, None], b / r


def check_feasible_point(x, A, b, lb, ub) -> bool:
    """Direct check of a candidate point against rows and boxes within ``TOL``."""
    return ((lb - x).max() <= TOL and (x - ub).max() <= TOL
            and (not A.size or (A @ x - b).max() <= TOL))


def solve_qp(H: np.ndarray, f: np.ndarray, A: np.ndarray, b: np.ndarray,
             lb: np.ndarray, ub: np.ndarray, obj_const: float = 0.0) -> QpResult:
    """Globally solve the convex QP; returns status "infeasible" with a
    certified positive lower bound on the row violation when no point
    satisfies the constraints.  The rows are equilibrated first."""
    qp = NodeQp(H, f, A, b, lb, ub, obj_const)
    return solve_node(qp, qp.lb, qp.ub)


def solve_node(qp: NodeQp, lb: np.ndarray, ub: np.ndarray,
               warm: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> QpResult:
    """``solve_qp`` of ``qp`` over the box [lb, ub], a float box inside its own.

    A propagation certificate ends the solve with zero iterations.  Else
    each proximal step minimizes with H + eps I and f - eps c, its centre c
    the box's middle, then the last step's point, from the last step's
    working set; the first starts from the fixed columns' upper bounds as
    equalities and ``warm``: the working set, lb and ub of an earlier solve
    of ``qp``, less the bounds of columns whose box differs.  The optimum
    is the unregularized QP's solution with the working set as equalities,
    once it meets every row and bound with multipliers >= 0 and a residual
    <= ``TOL``, or the step's own point once its residual is.
    """
    H, f, A, b = qp.H, qp.f, qp.A, qp.b
    if (lb > ub + 1e-15).any():
        return QpResult("infeasible", None, None, 0, np.inf, float((lb - ub).max()))
    certified = _propagation_certificate(A, b, lb, ub, qp.nonzero)
    if certified > 1e-9:
        return QpResult("infeasible", None, None, 0, np.inf, certified)

    m, n = A.shape
    fixed = (lb == ub).nonzero()[0]
    W = (m + fixed).tolist()
    if warm is not None:
        ws, lb0, ub0 = warm
        j = (ws - m) % n
        W += ws[(ws < m) | ((lb0[j] == lb[j]) & (ub0[j] == ub[j]) & (lb[j] < ub[j]))].tolist()
    d = np.concatenate([b, ub, -lb])
    d[m + n + fixed] = np.inf
    method = _DualActiveSet(qp.setup(), d, W, len(fixed))
    center = 0.5 * (lb + ub)
    for _ in range(MAX_PROX):
        ray = method.solve(f - qp.eps * center)
        if ray is not None:
            certified = _elastic_dual_bound(A, b, lb, ub, ray[:m])
            if certified > 1e-9:
                return QpResult("infeasible", None, None, method.changes, np.inf, certified)
            raise QpSolverError(f"dual ray certifies no violation ({certified:.3g})")
        N = qp.normals[method.W]
        polished = _polish(H, f, N, d[method.W], len(fixed), qp.scale)
        for x, u in polished + [(method.x, method.u[:method.q])]:
            kkt = float(np.abs(H @ x + f + u @ N).max()) / qp.scale
            if kkt <= TOL and check_feasible_point(x, A, b, lb, ub):
                ws = np.array(method.W, dtype=int)
                lam = np.bincount(ws[ws < m], u[ws < m], minlength=m)
                return QpResult("optimal", x, float(0.5 * x @ H @ x + f @ x + qp.obj_const),
                                method.changes, kkt, multipliers=lam, working_set=ws)
        if kkt <= TOL:
            raise QpSolverError(f"converged point fails the feasibility check (kkt {kkt:.3g})")
        center = method.x
    raise QpSolverError(f"no optimum after {MAX_PROX} proximal steps (kkt {kkt:.3g})")
