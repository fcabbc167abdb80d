"""Convex quadratic programming by a proximal dual active-set method.

Solves   minimize 0.5 x'Hx + f'x   subject to   A x <= b,  lb <= x <= ub
with H symmetric PSD and every variable finitely boxed.  H may be singular
(relaxed binaries carry no quadratic cost), so each step of a proximal-point
loop (Rockafellar 1976) minimizes with H + eps I, by the dual active-set
method of Goldfarb and Idnani (1983, Math. Prog. 27), and the unregularized
QP on its working set then gives the optimum (``solve_node``).  What the
QPs of one problem over smaller boxes share, branch-and-bound's node QPs,
is prepared once in a ``NodeQp``: the rows equilibrated, their pattern, and
H + eps I factored when the first of them needs it.  The dense algebra runs
in LAPACK through ``scipy.linalg.lapack``: the Cholesky factor (``dpotrf``)
and every triangular inverse (``dtrtri``), the working set's QR updates
(``dgeqrf``, with ``dormqr`` applying Q) and the final KKT solve
(``dgesv``); a nonzero ``info`` raises ``QpSolverError``, except that a
singular KKT system leaves the method's own point.  Infeasibility is
certified by row multipliers, those of a bound-propagation pass or else
the method's dual ray, that ``_elastic_dual_bound`` turns into a positive
lower bound on the elastic violation; any other failure raises
``QpSolverError`` and never becomes a verdict.  A solve opens in one of
two ways: a branch-and-bound child from its parent's factored working set
(``WorkingSet``), without factoring it again, the two boxes differing in
one newly fixed column; any other solve from one Cholesky factor with its
fixed columns first (``NodeQp.fixed_first``).  An optimal result carries
its working set and its row multipliers, which ``NodeQp.dual_bound``
turns into a lower bound on the optimum over any smaller box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    working_set: WorkingSet | None = None


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
    [A; I; -I] of the constraints, G = H + eps I and the mask ``upper`` of
    an upper triangle are formed when the first node that propagation
    leaves open needs them (``setup``)."""

    def __init__(self, H, f, A, b, lb, ub, obj_const: float = 0.0):
        self.H, self.f, self.lb, self.ub = (np.asarray(v, dtype=float) for v in (H, f, lb, ub))
        # an infinite bound is refused, unless an empty interval decides first
        if (not np.isfinite(np.r_[self.lb, self.ub]).all()
                and not (self.lb > self.ub + 1e-15).any()):
            raise ValueError("all variables must carry finite boxes")
        self.A, self.b = _equilibrate_rows(np.asarray(A, dtype=float), np.asarray(b, dtype=float))
        self.nonzero = self.A != 0.0
        self.obj_const, self.normals = obj_const, None

    def setup(self) -> NodeQp:
        if self.normals is None:
            n, top = len(self.H), float(np.abs(self.H).max())
            self.eps, self.scale = 1e-6 * (top or 1.0), 1.0 + float(np.abs(self.f).max()) + top
            eye = np.eye(n)
            self.normals = np.concatenate((self.A, eye, -eye))
            self.G = self.H + self.eps * eye
            self.upper = ~np.tri(n, k=-1, dtype=bool)
        return self

    def fixed_first(self, fixed: np.ndarray) -> WorkingSet:
        """The factored working set of the upper bounds of the columns that
        the mask ``fixed`` marks, all equalities, in column order: the set a
        solve opens from unless it inherits one.  With those columns first,
        G = U U' for an upper-triangular U, the reversed Cholesky factor of
        the reversed G (``dpotrf``); J = U^-T, its rows put back in column
        order, has J'GJ = I and the rows [R' 0] at the fixed columns, with
        R^-1 U's leading block, so the set needs no QR."""
        n, first = len(self.H), fixed.nonzero()[0]
        order = np.concatenate((first, (~fixed).nonzero()[0]))
        L, info = lapack.dpotrf(self.G.take(order[::-1], 0).take(order[::-1], 1), lower=1)
        if info != 0:
            raise QpSolverError("H + eps I is not positive definite")
        J, Rinv, k = np.empty((n, n)), np.zeros((n, n)), len(first)
        J[order] = _triangular_inverse(L, lower=True).T[::-1, ::-1]
        Rinv[:k, :k] = L[n - k:, n - k:][::-1, ::-1]
        return WorkingSet(len(self.A) + first, np.ones(k, dtype=bool), J, Rinv)

    def dual_bound(self, x: np.ndarray, lam: np.ndarray):
        """``_objective_dual_bound`` of (x, lam) on these rows, over any box
        inside [lb, ub], without obj_const."""
        return _objective_dual_bound(self.H, self.f, self.A, self.b, x, lam, self.lb, self.ub)


def _qr(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of D, at least one row, by ``dgeqrf``: R in the upper
    triangle, Q as reflectors below it and their factors tau."""
    qr, tau, _, info = lapack.dgeqrf(D)
    if info != 0:
        raise QpSolverError(f"QR factorization failed (info {info})")
    return qr, tau


def _times_q(J: np.ndarray, qr: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """J Q for the square Q of ``_qr``'s (qr, tau), by ``dormqr``."""
    JQ, _, info = lapack.dormqr("R", "N", qr[:, :len(tau)], tau, J, max(1, len(J)))
    if info != 0:
        raise QpSolverError(f"applying Q failed (info {info})")
    return JQ


def _triangular_inverse(T: np.ndarray, lower: bool = False) -> np.ndarray:
    """The inverse of T's upper (or lower) triangle, by ``dtrtri``; the
    other triangle of the result is T's."""
    inverse, info = lapack.dtrtri(T, lower=lower)
    if info != 0:
        raise QpSolverError(f"singular triangular factor (info {info})")
    return inverse


@dataclass(frozen=True)
class WorkingSet:
    """A factored working set: the one an optimal solve ended on, or the
    fixed columns' equalities a solve opens from (``NodeQp.fixed_first``).
    W indexes the normals [A; I; -I], ``eq`` marks the fixed columns'
    equalities, and J and R^-1 (its leading q x q block, q = len(W)) are
    ``_DualActiveSet``'s factors.  A solve that starts from the set copies
    them; nothing writes them."""
    W: np.ndarray
    eq: np.ndarray
    J: np.ndarray
    Rinv: np.ndarray


class _DualActiveSet:
    """Goldfarb-Idnani on  min 0.5x'Gx + a'x  s.t.  C x <= d,  G = LL'.

    The working set W has normals N = C[W]'; for a square L with G = LL'
    and an orthogonal Q, L^-1 N = Q [R; 0] with R upper triangular,
    J = L^-T Q, and R^-1 is the leading q x q block of ``Rinv``, q = |W|.
    Where ``eq`` marks an entry of W it is an equality, else an inequality.
    x minimizes on W with multipliers u, u >= 0 on the inequalities.  The
    method starts from a copy of the factored working set ``start``.  One
    added constraint costs a Householder reflection of J's free columns
    (Goldfarb and Idnani 1983), several one QR of their block; a drop costs
    a QR of R's block right of the first dropped column (Gill, Golub,
    Murray and Saunders 1974)."""

    def __init__(self, qp: NodeQp, d: np.ndarray, start: WorkingSet):
        n = len(qp.H)
        self.C, self.d, self.upper = qp.normals, d, qp.upper
        self.W, self.q = start.W.tolist(), len(start.W)
        self.J, self.Rinv = start.J.copy(), start.Rinv.copy()
        self.eq, self.u, self.changes = np.zeros(n, dtype=bool), np.zeros(n), 0
        self.eq[:self.q] = start.eq
        self.d_free = d.copy()      # d, with +inf on the working set
        self.d_free[start.W] = np.inf

    def fix(self, bounds: list[int]) -> None:
        """Make the fixed columns' bounds ``bounds`` equalities of W; those
        not in W yet, a child's branched column, join one at a time.  While
        a new one lies in the span of W's normals, the last inequality of W
        that its expansion in them uses leaves W: a factoring of W with the
        equalities first would drop that one."""
        for p in [p for p in bounds if p not in self.W]:
            while True:
                q = self.q
                dd = self.C[p] @ self.J
                d1, d2 = dd[:q], dd[q:]
                zz = float(d2 @ d2)
                r = self.Rinv[:q, :q] @ d1
                if zz > DEPENDENT ** 2 * (zz + float(d1 @ d1)):
                    break
                # the other equalities are unit normals orthogonal to p's,
                # so the expansion uses some inequality
                used = (~self.eq[:q] & (np.abs(r) > DEPENDENT * np.abs(r).max())).nonzero()[0]
                gone = np.zeros(q, dtype=bool)
                gone[used[-1]] = True
                self.drop(gone)
            self._add(p, d1, d2, zz, self.J[:, q:] @ d2, r, 0.0, eq=True)

    def _join(self, cols: list[int]) -> None:
        """Add ``cols`` to W by one QR of their block, less those whose
        normals lie in the span of W's and earlier ones."""
        q, n = self.q, len(self.J)
        while True:
            if not cols or q == n:
                return
            E = self.C[cols] @ self.J           # row i: (L^-1 n_i)' Q
            qr, tau = _qr(E[:, q:].T)
            keep = np.zeros(len(cols), dtype=bool)
            size = np.sqrt((E * E).sum(axis=1))[:n - q]
            keep[:n - q] = np.abs(np.diagonal(qr)) > DEPENDENT * size
            if keep.all():
                break
            cols = [c for c, k in zip(cols, keep) if k]
        k = len(cols)
        self.J[:, q:] = _times_q(self.J[:, q:], qr, tau)
        # R gains the columns [E[:, :q]'; R2], R2 the triangle of qr[:k]
        R2inv = _triangular_inverse(qr[:k]) * self.upper[:k, :k]
        self.Rinv[:q, q:q + k] = -(self.Rinv[:q, :q] @ E[:, :q].T) @ R2inv
        self.Rinv[q:q + k, :q] = 0.0
        self.Rinv[q:q + k, q:q + k] = R2inv
        self.W += cols
        self.eq[q:q + k], self.u[q:q + k] = False, 0.0
        self.d_free[cols] = np.inf
        self.q += k

    def _add(self, p: int, d1, d2, zz: float, z, r, u_p: float, eq: bool = False) -> None:
        """Add p, with (d1, d2) = J' C[p], zz = |d2|^2, z = J2 d2 and
        r = R^-1 d1: J2 (I - 2hh'/h'h) maps d2 onto its first axis."""
        q, J = self.q, self.J
        sigma = float(d2[0])
        if len(d2) > 1:
            sigma = -math.copysign(math.sqrt(zz), sigma)
            h = d2.copy()
            h[0] -= sigma
            J[:, q:] -= (z - sigma * J[:, q])[:, None] * (h / (zz - sigma * d2[0]))
        self.Rinv[:q, q], self.Rinv[q, q], self.Rinv[q, :q] = r / -sigma, 1 / sigma, 0
        self.W.append(p)
        self.eq[q], self.u[q] = eq, u_p
        self.d_free[p] = np.inf
        self.q += 1

    def drop(self, gone: np.ndarray) -> None:
        """Remove the entries of W that the mask ``gone`` marks; the other
        multipliers carry over."""
        q = self.q
        keep = (~gone).nonzero()[0]
        first, q2 = int(gone.argmax()), len(keep)
        rest = keep[first:]         # the kept entries after the first dropped
        if len(rest):     # R without the dropped columns is Hessenberg from first on
            R = _triangular_inverse(self.Rinv[:q, :q])
            qr, tau = _qr(R[first:q, rest])
            self.J[:, first:q] = _times_q(self.J[:, first:q], qr, tau)
            R[:first, first:q2] = R[:first, rest]
            R[first:q, first:q2] = qr * self.upper[:q - first, :q2 - first]
            self.Rinv[:q2, :q2] = _triangular_inverse(R[:q2, :q2])
        dropped = [self.W[i] for i in gone.nonzero()[0]]
        self.d_free[dropped] = self.d[dropped]
        self.W = [self.W[i] for i in keep]
        self.eq[:q2], self.u[:q2] = self.eq[keep], self.u[keep]
        self.q = q2

    def solve(self, a: np.ndarray) -> np.ndarray | None:
        """Minimize with linear term ``a`` from the working set; None at the
        minimum, or the dual ray over the constraints if they conflict.
        More than four constraints violated at the start join W at once: the
        steps would add mostly those, at a cost each above one block update."""
        C, d, bulk = self.C, self.d, True
        while True:     # the minimum on W, with multipliers >= 0
            q, J, Rinv = self.q, self.J, self.Rinv[:self.q, :self.q]
            w, g = d[self.W] @ Rinv, a @ J
            u = self.u[:q] = -(Rinv @ (w + g[:q]))
            g[:q] = -w
            x = -(J @ g)
            if (negative := (u < 0.0) & ~self.eq[:q]).any():
                self.changes += int(negative.sum())
                self.drop(negative)
                continue
            v = C @ x - self.d_free
            if not bulk or (violated := (v > 0.1 * TOL).nonzero()[0]).size <= 4:
                break
            bulk = False
            self.changes += len(violated)
            self._join(violated.tolist())
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
                if q:
                    r_ineq = np.where(self.eq[:q], -np.inf, r)
                    top, low = float(r_ineq.max()), float(r.min())
                    if top > 1e-12 * -low:
                        blocking = (r_ineq > 1e-12 * max(top, -low)).nonzero()[0]
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
                    if full <= t:
                        x = x - full * z
                        u -= full * r
                        self._add(p, d1, d2, zz, z, r, u_p + full)
                        self.changes += 1
                        break
                    x = x - t * z
                    vp = float(n_p @ x) - d[p]
                u -= t * r
                u_p += t
                self.changes += 1
                gone = np.zeros(q, dtype=bool)
                gone[k] = True
                self.drop(gone)
            v = C @ x - self.d_free


def _polish(H, f, N, h, eq, scale):
    """[(x, u)] for the solution of min 0.5x'Hx + f'x s.t. N x = h when it
    has u >= 0 on the inequalities, those ``eq`` does not mark (to ``TOL``,
    then clipped), else []; the KKT system is solved by ``dgesv``."""
    n, q = len(f), len(h)
    K = np.zeros((n + q, n + q))
    K[:n, :n], K[:n, n:], K[n:, :n] = H, N.T, N
    sol, info = lapack.dgesv(K, np.concatenate([-f, h]))[2:]
    if info != 0:
        return []
    x, u = sol[:n], sol[n:]
    if not u[~eq].min(initial=0.0) >= -TOL * scale:
        return []
    u[~eq] = np.maximum(u[~eq], 0.0)
    return [(x, u)]


def _equilibrate_rows(A, b):
    """Scale rows to unit max coefficient; the feasible set is unchanged."""
    r = np.maximum(np.abs(A).max(axis=1, initial=0.0), 1e-12)
    return A / r[:, None], b / r


def check_feasible_point(x, A, b, lb, ub) -> bool:
    """Direct check of a candidate point against rows and boxes within ``TOL``."""
    return ((lb - x).max() <= TOL and (x - ub).max() <= TOL
            and (not A.size or (A @ x - b).max() <= TOL))


def solve_node(qp: NodeQp, lb: np.ndarray, ub: np.ndarray,
               parent: WorkingSet | None = None) -> QpResult:
    """Globally solve ``qp`` over the box [lb, ub], a float box inside its
    own; status "infeasible" comes with a certified positive lower bound on
    the row violation.

    A propagation certificate ends the solve with zero iterations.  Else
    each proximal step minimizes with H + eps I and f - eps c, its centre c
    the box's middle, then the last step's point, from the last step's
    working set.  The first starts from ``parent``, the working set of an
    optimal solve of ``qp`` over a box that differs from [lb, ub] only in
    one column, fixed here, that has no bound in that set, and joins that
    column's upper bound as an equality; or else from the fixed columns'
    upper bounds alone (``NodeQp.fixed_first``).  The optimum is the
    unregularized QP's solution with the working set as equalities, once
    it meets every row and bound with multipliers >= 0 and a residual
    <= ``TOL``, or the step's own point once its residual is.
    """
    H, f, A, b = qp.H, qp.f, qp.A, qp.b
    if (lb > ub + 1e-15).any():
        return QpResult("infeasible", None, None, 0, np.inf, float((lb - ub).max()))
    certified = _propagation_certificate(A, b, lb, ub, qp.nonzero)
    if certified > 1e-9:
        return QpResult("infeasible", None, None, 0, np.inf, certified)

    m, n = A.shape
    fixed = lb == ub
    d = np.concatenate([b, ub, -lb])
    d[m + n + fixed.nonzero()[0]] = np.inf
    qp.setup()
    method = _DualActiveSet(qp, d, parent or qp.fixed_first(fixed))
    method.fix((m + fixed.nonzero()[0]).tolist())
    center = 0.5 * (lb + ub)
    for _ in range(MAX_PROX):
        ray = method.solve(f - qp.eps * center)
        if ray is not None:
            certified = _elastic_dual_bound(A, b, lb, ub, ray[:m])
            if certified > 1e-9:
                return QpResult("infeasible", None, None, method.changes, np.inf, certified)
            raise QpSolverError(f"dual ray certifies no violation ({certified:.3g})")
        ws, eq = np.array(method.W, dtype=int), method.eq[:method.q]
        N = qp.normals[ws]
        polished = _polish(H, f, N, d[ws], eq, qp.scale)
        for x, u in polished + [(method.x, method.u[:method.q])]:
            kkt = float(np.abs(H @ x + f + u @ N).max()) / qp.scale
            if kkt <= TOL and check_feasible_point(x, A, b, lb, ub):
                rows = ws < m
                lam = np.bincount(ws[rows], u[rows], minlength=m)
                factored = WorkingSet(ws, eq.copy(), method.J, method.Rinv)
                return QpResult("optimal", x, float(0.5 * x @ H @ x + f @ x + qp.obj_const),
                                method.changes, kkt, multipliers=lam, working_set=factored)
        if kkt <= TOL:
            raise QpSolverError(f"converged point fails the feasibility check (kkt {kkt:.3g})")
        center = method.x
    raise QpSolverError(f"no optimum after {MAX_PROX} proximal steps (kkt {kkt:.3g})")
