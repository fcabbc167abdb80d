"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths it checks: enumeration
of binary assignments and of each leaf's active sets, with one KKT solve
per active set, instead of branch-and-bound and the QP solver, direct
rollouts instead of condensing (the free response of a step problem
included), random formula/signal generation paired with the quantitative
monitor, HiGHS instead of the QP solver for the elastic violation of a QP's
rows and instead of branch-and-bound for the feasibility of an encoded
formula, nonnegative least squares on the active set for the KKT
conditions of a returned QP point, and the plant polynomial written out
term by term, integrated by Radau, instead of the coefficient matrix
integrated by LSODA.  The readers of the CSV files that the
program writes live here too, since only the tests read those files back,
and the writer of plant files, since only the tests write them, as does
``ProblemBuilder``, which states test problems by name: their
variables, rows and costs through ``add_variables``, ``add_rows`` and
``add_quadratic``.  Three adapters build on it: ``add_squared_cost`` (the
squared cost of a linear form), ``add_step_rows`` (a template's rows
mapped onto named variables) and ``encode_formula`` (a formula over a
generic binding through ``stl.FormulaTemplate``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from wws import stl
from wws.milp import MiqpProblem
from wws.mpc import SweepResult, _bind
from wws.predictor import lift


class ProblemBuilder:
    """Accumulates one MIQP by name: variables, row blocks and quadratic
    cost, frozen by ``build``.

    The controller assembles its step problems directly; test problems are
    stated through this builder, which checks names, boxes and binaries
    as they arrive.
    """

    def __init__(self):
        self._names: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._binary: list[bool] = []
        self._index: dict[str, int] = {}
        # row blocks A_blk x[cols] <= b_blk, in the order they were added
        self._blocks: list[tuple[list[int], np.ndarray, np.ndarray]] = []
        self._objective: list[tuple[list[int], np.ndarray, np.ndarray]] = []
        self._obj_const = 0.0
        self._infeasible: str | None = None

    # -- variables ---------------------------------------------------------

    def add_variables(self, names: Iterable[str], lb: float, ub: float,
                      binary: Iterable[bool]) -> None:
        """Add variables sharing the box [lb, ub]; ``binary`` flags each."""
        names = list(names)
        if not (math.isfinite(lb) and math.isfinite(ub) and lb <= ub):
            raise ValueError(f"variables {names} need a finite box, got [{lb}, {ub}]")
        if len(set(names)) != len(names) or not self._index.keys().isdisjoint(names):
            seen = set(self._index)
            dup = next(n for n in names if n in seen or seen.add(n))
            raise ValueError(f"duplicate variable {dup!r}")
        start = len(self._names)
        self._index.update(zip(names, range(start, start + len(names))))
        self._names += names
        self._binary += [bool(v) for v in binary]
        self._lb += [float(lb)] * len(names)
        self._ub += [float(ub)] * len(names)

    # -- constraints ---------------------------------------------------------

    def add_rows(self, names: Iterable[str], A: np.ndarray, b: np.ndarray) -> None:
        """Add the rows ``A v <= b``, ``v`` the named variables.

        A row with no nonzero coefficient is the constant ``0 <= b`` and
        folds away here; a violated one marks the problem infeasible.
        """
        cols = self._columns(names, "constraint")
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        live = A.any(axis=1)
        if not live.all():
            for rhs in b[~live]:
                if rhs < -1e-12:
                    self.mark_infeasible(f"constant constraint violated ({-rhs:.3g} > 0)")
            A, b = A[live], b[live]
        if len(b):
            self._blocks.append((cols, A, b))

    def _columns(self, names: Iterable[str], where: str) -> list[int]:
        try:
            return [self._index[n] for n in names]
        except KeyError as exc:
            raise ValueError(f"unknown variable {exc.args[0]!r} in {where}") from None

    def mark_infeasible(self, reason: str) -> None:
        if self._infeasible is None:
            self._infeasible = reason

    # -- objective -----------------------------------------------------------

    def add_quadratic(self, names: Iterable[str], H: np.ndarray, f: np.ndarray,
                      const: float = 0.0) -> None:
        """Add 0.5 v'Hv + f'v + const to the objective, v the named variables.

        ``H`` must be symmetric positive semidefinite: ``build`` checks the
        symmetry but not the curvature, which is the caller's to ensure.
        """
        idx = self._columns(names, "objective")
        if len(set(idx)) != len(idx):
            raise ValueError("a quadratic term names a variable twice")
        self._objective.append((idx, np.asarray(H, dtype=float),
                                np.asarray(f, dtype=float)))
        self._obj_const += float(const)

    # -- assembly ------------------------------------------------------------

    def build(self) -> MiqpProblem:
        n = len(self._names)
        names = tuple(self._names)
        H = np.zeros((n, n))
        f = np.zeros(n)
        for idx, H_block, f_block in self._objective:
            H[np.ix_(idx, idx)] += H_block
            f[idx] += f_block

        m = sum(len(rhs) for _, _, rhs in self._blocks)
        A = np.zeros((m, n))
        b = np.zeros(m)
        r = 0
        for cols, block, rhs in self._blocks:
            A[r:r + len(rhs), cols] = block
            b[r:r + len(rhs)] = rhs
            r += len(rhs)
        lb = np.array(self._lb)
        ub = np.array(self._ub)
        binary = np.array(self._binary, dtype=bool)
        problem = MiqpProblem(names=names, H=H, f=f, obj_const=self._obj_const,
                              A=A, b=b, lb=lb, ub=ub,
                              binary=binary, infeasible_reason=self._infeasible)
        _validate(problem)
        return problem


def _validate(p: MiqpProblem) -> None:
    """Structural checks only: whoever forms H owns its curvature."""
    if p.n == 0:
        return
    if not np.allclose(p.H, p.H.T, atol=1e-12):
        raise ValueError("objective quadratic term is not symmetric")
    # every binary must appear somewhere beyond its own box
    used = p.A.any(axis=0) | p.H.any(axis=0) | (p.f != 0.0)
    for i in np.flatnonzero(p.binary & ~used):
        raise ValueError(f"binary {p.names[i]!r} appears in no constraint or objective")


def add_step_rows(builder: ProblemBuilder, rows: stl.StepRows, names: Sequence[str],
                  M: np.ndarray, values: np.ndarray) -> None:
    """Add a template's rows to ``builder`` with the slots mapped through ``M``.

    Slot ``s`` is ``M[s] @ v + values[s]``, ``v`` the named variables;
    ``values`` were the slot values the rows were instantiated with, and
    ``M`` has one more row, the pad slot's zeros.
    """
    if rows.infeasible:
        builder.mark_infeasible(f"{rows.name}: violated by already-fixed samples")
        return
    builder.add_variables(rows.aux_names, 0.0, 1.0, rows.aux_binary)
    if len(rows.slot):
        builder.add_rows([*names, *rows.aux_names],
                         np.hstack((-rows.sign[:, None] * M[rows.slot], rows.aux)),
                         rows.rhs(values))


def iterated_free_response(pred, cfg, x: Sequence[float]) -> np.ndarray:
    """Outputs at horizon offsets 1..Np from the state ``x`` with u = 0, by
    stepping the lifted dynamics one sample at a time."""
    g = np.zeros((cfg.horizon + 1, pred.n))
    g[0] = lift(x, pred.n)
    for i in range(cfg.horizon):
        g[i + 1] = pred.A @ g[i] + pred.b_d * pred.w + pred.c
    return g[1:, cfg.output_index - 1]


def builder_step_problem(cfg, cond, x_k: Sequence[float], k: int,
                         y_hist: Sequence[float], u_hist: Sequence[float]) -> MiqpProblem:
    """The step problem of ``mpc.build_step_problem`` stated through the
    builder: the same bindings and template rows, assembled by name, from
    the iterated free response."""
    builder = ProblemBuilder()
    u_names = [f"u{k + i}" for i in range(cond.horizon)]
    builder.add_variables(u_names, cfg.u_min, cfg.u_max, [False] * len(u_names))
    y0 = iterated_free_response(cond.pred, cfg, x_k)
    builder.add_quadratic(u_names, cond.H, *cond.linear_cost(y0))
    for tmpl in cfg.templates:
        state, values, M = _bind(tmpl, k, np.asarray(y_hist, dtype=float),
                                 np.asarray(u_hist, dtype=float), y0, cond.Y)
        add_step_rows(builder, tmpl.instantiate(state, values), u_names, M, values)
    return builder.build()


def enumerate_miqp(problem: MiqpProblem) -> tuple[float, np.ndarray | None]:
    """Exact optimum over all binary assignments (inf if none is feasible).

    Shares no code with ``wws.qp`` or ``wws.miqp``.  With the binaries p
    fixed, a leaf is a QP in the n_c continuous variables x whose rows
    G x <= h(p) (the rows that read x, then its bounds) have a right-hand
    side affine in p, as is the gradient H_cc x + f_c + H_cp p.  An optimum
    of a bounded convex QP has an active set of at most n_c constraints
    with a nonsingular KKT system, so for every such set the KKT system is
    solved once and x(p), lam(p) are evaluated for all 2^nb leaves together.
    A leaf's optimum is a KKT-valid point: every row (scaled to unit
    maximum coefficient) and bound met to 1e-9 and lam >= -1e-9.  A leaf
    without one is infeasible: either a row that reads no continuous
    variable fails outright, or ``elastic_violation_highs`` must find its
    continuous system infeasible (t* > 0), else this raises.
    """
    bi = np.flatnonzero(problem.binary)
    ci = np.flatnonzero(~problem.binary)
    nb, nc = len(bi), len(ci)
    H, f = problem.H, problem.f
    scale = np.maximum(np.max(np.abs(problem.A), axis=1, initial=0.0), 1e-12)
    A, b = problem.A / scale[:, None], problem.b / scale
    P = np.array(list(itertools.product((0.0, 1.0), repeat=nb))).reshape(-1, nb)
    reads_x = np.max(np.abs(A[:, ci]), axis=1, initial=0.0) > 0.0
    constant_rows_hold = np.all(P @ A[~reads_x][:, bi].T <= b[~reads_x] + 1e-9, axis=1)
    m = int(reads_x.sum())
    G = np.vstack([A[reads_x][:, ci], np.eye(nc), -np.eye(nc)])
    h = np.hstack([b[reads_x] - P @ A[reads_x][:, bi].T,
                   np.broadcast_to(np.r_[problem.ub[ci], -problem.lb[ci]], (len(P), 2 * nc))])
    g = f[ci] + P @ H[np.ix_(ci, bi)].T
    # leaves with the same continuous QP are solved once
    keys, leaf_key = np.unique(np.hstack([h, g]), axis=0, return_inverse=True)
    leaf_key = leaf_key.ravel()
    h_key, g_key = keys[:, :len(G)], keys[:, len(G):]
    x_key = np.zeros((len(keys), nc))
    solved = np.zeros(len(keys), dtype=bool)
    for s in range(min(nc, len(G)) + 1):
        sets = list(itertools.combinations(range(len(G)), s))
        S = np.array(sets, dtype=int).reshape(len(sets), s)
        kkt = np.zeros((len(S), nc + s, nc + s))
        kkt[:, :nc, :nc] = H[np.ix_(ci, ci)]
        kkt[:, nc:, :nc] = G[S]
        kkt[:, :nc, nc:] = G[S].transpose(0, 2, 1)
        regular = np.linalg.cond(kkt) < 1e10
        S, inv = S[regular], np.linalg.inv(kkt[regular])
        chunk = max(1, 2_000_000 // ((nc + s) * len(keys)))
        for c in range(0, len(S), chunk):
            open_keys = np.flatnonzero(~solved)
            if not len(open_keys):
                break
            sol = (inv[c:c + chunk, :, :nc] @ -g_key[open_keys].T
                   + inv[c:c + chunk, :, nc:] @ h_key[open_keys].T[S[c:c + chunk]])
            set_i, key_i = np.nonzero(np.all(sol[:, nc:, :] >= -1e-9, axis=1))
            x = sol[set_i, :nc, key_i]
            key = open_keys[key_i]
            valid = np.max(x @ G.T - h_key[key], axis=1) <= 1e-9
            x_key[key[valid]] = x[valid]
            solved[key[valid]] = True

    unsolved = np.unique(leaf_key[~solved[leaf_key] & constant_rows_hold])
    if len(unsolved):
        t = elastic_violation_highs(G[:m], h_key[unsolved, :m], problem.lb[ci], problem.ub[ci])
        if not np.all(t > 0.0):
            raise RuntimeError("HiGHS finds a leaf feasible that has no KKT point")
    feasible = solved[leaf_key] & constant_rows_hold
    if not feasible.any():
        return np.inf, None
    x = np.zeros((len(P), problem.n))
    x[:, bi] = P
    x[:, ci] = x_key[leaf_key]
    obj = np.full(len(P), np.inf)
    z = x[feasible]
    obj[feasible] = 0.5 * np.einsum("ij,jk,ik->i", z, H, z) + z @ f + problem.obj_const
    best = int(np.argmin(obj))
    return float(obj[best]), x[best]


def random_miqp(rng: np.random.Generator, max_binaries: int = 8) -> MiqpProblem:
    """Small random MIQP: boxed continuous vars, coupled binaries with linear costs."""
    nb = int(rng.integers(1, max_binaries + 1))
    nc = int(rng.integers(1, 4))
    b = ProblemBuilder()
    xs, ps = [f"x{i}" for i in range(nc)], [f"p{i}" for i in range(nb)]
    b.add_variables(xs, -5.0, 5.0, [False] * nc)
    b.add_variables(ps, 0.0, 1.0, [True] * nb)
    for x in xs:
        add_squared_cost(b, [x], [1.0], 1.0, target=float(rng.normal()))
    b.add_quadratic(ps, np.zeros((nb, nb)), [float(rng.normal()) for _ in ps])
    for _ in range(int(rng.integers(1, 2 + nb))):
        coefs = [float(rng.normal()) for _ in xs]
        picked = list(rng.choice(ps, size=min(2, nb), replace=False))
        coefs += [float(rng.normal(0, 2)) for _ in picked]
        b.add_rows(xs + picked, [coefs], [float(rng.normal(1.0, 1.0))])
    return b.build()


def add_squared_cost(builder: ProblemBuilder, names: Sequence[str], coefs: Sequence[float],
                     weight: float, target: float = 0.0) -> None:
    """Add weight * (coefs . v - target)^2 to the builder's objective, v the
    named variables."""
    c = np.asarray(coefs, dtype=float)
    e = -float(target)
    builder.add_quadratic(names, 2.0 * weight * np.outer(c, c),
                          2.0 * weight * e * c, weight * e ** 2)


SignalBinding = Mapping[str, Mapping[int, Union[str, float]]]


@dataclass
class EncodedFormula:
    """What one formula contributed to the problem under construction.

    ``binaries`` holds the disjunction binaries (``{name}.t{t}.d{j}``, named
    by the first sample the disjunction reads) and the predicate literals
    (``{name}.t{t}.p{pid}``); ``literals`` holds the continuous selectors of
    disjunctions under a fractional required truth; ``constraints`` counts
    the rows emitted.
    """

    binaries: list[str]
    literals: list[str]
    constraints: int
    deferred: bool = False
    infeasible: bool = False


def encode_formula(builder: ProblemBuilder, f: stl.Formula, binding: SignalBinding,
                   h: float, cfg: stl.EncodingConfig, name: str = "stl") -> EncodedFormula:
    """Assert that ``f`` holds at sample 0 over a generic binding of its signals.

    History samples appear in ``binding`` as float constants and fold away;
    decision-bound samples appear as the names of the builder's variables,
    which are substituted for the template's slots.  Samples with no
    binding are unbound: their obligations are deferred.
    """
    tmpl = stl.FormulaTemplate(f, h, cfg, name)
    names = list(dict.fromkeys(v for samples in binding.values()
                               for v in samples.values() if isinstance(v, str)))
    state = np.full(len(tmpl.slots), stl.UNBOUND, dtype=np.int8)
    values = np.zeros(len(tmpl.slots))
    M = np.zeros((len(tmpl.slots) + 1, len(names)))
    for (ch, t), s in tmpl.slots.items():
        v = binding.get(ch, {}).get(t)
        if isinstance(v, str):
            state[s], M[s, names.index(v)] = stl.DECISION, 1.0
        elif v is not None:
            state[s], values[s] = stl.HISTORY, v
    rows = tmpl.instantiate(state, values)
    add_step_rows(builder, rows, names, M, values)
    return EncodedFormula(binaries=[chain[0] for chain in rows.warm_sources],
                          literals=[n for n, is_bin in zip(rows.aux_names, rows.aux_binary)
                                    if not is_bin],
                          constraints=len(rows.slot), deferred=rows.deferred,
                          infeasible=rows.infeasible)


def max_violation(problem: MiqpProblem, x: np.ndarray) -> float:
    """Largest absolute violation of the rows and bounds at x (0 if none)."""
    v = float(np.max(problem.A @ x - problem.b, initial=0.0))
    v = max(v, float(np.max(problem.lb - x, initial=0.0)))
    return max(v, float(np.max(x - problem.ub, initial=0.0)))


def kkt_residual(H, f, A, b, lb, ub, x, active_tol: float = 1e-5
                 ) -> tuple[float, float]:
    """(stationarity, primal violation) of a QP point, without ``wws.qp``.

    For  min 0.5 x'Hx + f'x  s.t.  Ax <= b,  lb <= x <= ub,  the rows and
    bounds within ``active_tol`` of equality (rows measured relative to their
    largest coefficient) form the active set.  Multipliers lam >= 0 on it are
    fitted by ``scipy.optimize.nnls`` to  Hx + f + A_act' lam = 0; the
    stationarity is the largest entry of the remaining residual.  The primal
    violation is the largest of max(0, (a_k x - b_k) / max_j |a_kj|) over the
    rows and the absolute bound violations.
    """
    from scipy.optimize import nnls

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.max(np.abs(A), axis=1, initial=0.0), 1e-12)
    row_gap = (A @ x - b) / scale
    eye = np.eye(len(x))
    active = [A[row_gap >= -active_tol] / scale[row_gap >= -active_tol, None],
              eye[x >= ub - active_tol], -eye[x <= lb + active_tol]]
    A_act = np.vstack(active)
    g = H @ x + f
    if A_act.shape[0]:
        lam, _ = nnls(A_act.T, -g)
        g = g + A_act.T @ lam
    violation = max(float(np.max(row_gap, initial=0.0)),
                    float(np.max(lb - x, initial=0.0)),
                    float(np.max(x - ub, initial=0.0)))
    return float(np.max(np.abs(g))), violation


def elastic_violation_highs(A, b, lb, ub):
    """Optimal elastic violation t* of the row-equilibrated system, by HiGHS.

    Solves  min t  s.t.  Ax - t <= b,  lb <= x <= ub,  t >= -1  with every
    row first scaled to unit max coefficient (rows of all zeros keep a
    1e-12 floor), so t* is the smallest uniform relative violation and the
    rows are feasible iff t* <= 0.  Shares no code with ``wws.qp``: scipy's
    ``linprog`` with the HiGHS dual simplex.

    ``b``, ``lb`` and ``ub`` may also be stacks of k right-hand sides and
    boxes (k x m, k x n; a 1-d one is shared): the k systems are then one
    block-diagonal LP, whose objective is the sum of the k values of t, so
    each block's t is its own t*, and an array of the k values is returned.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    m, n = A.shape
    b, lb, ub = (np.asarray(v, dtype=float) for v in (b, lb, ub))
    single = b.ndim == lb.ndim == ub.ndim == 1
    k = max(len(np.atleast_2d(v)) for v in (b, lb, ub))
    b = np.broadcast_to(b, (k, m))
    lb, ub = np.broadcast_to(lb, (k, n)), np.broadcast_to(ub, (k, n))
    r = np.maximum(np.max(np.abs(A), axis=1, initial=0.0), 1e-12)
    block = np.column_stack([A / r[:, None], -np.ones(m)])
    cost = np.tile(np.r_[np.zeros(n), 1.0], k)
    bounds = np.column_stack([np.column_stack([lb, np.full(k, -1.0)]).ravel(),
                              np.column_stack([ub, np.full(k, np.inf)]).ravel()])
    res = linprog(cost, A_ub=sparse.kron(sparse.eye(k), block, format="csr"),
                  b_ub=(b / r).ravel(), bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the elastic LP: {res.message}")
    t = res.x[n::n + 1]
    return float(t[0]) if single else t


def milp_feasible(problem: MiqpProblem) -> bool:
    """Whether the rows, box and integrality admit a point, by HiGHS.

    Solves the zero-objective feasibility MILP with ``scipy.optimize.milp``.
    HiGHS accepts a binary within 1e-6 of integral, which a big-M row turns
    into a slack of about M 1e-6; so a feasible verdict is confirmed by an LP
    with the binaries fixed at their rounded values under a 1e-10 primal
    tolerance, and a verdict that LP does not confirm raises.  Shares no code
    with ``wws.qp`` or ``wws.miqp``.
    """
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    if problem.infeasible_reason is not None:
        return False
    if problem.n == 0:
        return True
    rows = problem.A.shape[0] > 0
    res = milp(np.zeros(problem.n), integrality=problem.binary.astype(int),
               bounds=Bounds(problem.lb, problem.ub),
               constraints=[LinearConstraint(problem.A, -np.inf, problem.b)] if rows else None)
    if res.status == 2:
        return False
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the feasibility MILP: {res.message}")
    lb, ub = problem.lb.copy(), problem.ub.copy()
    lb[problem.binary] = ub[problem.binary] = np.round(res.x[problem.binary])
    lp = linprog(np.zeros(problem.n), A_ub=problem.A if rows else None,
                 b_ub=problem.b if rows else None, bounds=list(zip(lb, ub)),
                 method="highs-ds", options={"primal_feasibility_tolerance": 1e-10})
    if lp.status != 0:
        raise RuntimeError(f"HiGHS point fails with its binaries rounded: {lp.message}")
    return True


# ---------------------------------------------------------------------------
# Random bounded formulas and signals for the encoding soundness suite, and
# the canonical printer the parser round-trips through
# ---------------------------------------------------------------------------

CHANNELS = ("y", "u")
CHANNEL_RANGES = {"y": (-10.0, 10.0), "u": (-10.0, 10.0)}


def random_formula(rng: np.random.Generator, depth: int, max_len: int) -> stl.Formula:
    ops = ("pred",) if depth == 0 else (
        "pred", "not", "and", "or", "alw", "ev", "until")
    op = ops[int(rng.integers(0, len(ops)))]
    if op == "pred":
        ch = CHANNELS[int(rng.integers(0, len(CHANNELS)))]
        rel = (">=", "<=", ">", "<")[int(rng.integers(0, 4))]
        return stl.Pred(ch, rel, float(rng.uniform(-6, 6)))
    if op == "not":
        return stl.Not(random_formula(rng, depth - 1, max_len))
    if op in ("and", "or"):
        n = int(rng.integers(2, 4))
        kids = tuple(random_formula(rng, depth - 1, max_len) for _ in range(n))
        return stl.And(kids) if op == "and" else stl.Or(kids)
    a = int(rng.integers(0, max_len // 2 + 1))
    b = int(rng.integers(a, max_len))
    if op == "alw":
        return stl.Alw(float(a), float(b), random_formula(rng, depth - 1, max_len))
    if op == "ev":
        return stl.Ev(float(a), float(b), random_formula(rng, depth - 1, max_len))
    return stl.Until(float(a), float(b),
                     random_formula(rng, depth - 1, max_len),
                     random_formula(rng, depth - 1, max_len))


def random_signal(rng: np.random.Generator, length: int) -> stl.SampledSignal:
    return stl.SampledSignal(
        channels={ch: rng.uniform(-8, 8, size=length) for ch in CHANNELS}, h=1.0)


def encode_fixed_signal(formula: stl.Formula, signal: stl.SampledSignal,
                        eps: float = 1e-6) -> MiqpProblem:
    """Encode with every signal sample pinned through equal variable bounds.

    Pinning by bounds (rather than folding constants) exercises the full
    big-M machinery while fixing the signal content.
    """
    builder = ProblemBuilder()
    binding = {ch: {t: f"{ch}{t}" for t in range(len(vals))}
               for ch, vals in signal.channels.items()}
    for ch, vals in signal.channels.items():
        for t, v in enumerate(vals):
            builder.add_variables([binding[ch][t]], float(v), float(v), [False])
    cfg = stl.EncodingConfig(channel_bounds=CHANNEL_RANGES, eps=eps)
    encode_formula(builder, formula, binding, signal.h, cfg)
    return builder.build()


def soundness_case(rng: np.random.Generator, eps: float = 1e-6):
    """One (formula, signal, adjusted robustness) triple, boundary-filtered.

    Cases whose eps-adjusted robustness sits within 10 eps of zero are
    rejected: strictness is approximated by a margin, so the encoding is
    undefined inside that band by construction.
    """
    while True:
        formula = random_formula(rng, int(rng.integers(1, 4)), 8)
        needed = horizon(formula, 1.0) + 1
        if needed > 8:
            continue
        length = int(rng.integers(needed, 9))
        signal = random_signal(rng, length)
        rho = stl.robustness(formula, signal, 0, strict_shift=eps)
        if abs(rho) < 10 * eps:
            continue
        return formula, signal, rho


def horizon(f: stl.Formula, h: float) -> int:
    """Future samples needed to evaluate the formula at one time point."""
    if isinstance(f, stl.Pred):
        return 0
    if isinstance(f, stl.Not):
        return horizon(f.child, h)
    if isinstance(f, (stl.And, stl.Or)):
        return max(horizon(c, h) for c in f.children)
    if not isinstance(f, (stl.Alw, stl.Ev, stl.Until)):
        raise TypeError(f"not a formula: {f!r}")
    if isinstance(f.b, type(stl.END)):
        raise stl.StlEvaluationError("unbounded interval: resolve 'end' first")
    window = math.ceil(f.b / h - 1e-9)
    if isinstance(f, stl.Until):
        return window + max(horizon(f.left, h), horizon(f.right, h))
    return window + horizon(f.child, h)


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _fmt_bound(b: stl.Bound) -> str:
    return "end" if isinstance(b, type(stl.END)) else _fmt_num(b)


def format_formula(f: stl.Formula) -> str:
    """Canonical concrete syntax; stl.parse(format_formula(f)) == f."""

    def wrap(child: stl.Formula) -> str:
        if isinstance(child, (stl.And, stl.Or, stl.Until)):
            return f"({format_formula(child)})"
        return format_formula(child)

    if isinstance(f, stl.Pred):
        return f"{f.channel} {f.op} {_fmt_num(f.const)}"
    if isinstance(f, stl.Not):
        return f"not {wrap(f.child)}"
    if isinstance(f, stl.And):
        return " and ".join(
            f"({format_formula(c)})" if isinstance(c, (stl.And, stl.Or)) else format_formula(c)
            for c in f.children)
    if isinstance(f, stl.Or):
        return " or ".join(
            f"({format_formula(c)})" if isinstance(c, stl.Or) else format_formula(c)
            for c in f.children)
    if isinstance(f, stl.Alw):
        return f"alw_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.child)}"
    if isinstance(f, stl.Ev):
        return f"ev_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.child)}"
    if isinstance(f, stl.Until):
        return f"{wrap(f.left)} until_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Readers of the CSV files the program writes, and a writer of plant files
# ---------------------------------------------------------------------------


def write_plant_json(model, path: str | Path) -> None:
    """``model`` as a plant file that ``PlantModel.from_json`` reads back."""
    doc = {"name": model.name, "a": list(model.a), "output_index": model.output_index}
    Path(path).write_text(json.dumps(doc, indent=1))


def read_trace_csv(path: str | Path) -> dict[str, list]:
    """Columns of a trace CSV; numeric cells parsed to float, others kept."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list] = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                try:
                    cols[name].append(float(cell) if cell != "" else float("nan"))
                except ValueError:
                    cols[name].append(cell)
    return cols


def read_sweep_csv(path: str | Path) -> SweepResult:
    """The table of a sweep CSV written by ``SweepResult.write_csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        starts = tuple(float(v) for v in header[1:])
        temps = []
        rows = []
        for row in reader:
            temps.append(float(row[0]))
            rows.append([int(v) for v in row[1:]])
    return SweepResult(initial_temps=tuple(temps), start_times=starts,
                       table=np.array(rows, dtype=int))


# ---------------------------------------------------------------------------
# Plant propagation reference
# ---------------------------------------------------------------------------


def reference_rhs(model, u: float, w: float):
    """The plant's right-hand side for held scalar inputs, written out term by
    term from the coefficient table's documentation (a1 is ``model.a[0]``)."""
    (a1, a2, a3, a4, a5, a6, a7, a8, a9, a10,
     a11, a12, a13, a14, a15, a16, a17, a18, a19, a20,
     a21, a22, a23, a24, a25, a26, a27, a28, a29, a30,
     a31, a32, a33, a34, a35, a36, a37, a38, a39, a40,
     a41, a42) = model.a

    def f(x) -> np.ndarray:
        x1, x2, x3, x4, x5, x6 = x
        return np.array([
            a1 * x1 + a2 * x6 + a3 * u,
            a4 * x1 + a5 * x2 + a6 * w,
            a7 * x2 + a8 * x3 + a9 * x4 + a10 * x3 * x3 + a11 * x4 * x4
            + a12 * x3 * x3 * x4 + a13 * x3 * x4 * x4
            + a14 * x3 * x3 * x3 + a15 * x4 * x4 * x4 + a16 * w,
            a17 * x3 + a18 * x4 + a19 * x5 + a20 * x3 * x3 + a21 * x4 * x4
            + a22 * x5 * x5 + a23 * x3 * x3 * x4 + a24 * x3 * x4 * x4
            + a25 * x4 * x4 * x5 + a26 * x4 * x5 * x5
            + a27 * x3 * x3 * x3 + a28 * x4 * x4 * x4 + a29 * x5 * x5 * x5
            + a30 * w,
            a31 * x4 + a32 * x5 + a33 * x4 * x4 + a34 * x5 * x5
            + a35 * x4 * x4 * x5 + a36 * x4 * x5 * x5
            + a37 * x4 * x4 * x4 + a38 * x5 * x5 * x5 + a39 * w,
            a40 * x5 + a41 * x6 + a42 * w,
        ])

    return f


def reference_jac(model):
    """The (6, 6) state Jacobian of :func:`reference_rhs`, derived by hand."""
    a = model.a

    def J(x) -> np.ndarray:
        _x1, _x2, x3, x4, x5, _x6 = x
        m = np.zeros((6, 6))
        m[0, 0] = a[0]
        m[0, 5] = a[1]
        m[1, 0] = a[3]
        m[1, 1] = a[4]
        m[2, 1] = a[6]
        m[2, 2] = a[7] + 2 * a[9] * x3 + 2 * a[11] * x3 * x4 + a[12] * x4 * x4 \
            + 3 * a[13] * x3 * x3
        m[2, 3] = a[8] + 2 * a[10] * x4 + a[11] * x3 * x3 + 2 * a[12] * x3 * x4 \
            + 3 * a[14] * x4 * x4
        m[3, 2] = a[16] + 2 * a[19] * x3 + 2 * a[22] * x3 * x4 + a[23] * x4 * x4 \
            + 3 * a[26] * x3 * x3
        m[3, 3] = a[17] + 2 * a[20] * x4 + a[22] * x3 * x3 + 2 * a[23] * x3 * x4 \
            + 2 * a[24] * x4 * x5 + a[25] * x5 * x5 + 3 * a[27] * x4 * x4
        m[3, 4] = a[18] + 2 * a[21] * x5 + a[24] * x4 * x4 + 2 * a[25] * x4 * x5 \
            + 3 * a[28] * x5 * x5
        m[4, 3] = a[30] + 2 * a[32] * x4 + 2 * a[34] * x4 * x5 + a[35] * x5 * x5 \
            + 3 * a[36] * x4 * x4
        m[4, 4] = a[31] + 2 * a[33] * x5 + a[34] * x4 * x4 + 2 * a[35] * x4 * x5 \
            + 3 * a[37] * x5 * x5
        m[5, 4] = a[39]
        m[5, 5] = a[40]
        return m

    return J


def reference_step(model, x: np.ndarray, u: float, w: float, h: float) -> np.ndarray:
    """One hold interval of a single column by scipy's Radau at 1e-12.

    Bypasses ``wws.plant``'s right-hand side, Jacobian and LSODA call
    altogether: it integrates :func:`reference_rhs` with
    :func:`reference_jac`, so it shares only the model's coefficients with
    the code under test.
    """
    from scipy.integrate import solve_ivp

    f = reference_rhs(model, u, w)
    jac = reference_jac(model)
    sol = solve_ivp(lambda _t, y: f(y), (0.0, h), np.asarray(x, dtype=float),
                    method="Radau", rtol=1e-12, atol=1e-12,
                    jac=lambda _t, y: jac(y))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]
