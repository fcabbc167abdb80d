"""Containers for mixed-integer quadratic programs.

``ProblemBuilder`` accumulates variables, linear rows ``A x <= b`` (as dense
blocks over named variables, the way the controller's step problems arrive)
and quadratic cost, and freezes everything into a dense ``MiqpProblem``,
without the rows that no point of the variable box can violate.  Freezing
checks structure only (symmetry, every binary used); the curvature of H
belongs to whoever formed it.  The condensed step problem has no equality
rows: eliminating the lifted states removes the predictor dynamics, and an
equality would only pin a variable, which its box already does.  Every
variable carries a finite box (the solvers rely on bounded feasible sets),
binaries are flagged in a mask, and the objective convention is

    J(x) = 0.5 x' H x + f' x + const.

A plain-text LP-style dump is provided for cross-checking individual
problems against external solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

@dataclass(frozen=True)
class MiqpProblem:
    """Frozen dense MIQP: minimize 0.5 x'Hx + f'x + const over the rows."""

    names: tuple[str, ...]
    H: np.ndarray
    f: np.ndarray
    obj_const: float
    A: np.ndarray          # A x <= b
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray     # bool mask
    infeasible_reason: str | None = None

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.H @ x + self.f @ x + self.obj_const)

    def assignment(self, x: np.ndarray) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, x)}


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: status, incumbent and branch-and-bound statistics."""

    status: str                      # "optimal" | "infeasible" | "iteration-limit"
    objective: float | None = None
    x: np.ndarray | None = None
    assignment: dict[str, float] | None = None
    nodes: int = 0
    gap: float | None = None
    qp_solves: int = 0


class ProblemBuilder:
    """Accumulates one MIQP; not thread-safe, use one builder per problem."""

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
        violable = ~_box_redundant(A, b, lb, ub)
        if not np.all(violable):
            problem = replace(problem, A=A[violable], b=b[violable])
        return problem


def _box_redundant(A: np.ndarray, b: np.ndarray, lb: np.ndarray,
                   ub: np.ndarray) -> np.ndarray:
    """Mask of the rows that no point of the box lb <= x <= ub can violate.

    A row is redundant when its exact maximum over the box,
    sum_j max(a_j lb_j, a_j ub_j), stays at or below b after adding a bound
    on the rounding error of that sum.  This generalizes the folding of
    constant rows in ``add_rows``: a row whose coefficients are rounding noise
    against its right-hand side is dropped here instead of reaching the
    solver, where row equilibration would blow it up.
    """
    if not A.size:
        return np.zeros(A.shape[0], dtype=bool)
    sup = np.sum(np.maximum(A * lb, A * ub), axis=1)
    size = np.abs(A) @ np.maximum(np.abs(lb), np.abs(ub))
    return sup + (A.shape[1] + 2) * np.finfo(float).eps * size <= b


def _validate(p: MiqpProblem) -> None:
    """Structural checks only: whoever forms H owns its curvature (the
    condensed horizon checks its Hessian once per run)."""
    if p.n == 0:
        return
    if not np.allclose(p.H, p.H.T, atol=1e-12):
        raise ValueError("objective quadratic term is not symmetric")
    # every binary must appear somewhere beyond its own box
    used = p.A.any(axis=0) | p.H.any(axis=0) | (p.f != 0.0)
    for i in np.flatnonzero(p.binary & ~used):
        raise ValueError(f"binary {p.names[i]!r} appears in no constraint or objective")


def dump_lp(p: MiqpProblem, path: str | Path) -> None:
    """Write an LP-format-style text rendering for external cross-checks."""
    lines = ["\\ MIQP dump", "Minimize", " obj:"]
    terms = [f" {c:+.17g} {n}" for n, c in zip(p.names, p.f) if c != 0.0]
    quad = []
    for i in range(p.n):
        for j in range(i, p.n):
            if p.H[i, j] != 0.0:
                # bracket convention: [x'Qx]/2 with Q = H
                pair = f"{p.names[i]} * {p.names[j]}" if i != j else f"{p.names[i]} ^ 2"
                quad.append(f" {2 * p.H[i, j] if i != j else p.H[i, j]:+.17g} {pair}")
    obj = "".join(terms)
    if quad:
        obj += " + [" + "".join(quad) + " ] / 2"
    if p.obj_const:
        obj += f" {p.obj_const:+.17g}"
    lines.append(obj if obj.strip() else " 0 " + (p.names[0] if p.n else ""))
    lines.append("Subject To")
    for k in range(p.A.shape[0]):
        row = "".join(f" {c:+.17g} {p.names[i]}" for i, c in enumerate(p.A[k]) if c != 0.0)
        lines.append(f" c{k}:{row} <= {p.b[k]:.17g}")
    lines.append("Bounds")
    for i, name in enumerate(p.names):
        lines.append(f" {p.lb[i]:.17g} <= {name} <= {p.ub[i]:.17g}")
    if np.any(p.binary):
        lines.append("Binaries")
        lines.append(" " + " ".join(np.asarray(p.names)[p.binary]))
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")
