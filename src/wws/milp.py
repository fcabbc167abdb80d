"""Containers for mixed-integer quadratic programs.

A ``MiqpProblem`` is dense and frozen: linear rows ``A x <= b`` and a
quadratic cost over named variables.  The controller assembles its step
problems directly (``mpc.build_step_problem``) and keeps every row with a
nonzero coefficient, also one that no point of the variable box can
violate.  The condensed step problem has no equality rows: eliminating the
lifted states removes the predictor dynamics, and an equality would only
pin a variable, which its box already does.  Every variable carries a
finite box (the solvers rely on bounded feasible sets), binaries are
flagged in a mask, and the objective convention is

    J(x) = 0.5 x' H x + f' x + const.

A plain-text LP-style dump is provided for cross-checking individual
problems against external solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

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
    # incumbent minus the lowest node bound when the search stopped, or
    # minus the incumbent's own bound on a root it fathomed; at most
    # GAP_TOL when optimal
    gap: float | None = None
    qp_solves: int = 0             # node QPs solved, fathomed nodes not counted


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
