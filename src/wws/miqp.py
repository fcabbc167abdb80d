"""Exact branch-and-bound for small mixed-integer convex QPs.

Best-bound-first search over the binary variables with convex-QP node
relaxations.  Branching picks the most fractional binary (ties broken by
lowest variable index).  Nodes of equal bound are taken newest first, by a
push counter: among ties the search dives instead of sweeping a whole level,
which matters when many nodes share a bound (a zero objective gives every
relaxation the bound 0).  The order is deterministic, so identical problems
always return identical incumbents, node counts and bounds.  When a
relaxation comes back integral the binaries are fixed and the node
re-solved, which cleans the incumbent to full constraint feasibility before
it is stored.

Scope: tens of binaries and continuous variables; no cutting planes or
presolve beyond the problem builder's dropping of constant rows and of
rows that no point of the box can violate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .milp import MiqpProblem, SolveResult
from .qp import QpResult, solve_qp

INTEGRALITY_TOL = 1e-6  # a binary this close to 0 or 1 counts as integral
GAP_TOL = 1e-6          # absolute optimality gap at which the search stops
NODE_LIMIT = 200_000    # nodes explored before "iteration-limit"
BINARY_LIMIT = 128      # larger problems are refused


class MiqpError(RuntimeError):
    pass


@dataclass
class _Node:
    bound: float
    counter: int
    lb: np.ndarray
    ub: np.ndarray
    x: np.ndarray

    def __lt__(self, other: "_Node") -> bool:
        return (self.bound, -self.counter) < (other.bound, -other.counter)


def _relax(problem: MiqpProblem, lb: np.ndarray, ub: np.ndarray) -> QpResult:
    return solve_qp(problem.H, problem.f, problem.A, problem.b, lb, ub,
                    obj_const=problem.obj_const)


def solve_miqp(problem: MiqpProblem,
               warm_binaries: dict[str, int] | None = None) -> SolveResult:
    """Globally minimize the MIQP to absolute gap ``GAP_TOL``.

    ``warm_binaries`` seeds the incumbent by solving the QP with the given
    binary assignment fixed; an incomplete or infeasible seed is simply
    ignored.  Exceeding ``NODE_LIMIT`` returns status ``iteration-limit``
    with the best incumbent found so far, if any; more than
    ``BINARY_LIMIT`` binaries raise :class:`MiqpError`.
    """
    if problem.infeasible_reason is not None:
        return SolveResult(status="infeasible", nodes=0)
    if problem.n == 0:
        # everything folded to constants during construction
        return SolveResult(status="optimal", objective=problem.obj_const,
                           x=np.zeros(0), assignment={}, nodes=0, gap=0.0)
    bin_idx = np.flatnonzero(problem.binary)
    if len(bin_idx) > BINARY_LIMIT:
        raise MiqpError(f"{len(bin_idx)} binaries exceed the limit of {BINARY_LIMIT}")

    qp_solves = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf

    def integral(x: np.ndarray) -> bool:
        return all(abs(x[i] - round(x[i])) <= INTEGRALITY_TOL for i in bin_idx)

    def solve_fixed(assign: dict[int, float]) -> QpResult:
        nonlocal qp_solves
        lb = problem.lb.copy()
        ub = problem.ub.copy()
        for i, v in assign.items():
            lb[i] = ub[i] = v
        qp_solves += 1
        return _relax(problem, lb, ub)

    # warm start: fix the seeded binaries, keep the rest at their bounds
    if warm_binaries is not None and len(bin_idx) > 0:
        assign = {}
        for name, val in warm_binaries.items():
            try:
                i = problem.index(name)
            except ValueError:
                continue
            if problem.binary[i]:
                assign[i] = float(round(val))
        if len(assign) == len(bin_idx):
            res = solve_fixed(assign)
            if res.status == "optimal":
                incumbent_x = res.x
                incumbent_obj = res.objective

    # the root is an ordinary node, open only when its relaxation is optimal
    qp_solves += 1
    root = _relax(problem, problem.lb, problem.ub)
    counter = 0
    heap: list[_Node] = []
    if root.status == "optimal":
        heap.append(_Node(root.objective, counter, problem.lb, problem.ub, root.x))
    nodes = 0
    cutoff_bound: float | None = None

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - GAP_TOL:
            cutoff_bound = node.bound
            break  # best-first: every open node is at least as bad
        nodes += 1
        if nodes > NODE_LIMIT:
            status = "iteration-limit"
            gap = incumbent_obj - node.bound if incumbent_x is not None else None
            return SolveResult(
                status=status,
                objective=None if incumbent_x is None else incumbent_obj,
                x=incumbent_x,
                assignment=None if incumbent_x is None else problem.assignment(incumbent_x),
                nodes=nodes, gap=gap, qp_solves=qp_solves)

        if integral(node.x):
            assign = {i: float(round(node.x[i])) for i in bin_idx}
            res = solve_fixed(assign) if assign else None
            cand_x = res.x if res is not None and res.status == "optimal" else node.x
            cand_obj = res.objective if res is not None and res.status == "optimal" \
                else problem.objective(node.x)
            if cand_obj < incumbent_obj:
                incumbent_obj = cand_obj
                incumbent_x = cand_x
            continue

        # most fractional binary, ties by lowest index
        fracs = [(-(min(node.x[i] - np.floor(node.x[i]),
                        np.ceil(node.x[i]) - node.x[i])), i)
                 for i in bin_idx if abs(node.x[i] - round(node.x[i])) > INTEGRALITY_TOL]
        fracs.sort()
        branch_var = fracs[0][1]
        for side in (0.0, 1.0):
            lb = node.lb.copy()
            ub = node.ub.copy()
            lb[branch_var] = ub[branch_var] = side
            qp_solves += 1
            child = _relax(problem, lb, ub)
            if child.status != "optimal":
                continue
            if child.objective >= incumbent_obj - GAP_TOL:
                continue
            counter += 1
            heapq.heappush(heap, _Node(child.objective, counter, lb, ub, child.x))

    if incumbent_x is None:
        return SolveResult(status="infeasible", nodes=max(nodes, 1), qp_solves=qp_solves)
    gap = max(0.0, incumbent_obj - cutoff_bound) if cutoff_bound is not None else 0.0
    return SolveResult(status="optimal", objective=incumbent_obj, x=incumbent_x,
                       assignment=problem.assignment(incumbent_x),
                       nodes=max(nodes, 1), gap=gap, qp_solves=qp_solves)
