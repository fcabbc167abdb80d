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

Every node QP is solved by ``qp``'s proximal dual active-set method on one
``qp.NodeQp`` per problem, which equilibrates the rows once and factors
H + eps I once, when the first node needs it.  A child starts from its
parent's final working set and that set's factorization
(``QpResult.working_set``): its branched column, fractional at the parent
and so without a bound in that set, joins it as an equality by an update
of the inherited factors.  Every other solve (the warm seed, the root and
an integral node's re-solve) opens from one Cholesky factor with its own
fixed columns first (``NodeQp.fixed_first``).  A node is fathomed
before its QP when the incumbent proves it prunable: an incumbent from an
optimal QP keeps that solve's point x and row multipliers lam, and
``NodeQp.dual_bound`` turns them into a weak-duality lower bound on the
relaxation over any node box.  The root (after a warm seed) and each
child are tested; a bound at or above the incumbent minus ``GAP_TOL`` skips
the solve.  The search applies the same test to a relaxation's optimum
after solving it, and the bound never exceeds that optimum, so (up to the
solve's feasibility tolerance) only nodes the solve would have pruned are
fathomed: decisions, incumbents and node counts stay as they were, and
only node-QP work goes.

Scope: tens of binaries and continuous variables; no cutting planes or
presolve beyond the problem builder's dropping of constant rows.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .milp import MiqpProblem, SolveResult
from .qp import NodeQp, QpResult, WorkingSet
# tests and the benchmark's layer tracer hook this module's ``solve_qp`` to
# see each node QP
from .qp import solve_node as solve_qp

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
    working_set: WorkingSet

    def __lt__(self, other: "_Node") -> bool:
        return (self.bound, -self.counter) < (other.bound, -other.counter)


def solve_miqp(problem: MiqpProblem,
               warm_binaries: Sequence[float] | None = None) -> SolveResult:
    """Globally minimize the MIQP to absolute gap ``GAP_TOL``.

    ``warm_binaries`` seeds the incumbent by solving the QP with the binary
    columns fixed to these values, rounded, one per binary column in column
    order (a seed of another length raises ``ValueError``); an infeasible
    seed is simply ignored.  Exceeding ``NODE_LIMIT`` returns status
    ``iteration-limit`` with the best incumbent found so far, if any; more
    than ``BINARY_LIMIT`` binaries raise :class:`MiqpError`.
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

    if warm_binaries is not None and len(warm_binaries) != len(bin_idx):
        raise ValueError(f"a warm seed needs {len(bin_idx)} binary values, "
                         f"got {len(warm_binaries)}")
    qp = NodeQp(problem.H, problem.f, problem.A, problem.b, problem.lb, problem.ub,
                problem.obj_const)
    box_lb, box_ub = qp.lb, qp.ub

    qp_solves = 0
    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf
    # lower bound on the relaxation over a node box, from the (x, lam) of
    # the last incumbent that an optimal QP gave
    incumbent_bound = None

    def relax(lb: np.ndarray, ub: np.ndarray, parent: WorkingSet | None = None) -> QpResult:
        nonlocal qp_solves
        qp_solves += 1
        return solve_qp(qp, lb, ub, parent)

    def store(res: QpResult) -> None:
        nonlocal incumbent_x, incumbent_obj, incumbent_bound
        incumbent_x, incumbent_obj = res.x, res.objective
        incumbent_bound = qp.dual_bound(res.x, res.multipliers)

    def fathom(lb: np.ndarray, ub: np.ndarray) -> float | None:
        """The incumbent's bound on the node, when it prunes the node."""
        if incumbent_bound is None:
            return None
        bound = incumbent_bound(lb, ub) + problem.obj_const
        return bound if bound >= incumbent_obj - GAP_TOL else None

    def integral(x: np.ndarray) -> bool:
        return all(abs(x[i] - round(x[i])) <= INTEGRALITY_TOL for i in bin_idx)

    def fixed_box(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The box with the binary columns fixed to ``values``, rounded."""
        lb = box_lb.copy()
        ub = box_ub.copy()
        lb[bin_idx] = ub[bin_idx] = [float(round(v)) for v in values]
        return lb, ub

    # warm start: fix the seeded binaries, keep the rest at their bounds
    if warm_binaries is not None and len(bin_idx) > 0:
        res = relax(*fixed_box(warm_binaries))
        if res.status == "optimal":
            store(res)

    # the root is an ordinary node: fathomed by a warm incumbent's bound, or
    # open only when its relaxation is optimal
    counter = 0
    heap: list[_Node] = []
    nodes = 0
    cutoff_bound = fathom(box_lb, box_ub)
    if cutoff_bound is None:
        root = relax(box_lb, box_ub)
        if root.status == "optimal":
            heap.append(_Node(root.objective, counter, box_lb, box_ub, root.x,
                              root.working_set))

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
            res = relax(*fixed_box(node.x[bin_idx])) if len(bin_idx) else None
            if res is not None and res.status == "optimal":
                if res.objective < incumbent_obj:
                    store(res)
            elif (obj := problem.objective(node.x)) < incumbent_obj:
                incumbent_x, incumbent_obj = node.x, obj
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
            if fathom(lb, ub) is not None:
                continue
            child = relax(lb, ub, node.working_set)
            if child.status != "optimal":
                continue
            if child.objective >= incumbent_obj - GAP_TOL:
                continue
            counter += 1
            heapq.heappush(heap, _Node(child.objective, counter, lb, ub, child.x,
                                       child.working_set))

    if incumbent_x is None:
        return SolveResult(status="infeasible", nodes=max(nodes, 1), qp_solves=qp_solves)
    gap = max(0.0, incumbent_obj - cutoff_bound) if cutoff_bound is not None else 0.0
    return SolveResult(status="optimal", objective=incumbent_obj, x=incumbent_x,
                       assignment=problem.assignment(incumbent_x),
                       nodes=max(nodes, 1), gap=gap, qp_solves=qp_solves)
