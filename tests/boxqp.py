"""One convex QP over its own box, solved as branch-and-bound solves a node."""

from wws.qp import NodeQp, QpResult, solve_node


def solve_box(H, f, A, b, lb, ub, obj_const: float = 0.0) -> QpResult:
    """Minimize 0.5 x'Hx + f'x + obj_const subject to A x <= b, lb <= x <= ub."""
    node = NodeQp(H, f, A, b, lb, ub, obj_const)
    return solve_node(node, node.lb, node.ub)
