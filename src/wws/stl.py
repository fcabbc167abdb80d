"""Bounded signal temporal logic over sampled signals.

Concrete syntax (one formula per line in spec files, ``#`` comments)::

    formula := formula 'or' formula
             | formula 'and' formula
             | formula 'until_[a,b]' formula
             | 'alw_[a,b]' formula | 'ev_[a,b]' formula | 'not' formula
             | '(' formula ')' | channel relop number
    relop   := '>=' | '<=' | '>' | '<'

A predicate compares one channel with a number; sums, scaled channels and
channel-to-channel comparisons are outside the grammar.

Interval bounds are seconds; the upper bound may be the token ``end``, which
the parser reads as the run's end time, so every parsed window is numeric.
A window that starts after the end time is empty.  Windows map to sample
indices as  {t + ceil(a/h) .. t + floor(b/h)}.

The module provides two consumers of the same AST: a quantitative
robustness monitor (min/max semantics) and a big-M mixed-integer encoder.
The monitor works directly on the AST, which keeps it an independent
oracle for the encoder.  The encoder compiles a formula once into a
``FormulaTemplate``: temporal operators expanded over absolute sample
indices, negation pushed to the leaves, and every leaf's slot (its channel
at its sample), sign, constant, strictness margin and big-M fixed.  At
each use the caller marks every slot as history, decision or unbound; the
template folds the tree by recursion (each history leaf to its truth, each
node from its folded children) and emits the live nodes' rows
(``StepRows``): plain per-row data, each row naming the one slot it reads,
which the caller maps onto its variables.  Rows are kept per leaf pattern
(which leaves are history, decision or unbound, and which history leaves
hold), so a use whose pattern was seen before gets the same rows and
computes only their right-hand side.

The encoder puts binaries only where the formula branches (Kurtz & Lin
2022, "Mixed-integer programming for signal temporal logic with fewer
binary variables"): a conjunctive obligation is a plain row, a 2-way
disjunction that must hold gets one binary selecting its branch, and a
predicate below it one big-M row on that selector.  A disjunction of two
intervals on one decision sample gets the two convex-hull rows of the
interval pair instead (Balas 1985, disjunctive programming).  Only below an
n-ary disjunction, whose continuous selectors make the required truth
fractional, does a predicate get a binary literal of its own.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np


class StlSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class StlEvaluationError(RuntimeError):
    pass


class StlEncodingError(RuntimeError):
    pass


_FLIP = {">=": "<", ">": "<=", "<=": ">", "<": ">="}
_STRICT = {">", "<"}


@dataclass(frozen=True)
class Pred:
    """One channel compared with a number: ``channel relop const``."""

    channel: str
    op: str
    const: float

    def __post_init__(self):
        if self.op not in _FLIP:
            raise ValueError(f"bad relation {self.op!r}")

    @property
    def strict(self) -> bool:
        return self.op in _STRICT

    def negate(self) -> "Pred":
        return Pred(self.channel, _FLIP[self.op], self.const)

    def margin(self, value: float) -> float:
        """Signed satisfaction margin of the channel's value; positive means
        satisfied."""
        if self.op in (">=", ">"):
            return value - self.const
        return self.const - value


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Alw:
    a: float
    b: float
    child: "Formula"


@dataclass(frozen=True)
class Ev:
    a: float
    b: float
    child: "Formula"


@dataclass(frozen=True)
class Until:
    a: float
    b: float
    left: "Formula"
    right: "Formula"


Formula = Union[Pred, Not, And, Or, Alw, Ev, Until]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<alw>alw_\[)
  | (?P<ev>ev_\[)
  | (?P<until>until_\[)
  | (?P<and>and\b)
  | (?P<or>or\b)
  | (?P<not>not\b)
  | (?P<end>end\b)
  | (?P<number>[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<relop>>=|<=|>|<)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<rbrack>\])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise StlSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, end_time: float | None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.end_time = end_time

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise StlSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def number(self) -> float:
        _, text, pos = self.take("number")
        value = float(text)
        if not math.isfinite(value):
            raise StlSyntaxError(f"number {text!r} is not finite", pos)
        return value

    def parse(self) -> Formula:
        f = self.or_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise StlSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return f

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek()[0] == "or":
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self) -> Formula:
        parts = [self.until_expr()]
        while self.peek()[0] == "and":
            self.take()
            parts.append(self.until_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def until_expr(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "until":
            self.take()
            a, b = self.bounds()
            rhs = self.unary()
            f = Until(a, b, f, rhs)
        return f

    def unary(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "alw":
            self.take()
            a, b = self.bounds()
            return Alw(a, b, self.unary())
        if kind == "ev":
            self.take()
            a, b = self.bounds()
            return Ev(a, b, self.unary())
        if kind == "not":
            self.take()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "lpar":
            self.take()
            f = self.or_expr()
            self.take("rpar")
            return f
        if kind == "ident":
            self.take()
            op = self.take("relop")[1]
            return Pred(value, op, self.number())
        raise StlSyntaxError(f"expected a formula, found {value!r}", pos)

    def bounds(self) -> tuple[float, float]:
        # the opening 'xx_[' token was already consumed; 'end' is the end
        # time, which may precede the start: that window is empty
        a = self.number()
        self.take("comma")
        kind, value, pos = self.peek()
        if kind == "end":
            if self.end_time is None:
                raise StlSyntaxError("'end' needs the run's end time", pos)
            self.take()
            b = self.end_time
        elif kind == "number":
            b = self.number()
        else:
            raise StlSyntaxError(f"expected a bound, found {value!r}", pos)
        self.take("rbrack")
        if a < 0:
            raise StlSyntaxError("interval start must be non-negative", pos)
        if kind == "number" and b < a:
            raise StlSyntaxError("interval end precedes start", pos)
        return a, b


def parse(text: str, end_time: float | None = None) -> Formula:
    """Parse one formula from its concrete syntax, reading the bound
    ``end`` as ``end_time`` [s]; without one, ``end`` is refused."""
    return _Parser(text, end_time).parse()


def spec_lines(text: str) -> list[str]:
    """Formula texts of a spec file: one per line, '#' starts a comment."""
    bodies = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [body for body in bodies if body]


# ---------------------------------------------------------------------------
# Quantitative monitoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledSignal:
    """Named real-valued channels sampled on a common uniform grid."""

    channels: Mapping[str, np.ndarray]
    h: float

    def __post_init__(self):
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) > 1:
            raise ValueError(f"channel length mismatch: {lengths}")
        if self.h <= 0:
            raise ValueError("sampling period must be positive")

    @property
    def length(self) -> int:
        return len(next(iter(self.channels.values()))) if self.channels else 0


def _window_indices(t: int, a: float, b: float, h: float,
                    last: int | None = None) -> range:
    """Samples of the window [a, b] at ``t``, clipped to ``last`` if given."""
    hi = t + math.floor(b / h + 1e-9)
    if last is not None:
        hi = min(hi, last)
    return range(t + math.ceil(a / h - 1e-9), hi + 1)


def robustness(f: Formula, signal: SampledSignal, strict_shift: float = 0.0,
               prefix: bool = False) -> float:
    """Quantitative robustness of ``f`` at sample 0.

    Positive means satisfied with slack.  ``strict_shift`` subtracts a
    margin from strict predicates only; the mixed-integer encoder holds a
    strict predicate by the margin ``EPS``, and passing ``EPS`` here makes
    the monitor the exact feasibility oracle for the encoding.

    With ``prefix`` the signal is a realized prefix: every window is clipped
    to its last sample, so samples not yet realized are left out instead
    of raising.
    """
    n = signal.length
    last = n - 1 if prefix else None

    def ev(node: Formula, t: int) -> float:
        if isinstance(node, Pred):
            if t < 0 or t >= n:
                raise StlEvaluationError(
                    f"signal too short: predicate needs index {t}, have 0..{n - 1}")
            try:
                rho = node.margin(float(signal.channels[node.channel][t]))
            except KeyError as exc:
                raise StlEvaluationError(f"unknown channel {exc.args[0]!r}") from exc
            return rho - strict_shift if node.strict else rho
        if isinstance(node, Not):
            return -ev(node.child, t)
        if isinstance(node, And):
            return min(ev(c, t) for c in node.children)
        if isinstance(node, Or):
            return max(ev(c, t) for c in node.children)
        if isinstance(node, Alw):
            idx = _window_indices(t, node.a, node.b, signal.h, last)
            return min((ev(node.child, i) for i in idx), default=math.inf)
        if isinstance(node, Ev):
            idx = _window_indices(t, node.a, node.b, signal.h, last)
            return max((ev(node.child, i) for i in idx), default=-math.inf)
        if isinstance(node, Until):
            idx = _window_indices(t, node.a, node.b, signal.h, last)
            best = -math.inf
            for tp in idx:
                rho2 = ev(node.right, tp)
                rho1 = min((ev(node.left, i) for i in range(t, tp)), default=math.inf)
                best = max(best, min(rho2, rho1))
            return best
        raise TypeError(f"not a formula: {node!r}")

    return ev(f, 0)


# ---------------------------------------------------------------------------
# Mixed-integer encoding
# ---------------------------------------------------------------------------

#: Safety factor on the predicate range that makes each big-M constant.
BIG_M_MARGIN = 1.1
#: Margin by which the encoder holds a strict predicate: ``u > c`` is
#: encoded as ``u >= c + EPS``.
EPS = 1e-6
#: Round-off grace of a strict predicate's history fold: a sample within it
#: of the encoded edge (margin EPS by construction) still folds true.  The
#: fold is sound only while EPS > FOLD_GRACE, so that a sample that fails
#: the strict predicate itself never folds true.
FOLD_GRACE = 1e-9

#: What a caller binds each slot (one channel at one sample) to: nothing yet
#: (the obligation is deferred), a realized value, or an affine expression
#: over decision variables.
UNBOUND, HISTORY, DECISION = 0, 1, 2


class _Fold(enum.Enum):
    """Truth of a subtree that needs no rows at this step."""

    TRUE = "true"
    FALSE = "false"
    DEFERRED = "deferred"   # every obligation lies beyond the bound samples


class _Constants(NamedTuple):
    """What compiling fixes for one predicate, shared by all its leaves."""

    sign: float
    const: float
    fold_at: float          # least margin of a history sample that folds true
    eps: float              # strictness margin of its rows: EPS or 0
    big_m: float | str      # or why it has none: no declared channel bounds
    lo: float               # the interval the predicate bounds its slot to
    hi: float


class _Node:
    """And (``conj``) or Or over children: leaf indices or nodes.

    ``first`` is the earliest sample read, which names the disjunction
    binary; the fold sets it on the nodes it makes.
    """

    __slots__ = ("conj", "kids", "first")

    def __init__(self, conj: bool, kids: list):
        self.conj = conj
        self.kids = kids
        self.first = -1


def _unroll(f: Formula, t: int, neg: bool, h: float):
    """Expand temporal operators over absolute samples, negation at the
    leaves, which are ``(pred, t)`` pairs."""
    if isinstance(f, Not):
        return _unroll(f.child, t, not neg, h)
    if isinstance(f, Pred):
        return (f.negate() if neg else f, t)
    if isinstance(f, (And, Or)):
        return _combine([_unroll(c, t, neg, h) for c in f.children],
                        isinstance(f, And) ^ neg)
    if isinstance(f, (Alw, Ev)):
        return _combine([_unroll(f.child, i, neg, h)
                         for i in _window_indices(t, f.a, f.b, h)],
                        isinstance(f, Alw) ^ neg)
    if isinstance(f, Until):
        disjuncts = []
        for tp in _window_indices(t, f.a, f.b, h):
            parts = [_unroll(f.right, tp, neg, h)]
            parts += [_unroll(f.left, i, neg, h) for i in range(t, tp)]
            disjuncts.append(_combine(parts, conj=not neg))
        return _combine(disjuncts, conj=neg)
    raise TypeError(f"not a formula: {f!r}")


def _combine(kids: list, conj: bool):
    """And/Or of children, folding constant ones away, with deferral
    semantics (at compile time no child is deferred)."""
    kept = []
    saw_deferred = False
    for k in kids:
        if k is _Fold.DEFERRED:
            saw_deferred = True
            if conj:
                continue  # conjunct deferred to a later step
            kept.append(k)
        elif k is _Fold.TRUE:
            if not conj:
                return _Fold.TRUE
        elif k is _Fold.FALSE:
            if conj:
                return _Fold.FALSE
        else:
            kept.append(k)
    if conj:
        if not kept:
            # distinguish "satisfied now" from "every obligation is beyond
            # the bound horizon"
            return _Fold.DEFERRED if saw_deferred else _Fold.TRUE
        return kept[0] if len(kept) == 1 else _Node(True, kept)
    # disjunction: visible members only; wholly invisible -> deferred
    visible = [k for k in kept if k is not _Fold.DEFERRED]
    if not kept:
        return _Fold.FALSE
    if not visible:
        return _Fold.DEFERRED
    return visible[0] if len(visible) == 1 else _Node(False, visible)


@dataclass(frozen=True)
class StepRows:
    """What one formula asks of one step's problem.

    Row ``r`` reads ``-sign[r] s[slot[r]] + aux[r] a <= rhs(values)[r]``:
    ``s`` are the template's slots, each row naming the one decision slot
    it reads or the pad slot (``FormulaTemplate.pad``, which reads 0) when
    it reads only auxiliary columns, and ``a`` the auxiliary variables
    created for this step, in creation order (``aux_names``, binaries
    flagged in ``aux_binary``).  ``warm_sources`` gives, per binary in
    creation order, its own name and the name of the same disjunction or
    literal one sample earlier.  ``bounds`` lists the intervals that rows
    put on single slots: ``(slot, aux, lo0, hi0, lo1, hi1)``, the second
    interval applying when auxiliary ``aux`` rounds to 1 (``aux`` is -1 for
    an unconditional row).  Every binding with the same leaf pattern
    gets the same object, so its arrays are read-only.
    """

    name: str
    infeasible: bool
    deferred: bool
    slot: np.ndarray
    sign: np.ndarray
    aux: np.ndarray
    const: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    aux_names: tuple[str, ...]
    aux_binary: tuple[bool, ...]
    warm_sources: tuple[tuple[str, ...], ...]
    bounds: tuple[tuple[int, int, float, float, float, float], ...]

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """Right-hand sides under the slot ``values`` the rows were
        instantiated with: ``(sign (value - const) + k1) - k2``."""
        val = np.append(values, 0.0)           # the pad slot reads 0.0
        return (self.sign * (val[self.slot] - self.const) + self.k1) - self.k2


class FormulaTemplate:
    """One formula compiled once for encoding at sample 0.

    Compiling expands every temporal operator over absolute sample indices,
    pushes negation to the leaves and precomputes each leaf's slot and each
    predicate's sign, constant, margin, big-M and interval (``_Constants``,
    shared by the predicate's leaves).  :meth:`instantiate` then only
    classifies the leaves against the caller's binding, folds the tree and
    emits the rows of the live nodes.  The fold and the rows depend on the
    binding only through the leaf pattern (each leaf's state and each
    history leaf's truth), so the rows are kept per pattern: at most one
    ``StepRows`` for each pattern the template has been instantiated with.

    Each predicate's big-M comes from its channel's declared range in
    ``channel_bounds`` with the safety factor ``BIG_M_MARGIN``; a predicate
    below a disjunction (the only place that needs one) over a channel
    without declared bounds cannot be encoded.  Strict inequalities are
    encoded with margin ``EPS``.
    """

    def __init__(self, f: Formula, h: float,
                 channel_bounds: Mapping[str, tuple[float, float]], name: str = "stl"):
        self.name = name
        self.channel_bounds = channel_bounds
        leaves: list[tuple[Pred, int]] = []
        self.root = _number(_unroll(f, 0, False, h), leaves)
        # slots ordered by channel, then sample: each channel's slots are
        # one contiguous run, ``channel_slots[ch] = (first slot, samples)``
        read = sorted({(pred.channel, t) for pred, t in leaves})
        self.slots: dict[tuple[str, int], int] = {key: s for s, key in enumerate(read)}
        self.pad = len(read)                   # a slot index that reads 0.0
        runs: dict[str, tuple[int, list[int]]] = {}
        for s, (ch, t) in enumerate(read):
            runs.setdefault(ch, (s, []))[1].append(t)
        self.channel_slots = {ch: (s, np.array(ts)) for ch, (s, ts) in runs.items()}
        # each leaf's slot, sample and predicate (an index into ``constants``)
        index: dict[Pred, int] = {}
        self.leaf_pred = [index.setdefault(pred, len(index)) for pred, _ in leaves]
        self.leaf_t = [t for _, t in leaves]
        self.leaf_slot = np.array([self.slots[(p.channel, t)] for p, t in leaves], dtype=int)
        self.constants = [self._constants(pred) for pred in index]
        # what the fold reads, per leaf
        self.leaf_sign, self.leaf_const, self.fold_at = np.array(
            [c[:3] for c in self.constants]).reshape(-1, 3)[self.leaf_pred].T
        self._rows: dict[bytes, StepRows] = {}

    def _constants(self, pred: Pred) -> _Constants:
        eps = EPS if pred.strict else 0.0
        sign = 1.0 if pred.op in (">=", ">") else -1.0
        box = self.channel_bounds.get(pred.channel)
        big_m = (f"no declared bounds for channel {pred.channel!r}" if box is None else
                 BIG_M_MARGIN * (max(abs(box[0] - pred.const), abs(box[1] - pred.const))
                                 + EPS + 1.0))
        # margin = sign (s - const) >= eps  <=>  sign s >= sign const + eps
        at = (sign * pred.const + eps) / sign
        lo, hi = (at, math.inf) if sign > 0.0 else (-math.inf, at)
        return _Constants(sign, pred.const, eps - FOLD_GRACE if pred.strict else 0.0,
                          eps, big_m, lo, hi)

    def leaf(self, i: int) -> tuple[int, _Constants]:
        """Slot and predicate constants of leaf ``i``."""
        return int(self.leaf_slot[i]), self.constants[self.leaf_pred[i]]

    # -- one step --------------------------------------------------------

    def instantiate(self, state: np.ndarray, values: np.ndarray) -> StepRows:
        """Rows of the formula under one binding of its slots.

        ``state[s]`` is UNBOUND, HISTORY or DECISION; ``values[s]`` is the
        realized value of a history slot and the constant offset of a
        decision slot.  Leaves reading an unbound slot are deferred
        (shrinking-window policy: conjunctive obligations wait for a later
        step, disjunctive ones are enforced over the visible part of the
        window, which is stricter and hence sound); history leaves fold to
        constants.  Only the first binding with a given leaf pattern folds
        and emits; a later one gets the same ``StepRows``, whose arrays are
        read-only.  Their right-hand side is ``rhs(values)``.
        """
        leaf_state = state[self.leaf_slot]
        # a non-strict predicate folds with zero tolerance; a strict one with
        # FOLD_GRACE, which keeps inputs applied exactly at an encoded band
        # edge (margin == EPS by construction) folding to true despite float
        # round-off
        truth = (leaf_state == HISTORY) & (
            self.leaf_sign * (values[self.leaf_slot] - self.leaf_const) >= self.fold_at)
        key = leaf_state.tobytes() + truth.tobytes()
        rows = self._rows.get(key)
        if rows is None:
            tree = self._fold(self.root, leaf_state.tolist(), truth.tolist())
            em = _Emitter(self)
            if isinstance(tree, (_Node, int)):
                em.require(tree, None, True)
            rows = self._rows[key] = em.step_rows(tree)
        return rows

    def _fold(self, node, state: list, truth: list):
        """``node`` under one leaf pattern: a decision leaf stays, an unbound
        one is deferred, a history one folds to its truth, and a node is the
        ``_combine`` of its folded children."""
        if isinstance(node, _Fold):
            return node
        if isinstance(node, int):
            if state[node] == DECISION:
                return node
            if state[node] == UNBOUND:
                return _Fold.DEFERRED
            return _Fold.TRUE if truth[node] else _Fold.FALSE
        folded = _combine([self._fold(k, state, truth) for k in node.kids], node.conj)
        if isinstance(folded, _Node):
            folded.first = min(self.leaf_t[k] if isinstance(k, int) else k.first
                               for k in folded.kids)
        return folded

    def interval(self, node) -> tuple[int, float, float] | None:
        """(slot, lo, hi) when ``node`` bounds one slot to a finite,
        non-empty interval, else None."""
        if isinstance(node, int):
            kids = (node,)
        elif node.conj and all(isinstance(k, int) for k in node.kids):
            kids = node.kids
        else:
            return None
        slots = {int(self.leaf_slot[k]) for k in kids}
        lo = max(self.constants[self.leaf_pred[k]].lo for k in kids)
        hi = min(self.constants[self.leaf_pred[k]].hi for k in kids)
        if len(slots) > 1 or not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            return None
        return slots.pop(), lo, hi

    def hull(self, node: _Node) -> tuple[int, float, float, float, float] | None:
        """(slot, lo0, hi0, lo1, hi1) of a 2-way Or of two distinct
        intervals on one slot, else None."""
        first, second = (self.interval(k) for k in node.kids)
        if first is None or second is None or first[0] != second[0] \
                or first[1:] == second[1:]:
            return None
        return (*first, *second[1:])


def _number(node, leaves: list):
    """``node`` with its leaves replaced by their depth-first indices, so
    only leaves that the compile-time fold kept are numbered."""
    if isinstance(node, tuple):
        leaves.append(node)
        return len(leaves) - 1
    if isinstance(node, _Node):
        node.kids = [_number(k, leaves) for k in node.kids]
    return node


class _Emitter:
    """Emits ``truth(node) >= lower`` for a folded tree, as slot-space rows.

    A required truth ``lower`` is None (the constant 1) or ``(const, coefs)``
    over auxiliary columns; it is integral (1 or an integer combination of
    disjunction binaries) exactly when no n-ary Or lies above the node, and
    only then can a branch point be decided by a binary.  A 2-way Or under
    an integral ``lower`` gets one binary ``d`` (branch 0 must hold at
    least ``d``, branch 1 at least ``lower - d``), or, under ``lower`` 1
    when both branches bound one decision sample to an interval, the two
    convex-hull rows of that interval pair.  A predicate under an integral ``lower``
    becomes one implied big-M row with no literal of its own.  Everything
    under a fractional ``lower`` (below an n-ary Or's continuous selectors)
    uses continuous selectors and two-sided predicate literals.

    Each row is one entry of ``slot``, ``sign``, ``const``, ``k1`` and
    ``k2`` in ``StepRows``'s terms: a leaf's slot, the slot of a hull row,
    or the pad slot for a row over selectors only.
    """

    def __init__(self, tmpl: FormulaTemplate):
        self.tmpl = tmpl
        self.slot, self.sign, self.const, self.k1, self.k2 = [], [], [], [], []
        self.aux_at: list[tuple[int, int, float]] = []
        self.aux_names: list[str] = []
        self.aux_binary: list[bool] = []
        self.warm_sources: list[tuple[str, ...]] = []
        self.bounds: list[tuple[int, int, float, float, float, float]] = []
        self.per_sample: dict[int, int] = {}
        self.pred_ids: dict[int, int] = {}
        self.pred_literals: dict[tuple[int, int], int] = {}
        self.counter = 0

    def row(self, slot: int, sign: float, const: float, k1: float, k2: float,
            aux: Sequence[tuple[int, float]] = ()) -> None:
        r = len(self.slot)
        self.slot.append(slot)
        self.sign.append(sign)
        self.const.append(const)
        self.k1.append(k1)
        self.k2.append(k2)
        self.aux_at += [(r, col, v) for col, v in aux]

    def new_aux(self, name: str, binary: bool) -> int:
        self.aux_names.append(name)
        self.aux_binary.append(binary)
        return len(self.aux_names) - 1

    def binary(self, tag: str, t: int, j: int) -> int:
        """Binary ``{name}.t{t}.{tag}{j}``, warm-started from its own
        previous value, else from that of the same binary one sample
        earlier."""
        chain = tuple(f"{self.tmpl.name}.t{s}.{tag}{j}" for s in range(t, max(t - 2, -1), -1))
        self.warm_sources.append(chain)
        return self.new_aux(chain[0], True)

    def big_m(self, c: _Constants) -> float:
        if isinstance(c.big_m, str):
            raise StlEncodingError(c.big_m)
        return c.big_m

    def implied_row(self, leaf: int, lower) -> None:
        """margin >= eps - M (1 - lower) for an integral ``lower``."""
        slot, c = self.tmpl.leaf(leaf)
        if lower is None:  # the plain predicate row
            self.row(slot, c.sign, c.const, 0.0, c.eps)
            self.bounds.append((slot, -1, c.lo, c.hi, c.lo, c.hi))
            return
        m = self.big_m(c)
        const, coefs = lower
        self.row(slot, c.sign, c.const, m * (1.0 - const), c.eps,
                 [(a, m * v) for a, v in coefs.items()])

    def pred_literal(self, leaf: int) -> int:
        """Binary with two-sided big-M linking: p == 1 iff the margin is met."""
        t = self.tmpl
        key = (t.leaf_pred[leaf], t.leaf_t[leaf])
        if key in self.pred_literals:
            return self.pred_literals[key]
        pid = self.pred_ids.setdefault(key[0], len(self.pred_ids))
        p = self.binary("p", t.leaf_t[leaf], pid)
        slot, c = t.leaf(leaf)
        m = self.big_m(c)
        # margin >= -M (1 - p) + eps   and   margin <= M p - eps
        self.row(slot, c.sign, c.const, -(c.eps - m), 0.0, [(p, m)])
        self.row(slot, -c.sign, c.const, 0.0, c.eps, [(p, -m)])
        self.pred_literals[key] = p
        return p

    def selector(self) -> int:
        """Continuous Or selector in [0, 1]."""
        self.counter += 1
        name = f"{self.tmpl.name}.or.{self.counter}"
        return self.new_aux(name, False)

    def disjunction_binary(self, node: _Node) -> int:
        """Binary named by the Or's first sample, stable across steps."""
        j = self.per_sample.get(node.first, 0)
        self.per_sample[node.first] = j + 1
        return self.binary("d", node.first, j)

    def hull_rows(self, node: _Node) -> bool:
        """Convex hull of s in [lo0, hi0] (d = 0) or s in [lo1, hi1] (d = 1):
        s >= lo0 + (lo1 - lo0) d  and  s <= hi0 + (hi1 - hi0) d."""
        pair = self.tmpl.hull(node)
        if pair is None:
            return False
        slot, lo0, hi0, lo1, hi1 = pair
        d = self.disjunction_binary(node)
        self.row(slot, 1.0, lo0, 0.0, 0.0, [(d, lo1 - lo0)])
        self.row(slot, -1.0, hi0, 0.0, 0.0, [(d, -(hi1 - hi0))])
        self.bounds.append((slot, d, lo0, hi0, lo1, hi1))
        return True

    def require(self, node, lower, integral: bool) -> None:
        """Emit rows forcing truth(node) >= lower; ``integral`` is whether
        ``lower`` is (no n-ary Or above ``node``)."""
        if isinstance(node, int):
            if integral:
                self.implied_row(node, lower)
                return
            p = self.pred_literal(node)
            const, coefs = lower
            self.row(self.tmpl.pad, 1.0, 0.0, -const, 0.0, [(p, -1.0), *coefs.items()])
            return
        if node.conj:
            for kid in node.kids:
                self.require(kid, lower, integral)
            return
        kids = node.kids
        if len(kids) == 2:
            if lower is None and self.hull_rows(node):
                return
            sel = self.disjunction_binary(node) if integral else self.selector()
            # selected share of `lower` goes to each branch
            self.require(kids[0], (0.0, {sel: 1.0}), integral)
            const, coefs = (1.0, {}) if lower is None else lower
            self.require(kids[1], (const, {**coefs, sel: -1.0}), integral)
            return
        sels = [self.selector() for _ in kids]
        const, coefs = (1.0, {}) if lower is None else lower
        self.row(self.tmpl.pad, 1.0, 0.0, -const, 0.0,
                 [*((s, -1.0) for s in sels), *coefs.items()])
        for kid, sel in zip(kids, sels):
            self.require(kid, (0.0, {sel: 1.0}), False)

    def step_rows(self, tree) -> StepRows:
        """The rows emitted so far, checked once for every binding that
        shares them: aux names are unique and every binary is in a row."""
        aux = np.zeros((len(self.slot), len(self.aux_names)))
        if self.aux_at:
            r, c, v = zip(*self.aux_at)
            aux[list(r), list(c)] = v
        if len(set(self.aux_names)) != len(self.aux_names):
            raise ValueError(f"{self.tmpl.name}: duplicate auxiliary variable")
        unused = np.array(self.aux_binary, dtype=bool) & ~aux.any(axis=0)
        if unused.any():
            raise ValueError(f"binary {self.aux_names[np.argmax(unused)]!r} appears in no row")
        arrays = (np.array(self.slot, dtype=int), np.array(self.sign), aux,
                  np.array(self.const), np.array(self.k1), np.array(self.k2))
        for a in arrays:
            a.setflags(write=False)
        return StepRows(self.tmpl.name, tree is _Fold.FALSE, tree is _Fold.DEFERRED, *arrays,
                        aux_names=tuple(self.aux_names), aux_binary=tuple(self.aux_binary),
                        warm_sources=tuple(self.warm_sources), bounds=tuple(self.bounds))
