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
is resolved to the final closed-loop time before monitoring or encoding.
Windows map to sample indices as  {t + ceil(a/h) .. t + floor(b/h)}.

The module provides two consumers of the same AST: a quantitative
robustness monitor (min/max semantics) and a big-M mixed-integer encoder.
The monitor works directly on the AST, which keeps it an independent
oracle for the encoder.  The encoder compiles a formula once into a
``FormulaTemplate``: temporal operators expanded over absolute sample
indices, negation pushed to the leaves, and every leaf's slot (its channel
at its sample), sign, constant, eps and big-M fixed.  At each use the
caller marks every slot as history, decision or unbound; the template
folds the history truths, folds the tree, and emits the live nodes' rows
over the slots (``StepRows``), each row reading one slot, which the caller
maps onto its variables.  Fold and rows are kept per leaf pattern (which
leaves are history, decision or unbound, and which history leaves hold),
so a use whose pattern was seen before computes only the right-hand side.

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
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

import numpy as np


class StlSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class StlEvaluationError(RuntimeError):
    pass


class StlEncodingError(RuntimeError):
    pass


class _End:
    """Sentinel for the 'end' upper bound."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "end"


END = _End()
Bound = Union[float, _End]

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
    b: Bound
    child: "Formula"


@dataclass(frozen=True)
class Ev:
    a: float
    b: Bound
    child: "Formula"


@dataclass(frozen=True)
class Until:
    a: float
    b: Bound
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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

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

    def bounds(self) -> tuple[float, Bound]:
        # the opening 'xx_[' token was already consumed
        a = self.number()
        self.take("comma")
        kind, value, pos = self.peek()
        if kind == "end":
            self.take()
            b: Bound = END
        elif kind == "number":
            b = self.number()
        else:
            raise StlSyntaxError(f"expected a bound, found {value!r}", pos)
        self.take("rbrack")
        if a < 0:
            raise StlSyntaxError("interval start must be non-negative", pos)
        if not isinstance(b, _End) and b < a:
            raise StlSyntaxError("interval end precedes start", pos)
        return a, b


def parse(text: str) -> Formula:
    """Parse one formula from its concrete syntax."""
    return _Parser(text).parse()


def spec_lines(text: str) -> list[str]:
    """Formula texts of a spec file: one per line, '#' starts a comment."""
    bodies = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [body for body in bodies if body]


def resolve_end(f: Formula, end_time: float) -> Formula:
    """Substitute the 'end' token with a concrete time in seconds."""
    if isinstance(f, Pred):
        return f
    if isinstance(f, Not):
        return Not(resolve_end(f.child, end_time))
    if isinstance(f, And):
        return And(tuple(resolve_end(c, end_time) for c in f.children))
    if isinstance(f, Or):
        return Or(tuple(resolve_end(c, end_time) for c in f.children))
    b = end_time if isinstance(f.b, _End) else f.b
    if isinstance(f, Alw):
        return Alw(f.a, b, resolve_end(f.child, end_time))
    if isinstance(f, Ev):
        return Ev(f.a, b, resolve_end(f.child, end_time))
    if isinstance(f, Until):
        return Until(f.a, b, resolve_end(f.left, end_time), resolve_end(f.right, end_time))
    raise TypeError(f"not a formula: {f!r}")


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


def _window_indices(t: int, a: float, b: Bound, h: float,
                    last: int | None = None) -> range:
    """Samples of the window [a, b] at ``t``, clipped to ``last`` if given."""
    hi = math.inf if isinstance(b, _End) else t + math.floor(b / h + 1e-9)
    if last is not None:
        hi = min(hi, last)
    elif isinstance(b, _End):
        raise StlEvaluationError("unbounded interval: resolve 'end' first")
    lo = t + math.ceil(a / h - 1e-9)
    return range(lo, hi + 1)


def robustness(f: Formula, signal: SampledSignal, t_index: int = 0,
               strict_shift: float = 0.0, prefix: bool = False) -> float:
    """Quantitative robustness of ``f`` at sample ``t_index``.

    Positive means satisfied with slack.  ``strict_shift`` subtracts a
    margin from strict predicates only; the mixed-integer encoder replaces
    strictness with an epsilon, and passing that epsilon here makes the
    monitor the exact feasibility oracle for the encoding.

    With ``prefix`` the signal is a realized prefix: every window is clipped
    to its last sample and ``end`` means that sample, so samples not yet
    realized are left out instead of raising.
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

    return ev(f, t_index)


# ---------------------------------------------------------------------------
# Mixed-integer encoding
# ---------------------------------------------------------------------------

#: Safety factor on the predicate range that makes each big-M constant.
BIG_M_MARGIN = 1.1

#: What a caller binds each slot (one channel at one sample) to: nothing yet
#: (the obligation is deferred), a realized value, or an affine expression
#: over decision variables.
UNBOUND, HISTORY, DECISION = 0, 1, 2


@dataclass(frozen=True)
class EncodingConfig:
    """Big-M derivation and strictness margin for the MILP encoding.

    Per-predicate constants are derived from the declared channel ranges
    with the safety factor ``BIG_M_MARGIN``; a predicate below a disjunction
    (the only place that needs one) over a channel without declared bounds
    cannot be encoded.  Strict inequalities are encoded with margin ``eps``.
    """

    channel_bounds: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    eps: float = 1e-6


class _Fold(enum.Enum):
    """Truth of a subtree that needs no rows at this step."""

    TRUE = "true"
    FALSE = "false"
    DEFERRED = "deferred"   # every obligation lies beyond the bound samples


@dataclass(eq=False)
class _Leaf:
    """Predicate at one absolute sample; only alive during compilation."""

    pred: Pred
    t: int


class _Node:
    """And (``conj``) or Or over children: leaf indices or nodes.

    Compiled nodes cover the leaves ``lo..hi-1`` (depth-first order);
    nodes that folding creates at a step do not.  ``first`` is the
    earliest sample read, which names the disjunction binary; ``hull``
    caches the interval pair of a 2-way Or (None: not computed yet, False:
    not an interval pair).
    """

    __slots__ = ("conj", "kids", "first", "lo", "hi", "hull")

    def __init__(self, conj: bool, kids: list):
        self.conj = conj
        self.kids = kids
        self.first = self.lo = self.hi = -1
        self.hull = None


def _unroll(f: Formula, t: int, neg: bool, h: float):
    """Expand temporal operators over absolute samples, negation at leaves."""
    if isinstance(f, Not):
        return _unroll(f.child, t, not neg, h)
    if isinstance(f, Pred):
        return _Leaf(f.negate() if neg else f, t)
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

    The rows read ``R s + aux a <= b``: ``s`` are the template's slots
    (a row of R holds at most one nonzero, +1 or -1, and only in a decision
    slot's column) and ``a`` the auxiliary
    variables created for this step, in creation order (``aux_names``,
    binaries flagged in ``aux_binary``).  ``warm_sources`` gives, per
    binary in creation order, its own name and the names of the same
    disjunction or literal one to three samples earlier.  ``bounds`` lists
    the intervals that rows put on single slots: ``(slot, aux, lo0, hi0,
    lo1, hi1)``, the second interval applying when auxiliary ``aux`` rounds
    to 1 (``aux`` is -1 for an unconditional row).  Every binding with the
    same leaf pattern shares all but ``b``, so ``R`` and ``aux`` are
    read-only.
    """

    name: str
    infeasible: bool
    deferred: bool
    R: np.ndarray
    aux: np.ndarray
    b: np.ndarray
    aux_names: tuple[str, ...]
    aux_binary: tuple[bool, ...]
    warm_sources: tuple[tuple[str, ...], ...]
    bounds: tuple[tuple[int, int, float, float, float, float], ...]



@dataclass(frozen=True)
class _Layout:
    """The rows of one leaf pattern: everything of ``StepRows`` but ``b``,
    which row ``r`` gives as ``(sign[r] (values[slot[r]] - const[r]) +
    k1[r]) - k2[r]``."""

    rows: StepRows
    slot: np.ndarray
    sign: np.ndarray
    const: np.ndarray
    k1: np.ndarray
    k2: np.ndarray

    def at(self, values: np.ndarray) -> StepRows:
        b = (self.sign * (values[self.slot] - self.const) + self.k1) - self.k2
        return replace(self.rows, b=b)


class FormulaTemplate:
    """One formula compiled once for encoding at sample 0.

    Compiling expands every temporal operator over absolute sample indices,
    pushes negation to the leaves and precomputes each leaf's slot, sign,
    constant, eps, big-M and edge, and each 2-way Or's interval pair.
    :meth:`instantiate` then only classifies the leaves against the caller's
    binding, folds the history truths and the internal nodes, and emits the
    rows of the live nodes in slot space.  The fold and the rows depend on
    the binding only through the leaf pattern (each leaf's state and each
    history leaf's truth), so they are kept per pattern: at most one entry
    for each pattern the template has been instantiated with.
    """

    def __init__(self, f: Formula, h: float, cfg: EncodingConfig, name: str = "stl"):
        self.name = name
        self.cfg = cfg
        root = _unroll(f, 0, False, h)
        leaves: list[_Leaf] = []
        nodes: list[_Node] = []
        self.root = self._number(root, leaves, nodes)
        # slots ordered by channel, then sample: each channel's slots are
        # one contiguous run, ``channel_slots[ch] = (first slot, samples)``
        read = sorted({(leaf.pred.channel, leaf.t) for leaf in leaves})
        self.slots: dict[tuple[str, int], int] = {key: s for s, key in enumerate(read)}
        self.pad = len(read)                   # a slot index that reads 0.0
        self.channel_slots: dict[str, tuple[int, np.ndarray]] = {}
        for ch in dict.fromkeys(ch for ch, _ in read):
            self.channel_slots[ch] = (self.slots[(ch, min(t for c, t in read if c == ch))],
                                      np.array([t for c, t in read if c == ch]))
        self._compile_leaves(leaves)
        for node in nodes:
            if not node.conj and len(node.kids) == 2:
                self.hull(node)
        self._names: dict[tuple[str, int, int], tuple[str, ...]] = {}
        self._layouts: dict[bytes, _Layout] = {}

    def _number(self, node, leaves: list, nodes: list):
        """Leaves to depth-first indices; nodes get their leaf range."""
        if isinstance(node, _Fold):
            return node
        if isinstance(node, _Leaf):
            leaves.append(node)
            return len(leaves) - 1
        node.lo = len(leaves)
        node.kids = [self._number(k, leaves, nodes) for k in node.kids]
        node.hi = len(leaves)
        node.first = min(leaves[k].t if isinstance(k, int) else k.first for k in node.kids)
        nodes.append(node)
        return node

    def _compile_leaves(self, leaves: list[_Leaf]) -> None:
        """Each leaf's slot, sample, predicate constants and edge."""
        per_pred: dict[Pred, tuple] = {}
        infos = []
        for leaf in leaves:
            info = per_pred.get(leaf.pred)
            if info is None:
                info = per_pred[leaf.pred] = (len(per_pred), *self._pred_constants(leaf.pred))
            infos.append(info)
        slots = [self.slots[(leaf.pred.channel, leaf.t)] for leaf in leaves]
        self.leaf_slot = np.array(slots, dtype=int)
        self.leaf_t = [leaf.t for leaf in leaves]
        # predicate key, sign, const, eps, fold threshold, big-M and edge
        (self.pred_key, self.leaf_sign, self.leaf_const, self.leaf_eps, fold_at,
         self.big_m_of, edges) = ([info[i] for info in infos] for i in range(7))
        self.edges = [(slot, *edge) for slot, edge in zip(slots, edges)]
        self.fold_at = np.array(fold_at)
        self.leaf_sign_arr = np.array(self.leaf_sign)
        self.leaf_const_arr = np.array(self.leaf_const)

    def _pred_constants(self, pred: Pred) -> tuple:
        """Sign, constant, eps, fold threshold, big-M (or the error message
        when the channel has no declared bounds) and the (lo, hi) that the
        predicate bounds its slot to."""
        eps = self.cfg.eps
        sign = 1.0 if pred.op in (">=", ">") else -1.0
        big_m: float | str
        if pred.channel in self.cfg.channel_bounds:
            lo, hi = self.cfg.channel_bounds[pred.channel]
            big_m = BIG_M_MARGIN * (max(abs(lo - pred.const), abs(hi - pred.const))
                                    + eps + 1.0)
        else:
            big_m = f"no declared bounds for channel {pred.channel!r}"
        # margin = sign (s - const) >= eps  <=>  sign s >= sign const + eps
        at = (sign * pred.const + (eps if pred.strict else 0.0)) / sign
        edge = (at, math.inf) if sign > 0.0 else (-math.inf, at)
        return (sign, pred.const, eps if pred.strict else 0.0,
                eps - 1e-9 if pred.strict else 0.0, big_m, edge)

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
        and emits; a later one reuses those rows, whose arrays are
        read-only, and computes only its right-hand side.
        """
        leaf_state = state[self.leaf_slot]
        val = np.append(values, 0.0)           # the pad slot reads 0.0
        # a non-strict predicate folds with zero tolerance; a strict one with
        # a grace of 1e-9, which keeps inputs applied exactly at an encoded
        # band edge (margin == eps by construction) folding to true despite
        # float round-off
        truth = (leaf_state == HISTORY) & (
            self.leaf_sign_arr * (val[self.leaf_slot] - self.leaf_const_arr) >= self.fold_at)
        key = leaf_state.tobytes() + truth.tobytes()
        layout = self._layouts.get(key)
        if layout is None:
            tree = self._fold(leaf_state, truth)
            em = _Emitter(self)
            if isinstance(tree, (_Node, int)):
                em.require(tree, None, True)
            layout = self._layouts[key] = em.layout(tree)
        return layout.at(val)

    def _fold(self, leaf_state: np.ndarray, leaf_truth: np.ndarray):
        root = self.root
        if isinstance(root, _Fold):
            return root
        state = leaf_state.tolist()
        truth = leaf_truth.tolist()
        dec = [0] + np.cumsum(leaf_state == DECISION).tolist()
        und = [0] + np.cumsum(leaf_state == UNBOUND).tolist()

        def holds(node) -> bool:  # a subtree of history leaves only
            if isinstance(node, int):
                return truth[node]
            return (all if node.conj else any)(holds(k) for k in node.kids)

        def fold(node):
            if isinstance(node, int):
                s = state[node]
                if s == DECISION:
                    return node
                if s == UNBOUND:
                    return _Fold.DEFERRED
                return _Fold.TRUE if truth[node] else _Fold.FALSE
            lo, hi = node.lo, node.hi
            n_dec, n_und = dec[hi] - dec[lo], und[hi] - und[lo]
            if n_dec == hi - lo:
                return node
            if n_und == hi - lo:
                return _Fold.DEFERRED
            if n_dec + n_und == 0:
                return _Fold.TRUE if holds(node) else _Fold.FALSE
            kids = [fold(k) for k in node.kids]
            folded = _combine(kids, node.conj)
            if isinstance(folded, _Node):
                folded.first = min(self.leaf_t[k] if isinstance(k, int) else k.first
                                   for k in folded.kids)
            return folded

        return fold(root)

    def interval(self, node) -> tuple[int, float, float] | None:
        """(slot, lo, hi) when ``node`` bounds one slot to a finite,
        non-empty interval, else None."""
        if isinstance(node, int):
            kids = (node,)
        elif node.conj and all(isinstance(k, int) for k in node.kids):
            kids = node.kids
        else:
            return None
        slot, lo, hi = None, -math.inf, math.inf
        for k in kids:
            edge = self.edges[k]
            if slot is not None and edge[0] != slot:
                return None
            slot = edge[0]
            lo, hi = max(lo, edge[1]), min(hi, edge[2])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            return None
        return slot, lo, hi

    def hull(self, node: _Node):
        """(slot, lo0, hi0, lo1, hi1) of a 2-way Or of two distinct
        intervals on one slot, else False; cached on the node."""
        if node.hull is None:
            first, second = (self.interval(k) for k in node.kids)
            if first is None or second is None or first[0] != second[0] \
                    or first[1:] == second[1:]:
                node.hull = False
            else:
                node.hull = (first[0], first[1], first[2], second[1], second[2])
        return node.hull

    def binary_name(self, tag: str, t: int, j: int) -> tuple[str, ...]:
        """``{name}.t{t}.{tag}{j}`` and the same binary 1..3 samples earlier."""
        key = (tag, t, j)
        if key not in self._names:
            self._names[key] = tuple(f"{self.name}.t{s}.{tag}{j}"
                                     for s in range(t, max(t - 4, -1), -1))
        return self._names[key]


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

    Each row reads one slot with coefficient ``-sign`` (a leaf's slot, or
    the slot of a hull row), or the pad slot for a row over selectors only,
    plus auxiliary columns; its right-hand side is
    ``(sign (value - const) + k1) - k2``, ``value`` the slot's offset (0.0
    for the pad slot).
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
        chain = self.tmpl.binary_name(tag, t, j)
        self.warm_sources.append(chain)
        return self.new_aux(chain[0], True)

    def big_m(self, leaf: int) -> float:
        m = self.tmpl.big_m_of[leaf]
        if isinstance(m, str):
            raise StlEncodingError(m)
        return m

    def implied_row(self, leaf: int, lower) -> None:
        """margin >= eps - M (1 - lower) for an integral ``lower``."""
        t = self.tmpl
        slot, lo, hi = t.edges[leaf]
        if lower is None:  # the plain predicate row
            self.row(slot, t.leaf_sign[leaf], t.leaf_const[leaf], 0.0, t.leaf_eps[leaf])
            self.bounds.append((slot, -1, lo, hi, lo, hi))
            return
        m = self.big_m(leaf)
        const, coefs = lower
        self.row(slot, t.leaf_sign[leaf], t.leaf_const[leaf], m * (1.0 - const),
                 t.leaf_eps[leaf], [(a, m * c) for a, c in coefs.items()])

    def pred_literal(self, leaf: int) -> int:
        """Binary with two-sided big-M linking: p == 1 iff the margin is met."""
        t = self.tmpl
        key = (t.pred_key[leaf], t.leaf_t[leaf])
        if key in self.pred_literals:
            return self.pred_literals[key]
        pid = self.pred_ids.setdefault(key[0], len(self.pred_ids))
        p = self.binary("p", t.leaf_t[leaf], pid)
        m = self.big_m(leaf)
        eps, sign, const = t.leaf_eps[leaf], t.leaf_sign[leaf], t.leaf_const[leaf]
        # margin >= -M (1 - p) + eps   and   margin <= M p - eps
        slot = t.leaf_slot[leaf]
        self.row(slot, sign, const, -(eps - m), 0.0, [(p, m)])
        self.row(slot, -sign, const, 0.0, eps, [(p, -m)])
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
        if not pair:
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

    def layout(self, tree) -> _Layout:
        """The rows emitted so far, checked once for every binding that
        shares them: aux names are unique and every binary is in a row."""
        tmpl = self.tmpl
        m = len(self.slot)
        slot = np.array(self.slot, dtype=int)
        sign = np.array(self.sign)
        R = np.zeros((m, tmpl.pad + 1))
        R[np.arange(m), slot] = -sign
        aux = np.zeros((m, len(self.aux_names)))
        if self.aux_at:
            r, c, v = zip(*self.aux_at)
            aux[list(r), list(c)] = v
        if len(set(self.aux_names)) != len(self.aux_names):
            raise ValueError(f"{tmpl.name}: duplicate auxiliary variable")
        unused = np.array(self.aux_binary, dtype=bool) & ~aux.any(axis=0)
        if unused.any():
            raise ValueError(f"binary {self.aux_names[np.argmax(unused)]!r} appears in no row")
        R = R[:, :tmpl.pad]
        per_row = (slot, sign, np.array(self.const), np.array(self.k1), np.array(self.k2))
        for a in (R, aux, *per_row):
            a.setflags(write=False)
        rows = StepRows(
            name=tmpl.name, infeasible=tree is _Fold.FALSE,
            deferred=tree is _Fold.DEFERRED, R=R, aux=aux, b=np.zeros(0),
            aux_names=tuple(self.aux_names), aux_binary=tuple(self.aux_binary),
            warm_sources=tuple(self.warm_sources), bounds=tuple(self.bounds))
        return _Layout(rows, *per_row)
