"""Bounded signal temporal logic over sampled signals.

Concrete syntax (one formula per line in spec files, ``#`` comments)::

    formula := formula 'or' formula
             | formula 'and' formula
             | formula 'until_[a,b]' formula
             | 'alw_[a,b]' formula | 'ev_[a,b]' formula | 'not' formula
             | '(' formula ')' | channel relop number
    relop   := '>=' | '<=' | '>' | '<'

Interval bounds are seconds; the upper bound may be the token ``end``, which
is resolved to the final closed-loop time before monitoring or encoding.
Windows map to sample indices as  {t + ceil(a/h) .. t + floor(b/h)}.

The module provides two consumers of the same AST: a quantitative
robustness monitor (min/max semantics) and a big-M mixed-integer encoder
that emits into a caller-owned problem builder.  The monitor works directly
on the AST; the encoder first expands temporal operators into a
propositional tree over per-index predicates (negation is pushed to the
leaves during expansion), which keeps the two evaluation paths independent
of each other.

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

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .milp import LinExpr, ProblemBuilder


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
    """Linear predicate over named channels: sum(coef * channel) relop const."""

    terms: tuple[tuple[float, str], ...]
    op: str
    const: float

    def __post_init__(self):
        if self.op not in _FLIP:
            raise ValueError(f"bad relation {self.op!r}")

    @property
    def strict(self) -> bool:
        return self.op in _STRICT

    def channels(self) -> tuple[str, ...]:
        return tuple(ch for _, ch in self.terms)

    def negate(self) -> "Pred":
        return Pred(self.terms, _FLIP[self.op], self.const)

    def margin(self, values: Mapping[str, float]) -> float:
        """Signed satisfaction margin; positive means satisfied."""
        expr = sum(c * values[ch] for c, ch in self.terms)
        if self.op in (">=", ">"):
            return expr - self.const
        return self.const - expr


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
# Parsing and printing
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
            num = float(self.take("number")[1])
            return Pred(((1.0, value),), op, num)
        raise StlSyntaxError(f"expected a formula, found {value!r}", pos)

    def bounds(self) -> tuple[float, Bound]:
        # the opening 'xx_[' token was already consumed
        a = float(self.take("number")[1])
        self.take("comma")
        kind, value, pos = self.take()
        if kind == "end":
            b: Bound = END
        elif kind == "number":
            b = float(value)
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


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _fmt_bound(b: Bound) -> str:
    return "end" if isinstance(b, _End) else _fmt_num(b)


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parse(format_formula(f)) == f."""

    def wrap(child: Formula) -> str:
        if isinstance(child, (And, Or, Until)):
            return f"({format_formula(child)})"
        return format_formula(child)

    if isinstance(f, Pred):
        if len(f.terms) == 1 and f.terms[0][0] == 1.0:
            lhs = f.terms[0][1]
        else:  # linear predicates beyond the grammar print unambiguously
            lhs = " + ".join(f"{_fmt_num(c)}*{ch}" for c, ch in f.terms)
        return f"{lhs} {f.op} {_fmt_num(f.const)}"
    if isinstance(f, Not):
        return f"not {wrap(f.child)}"
    if isinstance(f, And):
        return " and ".join(
            f"({format_formula(c)})" if isinstance(c, (And, Or)) else format_formula(c)
            for c in f.children)
    if isinstance(f, Or):
        return " or ".join(
            f"({format_formula(c)})" if isinstance(c, Or) else format_formula(c)
            for c in f.children)
    if isinstance(f, Alw):
        return f"alw_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.child)}"
    if isinstance(f, Ev):
        return f"ev_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.child)}"
    if isinstance(f, Until):
        return f"{wrap(f.left)} until_[{_fmt_num(f.a)},{_fmt_bound(f.b)}] {wrap(f.right)}"
    raise TypeError(f"not a formula: {f!r}")


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

    def value(self, t_index: int) -> dict[str, float]:
        return {ch: float(v[t_index]) for ch, v in self.channels.items()}


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
                rho = node.margin(signal.value(t))
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


# Propositional tree over per-index predicate literals.
@dataclass(frozen=True)
class _PTrue:
    pass


@dataclass(frozen=True)
class _PFalse:
    pass


@dataclass(frozen=True)
class _PDeferred:
    """Obligation whose window lies wholly beyond the bound signal."""


@dataclass(frozen=True)
class _PPred:
    pred: Pred
    t: int


@dataclass(frozen=True)
class _PAnd:
    children: tuple


@dataclass(frozen=True)
class _POr:
    children: tuple


SignalBinding = Mapping[str, Mapping[int, Union[LinExpr, float]]]


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


def _fold_constant_margin(pred: Pred, values: Mapping[str, float], eps: float) -> bool:
    rho = pred.margin(values)
    if pred.strict:
        # grace of 1e-9 keeps inputs applied exactly at an encoded band edge
        # (m == eps by construction) folding to true despite float round-off
        return rho >= eps - 1e-9
    return rho >= 0.0


def _available(pred: Pred, binding: SignalBinding, t: int) -> bool:
    return all(ch in binding and t in binding[ch] for ch in pred.channels())


def _expand(f: Formula, t: int, neg: bool, binding: SignalBinding,
            h: float, eps: float):
    """Temporal and negation expansion into a propositional tree.

    Unavailable indices follow the shrinking-window policy: conjunctive
    obligations are deferred to later steps, disjunctive ones are enforced
    over the visible part of the window (stricter, hence sound).  Constant
    (history) samples fold to boolean constants immediately.
    """
    if isinstance(f, Not):
        return _expand(f.child, t, not neg, binding, h, eps)
    if isinstance(f, Pred):
        pred = f.negate() if neg else f
        if not _available(pred, binding, t):
            return _PDeferred()
        vals = {ch: binding[ch][t] for ch in pred.channels()}
        if all(isinstance(v, (int, float)) for v in vals.values()):
            return _PTrue() if _fold_constant_margin(pred, vals, eps) else _PFalse()
        return _PPred(pred, t)
    if isinstance(f, (And, Or)):
        conj = isinstance(f, And) ^ neg
        kids = [_expand(c, t, neg, binding, h, eps) for c in f.children]
        return _combine(kids, conj)
    if isinstance(f, (Alw, Ev)):
        conj = isinstance(f, Alw) ^ neg
        idx = _window_indices(t, f.a, f.b, h)
        kids = [_expand(f.child, i, neg, binding, h, eps) for i in idx]
        return _combine(kids, conj)
    if isinstance(f, Until):
        idx = _window_indices(t, f.a, f.b, h)
        disjuncts = []
        for tp in idx:
            parts = [_expand(f.right, tp, neg, binding, h, eps)]
            parts += [_expand(f.left, i, neg, binding, h, eps) for i in range(t, tp)]
            disjuncts.append(_combine(parts, conj=not neg))
        return _combine(disjuncts, conj=neg)
    raise TypeError(f"not a formula: {f!r}")


def _combine(kids: list, conj: bool):
    """And/Or constant folding with deferral semantics."""
    kept = []
    saw_deferred = False
    for k in kids:
        if isinstance(k, _PDeferred):
            saw_deferred = True
            if conj:
                continue  # conjunct deferred to a later step
            kept.append(k)
        elif isinstance(k, _PTrue):
            if not conj:
                return _PTrue()
        elif isinstance(k, _PFalse):
            if conj:
                return _PFalse()
        else:
            kept.append(k)
    if conj:
        if not kept:
            # distinguish "satisfied now" from "every obligation is beyond
            # the bound horizon"
            return _PDeferred() if saw_deferred else _PTrue()
        if len(kept) == 1:
            return kept[0]
        return _PAnd(tuple(kept))
    # disjunction: visible members only; wholly invisible -> deferred
    visible = [k for k in kept if not isinstance(k, _PDeferred)]
    if not kept:
        return _PFalse()
    if not visible:
        return _PDeferred()
    if len(visible) == 1:
        return visible[0]
    return _POr(tuple(visible))


class _Encoder:
    """Emits ``truth(node) >= lower`` for a propositional tree.

    A required truth ``lower`` is integral when it is the constant 1.0 or an
    integer combination of disjunction binaries made here; only then can a
    branch point be decided by a binary.  A 2-way Or under an integral
    ``lower`` gets one binary ``d`` (branch 0 must hold at least ``d``,
    branch 1 at least ``lower - d``), or, under ``lower == 1.0`` when both
    branches bound one decision sample to an interval, the two convex-hull
    rows of that interval pair.  A predicate under an integral ``lower``
    becomes one implied big-M row with no literal of its own.  Everything
    under a fractional ``lower`` (below an n-ary Or's continuous selectors)
    uses continuous selectors and two-sided predicate literals.
    """

    def __init__(self, builder: ProblemBuilder, binding: SignalBinding,
                 cfg: EncodingConfig, name: str):
        self.builder = builder
        self.binding = binding
        self.cfg = cfg
        self.name = name
        self.pred_literals: dict[tuple[Pred, int], str] = {}
        # ids keyed by predicate identity, so a predicate keeps its name
        # component across receding-horizon steps (warm starts match names)
        self.pred_ids: dict[Pred, int] = {}
        self.disjunctions: set[str] = set()   # disjunction binaries
        self.per_sample: dict[int, int] = {}  # disjunctions named per sample
        self.result = EncodedFormula(binaries=[], literals=[], constraints=0)
        self.counter = 0

    def fresh(self, tag: str) -> str:
        self.counter += 1
        return f"{self.name}.{tag}{self.counter}"

    def margin_expr(self, pred: Pred, t: int) -> LinExpr:
        expr = LinExpr.constant(0.0)
        for c, ch in pred.terms:
            bound = self.binding[ch][t]
            term = LinExpr.constant(float(bound)) if isinstance(bound, (int, float)) else bound
            expr = expr + c * term
        if pred.op in (">=", ">"):
            return expr - pred.const
        return LinExpr.constant(pred.const) - expr

    def big_m(self, pred: Pred) -> float:
        lo = hi = 0.0
        for c, ch in pred.terms:
            if ch not in self.cfg.channel_bounds:
                raise StlEncodingError(f"no declared bounds for channel {ch!r}")
            blo, bhi = self.cfg.channel_bounds[ch]
            lo += min(c * blo, c * bhi)
            hi += max(c * blo, c * bhi)
        m_lo, m_hi = lo - pred.const, hi - pred.const
        if pred.op in ("<=", "<"):
            m_lo, m_hi = -m_hi, -m_lo
        return BIG_M_MARGIN * (max(abs(m_lo), abs(m_hi)) + self.cfg.eps + 1.0)

    def eps_of(self, pred: Pred) -> float:
        return self.cfg.eps if pred.strict else 0.0

    def integral(self, lower: Union[LinExpr, float]) -> bool:
        if isinstance(lower, float):
            return lower == 1.0
        return float(lower.const).is_integer() and all(
            name in self.disjunctions and float(c).is_integer()
            for name, c in lower.coef.items())

    def pred_literal(self, node: _PPred) -> str:
        """Binary with two-sided big-M linking: p == 1 iff the margin is met."""
        key = (node.pred, node.t)
        if key in self.pred_literals:
            return self.pred_literals[key]
        pid = self.pred_ids.setdefault(node.pred, len(self.pred_ids))
        p = self.builder.add_binary(f"{self.name}.t{node.t}.p{pid}")
        m = self.big_m(node.pred)
        eps = self.eps_of(node.pred)
        margin = self.margin_expr(node.pred, node.t)
        pvar = LinExpr.variable(p)
        # margin >= -M (1 - p) + eps   and   margin <= M p - eps
        self.builder.add_geq(margin - m * pvar, eps - m)
        self.builder.add_leq(margin - m * pvar, -eps)
        self.result.binaries.append(p)
        self.result.constraints += 2
        self.pred_literals[key] = p
        return p

    def implied_row(self, node: _PPred, lower: Union[LinExpr, float]) -> None:
        """margin >= eps - M (1 - lower) for an integral ``lower``."""
        margin = self.margin_expr(node.pred, node.t)
        if isinstance(lower, float):  # lower == 1.0: the plain predicate row
            self.builder.add_geq(margin, self.eps_of(node.pred))
        else:
            m = self.big_m(node.pred)
            self.builder.add_geq(margin + m * (1.0 - lower), self.eps_of(node.pred))
        self.result.constraints += 1

    def selector(self) -> LinExpr:
        """Continuous Or selector in [0, 1]."""
        sel = self.builder.add_continuous(self.fresh("or."), 0.0, 1.0)
        self.result.literals.append(sel)
        return LinExpr.variable(sel)

    def disjunction_binary(self, node: _POr) -> LinExpr:
        """Binary named by the Or's first sample, stable across steps."""
        t = _first_sample(node)
        j = self.per_sample.get(t, 0)
        self.per_sample[t] = j + 1
        d = self.builder.add_binary(f"{self.name}.t{t}.d{j}")
        self.disjunctions.add(d)
        self.result.binaries.append(d)
        return LinExpr.variable(d)

    def interval(self, node) -> tuple[tuple[str, int], float, float] | None:
        """(sample, lo, hi) when ``node`` bounds one sample to a finite,
        non-empty interval through single-term predicates, else None."""
        preds = node.children if isinstance(node, _PAnd) else (node,)
        if not all(isinstance(p, _PPred) and len(p.pred.terms) == 1 for p in preds):
            return None
        samples = {(p.pred.terms[0][1], p.t) for p in preds}
        if len(samples) != 1:
            return None
        lo, hi = -math.inf, math.inf
        for p in preds:
            # margin = sign (c s - const) >= eps  <=>  a s >= sign const + eps
            sign = 1.0 if p.pred.op in (">=", ">") else -1.0
            a = sign * p.pred.terms[0][0]
            if a == 0.0:
                return None
            edge = (sign * p.pred.const + self.eps_of(p.pred)) / a
            if a > 0.0:
                lo = max(lo, edge)
            else:
                hi = min(hi, edge)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            return None
        return samples.pop(), lo, hi

    def hull_rows(self, node: _POr) -> bool:
        """Convex hull of s in [lo0, hi0] (d = 0) or s in [lo1, hi1] (d = 1):
        s >= lo0 + (lo1 - lo0) d  and  s <= hi0 + (hi1 - hi0) d."""
        first, second = (self.interval(k) for k in node.children)
        if first is None or second is None or first[0] != second[0] \
                or first[1:] == second[1:]:
            return False
        (ch, t), lo0, hi0 = first
        _, lo1, hi1 = second
        s = self.binding[ch][t]
        d = self.disjunction_binary(node)
        self.builder.add_geq(s - (lo1 - lo0) * d, lo0)
        self.builder.add_leq(s - (hi1 - hi0) * d, hi0)
        self.result.constraints += 2
        return True

    def assert_at_least(self, node, lower: Union[LinExpr, float]) -> None:
        """Emit constraints forcing truth(node) >= lower."""
        if isinstance(node, _PTrue):
            return
        integral = self.integral(lower)
        if isinstance(node, _PPred):
            if integral:
                self.implied_row(node, lower)
                return
            p = self.pred_literal(node)
            self.builder.add_geq(LinExpr.variable(p) - _as_expr(lower), 0.0)
            self.result.constraints += 1
            return
        if isinstance(node, _PAnd):
            for child in node.children:
                self.assert_at_least(child, lower)
            return
        if isinstance(node, _POr):
            kids = node.children
            if len(kids) == 2:
                # a float `lower` is integral only as the constant 1.0
                if integral and isinstance(lower, float) and self.hull_rows(node):
                    return
                sel = self.disjunction_binary(node) if integral else self.selector()
                # selected share of `lower` goes to each branch
                self.assert_at_least(kids[0], sel)
                self.assert_at_least(kids[1], _as_expr(lower) - sel)
                return
            sels = [self.selector() for _ in kids]
            self.builder.add_geq(sum(sels, LinExpr.constant(0.0)) - _as_expr(lower), 0.0)
            self.result.constraints += 1
            for child, sel in zip(kids, sels):
                self.assert_at_least(child, sel)
            return
        raise TypeError(f"bad propositional node {node!r}")


def _first_sample(node) -> int:
    if isinstance(node, _PPred):
        return node.t
    return min(_first_sample(c) for c in node.children)


def _as_expr(v: Union[LinExpr, float]) -> LinExpr:
    return LinExpr.constant(float(v)) if isinstance(v, (int, float)) else v


def encode_formula(builder: ProblemBuilder, f: Formula, binding: SignalBinding,
                   t_index: int, h: float, cfg: EncodingConfig,
                   name: str = "stl") -> EncodedFormula:
    """Assert that ``f`` holds at sample ``t_index`` over the bound signals.

    History samples appear in ``binding`` as float constants and fold away;
    decision-bound samples appear as affine expressions over problem
    variables.  Window indices with no binding follow the shrinking-horizon
    policy described in :func:`_expand`.
    """
    tree = _expand(f, t_index, False, binding, h, cfg.eps)
    enc = _Encoder(builder, binding, cfg, name)
    if isinstance(tree, _PFalse):
        builder.mark_infeasible(f"{name}: violated by already-fixed samples")
        enc.result.infeasible = True
        return enc.result
    if isinstance(tree, _PDeferred):
        enc.result.deferred = True
        return enc.result
    enc.assert_at_least(tree, 1.0)
    return enc.result
