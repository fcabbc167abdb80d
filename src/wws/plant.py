"""Six-state nonlinear warm-water supply plant under zeroth-order-hold inputs.

States are water temperatures in degC, in loop order: heat pump outlet (x1),
supply pipe (x2), tank layers one to three (x3..x5), return pipe (x6).  The
supply output is the third tank layer.  The right-hand side is a fixed
42-coefficient polynomial: linear couplings plus squared, cubic and mixed
cubic exchange terms between adjacent tank layers.  The single input ``u`` is
heat-pump electrical power in kW (enters x1 only); the single disturbance
``w`` is the ambient temperature in degC.

Coefficients live in versioned JSON data files so the plant is swappable;
``PlantModel.nominal()`` loads the bundled nominal set and ``demo()`` loads a
re-rated set with identical structure used by demos and machinery tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .integrators import IntegratorConfig, StateDivergence, propagate

N_STATES = 6
N_COEFFS = 42

# Divergence flagging limits; excursions are reported, never clamped.
STATE_BOUNDS = (-50.0, 150.0)

TRAJECTORY_HEADER = ["t", "x1", "x2", "x3", "x4", "x5", "x6", "u", "w", "y"]


class DivergenceError(RuntimeError):
    """A trajectory left the physical temperature bounds."""

    def __init__(self, message: str, step_index: int | None = None,
                 state: np.ndarray | None = None, column: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.state = state
        self.column = column


@dataclass(frozen=True)
class PlantModel:
    """Immutable coefficient set of the warm-water supply dynamics.

    ``a`` holds the 42 polynomial coefficients (``a[0]`` is the coefficient
    named a1 in the accompanying docs).  ``output_index`` is 1-based and
    selects the supply temperature state (x5, third tank layer).
    """

    a: tuple[float, ...]
    output_index: int = 5
    name: str = ""

    def __post_init__(self):
        if len(self.a) != N_COEFFS:
            raise ValueError(f"expected {N_COEFFS} coefficients, got {len(self.a)}")
        if not all(np.isfinite(self.a)):
            raise ValueError("non-finite coefficient")
        if not (1 <= self.output_index <= N_STATES):
            raise ValueError(f"output_index must be in 1..{N_STATES}")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "PlantModel":
        return cls(a=tuple(float(v) for v in doc["a"]),
                   output_index=int(doc.get("output_index", 5)),
                   name=str(doc.get("name", "")))

    @classmethod
    def from_json(cls, path: str | Path) -> "PlantModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def _from_resource(cls, filename: str) -> "PlantModel":
        text = resources.files("wws.data").joinpath(filename).read_text()
        return cls.from_dict(json.loads(text))

    @classmethod
    def nominal(cls) -> "PlantModel":
        """The bundled nominal coefficient set, loaded verbatim."""
        return cls._from_resource("warm_water_plant.json")

    @classmethod
    def demo(cls) -> "PlantModel":
        """Re-rated controllable set with the same polynomial structure."""
        return cls._from_resource("demo_plant.json")

    def to_json(self, path: str | Path) -> None:
        doc = {"name": self.name, "a": list(self.a), "output_index": self.output_index}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    # -- evaluation closures ----------------------------------------------

    def rhs(self, u, w) -> Callable[[Sequence[float]], list]:
        """Right-hand side closure for fixed held inputs.

        With scalar ``u`` and ``w`` the closure maps one state to its six
        derivatives (fast float path).  With per-column vectors of length K
        it maps a (6, K) state block to six derivative rows of length K:
        the same polynomial, evaluated elementwise over the columns.
        """
        (a1, a2, a3, a4, a5, a6, a7, a8, a9, a10,
         a11, a12, a13, a14, a15, a16, a17, a18, a19, a20,
         a21, a22, a23, a24, a25, a26, a27, a28, a29, a30,
         a31, a32, a33, a34, a35, a36, a37, a38, a39, a40,
         a41, a42) = self.a
        if np.ndim(u) == 0 and np.ndim(w) == 0:
            u = float(u)
            w = float(w)
        else:
            u = np.asarray(u, dtype=float)
            w = np.asarray(w, dtype=float)

        def f(x: Sequence[float]) -> list:
            x1, x2, x3, x4, x5, x6 = x
            return [
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
            ]

        return f

    def jac(self) -> Callable[[Sequence[float]], np.ndarray]:
        """State-Jacobian closure d f / d x (input/disturbance independent).

        Maps one state to its (6, 6) Jacobian and a (6, K) state block to
        the (6, 6, K) stack of its columns' Jacobians.
        """
        a = self.a

        def J(x: Sequence[float]) -> np.ndarray:
            _x1, _x2, x3, x4, x5, _x6 = x
            m = np.zeros((N_STATES, N_STATES) + np.shape(x3))
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

    def input_direction(self) -> np.ndarray:
        """d f / d u (constant: power enters the heat pump state only)."""
        b = np.zeros(N_STATES)
        b[0] = self.a[2]
        return b

    def disturbance_direction(self) -> np.ndarray:
        """d f / d w (constant: ambient coupling of every passive component)."""
        d = np.zeros(N_STATES)
        d[1] = self.a[5]
        d[2] = self.a[15]
        d[3] = self.a[29]
        d[4] = self.a[38]
        d[5] = self.a[41]
        return d


def output(x: Sequence[float], output_index: int = 5) -> float:
    """Supply temperature: the selected state coordinate (1-based index)."""
    return float(x[output_index - 1])


def step(
    model: PlantModel,
    x: Sequence[float] | np.ndarray,
    u,
    w,
    h: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> np.ndarray:
    """Propagate the plant over one hold interval of length ``h`` seconds.

    ``x`` is one state of shape (6,) or a block of K column states of shape
    (6, K); ``u`` and ``w`` are scalars or per-column vectors of length K.
    The result has the shape of ``x``.  A column that leaves the state
    bounds raises :class:`DivergenceError`; in a block it names the lowest
    such column.
    """
    if h <= 0.0:
        raise ValueError(f"hold interval must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != N_STATES:
        raise ValueError(f"state must have shape ({N_STATES},) or ({N_STATES}, K), "
                         f"got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state")
    try:
        return propagate(model.rhs, model.jac(), x, u, w, h, config, STATE_BOUNDS)
    except StateDivergence as exc:
        if exc.column is None:
            raise DivergenceError(str(exc), state=exc.state) from exc
        raise DivergenceError(f"column {exc.column}: {exc}", state=exc.state,
                              column=exc.column) from exc


def simulate(
    model: PlantModel,
    x0: Sequence[float] | np.ndarray,
    u_seq: Sequence,
    w_seq: Sequence,
    h: float,
) -> np.ndarray:
    """Repeated ZOH stepping; returns ``n+1`` states with row 0 equal to x0.

    ``x0`` may be a (6, K) block of column states; then each input and
    disturbance sample is a scalar or a per-column vector, every step is
    one block :func:`step`, and the result has shape (n+1, 6, K).
    """
    u_seq = list(u_seq)
    w_seq = list(w_seq)
    if len(u_seq) != len(w_seq):
        raise ValueError("input and disturbance sequences must have equal length")
    if not u_seq:
        raise ValueError("need at least one input sample")
    x0 = np.asarray(x0, dtype=float)
    out = np.empty((len(u_seq) + 1,) + x0.shape)
    out[0] = x0
    for k, (u, w) in enumerate(zip(u_seq, w_seq)):
        try:
            out[k + 1] = step(model, out[k], u, w, h)
        except DivergenceError as exc:
            raise DivergenceError(f"divergence at step {k}: {exc}", step_index=k,
                                  state=exc.state, column=exc.column) from exc
    return out

