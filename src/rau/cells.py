"""Recurrent cell forward steps and parameter containers: RAU, GRU, LSTM.

All step functions accept a single example (1-D arrays of size m and n)
or a batch (2-D arrays of shape (B, m) / (B, n)); gates act along the
last axis. Weight matrices map the concatenation [x, h_prev] (input
first, hidden second) to the hidden size, so an affine transform is
`xh @ W.T + b`.

The RAU cell keeps the GRU update/reset/candidate computation unchanged
and adds an attention gate: a learned affine score per component of
[x, h_prev], softmax-normalized within the step, reweights the
concatenation before a tanh projection back to hidden size. The hidden
state then mixes the previous state, the GRU candidate, and the
attended state with coefficients (1-z), z/2, z/2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .linalg import ContractError, Rng, init_matrix, sigmoid, softmax, tanh

_EMPTY = np.zeros(0)


class _GateShapes:
    """hidden_size and input_size, read off the (n, m+n) gate weight named by `_gate`."""

    _gate = "w_z"

    @property
    def hidden_size(self) -> int:
        return getattr(self, self._gate).shape[0]

    @property
    def input_size(self) -> int:
        n, m_plus_n = getattr(self, self._gate).shape
        return m_plus_n - n


@dataclass
class GruParams(_GateShapes):
    """Update gate, reset gate and candidate weights; each (n, m+n) with an n-bias."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_c: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_c: np.ndarray


@dataclass
class RauParams(_GateShapes):
    """GRU parameters plus the attention gate.

    w_a/b_a score each of the m+n concatenation components; w_u/b_u
    project the softmax-reweighted concatenation down to hidden size.
    """

    gru: GruParams
    w_a: np.ndarray
    b_a: np.ndarray
    w_u: np.ndarray
    b_u: np.ndarray

    _gate = "w_u"


@dataclass
class LstmParams(_GateShapes):
    """Forget/input/output gates and cell candidate; each (n, m+n) with an n-bias."""

    w_f: np.ndarray
    w_i: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray

    _gate = "w_f"


CellParams = GruParams | RauParams | LstmParams


@dataclass
class CellState:
    """Hidden state h, plus cell state c for LSTM (zero-length otherwise)."""

    h: np.ndarray
    c: np.ndarray = dataclasses.field(default_factory=lambda: _EMPTY)


@dataclass
class StepTrace:
    """Intermediates of one forward step, kept for the backward pass.

    Fields are populated per cell kind; unused ones stay None. xh is the
    concatenation [x, h_prev], so backward recovers x and h_prev by
    slicing at the input size.
    """

    xh: np.ndarray = None
    z: np.ndarray = None
    r: np.ndarray = None
    xrh: np.ndarray = None
    hc: np.ndarray = None
    alpha: np.ndarray = None
    u: np.ndarray = None
    v: np.ndarray = None
    ha: np.ndarray = None
    f: np.ndarray = None
    i: np.ndarray = None
    o: np.ndarray = None
    g: np.ndarray = None
    c_prev: np.ndarray = None
    c: np.ndarray = None


def _check_dims(m: int, n: int, x: np.ndarray, h_prev: np.ndarray, op: str) -> None:
    if x.shape[-1] != m:
        raise ContractError(f"{op}: input size {x.shape[-1]} != expected {m}")
    if h_prev.shape[-1] != n:
        raise ContractError(f"{op}: hidden size {h_prev.shape[-1]} != expected {n}")
    if x.shape[:-1] != h_prev.shape[:-1]:
        raise ContractError(f"{op}: batch shapes differ, {x.shape[:-1]} vs {h_prev.shape[:-1]}")


def _gru_gates(p: GruParams, x: np.ndarray, h_prev: np.ndarray):
    """Shared update/reset/candidate computation (used verbatim by RAU)."""
    xh = np.concatenate([x, h_prev], axis=-1)
    z = sigmoid(xh @ p.w_z.T + p.b_z)
    r = sigmoid(xh @ p.w_r.T + p.b_r)
    xrh = np.concatenate([x, r * h_prev], axis=-1)
    hc = tanh(xrh @ p.w_c.T + p.b_c)
    return xh, z, r, xrh, hc


def gru_step(p: GruParams, x: np.ndarray, h_prev: np.ndarray):
    """One GRU step: h = (1-z)*h_prev + z*candidate."""
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "gru_step")
    xh, z, r, xrh, hc = _gru_gates(p, x, h_prev)
    h = (1.0 - z) * h_prev + z * hc
    return h, StepTrace(xh=xh, z=z, r=r, xrh=xrh, hc=hc)


def _attend(p: RauParams, xh: np.ndarray):
    """Scores, softmax weights, reweighted [x, h_prev] and the attended state of one step."""
    alpha = xh @ p.w_a.T + p.b_a
    u = softmax(alpha, axis=-1)
    v = u * xh
    return tanh(v @ p.w_u.T + p.b_u), alpha, u, v


def rau_attention(p: RauParams, x: np.ndarray, h_prev: np.ndarray):
    """Attention gate: scores -> softmax weights -> reweighted, projected tanh state.

    Returns (attended state, scores alpha, weights u). The weights are a
    probability vector over the m+n components of [x, h_prev].
    """
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "rau_attention")
    return _attend(p, np.concatenate([x, h_prev], axis=-1))[:3]


def rau_step(p: RauParams, x: np.ndarray, h_prev: np.ndarray, *, attended_override: np.ndarray | None = None):
    """One RAU step: h = (1-z)*h_prev + z*(candidate + attended)/2.

    The update/reset/candidate path is exactly the GRU computation on
    p.gru. The (candidate + attended)/2 pairing (algebraically equal to
    z*candidate/2 + z*attended/2) makes the step collapse bitwise to
    gru_step when the attended state is overridden with the candidate.
    attended_override substitutes the attention branch output; test use
    only.
    """
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "rau_step")
    xh, z, r, xrh, hc = _gru_gates(p.gru, x, h_prev)
    if attended_override is None:
        ha, alpha, u, v = _attend(p, xh)
    else:
        ha, alpha, u, v = attended_override, None, None, None
    h = (1.0 - z) * h_prev + z * ((hc + ha) / 2.0)
    return h, StepTrace(xh=xh, z=z, r=r, xrh=xrh, hc=hc, alpha=alpha, u=u, v=v, ha=ha)


def lstm_step(p: LstmParams, x: np.ndarray, state: CellState):
    """One standard LSTM step: c' = f*c + i*g, h' = o*tanh(c')."""
    _check_dims(p.input_size, p.hidden_size, x, state.h, "lstm_step")
    if state.c.shape != state.h.shape:
        raise ContractError("lstm_step: cell state shape must match hidden state")
    xh = np.concatenate([x, state.h], axis=-1)
    f = sigmoid(xh @ p.w_f.T + p.b_f)
    i = sigmoid(xh @ p.w_i.T + p.b_i)
    o = sigmoid(xh @ p.w_o.T + p.b_o)
    g = tanh(xh @ p.w_g.T + p.b_g)
    c = f * state.c + i * g
    h = o * np.tanh(c)
    trace = StepTrace(xh=xh, f=f, i=i, o=o, g=g, c_prev=state.c, c=c)
    return CellState(h=h, c=c), trace


def init_gru(m: int, n: int, scale: float, rng: Rng) -> GruParams:
    return GruParams(
        w_z=init_matrix(n, m + n, scale, rng),
        w_r=init_matrix(n, m + n, scale, rng),
        w_c=init_matrix(n, m + n, scale, rng),
        b_z=np.zeros(n),
        b_r=np.zeros(n),
        b_c=np.zeros(n),
    )


def init_rau(m: int, n: int, scale: float, rng: Rng) -> RauParams:
    # attention biases start at zero, symmetric with the gate biases
    return RauParams(
        gru=init_gru(m, n, scale, rng),
        w_a=init_matrix(m + n, m + n, scale, rng),
        b_a=np.zeros(m + n),
        w_u=init_matrix(n, m + n, scale, rng),
        b_u=np.zeros(n),
    )


def init_lstm(m: int, n: int, scale: float, rng: Rng) -> LstmParams:
    # forget-gate bias starts at 1.0 so early training carries memory
    return LstmParams(
        w_f=init_matrix(n, m + n, scale, rng),
        w_i=init_matrix(n, m + n, scale, rng),
        w_o=init_matrix(n, m + n, scale, rng),
        w_g=init_matrix(n, m + n, scale, rng),
        b_f=np.ones(n),
        b_i=np.zeros(n),
        b_o=np.zeros(n),
        b_g=np.zeros(n),
    )


def _h_state(h: np.ndarray, trace: StepTrace):
    return CellState(h=h), trace


class _Kind(NamedTuple):
    init: Callable    # (m, n, scale, rng) -> params
    step: Callable    # (params, x, CellState) -> (CellState, StepTrace)
    has_c: bool       # the state carries a cell state c
    rows: Callable    # (m, n) -> weight rows; each row holds m+n weights and a bias


_KINDS = {
    "rau": _Kind(init_rau, lambda p, x, s: _h_state(*rau_step(p, x, s.h)), False, lambda m, n: m + 5 * n),
    "gru": _Kind(init_gru, lambda p, x, s: _h_state(*gru_step(p, x, s.h)), False, lambda m, n: 3 * n),
    "lstm": _Kind(init_lstm, lstm_step, True, lambda m, n: 4 * n),
}
CELL_KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ContractError(f"unknown cell kind {kind!r}")
    return _KINDS[kind]


def step(kind: str, p: CellParams, x: np.ndarray, state: CellState):
    """Kind-dispatched step over a CellState; returns (next state, trace)."""
    return _kind(kind).step(p, x, state)


def zero_state(kind: str, n: int, batch: int | None = None) -> CellState:
    shape = (n,) if batch is None else (batch, n)
    h = np.zeros(shape)
    c = np.zeros(shape) if _kind(kind).has_c else _EMPTY
    return CellState(h=h, c=c)


def param_count(kind: str, m: int, n: int) -> int:
    """Learnable scalar count for one cell."""
    rows = _kind(kind).rows
    if m < 1 or n < 1:
        raise ContractError("param_count: m and n must be >= 1")
    return rows(m, n) * (m + n + 1)


def init_cell(kind: str, m: int, n: int, scale: float, rng: Rng) -> CellParams:
    return _kind(kind).init(m, n, scale, rng)


def iter_tensors(obj, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
    """Walk a parameter container, yielding (dotted path, array) in declaration order.

    Dataclass fields are visited as declared, lists by index. Non-array
    leaves (strings, numbers, None) are skipped, so containers may carry
    metadata alongside their tensors.
    """
    if isinstance(obj, np.ndarray):
        yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from iter_tensors(getattr(obj, f.name), name)
    elif isinstance(obj, (list, tuple)):
        for k, item in enumerate(obj):
            name = f"{prefix}.{k}" if prefix else str(k)
            yield from iter_tensors(item, name)


def tensor_count(obj) -> int:
    """Total scalar count across all tensors in a container."""
    return sum(arr.size for _, arr in iter_tensors(obj))
