"""Recurrent cell steps, forward and backward, and parameter containers: RAU, GRU, LSTM.

All step functions accept a single example (1-D arrays of size m and n)
or a batch (2-D arrays of shape (B, m) / (B, n)); gates act along the
last axis. Weight matrices map the concatenation [x, h_prev] (input
first, hidden second) to the hidden size, so an affine transform is
`xh @ W.T + b`. A step writes its intermediates into one row of its
layer's `Trace`; its kind's step backward, next to it, replays that row.
Only the weight-gradient GEMMs read the GRU and RAU candidate input
[x, r*h_prev] and the RAU attended input u*xh, and one multiply rebuilds
each from recorded fields, so every step writes them into one shared
scratch row and the backward rebuilds them a span of steps at a time.
`_KINDS` is the one table of the kinds. A kind's gates (GRU and RAU
r|z, LSTM f|i|o|g) form one block: one matmul, a GEMM batched over the
gates against the stacked weights of `gate_block`, writes them into one
gate-major trace field, and one sigmoid call activates the sigmoid
gates. Gate-major keeps each gate contiguous: numpy's elementwise ops
ran about 3x slower on a (B, n) gate cut from a (B, k*n) block.

The RAU cell keeps the GRU update/reset/candidate computation unchanged
and adds an attention gate: a learned affine score per component of
[x, h_prev], softmax-normalized within the step, reweights the
concatenation before a tanh projection back to hidden size. The hidden
state then mixes the previous state, the GRU candidate, and the
attended state with coefficients (1-z), z/2, z/2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
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


class Trace(SimpleNamespace):
    """A cell layer's recorded steps: one (rows, *batch, width) array per trace field of its kind.

    Step t writes row t in place; `row(t)` gives its fields as views.
    xh is the concatenation [x, h_prev], so backward recovers x and
    h_prev by slicing at the input size. The fused gate field (GRU and
    RAU `rz`, LSTM `fiog`) holds the kind's gates gate-major, (rows, k,
    *batch, n); the trace also carries one view per gate (`r`, `z`;
    `f`, `i`, `o`, `g`), each row of which is contiguous. A shared field
    (GRU and RAU `xrh`, RAU `v`) has a row axis of stride 0: all its rows
    are one scratch row that every step overwrites, so after the steps
    each row reads the last step's values.
    """

    @property
    def lead(self) -> tuple:
        """(rows, batch shape), read off the leading axes all fields share."""
        return len(self.xh), self.xh.shape[1:-1]

    def row(self, t: int | slice) -> "Trace":
        """Row t's fields as views (rows t, for a slice)."""
        return Trace(**{name: buf[t] for name, buf in vars(self).items()})


def new_trace(kind: str, rows: int, batch: tuple, m: int, n: int) -> Trace:
    """An unfilled trace of `rows` steps of a cell kind with input size m and hidden size n.

    The fields, then each shared field's one row, are consecutive pieces of one block: the
    allocator maps and unmaps a train trace (tens of MB) whole, where one array per field grew
    and trimmed the heap on every call.
    """
    k = _kind(kind)
    fused, gates, _ = k.block
    width = {"n": n, "m+n": m + n, f"{len(gates)}n": len(gates) * n}
    per_row = math.prod(batch)
    lead = rows * per_row
    block = np.empty(lead * sum(width[w] for _, w in k.fields) + per_row * sum(width[w] for _, w, _ in k.shared))
    trace, start = Trace(), 0
    for name, w in k.fields:
        shape = (rows, len(gates), *batch, n) if name == fused else (rows, *batch, width[w])
        setattr(trace, name, block[start:start + lead * width[w]].reshape(shape))
        start += lead * width[w]
    for j, gate in enumerate(gates):
        setattr(trace, gate, getattr(trace, fused)[:, j])
    for name, w, _ in k.shared:
        one = block[start:start + per_row * width[w]].reshape(1, *batch, width[w])
        # more rows view it through a row axis of stride 0; a one-row trace (eval, a lone step) skips
        # np.ndarray, which costs ~2 us a call to reshape's ~0.5
        setattr(trace, name, one if rows == 1 else np.ndarray((rows, *one.shape[1:]), buffer=one,
                                                               strides=(0, *one.strides[1:])))
        start += one.size
    return trace


def weight_stacks(kind: str, p: CellParams) -> list:
    """Each gate group's weights, row-stacked in group order: the backward's GEMM operands.

    A one-weight group's stack is that weight itself, since concatenate
    would copy it; the others are copies, so build them again after the
    parameters change. The first, the xh group's, starts with the fused
    gate block's weights, and `gate_block` can view them in it.
    """
    return [np.concatenate(attrgetter(*paths)(p)) if len(paths) > 1 else attrgetter(*paths)(p)
            for paths, _, _ in _kind(kind).groups]


def gate_block(kind: str, p: CellParams, stack: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The kind's k gates' weights and biases, stacked for one batched GEMM into the fused gate field.

    Returns a (k, m+n, n) weight array, gate j being w_j.T (a transposed
    view of one stacked copy, so each gate's product is computed as
    `xh @ w_j.T` is), and a (k, n) bias array. The weights view the first
    k*n rows of stack, the xh group's entry of `weight_stacks`, or a new
    copy of only the gates' weights if stack is None; the biases are a
    copy. Build them again after the parameters change.
    """
    _, gates, (weights, biases) = _kind(kind).block
    b = np.concatenate([attrgetter(path)(p) for path in biases])
    w = np.concatenate([attrgetter(path)(p) for path in weights]) if stack is None else stack[:len(b)]
    n = len(b) // len(gates)
    return w.reshape(len(gates), n, -1).transpose(0, 2, 1), b.reshape(len(gates), n)


def _trace_row(kind: str, p: CellParams, x: np.ndarray, tr: Trace | None) -> Trace:
    """tr, or else the row of a fresh one-row trace for one step of p on x."""
    return new_trace(kind, 1, x.shape[:-1], p.input_size, p.hidden_size).row(0) if tr is None else tr


def _affine(inp: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """inp @ w.T + b, computed in out."""
    np.matmul(inp, w.T, out=out)
    out += b
    return out


def _gate_affine(xh: np.ndarray, gates, out: np.ndarray) -> np.ndarray:
    """Every gate's xh @ w_j.T + b_j at once, into the gate-major out (k, *batch, n); gates is `gate_block`."""
    w, b = gates
    np.matmul(xh, w, out=out)
    out += b.reshape(len(b), *(1,) * (xh.ndim - 1), -1)
    return out


def _check_dims(m: int, n: int, x: np.ndarray, h_prev: np.ndarray, op: str) -> None:
    if x.shape[-1] != m:
        raise ContractError(f"{op}: input size {x.shape[-1]} != expected {m}")
    if h_prev.shape[-1] != n:
        raise ContractError(f"{op}: hidden size {h_prev.shape[-1]} != expected {n}")
    if x.shape[:-1] != h_prev.shape[:-1]:
        raise ContractError(f"{op}: batch shapes differ, {x.shape[:-1]} vs {h_prev.shape[:-1]}")


# The backward rebuilds the shared fields of a span of rows with these. Each is the step's own
# expression: xh's halves are x and h_prev to the bit. The steps inline them, since at one-row
# shapes a function call per step cost RAU about 5% of its eval throughput.
def _fill_xrh(tr: Trace, m: int, out: np.ndarray) -> np.ndarray:
    """[x, r*h_prev], the candidate's input, from tr's xh and r into out."""
    out[..., :m] = tr.xh[..., :m]
    np.multiply(tr.r, tr.xh[..., m:], out=out[..., m:])
    return out


def _fill_v(tr: Trace, m: int, out: np.ndarray) -> np.ndarray:
    """u*xh, the attention-reweighted concatenation, from tr's u and xh into out."""
    return np.multiply(tr.u, tr.xh, out=out)


def _gru_gates(p: GruParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace, gates) -> None:
    """Shared update/reset/candidate computation (used verbatim by RAU), written into tr.

    gates is `gate_block` of p: r and z come from one GEMM and one sigmoid.
    """
    m = x.shape[-1]
    xh = np.concatenate([x, h_prev], axis=-1, out=tr.xh)
    sigmoid(_gate_affine(xh, gates, out=tr.rz), out=tr.rz)
    # `_fill_xrh` from x and h_prev: the elementwise ops run faster on them than on xh's strided halves
    tr.xrh[..., :m] = x
    np.multiply(tr.r, h_prev, out=tr.xrh[..., m:])
    tanh(_affine(tr.xrh, p.w_c, p.b_c, out=tr.hc), out=tr.hc)


def _input_grad(d: np.ndarray, w: np.ndarray, m: int, x_cols: bool):
    """d @ w, a gradient on a step's [x, h] input, as its x part (None unless x_cols) and its h part.

    The parts are two products, d @ w[:, :m] and d @ w[:, m:]: one GEMM
    over all of w and cut afterwards gives h columns whose bits depend on
    the BLAS, its thread count and the shapes, so the h part, and with it
    every parameter gradient, would change with x_cols.
    """
    return (d @ w[:, :m] if x_cols else None), d @ w[:, m:]


def _gru_deltas(tr: Trace, dz, dhc, w_c, d_xh, d_c, m: int, n: int, x_cols: bool):
    """Shared update/reset/candidate path of one step.

    Writes the candidate delta into d_c and the reset and update gate
    deltas into d_xh[..., :n] and d_xh[..., n:2n]; dz and dhc serve as
    scratch. Returns the gradient on [x, r*h_prev] from the candidate,
    as `_input_grad` splits it.
    """
    t = np.multiply(tr.hc, tr.hc)
    np.subtract(1.0, t, out=t)
    np.multiply(dhc, t, out=d_c)
    dxrh_x, drh = _input_grad(d_c, w_c, m, x_cols)
    dr = np.multiply(drh, tr.xh[..., m:], out=dhc)
    dr *= tr.r
    np.subtract(1.0, tr.r, out=t)
    np.multiply(dr, t, out=d_xh[..., :n])
    dz *= tr.z
    np.subtract(1.0, tr.z, out=t)
    np.multiply(dz, t, out=d_xh[..., n:2 * n])
    return dxrh_x, drh


def _h_grad(drh, r, dxh_h, dh, z) -> np.ndarray:
    """The gradient on h_prev: drh*r + dxh_h + dh*(1-z), summed in that order into drh; dxh_h serves as scratch."""
    drh *= r
    drh += dxh_h
    np.subtract(1.0, z, out=dxh_h)
    np.multiply(dh, dxh_h, out=dxh_h)
    drh += dxh_h
    return drh


def _mix(h_prev: np.ndarray, z: np.ndarray, z_new: np.ndarray) -> np.ndarray:
    """(1-z)*h_prev + z_new, the state mix, into a fresh array; z_new is z times the new state."""
    h = np.subtract(1.0, z)
    h *= h_prev
    h += z_new
    return h


def gru_step(p: GruParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace | None = None, gates=None):
    """One GRU step: h = (1-z)*h_prev + z*candidate; returns (h, the trace row written).

    gates is `gate_block("gru", p)`, built here if None.
    """
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "gru_step")
    tr = _trace_row("gru", p, x, tr)
    _gru_gates(p, x, h_prev, tr, gate_block("gru", p) if gates is None else gates)
    return _mix(h_prev, tr.z, tr.z * tr.hc), tr


def _gru_backward(tr: Trace, dh, dc, w, d, dx, m: int, n: int):
    x_cols = dx is not None
    dz = np.subtract(tr.hc, tr.xh[..., m:])
    np.multiply(dh, dz, out=dz)
    dxrh_x, drh = _gru_deltas(tr, dz, dh * tr.z, w[1], d[0], d[1], m, n, x_cols)
    dxh_x, dxh_h = _input_grad(d[0], w[0], m, x_cols)
    if x_cols:
        np.add(dxrh_x, dxh_x, out=dx)
    return _h_grad(drh, tr.r, dxh_h, dh, tr.z), None


def rau_step(p: RauParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace | None = None, gates=None, *,
             attended_override: np.ndarray | None = None):
    """One RAU step: h = (1-z)*h_prev + z*(candidate + attended)/2; returns (h, the trace row written).

    The update/reset/candidate path is exactly the GRU computation on
    p.gru; gates is `gate_block("rau", p)`, the same stack as
    `gate_block("gru", p.gru)`, built here if None. The attention gate
    scores each component of [x, h_prev], softmax-normalizes the scores
    into the weights u, reweights the concatenation into v and projects
    it to the attended state ha. The (candidate + attended)/2 pairing
    (algebraically equal to z*candidate/2 + z*attended/2) makes the step
    collapse bitwise to gru_step when the attended state is overridden
    with the candidate. attended_override substitutes ha and leaves u
    and v unwritten; test use only.
    """
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "rau_step")
    tr = _trace_row("rau", p, x, tr)
    _gru_gates(p.gru, x, h_prev, tr, gate_block("rau", p) if gates is None else gates)
    if attended_override is None:
        softmax(_affine(tr.xh, p.w_a, p.b_a, out=tr.u), axis=-1, out=tr.u)
        np.multiply(tr.u, tr.xh, out=tr.v)  # `_fill_v`
        tanh(_affine(tr.v, p.w_u, p.b_u, out=tr.ha), out=tr.ha)
    else:
        tr.ha[...] = attended_override
    z_new = tr.hc + tr.ha
    z_new /= 2.0
    z_new *= tr.z
    return _mix(h_prev, tr.z, z_new), tr


def _rau_backward(tr: Trace, dh, dc, w, d, dx, m: int, n: int):
    x_cols = dx is not None
    dz = np.add(tr.hc, tr.ha)
    dz /= 2.0
    dz -= tr.xh[..., m:]
    np.multiply(dh, dz, out=dz)
    dhc = dh * tr.z
    dhc *= 0.5  # = dha: the mix weighs candidate and attended alike
    # attention branch; softmax backward: dalpha = u * (du - <du, u>)
    t = np.multiply(tr.ha, tr.ha)
    np.subtract(1.0, t, out=t)
    np.multiply(dhc, t, out=d[2])
    dv = d[2] @ w[2]
    du = dv * tr.xh
    inner = np.sum(du * tr.u, axis=-1, keepdims=True)
    du -= inner
    np.multiply(tr.u, du, out=d[0][..., 2 * n:])
    dxrh_x, drh = _gru_deltas(tr, dz, dhc, w[1], d[0], d[1], m, n, x_cols)
    dxh_x, dxh_h = _input_grad(d[0], w[0], m, x_cols)
    dvu = np.multiply(dv, tr.u, out=du)
    dxh_h += dvu[..., m:]
    if x_cols:
        dxh_x += dvu[..., :m]
        np.add(dxrh_x, dxh_x, out=dx)
    return _h_grad(drh, tr.r, dxh_h, dh, tr.z), None


def lstm_step(p: LstmParams, x: np.ndarray, state: CellState, tr: Trace | None = None, gates=None):
    """One standard LSTM step: c' = f*c + i*g, h' = o*tanh(c'); returns (state, the trace row written).

    gates is `gate_block("lstm", p)`, built here if None: f, i, o and g
    come from one GEMM, f|i|o from one sigmoid and g from one tanh.
    """
    _check_dims(p.input_size, p.hidden_size, x, state.h, "lstm_step")
    if state.c.shape != state.h.shape:
        raise ContractError("lstm_step: cell state shape must match hidden state")
    tr = _trace_row("lstm", p, x, tr)
    xh = np.concatenate([x, state.h], axis=-1, out=tr.xh)
    fiog = _gate_affine(xh, gate_block("lstm", p) if gates is None else gates, out=tr.fiog)
    sigmoid(fiog[:3], out=fiog[:3])
    tanh(tr.g, out=tr.g)
    tr.c_prev[...] = state.c
    c = np.multiply(tr.f, state.c)
    ig = np.multiply(tr.i, tr.g)
    c += ig
    h = np.tanh(c, out=ig)
    h *= tr.o
    return CellState(h=h, c=c), tr


def _lstm_backward(tr: Trace, dh, dc_next, w, d, dx, m: int, n: int):
    # the trace keeps no c: this is the forward's expression, so it is bitwise the forward's c
    tc = np.multiply(tr.f, tr.c_prev)
    t = np.multiply(tr.i, tr.g)
    tc += t
    np.tanh(tc, out=tc)
    do = dh * tc
    dc = dh * tr.o
    np.multiply(tc, tc, out=t)
    np.subtract(1.0, t, out=t)
    dc *= t
    if dc_next is not None:
        dc += dc_next
    # t and tc hold, gate by gate, the product of its factors and its activation's slope
    fiog = d[0]
    np.multiply(dc, tr.c_prev, out=t)
    t *= tr.f
    np.multiply(t, np.subtract(1.0, tr.f, out=tc), out=fiog[..., :n])
    np.multiply(dc, tr.g, out=t)
    t *= tr.i
    np.multiply(t, np.subtract(1.0, tr.i, out=tc), out=fiog[..., n:2 * n])
    do *= tr.o
    np.multiply(do, np.subtract(1.0, tr.o, out=tc), out=fiog[..., 2 * n:3 * n])
    np.multiply(tr.g, tr.g, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(np.multiply(dc, tr.i, out=tc), t, out=fiog[..., 3 * n:])
    if dx is not None:
        np.matmul(fiog, w[0][:, :m], out=dx)
    return fiog @ w[0][:, m:], np.multiply(dc, tr.f, out=do)


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


class _Kind(NamedTuple):
    init: Callable      # (m, n, scale, rng) -> params
    step: Callable      # (params, x, h, or the CellState if has_c, trace row or None, gate_block or None)
                        # -> (next h or CellState, trace row)
    backward: Callable  # (trace row, dh, dc from the step after or None, stacked weights and this step's
                        # delta rows, both in group order, dx row or None, m, n) -> (dh_prev, dc_prev);
                        # writes the deltas, and dx unless it is None
    has_c: bool         # the state carries a cell state c
    rows: Callable      # (m, n) -> weight rows; each row holds m+n weights and a bias
    fields: tuple       # (name, width) of each trace field, the width "n", "m+n" or k*n for the fused gates
    shared: tuple       # (name, width, fill) of each shared scratch field; fill(trace rows, m, out) rebuilds
                        # its rows from the fields, as the step computes them
    groups: tuple       # per gate group: weight paths, stacked in that order; bias paths; the trace field they multiply
    block: tuple        # the fused gate field, its gates' view names, and (weight paths, bias paths) of its one GEMM


def _group(field: str, *weights: str) -> tuple:
    """A gate group; each bias is named after its weight, b_* for w_*."""
    return weights, tuple(w.replace("w_", "b_") for w in weights), field


def _block(field: str, views: tuple, *weights: str) -> tuple:
    """The fused gate block: its trace field, a view name per gate, and the weight and bias paths in view order."""
    paths, biases, _ = _group(field, *weights)
    return field, views, (paths, biases)


# the fused blocks stack their gates in the order of the backward's xh group
_GRU_FIELDS = (("xh", "m+n"), ("rz", "2n"), ("hc", "n"))
_GRU_SHARED = (("xrh", "m+n", _fill_xrh),)
_KINDS = {
    "rau": _Kind(init_rau, rau_step, _rau_backward, False, lambda m, n: m + 5 * n,
                 _GRU_FIELDS + (("u", "m+n"), ("ha", "n")), _GRU_SHARED + (("v", "m+n", _fill_v),),
                 (_group("xh", "gru.w_r", "gru.w_z", "w_a"), _group("xrh", "gru.w_c"), _group("v", "w_u")),
                 _block("rz", ("r", "z"), "gru.w_r", "gru.w_z")),
    "gru": _Kind(init_gru, gru_step, _gru_backward, False, lambda m, n: 3 * n, _GRU_FIELDS, _GRU_SHARED,
                 (_group("xh", "w_r", "w_z"), _group("xrh", "w_c")),
                 _block("rz", ("r", "z"), "w_r", "w_z")),
    "lstm": _Kind(init_lstm, lstm_step, _lstm_backward, True, lambda m, n: 4 * n,
                  (("xh", "m+n"), ("fiog", "4n"), ("c_prev", "n")), (),
                  (_group("xh", "w_f", "w_i", "w_o", "w_g"),),
                  _block("fiog", ("f", "i", "o", "g"), "w_f", "w_i", "w_o", "w_g")),
}
CELL_KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ContractError(f"unknown cell kind {kind!r}")
    return _KINDS[kind]


def step(kind: str, p: CellParams, x: np.ndarray, state: CellState, tr: Trace | None = None, gates=None):
    """Kind-dispatched step over a CellState into trace row tr (a fresh one if None); returns (state, row).

    gates is `gate_block(kind, p)`; a caller that runs many steps on the
    same parameters builds it once. If None, the step builds it.
    """
    k = _kind(kind)
    if k.has_c:
        return k.step(p, x, state, tr, gates)
    h, tr = k.step(p, x, state.h, tr, gates)
    return CellState(h=h), tr


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

