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
`_KINDS` is the one table of the kinds; a function that takes a cell
reads its kind and sizes off it. A kind's gates (GRU and RAU r|z, LSTM
f|i|o|g) form one block: one matmul, a GEMM batched over the gates
against the stacked weights of a cell's `gates`, writes them into one
gate-major trace field, and one sigmoid call activates the sigmoid
gates. Gate-major keeps each gate contiguous: numpy's elementwise ops
ran about 3x slower on a (B, n) gate cut from a (B, k*n) block.

A cell's parameters live in one float64 buffer, as packed RNN weights
do: the (rows, m+n) weights, then the rows biases, in gate-group order
(RAU w_r w_z w_a | w_c | w_u, GRU w_r w_z | w_c, LSTM w_f w_i w_o w_g).
Each named tensor, each gate group and the gate block are views of it.
A cell's gradient is a cell of its kind on a buffer of its own, so the
update runs once per buffer.

The RAU cell keeps the GRU update/reset/candidate computation unchanged
and adds an attention gate: a learned affine score per component of
[x, h_prev], softmax-normalized within the step, reweights the
concatenation before a tanh projection back to hidden size. The hidden
state then mixes the previous state, the GRU candidate, and the
attended state with coefficients (1-z), z/2, z/2.

A large one-layer forward splits each step in two, as `autograd._forward_plan`
says: `autograd`'s worker thread runs a branch that reads only [x, h_prev]
while the caller runs the rest of the step. A kind's `branch` in `_KINDS`
names the branch's weights: RAU the attention branch (w_a, w_u) beside
its GRU branch, LSTM the forget and input gates (w_f, w_i) beside its
output and candidate gates. A GRU has none: the one piece of its step
off the candidate's path, its z gate, is too small to hand over.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .linalg import ContractError, NumericError, Rng, init_matrix, non_finite, sigmoid, softmax, tanh

_EMPTY = np.zeros(0)


class _Cell:
    """Named tensors viewing one `buffer`; update them in place, never rebind.

    `gates` views the k gates' (k, m+n, n) weights, gate j being w_j.T, and (k, n) biases for one batched
    GEMM: the leading rows of the xh group, so they follow in-place updates; a RAU's are its GRU part's.
    `groups` views each gate group's (rows, m+n) weights and rows biases, in group order: the backward's
    GEMM operands, and in a gradient cell what each span flush adds into. `tensors` holds (path, view) of
    each named tensor, as `iter_tensors` walks them. A RAU's GRU part has neither.

    kind is looked up from the cell's type; `_on_buffer` sets the ints input_size and hidden_size beside the views.
    """

    @property
    def kind(self) -> str:
        return _KIND_OF[type(self)]

    def on_buffer(self, buf: np.ndarray) -> "CellParams":
        """A cell of this one's kind and sizes whose tensors view buf, a buffer laid out as this one's."""
        return _on_buffer(self.kind, self.input_size, self.hidden_size, buf)

    def __reduce__(self):
        # copy.deepcopy and pickle would copy each view on its own: copy the one buffer and view the copy alike
        return _on_buffer, (self.kind, self.input_size, self.hidden_size, _owner(self).buffer)


@dataclass
class GruParams(_Cell):
    """Update gate, reset gate and candidate weights; each (n, m+n) with an n-bias."""

    w_z: np.ndarray
    w_r: np.ndarray
    w_c: np.ndarray
    b_z: np.ndarray
    b_r: np.ndarray
    b_c: np.ndarray


@dataclass
class RauParams(_Cell):
    """GRU parameters plus the attention gate.

    w_a/b_a score each of the m+n concatenation components; w_u/b_u
    project the softmax-reweighted concatenation down to hidden size.
    """

    gru: GruParams
    w_a: np.ndarray
    b_a: np.ndarray
    w_u: np.ndarray
    b_u: np.ndarray


@dataclass
class LstmParams(_Cell):
    """Forget/input/output gates and cell candidate; each (n, m+n) with an n-bias."""

    w_f: np.ndarray
    w_i: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray


CellParams = GruParams | RauParams | LstmParams


@dataclass
class CellState:
    """Hidden state h, plus cell state c for LSTM (zero-length otherwise)."""

    h: np.ndarray
    c: np.ndarray = dataclasses.field(default_factory=lambda: _EMPTY)


class Trace(SimpleNamespace):
    """A cell layer's recorded steps: one (rows, *batch, width) array per trace field of its kind.

    Step t writes row t in place; `row(t)` gives its fields as views, a
    row that `new_trace` built once for the forward and the backward. xh
    is the concatenation [x, h_prev], so backward recovers x and h_prev by
    slicing at the input size. The fused gate field (GRU and
    RAU `rz`, LSTM `fiog`) holds the kind's gates gate-major, (rows, k,
    *batch, n); the trace also carries one view per gate (`r`, `z`;
    `f`, `i`, `o`, `g`), each row of which is contiguous. A shared field
    (GRU and RAU `xrh`, RAU `v`) has a row axis of stride 0: all its rows
    are one scratch row that every step overwrites, so after the steps
    each row reads the last step's values.
    """

    __slots__ = ("_rows",)  # `new_trace`'s rows: a slot, so vars(trace) holds the fields alone

    def row(self, t: int | slice) -> "Trace":
        """Row t's fields as views: the row `new_trace` built, or a new one (rows t, for a slice)."""
        if isinstance(t, slice) or not hasattr(self, "_rows"):  # a copy, or a trace of rows, has no rows
            return Trace(**{name: buf[t] for name, buf in vars(self).items()})
        return self._rows[t]


def new_trace(p: CellParams, rows: int, batch: tuple) -> Trace:
    """An unfilled trace of `rows` steps of cell p.

    The fields, then each shared field's one row, are consecutive pieces of one block: the
    allocator maps and unmaps a train trace (tens of MB) whole, where one array per field grew
    and trimmed the heap on every call.
    """
    k = _KINDS[_kind_of(p, "new_trace")]
    m, n = p.input_size, p.hidden_size
    fused, gates = k.block
    width = {"n": n, "m+n": m + n, f"{len(gates)}n": len(gates) * n}
    per_row = math.prod(batch)
    lead = rows * per_row
    block = np.empty(lead * sum(width[w] for _, w in k.fields) + per_row * sum(width[w] for _, w, _ in k.shared))
    views, start = {}, 0
    for name, w in k.fields:
        shape = (rows, len(gates), *batch, n) if name == fused else (rows, *batch, width[w])
        views[name] = block[start:start + lead * width[w]].reshape(shape)
        start += lead * width[w]
    for j, gate in enumerate(gates):
        views[gate] = views[fused][:, j]
    for name, w, _ in k.shared:
        one = block[start:start + per_row * width[w]].reshape(1, *batch, width[w])
        # more rows view it through a row axis of stride 0; a one-row trace (eval, a lone step) skips
        # np.ndarray, which costs ~2 us a call to reshape's ~0.5
        views[name] = one if rows == 1 else np.ndarray((rows, *one.shape[1:]), buffer=one,
                                                       strides=(0, *one.strides[1:]))
        start += one.size
    trace = Trace(**views)
    # iterating an array gives its rows as views, as indexing it by row does
    trace._rows = [Trace(**dict(zip(views, row))) for row in zip(*views.values())]
    return trace


class _Layout(NamedTuple):
    tensors: tuple  # (path, is a bias, first row, end row) of each named tensor, in declaration order
    rows: int       # weight rows; the (rows, m+n) weight block comes first, the rows biases follow it
    groups: tuple   # (first row, end row) of each gate group


@functools.cache
def _layout(kind: str, m: int, n: int) -> _Layout:
    """Where each tensor of a cell lies in its buffer: the one place that sizes a weight and its bias, whose
    rows are m+n for w_a and n for every other weight."""
    k = _kind(kind)
    rows = {w: m + n if w == "w_a" else n for w_paths, _, _ in k.groups for w in w_paths}
    at, groups, row = {}, [], 0
    for w_paths, b_paths, _ in k.groups:
        groups.append(row)
        for w, b in zip(w_paths, b_paths):
            at[w], at[b] = (False, row, row + rows[w]), (True, row, row + rows[w])
            row += rows[w]
    paths = [f"gru.{f.name}" for f in dataclasses.fields(GruParams)] if kind == "rau" else []
    paths = [q for f in dataclasses.fields(k.params) for q in (paths if f.name == "gru" else [f.name])]
    return _Layout(tuple((q, *at[q]) for q in paths), row, tuple(zip(groups, groups[1:] + [row])))


def _on_buffer(kind: str, m: int, n: int, buf: np.ndarray) -> CellParams:
    """The cell of a kind whose tensors view buf, a 1-D buffer laid out as `_layout` says.

    This is the one place that cuts a cell buffer, for parameters, gradients and Adam moments alike.
    """
    k = _kind(kind)
    layout = _layout(kind, m, n)
    w, b = buf[:layout.rows * (m + n)].reshape(-1, m + n), buf[layout.rows * (m + n):]
    views = {path: (b if bias else w)[lo:hi] for path, bias, lo, hi in layout.tensors}
    tensors = tuple(views.items())
    if kind == "rau":
        views["gru"] = GruParams(**{name: views.pop(f"gru.{name}") for name in _field_names(GruParams)})
    p = k.params(**views)
    j = len(k.block[1])
    p.buffer, p.tensors = buf, tensors
    # the gates lead the xh group; a transposed view per gate computes its product as `xh @ w_j.T` does
    gates = w[:j * n].reshape(j, n, m + n).transpose(0, 2, 1), b[:j * n].reshape(j, n)
    p.groups = tuple((w[lo:hi], b[lo:hi]) for lo, hi in layout.groups)
    for cell in (p, p.gru) if kind == "rau" else (p,):
        cell.gates, cell.input_size, cell.hidden_size = gates, m, n
    return p


def _owner(p: CellParams) -> CellParams:
    """p, which owns its buffer; a RAU's GRU part views its RAU's, so it raises ContractError for that part."""
    if "buffer" not in vars(p):
        raise ContractError(f"{type(p).__name__} is a RAU's GRU part: it views its RAU's buffer and has no "
                            "buffer of its own; take gradients or copies of the RAU")
    return p


def _affine(inp: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """inp @ w.T + b, computed in out."""
    np.matmul(inp, w.T, out=out)
    out += b
    return out


def _gate_affine(xh: np.ndarray, gates: tuple, out: np.ndarray) -> np.ndarray:
    """Every gate's xh @ w_j.T + b_j at once, into the gate-major out (k, *batch, n); gates is a cell's `gates`."""
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


def _gru_gates(p: GruParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace) -> None:
    """Shared update/reset/candidate computation (used verbatim by RAU), from tr.xh, which the step has
    written, into tr's rz, xrh and hc.

    r and z come from one GEMM against p's gate block and one sigmoid.
    """
    m = x.shape[-1]
    sigmoid(_gate_affine(tr.xh, p.gates, out=tr.rz), out=tr.rz)
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


def gru_step(p: GruParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace | None = None, beside=None):
    """One GRU step: h = (1-z)*h_prev + z*candidate; returns (h, the trace row written). A GRU has no
    branch (see `_KINDS`), so the step runs inline and beside, which no plan gives it, goes unused."""
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "gru_step")
    tr = new_trace(p, 1, x.shape[:-1]).row(0) if tr is None else tr
    np.concatenate([x, h_prev], axis=-1, out=tr.xh)
    _gru_gates(p, x, h_prev, tr)
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


def rau_step(p: RauParams, x: np.ndarray, h_prev: np.ndarray, tr: Trace | None = None,
             beside: Callable | None = None, *, attended_override: np.ndarray | None = None):
    """One RAU step: h = (1-z)*h_prev + z*(candidate + attended)/2; returns (h, the trace row written).

    The update/reset/candidate path is exactly the GRU computation on
    p.gru, whose gate block is p's. The attention gate
    scores each component of [x, h_prev], softmax-normalizes the scores
    into the weights u, reweights the concatenation into v and projects
    it to the attended state ha. The (candidate + attended)/2 pairing
    (algebraically equal to z*candidate/2 + z*attended/2) makes the step
    collapse bitwise to gru_step when the attended state is overridden
    with the candidate. attended_override substitutes ha and leaves u
    and v unwritten; test use only.

    The two branches meet only in the mix: each reads xh, written once
    before either starts, and writes trace fields of its own. So with
    beside, which is `autograd._beside`, the worker thread runs the
    attention branch (`_attend`) while the caller runs the GRU branch,
    and every output keeps its bits. `models._forward` passes it where
    `autograd._forward_plan` answers "branch"; without it the step runs
    both branches inline.
    """
    _check_dims(p.input_size, p.hidden_size, x, h_prev, "rau_step")
    tr = new_trace(p, 1, x.shape[:-1]).row(0) if tr is None else tr
    np.concatenate([x, h_prev], axis=-1, out=tr.xh)
    if beside is None or attended_override is not None:
        _gru_gates(p.gru, x, h_prev, tr)
        if attended_override is None:
            _attend(p, tr)
        else:
            tr.ha[...] = attended_override
    else:
        beside(functools.partial(_attend, p, tr), True, _gru_gates, p.gru, x, h_prev, tr)
    z_new = tr.hc + tr.ha
    z_new /= 2.0
    z_new *= tr.z
    return _mix(h_prev, tr.z, z_new), tr


def _attend(p: RauParams, tr: Trace) -> None:
    """A RAU step's attention branch, from tr.xh into tr's u, v (`_fill_v`) and ha."""
    softmax(_affine(tr.xh, p.w_a, p.b_a, out=tr.u), axis=-1, out=tr.u)
    np.multiply(tr.u, tr.xh, out=tr.v)
    tanh(_affine(tr.v, p.w_u, p.b_u, out=tr.ha), out=tr.ha)


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
    inner = np.add.reduce(du * tr.u, axis=-1, keepdims=True)  # np.sum, without its wrapper
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


def lstm_step(p: LstmParams, x: np.ndarray, state: CellState, tr: Trace | None = None,
              beside: Callable | None = None):
    """One standard LSTM step: c' = f*c + i*g, h' = o*tanh(c'); returns (state, the trace row written).

    f, i, o and g come from one GEMM against p's gate block, f|i|o from
    one sigmoid and g from one tanh. With beside, which is
    `autograd._beside` where `autograd._forward_plan` answers "branch",
    the worker thread computes f|i into tr.fiog[:2] (`_forget_input`)
    while the caller computes o|g into tr.fiog[2:] (`_output_candidate`).
    numpy's batched matmul runs one GEMM per gate and the activations are
    elementwise, so each gate keeps its bits. The caller raises its own
    NumericError after the join, so a worker's f|i error wins, as inline.
    """
    _check_dims(p.input_size, p.hidden_size, x, state.h, "lstm_step")
    if state.c.shape != state.h.shape:
        raise ContractError("lstm_step: cell state shape must match hidden state")
    tr = new_trace(p, 1, x.shape[:-1]).row(0) if tr is None else tr
    xh = np.concatenate([x, state.h], axis=-1, out=tr.xh)
    if beside is None:
        fiog = _gate_affine(xh, p.gates, out=tr.fiog)
        sigmoid(fiog[:3], out=fiog[:3])
        tanh(tr.g, out=tr.g)
    elif (error := beside(functools.partial(_forget_input, p, tr), True, _output_candidate, p, tr)) is not None:
        raise error
    tr.c_prev[...] = state.c
    c = np.multiply(tr.f, state.c)
    ig = np.multiply(tr.i, tr.g)
    c += ig
    h = np.tanh(c, out=ig)
    h *= tr.o
    return CellState(h=h, c=c), tr


def _forget_input(p: LstmParams, tr: Trace) -> None:
    """An LSTM step's f and i gates, from tr.xh into tr.fiog[:2]: their GEMM, their bias and one sigmoid."""
    w, b = p.gates
    fi = _gate_affine(tr.xh, (w[:2], b[:2]), out=tr.fiog[:2])
    sigmoid(fi, out=fi)


def _output_candidate(p: LstmParams, tr: Trace) -> NumericError | None:
    """An LSTM step's o and g gates, from tr.xh into tr.fiog[2:]: their GEMM and bias, o's sigmoid, g's tanh.
    It returns, rather than raises, a non-finite pre-activation's NumericError (see `lstm_step`), counting
    o's index from f's first entry, as the inline step's one sigmoid over f|i|o does."""
    w, b = p.gates
    _gate_affine(tr.xh, (w[2:], b[2:]), out=tr.fiog[2:])
    try:
        sigmoid(tr.o, out=tr.o)
    except NumericError as e:
        return non_finite("sigmoid", 2 * tr.o.size + e.index)
    try:
        tanh(tr.g, out=tr.g)
    except NumericError as e:
        return e


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


def init_cell(kind: str, m: int, n: int, scale: float, rng: Rng) -> CellParams:
    """A cell on one new buffer: each weight drawn by `init_matrix` in declaration order, the biases zero."""
    p = _on_buffer(kind, m, n, np.zeros(param_count(kind, m, n)))
    for path, a in iter_tensors(p):
        if path.rpartition(".")[2].startswith("w_"):
            a[...] = init_matrix(*a.shape, scale, rng)
    if kind == "lstm":
        p.b_f[...] = 1.0  # so early training carries memory
    return p


class _Kind(NamedTuple):
    params: type        # the params class
    step: Callable      # (params, x, h, or the CellState if has_c, trace row or None, beside or None)
                        # -> (next h or CellState, trace row)
    backward: Callable  # (trace row, dh, dc from the step after or None, stacked weights and this step's
                        # delta rows, both in group order, dx row or None, m, n) -> (dh_prev, dc_prev);
                        # writes the deltas, and dx unless it is None
    has_c: bool         # the state carries a cell state c
    fields: tuple       # (name, width) of each trace field, the width "n", "m+n" or k*n for the fused gates
    shared: tuple       # (name, width, fill) of each shared scratch field; fill(trace rows, m, out) rebuilds
                        # its rows from the fields, as the step computes them
    groups: tuple       # per gate group: weight paths, in buffer order; bias paths; the trace field they multiply
    block: tuple        # the fused gate field and its gates' view names; the gates lead the xh group
    branch: tuple       # the weights of the branch a step given beside hands the worker (see `step`); () for none


def _group(field: str, *weights: str) -> tuple:
    """A gate group; each bias is named after its weight, b_* for w_*."""
    return weights, tuple(w.replace("w_", "b_") for w in weights), field


_GRU_FIELDS = (("xh", "m+n"), ("rz", "2n"), ("hc", "n"))
_GRU_SHARED = (("xrh", "m+n", _fill_xrh),)
_KINDS = {
    "rau": _Kind(RauParams, rau_step, _rau_backward, False,
                 _GRU_FIELDS + (("u", "m+n"), ("ha", "n")), _GRU_SHARED + (("v", "m+n", _fill_v),),
                 (_group("xh", "gru.w_r", "gru.w_z", "w_a"), _group("xrh", "gru.w_c"), _group("v", "w_u")),
                 ("rz", ("r", "z")), ("w_a", "w_u")),
    "gru": _Kind(GruParams, gru_step, _gru_backward, False, _GRU_FIELDS, _GRU_SHARED,
                 (_group("xh", "w_r", "w_z"), _group("xrh", "w_c")),
                 ("rz", ("r", "z")), ()),
    "lstm": _Kind(LstmParams, lstm_step, _lstm_backward, True,
                  (("xh", "m+n"), ("fiog", "4n"), ("c_prev", "n")), (),
                  (_group("xh", "w_f", "w_i", "w_o", "w_g"),),
                  ("fiog", ("f", "i", "o", "g")), ("w_f", "w_i")),
}
CELL_KINDS = tuple(_KINDS)
_KIND_OF = {k.params: kind for kind, k in _KINDS.items()}


def _kind(kind: str) -> _Kind:
    if kind not in _KINDS:
        raise ContractError(f"unknown cell kind {kind!r}")
    return _KINDS[kind]


def _kind_of(p, op: str) -> str:
    """Cell p's kind, for a lookup in `_KINDS` at call time; ContractError naming p's type if p is no cell."""
    if type(p) not in _KIND_OF:
        raise ContractError(f"{op}: expected a {' or '.join(t.__name__ for t in _KIND_OF)}, got {type(p).__name__}")
    return _KIND_OF[type(p)]


def step(p: CellParams, x: np.ndarray, state: CellState, tr: Trace | None = None, beside: Callable | None = None):
    """p's kind's step over a CellState into trace row tr (a fresh one if None); returns (state, row).
    beside, if given, runs the kind's branch on the worker (see `rau_step` and `lstm_step`)."""
    k = _KINDS[_kind_of(p, "step")]
    if k.has_c:
        return k.step(p, x, state, tr, beside)
    h, tr = k.step(p, x, state.h, tr, beside)
    return CellState(h, _EMPTY), tr


def zero_state(p: CellParams, batch: int | None = None) -> CellState:
    has_c = _KINDS[_kind_of(p, "zero_state")].has_c
    shape = (p.hidden_size,) if batch is None else (batch, p.hidden_size)
    return CellState(h=np.zeros(shape), c=np.zeros(shape) if has_c else _EMPTY)


def param_count(kind: str, m: int, n: int) -> int:
    """Learnable scalar count for one cell."""
    rows = _layout(kind, m, n).rows
    if m < 1 or n < 1:
        raise ContractError("param_count: m and n must be >= 1")
    return rows * (m + n + 1)


@functools.cache
def _field_names(cls: type) -> tuple | None:
    """The field names of a dataclass, in declaration order; None for any other type, a dataclass's class too."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


def _leaves(obj, prefix: str, whole_cells: bool, out: list) -> list[tuple[str, object]]:
    """out, with (path, leaf) of each array in a container appended in declaration order; with whole_cells a
    cell is one leaf."""
    if isinstance(obj, np.ndarray) or (whole_cells and isinstance(obj, _Cell)):
        out.append((prefix, obj))
    elif (names := _field_names(type(obj))) is not None:
        for name in names:
            if not isinstance(value := getattr(obj, name), (int, float, str, type(None))):  # metadata: no call
                _leaves(value, f"{prefix}.{name}" if prefix else name, whole_cells, out)
    elif isinstance(obj, (list, tuple)):
        for k, item in enumerate(obj):
            _leaves(item, f"{prefix}.{k}" if prefix else str(k), whole_cells, out)
    elif isinstance(obj, Mapping):
        raise ContractError(f"a mapping at {prefix or 'its top'} of a parameter container: hold its tensors in a list")
    return out


def iter_tensors(obj, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
    """Walk a parameter container, yielding (dotted path, array) in declaration order.

    Dataclass fields are visited as declared, lists by index. Non-array
    leaves (strings, numbers, None) are skipped, so containers may carry
    metadata alongside their tensors; a mapping raises ContractError.
    """
    return iter(_leaves(obj, prefix, False, []))


def iter_buffers(obj) -> Iterator[tuple[str, np.ndarray, CellParams | None]]:
    """Walk a container as `iter_tensors` does, yielding each buffer once: (key, buffer, owner cell).

    A cell's key is its tensors' path prefix ("cells.0.", or "" alone); any other array is its own
    buffer, keyed by its path, with owner None.
    """
    for path, leaf in _leaves(obj, "", True, []):
        if isinstance(leaf, np.ndarray):
            yield path, leaf, None
        else:
            yield (f"{path}." if path else ""), _owner(leaf).buffer, leaf
