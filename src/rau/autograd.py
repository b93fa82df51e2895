"""Reverse-mode gradients through unrolled recurrent sequences (BPTT).

The forward passes in `cells` and `models` record a `cells.Trace` per cell
layer; this module replays it backwards, a whole window per cell layer, and
computes exact analytic gradients for every parameter tensor; each kind's
step backward and gate groups come from the `cells` table. Keys in the resulting `Grads` mirror
`cells.iter_tensors` paths over the parameter container, so optimizer
updates and finite-difference checks can walk the same structure, and
the gradients share the parameters' layout: one buffer per cell.

The weight gradients are deferred: a window's steps buffer their gate
deltas a span at a time, and each span is flushed into the weight
gradients with one GEMM per gate group (see `DW_GEMM_ROWS`). Those GEMMs
are off the recurrence's path, so in a window of several large spans one
worker thread runs each span's flush beside the steps of the span before
it; the gradients keep their bits, since each weight gradient gets the
same sums in the same order.

The same worker takes half of a vocabulary-sized head's work: a row half
of the head GEMM and of dh = dlogits @ w_out (`_split_gemm`), of
cross-entropy in `models`, and a half of each buffer in the SGD update in
`train`, all through `_in_halves`. It also computes the head's weight and
bias gradients beside the layers' BPTT. Each half writes its own part
of arrays the caller allocated. An elementwise half does the same
operations on the same values, and a GEMM's halves meet on OpenBLAS's
row tiling (see `SPLIT_ROWS`), so every output keeps its bits.

In a stack of large steps, the forward in `models` runs as a wavefront:
the worker runs the upper layers' step t beside the first layer's step
t+1. Each layer keeps its own steps in order, so the bits stay. Every
handoff goes through one join, `_beside`, and one of two gates:
`_overlap` for work cut into pieces, `_wavefront` for a stack's forward.
Both hand work over only on a `_second_core`.

`fd_gradient` is the independent oracle: central differences of any
scalar function of the parameters, one coordinate at a time. It shares
no code with the analytic path.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cells, linalg
from .cells import (CellParams, Trace, _kind, buffer_blocks, iter_buffers, iter_tensors, new_trace, step,
                    weight_stacks, zero_state)
from .linalg import ContractError, NumericError

GRADCHECK_TOLERANCE = 1e-5


class Grads(dict):
    """Gradient arrays keyed by dotted tensor path.

    `zeros_like` lays them out as the parameters are, and `buffers` maps each buffer's
    `cells.iter_buffers` key to it, for work done once per buffer (scaling, the optimizer
    update). A Grads built from a mapping has each tensor as its own buffer.
    """

    _buffers: dict | None = None
    _layouts: dict | None = None

    @classmethod
    def zeros_like(cls, params, prefix: str = "", unset: tuple = ()) -> "Grads":
        """Zero gradients laid out like params, keyed under prefix; the buffers keyed in unset are left unfilled."""
        return cls._laid_out((prefix + key, (np.empty_like if key in unset else np.zeros_like)(buf), layout)
                             for key, buf, layout in iter_buffers(params))

    @classmethod
    def _laid_out(cls, parts) -> "Grads":
        """Gradients over (key, buffer, layout) parts: a cell buffer's tensors are views at its layout's offsets."""
        g = cls()
        g._buffers, g._layouts = {}, {}
        for key, buf, layout in parts:
            g._buffers[key], g._layouts[key] = buf, layout
            g.update([(key, buf)] if layout is None else layout.views(buf, key))
        return g

    @property
    def buffers(self) -> dict:
        return self if self._buffers is None else self._buffers

    def __deepcopy__(self, memo) -> "Grads":
        # numpy would copy each view on its own: copy each buffer, and view the copies alike
        layouts = self._layouts or {}
        return Grads._laid_out((key, buf.copy(), layouts.get(key)) for key, buf in self.buffers.items())

    def global_norm(self) -> float:
        # one dot per named tensor, in path order: the order of the sum fixes the bits of the clipping scale;
        # a norm that overflows is the caller's to judge with isfinite, so numpy's warning would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sqrt(sum(float(g.ravel() @ g.ravel()) for g in self.values())))

    def scale_(self, s: float) -> "Grads":
        for g in self.buffers.values():
            g *= s
        return self


def clip_global_norm(g: Grads, max_norm: float) -> Grads:
    """Scale all buffers by max_norm/||g|| when the global norm exceeds max_norm.

    This is the training step's one pass over the gradients, so it also
    checks them: a non-finite norm raises NumericError naming the first
    non-finite tensor.
    """
    if max_norm <= 0:
        raise ContractError("clip_global_norm: max_norm must be positive")
    norm = g.global_norm()
    if not np.isfinite(norm):
        bad = next((k for k, v in g.items() if not np.all(np.isfinite(v))), None)
        where = f"non-finite gradient in {bad}" if bad is not None else "gradient norm overflows"
        raise NumericError(f"clip_global_norm: {where}")
    if norm > max_norm:
        g.scale_(max_norm / norm)
    return g


# BPTT runs one cell layer over a window. Each step writes its gate deltas
# into a buffer per gate group and forms its input gradient with one GEMM
# against the group's row-stacked weights. The buffers hold a span of up to
# DW_GEMM_ROWS rows (steps x batch). When a span's steps are done, its flush
# rebuilds the span's rows of the shared trace fields, gives each group's
# weight gradient one ((rows, m+n).T @ (rows, k)).T GEMM, added into the
# group's rows of the gradient buffer, and its bias gradient one sum. The
# spans fix the order of those sums, and with it the gradient's bits. A
# ptb-small window (20 x 20 rows) is one span. A row-MNIST window (28 x 128
# rows) is seven; there, spans of 512 rows stay in cache and make the whole
# backward ~10% faster than spans of 1024 rows or more, and whole-window
# buffers would also add ~27 MB to the peak memory of a RAU train step.
#
# In a window of more than one span, the worker thread (see `_overlap`) may
# run each span's flush while the caller runs the steps of the span before
# it into a second set of delta buffers. The flushes still run one at a
# time in span order, so they add the same products in the same order and
# the bits do not change.
DW_GEMM_ROWS = 512
# The worker takes a window's flushes only when they average this much work.
# On a 2-core host, one window's backward with the worker against without ran
# 0.81-1.14x as fast at 4-20 MFLOP per overlapped flush (B=20 to 128, n=32 to
# 64), most often slower, and 0.91-1.50x at 30-285 MFLOP, most often faster.
OVERLAP_MIN_FLOP = 30_000_000
# An element of an elementwise pass counts as this many flops against OVERLAP_MIN_FLOP. At the ptb-small
# head on the 2-core host, with one BLAS thread (40 GFLOP/s in its GEMM), an element took as long as 86
# GEMM flops in the SGD update and 120-170 in cross-entropy; so a half of 470 000 elements or more goes
# to the worker.
ELEMENT_FLOP = 64
# A GEMM split by rows (`_split_gemm`) cuts at a multiple of this many rows. On the 2-core host, other cuts
# changed bits at some shapes, e.g. (400, 200) x (200, 1009) cut at 200 rows, likely because OpenBLAS
# packs a product's rows in chunks of up to 3 x its dgemm N-unroll. At multiples of 96 rows the head
# GEMM and dh kept their bits at every shape tried (n 5-300, V 65-10000), provided each half held over
# 1e6 multiply-adds: OpenBLAS computes smaller products with other kernels. A half that passes
# `_overlap` holds 15x that.
SPLIT_ROWS = 96
# A stack's forward runs as a wavefront (`_wavefront`) only when each layer's step holds this many GEMM flops,
# 2 * batch * (m+n) * rows; a handoff per step costs about 0.3 ms at small shapes. On the 2-core host with
# one BLAS thread, a 2-layer, 20-step forward with the wavefront against without ran 0.64-0.70x as fast at
# 1-2 MFLOP a step (RAU at B=1, n=200 and at B=20, n=64), 0.83-1.33x at 2.4-5.8 MFLOP (RAU 0.94-1.10x
# there), and 1.07-1.47x at 7.7-19.2 MFLOP, the ptb-small steps included (RAU 19.2, LSTM 12.8, GRU 9.6).
WAVEFRONT_MIN_FLOP = 6_000_000
# A forward step calls these names of `cells`, which the benchmark's tracer may wrap. A wrapped one opens
# spans on the thread that calls it, so the wavefront runs only while each is the library's own: a traced
# run then times the inline forward, and every span stays on the thread that opened it.
_STEP_NAMES = (("step", cells.step), ("sigmoid", linalg.sigmoid), ("tanh", linalg.tanh),
               ("softmax", linalg.softmax))


def backward_cell_sequence(
    kind: str,
    params: CellParams,
    trace: Trace,
    dh_last: np.ndarray | None = None,
    dh_steps: Sequence[np.ndarray] | None = None,
    grads: Grads | None = None,
    prefix: str = "",
    *,
    want_dx: bool = True,
):
    """BPTT over one cell layer's recorded steps, the rows of its trace.

    dh_last seeds the gradient at the final hidden state; dh_steps adds
    a per-step contribution (e.g. from a head or an upper layer) before
    each step's backward, one entry per recorded step. Accumulates into
    `grads` under `prefix`, which must be laid out like params (see
    `Grads.zeros_like`), and returns (grads, dx_steps, dh0) where
    dx_steps[t] is the gradient of that step's input; dx_steps is one
    (T, ..., m) array. With want_dx False no step computes its input
    gradient and dx_steps is None. Every flush has run when it returns
    or raises.
    """
    k = _kind(kind)
    T, batch = trace.lead
    if dh_steps is not None and len(dh_steps) != T:
        raise ContractError(f"backward_cell_sequence: {len(dh_steps)} per-step gradients for {T} steps")
    if grads is None:
        grads = Grads.zeros_like(params, prefix)
    if prefix not in grads.buffers:
        raise ContractError(f"backward_cell_sequence: no cell gradient buffer under {prefix!r}")
    if T == 0:
        return grads, [], None
    m, n = params.input_size, params.hidden_size
    per_step = int(np.prod(batch))
    span = min(T, max(1, DW_GEMM_ROWS // per_step))
    starts = range(0, T, span)
    # every span's flush but that of the first steps, which the backward reaches last, can run beside later steps
    overlap_flop = 2 * (T - span) * per_step * (m + n) * k.rows(m, n)
    on = _overlap(len(starts), overlap_flop)
    stacks = weight_stacks(kind, params)
    dw, db = buffer_blocks(kind, m, n, grads.buffers[prefix])
    # with the worker, the steps fill one set of deltas while it flushes the other
    deltas = [[np.empty((span,) + batch + (w.shape[0],)) for w in stacks] for _ in range(2 if on else 1)]
    # a shared field's rows are one row, the last step's; each flush rebuilds its span's rows here
    rebuilt = [(name, fill, np.empty((span,) + getattr(trace, name).shape[1:])) for name, _, fill in k.shared]
    # each group's weight-gradient product, (m+n, k), rewritten by every flush: they run one at a time
    products = [np.empty((m + n, w.shape[0])) for w in stacks]
    dx_steps = np.empty((T,) + batch + (m,)) if want_dx else None
    dh = np.zeros(batch + (n,))
    if dh_last is not None:
        dh = dh + dh_last

    def steps(lo: int, dh: np.ndarray, dc, d) -> tuple:
        for t in reversed(range(lo, min(lo + span, T))):
            if dh_steps is not None and dh_steps[t] is not None:
                dh = dh + dh_steps[t]
            dx = None if dx_steps is None else dx_steps[t]
            dh, dc = k.backward(trace.row(t), dh, dc, stacks, [buf[t - lo] for buf in d], dx, m, n)
        return dh, dc

    dc = flush = None
    for s, lo in enumerate(reversed(starts)):
        d = deltas[s % len(deltas)]
        dh, dc = _beside(flush, on, steps, lo, dh, dc, d)
        flush = functools.partial(_flush, k.groups, trace, slice(lo, lo + span), rebuilt, d, products, dw, db, m)
    flush()
    return grads, dx_steps, dh


def _flush(groups, trace: Trace, rows: slice, rebuilt, deltas, products, dw: np.ndarray, db: np.ndarray,
           m: int) -> None:
    """A span's weight and bias gradients: rebuild its rows of the shared fields, then `_add_weight_grads`.

    It may run on the worker thread, so it calls nothing the benchmark's tracer wraps.
    """
    span = trace.row(rows)
    for name, fill, buf in rebuilt:
        setattr(span, name, fill(span, m, buf[:len(span.xh)]))
    _add_weight_grads(groups, deltas, span, products, dw, db)


def _add_weight_grads(groups, deltas, rows: Trace, products, dw: np.ndarray, db: np.ndarray) -> None:
    """Per gate group, one GEMM of the buffered deltas against the span's step inputs, the trace rows given,
    into the group's C-contiguous (m+n, k) array of products, added transposed into the group's rows of the
    weight gradient dw; and one bias sum into those of db. It allocates no product, so a flush leaves no
    freed chunk in its thread's malloc arena."""
    lo = 0
    for (_, _, field_name), buf, product in zip(groups, deltas, products):
        inputs = getattr(rows, field_name)
        flat = buf[:len(inputs)].reshape(-1, buf.shape[-1])
        hi = lo + flat.shape[1]
        # the same product as flat.T @ inputs, and the faster GEMM order at these (rows, k) x (rows, m+n) shapes
        np.matmul(inputs.reshape(flat.shape[0], -1).T, flat, out=product)
        dw[lo:hi] += product.T
        db[lo:hi] += flat.sum(axis=0)
        lo = hi


def _overlap(spans: int, flop: int) -> bool:
    """Whether work cut into this many pieces hands some of them to the worker thread.

    For a window's span flushes, flop is the work of the flushes that can run beside earlier spans' steps;
    for the halves of `_in_halves`, spans is 2 and flop is the worker's half, with an element of an
    elementwise pass counted as ELEMENT_FLOP. A handoff pays only for a piece of OVERLAP_MIN_FLOP or more,
    on average, and only on a `_second_core`.
    """
    return spans > 1 and flop >= OVERLAP_MIN_FLOP * (spans - 1) and _second_core()


def _wavefront(kind: str, stack: Sequence[CellParams], batch: int) -> bool:
    """Whether the forward of stack, its cells in layer order, runs as a wavefront: its upper layers' step t
    on the worker thread, beside its first layer's step t+1 in the caller (see `models._forward`).

    It needs two layers or more, a step of WAVEFRONT_MIN_FLOP or more in every layer at this batch, the
    library's own step functions (see `_STEP_NAMES`) and a `_second_core`; a one-layer stack makes no
    system call to find out.
    """
    if len(stack) < 2:
        return False
    rows = _kind(kind).rows
    flop = min(2 * batch * (p.input_size + p.hidden_size) * rows(p.input_size, p.hidden_size) for p in stack)
    return (flop >= WAVEFRONT_MIN_FLOP and all(getattr(cells, name) is own for name, own in _STEP_NAMES)
            and _second_core())


def _second_core() -> bool:
    """Whether the worker's work gets a CPU of its own beside the caller's: the bundled OpenBLAS runs each
    call on one thread (with two, the flush overlap made a RAU step slower), and the process may use two
    CPUs or more."""
    return _blas_threads() == 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _in_halves(rows: int, align: int, row_flop: int, fn: Callable, *args) -> None:
    """fn(*args, part) over parts that together cover range(rows), each row costing row_flop.

    The cut is the multiple of align nearest half of rows, rounding up; align is SPLIT_ROWS for a GEMM,
    the block for cross-entropy's row blocks and 1 for the SGD update's two halves. When `_overlap` finds the rows from the cut worth a handoff, the worker
    thread runs fn(*args, slice(cut, rows)) beside fn(*args, slice(0, cut)) in the caller (see `_beside`);
    else the caller runs fn(*args, slice(0, rows)). fn must give each part's outputs its own memory,
    allocate no large array and call nothing the benchmark's tracer wraps.
    """
    cut = align * ((rows + align) // (2 * align))
    if 0 < cut < rows and _overlap(2, (rows - cut) * row_flop):
        _beside(functools.partial(fn, *args, slice(cut, rows)), True, fn, *args, slice(0, cut))
    else:
        fn(*args, slice(0, rows))


def _split_gemm(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """a @ b, plus bias if given, into a new array; at a large product the worker computes a row half."""
    out = np.empty((a.shape[0], b.shape[1]))
    _in_halves(a.shape[0], SPLIT_ROWS, 2 * a.shape[1] * b.shape[1], _gemm_rows, a, b, bias, out)
    return out


def _gemm_rows(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None, out: np.ndarray, rows: slice) -> None:
    part = out[rows]
    np.matmul(a[rows], b, out=part)
    if bias is not None:
        part += bias


def _beside(job: Callable | None, on: bool, fn: Callable, *args):
    """job() and fn(*args); returns fn's result once both have run, raising what either raised.

    With on, the worker thread runs job while the caller runs fn; else the caller runs job, then fn. A job
    of None is no work.
    """
    if job is None:
        return fn(*args)
    if not on:
        job()
        return fn(*args)
    queued = _submit(job)
    try:
        out = fn(*args)
    except BaseException:
        queued.exception()  # waits for the job
        raise
    queued.result()
    return out


def _blas_threads() -> int | None:
    """The threads the bundled OpenBLAS gives each call, or None where numpy bundles no such OpenBLAS."""
    get = _blas_threads_query()
    return None if get is None else get()


@functools.cache
def _blas_threads_query():
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        get = ctypes.CDLL(umath.__file__).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    return get


_worker: tuple | None = None  # (pid, executor) of the worker thread; a forked child starts its own


def _submit(job: Callable):
    """Queue job for the worker thread, a one-thread executor that runs jobs in the order queued; returns
    job's Future. The executor starts on first use in a process, with its import.

    job runs under the numpy error state its caller has now: a thread starts from numpy's defaults, so a
    half of a forward the caller runs under np.errstate(over="ignore") would still warn.
    """
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _worker = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="rau-worker"))
    return _worker[1].submit(np.errstate(**np.geterr())(job))


@dataclass
class Tape:
    """Forward record of one model loss evaluation, replayable in reverse.

    It holds what only the forward pass knows: each cell layer's trace,
    the head input (the top hidden state of the last step or of every
    step, per the model's readout), the dropout masks of each layer's
    cell inputs (one (T, B, m) array per layer) and of the head input,
    and the token ids of an embedding. The model is shared, not copied,
    so a tape is only valid until its parameters are updated.
    """

    model: object
    traces: list
    head_in: np.ndarray
    in_masks: list | None = None
    out_masks: np.ndarray | None = None
    token_ids: np.ndarray | None = None


def backward(tape: Tape, dlogits) -> Grads:
    """Exact gradients of the recorded scalar loss w.r.t. every model parameter.

    dlogits is d(loss)/d(logits), shaped like the forward's logits. At a
    vocabulary-sized head the worker thread (see `_overlap`) takes a row
    half of dh = dlogits @ w_out, then the head's weight and bias
    gradients, which it computes beside the layers' BPTT; they are done
    when backward returns or raises.
    """
    model = tape.model
    # the head-weight gradient overwrites its whole buffer, so it skips the zero fill
    grads = Grads.zeros_like(model, unset=("w_out",))
    V, n = model.w_out.shape
    flat = np.asarray(dlogits).reshape(-1, V)
    rows = flat.shape[0]
    dh = _split_gemm(flat, model.w_out).reshape(tape.head_in.shape)
    # the head's gradients read only dlogits and the head input, so they can run beside the BPTT
    head = functools.partial(_head_grads, tape.head_in.reshape(rows, -1), flat, [np.empty((n, V))], grads["w_out"],
                             grads["b_out"])
    _beside(head, _overlap(2, 2 * rows * V * n), _backward_stack, tape, grads, dh)
    return grads


def _head_grads(head_in: np.ndarray, flat: np.ndarray, scratch: list, w_grad: np.ndarray,
                b_grad: np.ndarray) -> None:
    """The head's weight gradient through the (n, V) array in scratch, then its bias gradient.

    (head_in.T @ flat).T equals flat.T @ head_in, and at an LM head's (rows, V) x (rows, n) shape this
    GEMM order is about a third faster; matmul(out=) into the transposed buffer would fall back to the
    slow order, so the product goes to the scratch array and its transpose is copied. It takes the array
    out of scratch, so it is freed on return: run before the BPTT, it is gone before the BPTT allocates.
    """
    dw = scratch.pop()
    np.matmul(head_in.T, flat, out=dw)
    w_grad[...] = dw.T
    b_grad += flat.sum(axis=0)


def _backward_stack(tape: Tape, grads: Grads, dh: np.ndarray) -> None:
    """The layers' BPTT from the head-input gradient dh, top layer first, then the embedding's gradient."""
    model = tape.model
    if tape.out_masks is not None:
        dh *= tape.out_masks
    dh_last, dh_steps = (dh, None) if model.readout == "last" else (None, dh)

    dx_steps = None
    for layer in reversed(range(len(model.cells))):
        # the bottom layer's input gradient is read only to reach an embedding
        want_dx = layer > 0 or tape.token_ids is not None
        _, dx_steps, _ = backward_cell_sequence(
            model.cell_kind,
            model.cells[layer],
            tape.traces[layer],
            dh_last=dh_last,
            dh_steps=dh_steps,
            grads=grads,
            prefix=f"cells.{layer}.",
            want_dx=want_dx,
        )
        if want_dx and tape.in_masks is not None:
            dx_steps *= tape.in_masks[layer]
        dh_steps, dh_last = dx_steps, None

    if tape.token_ids is not None:
        # ids go (T, B) step-major, the order of dx_steps
        ids = tape.token_ids.T.reshape(-1)
        np.add.at(grads["embedding"], ids, dx_steps.reshape(ids.shape[0], -1))


def fd_gradient(f: Callable, params, epsilon: float = 1e-5) -> Grads:
    """Central-difference gradient oracle: (f(p+eps*e) - f(p-eps*e)) / 2eps per coordinate."""
    if epsilon <= 0:
        raise ContractError("fd_gradient: epsilon must be positive")
    out = Grads()
    for name, arr in iter_tensors(params):
        if not arr.flags.c_contiguous:
            raise ContractError(f"fd_gradient: tensor {name} must be contiguous to perturb in place")
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            f_plus = f(params)
            flat[idx] = orig - epsilon
            f_minus = f(params)
            flat[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"fd_gradient: non-finite loss while perturbing {name}[{idx}]", index=idx)
            gflat[idx] = (f_plus - f_minus) / (2.0 * epsilon)
        out[name] = g
    return out


def relative_errors(analytic: Grads, numeric: Grads) -> dict[str, float]:
    """Worst elementwise relative error per tensor: |a-b| / max(1e-8, |a|+|b|)."""
    report = {}
    for name in analytic:
        a = analytic[name]
        b = numeric[name]
        denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
        report[name] = float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
    return report


def gradcheck_cell(kind: str, m: int, n: int, T: int, trials: int, seed: int, epsilon: float = 1e-5, perturb: float = 0.0):
    """Compare BPTT gradients against central differences on random instances.

    The loss is a fixed random linear functional of every step's hidden
    state, which routes gradient through all time steps and every gate.
    Returns {tensor path: worst relative error across trials}. perturb
    injects an offset into one analytic component (negative control).
    """
    from .cells import init_cell
    from .linalg import Rng

    if trials < 1:
        raise ContractError("gradcheck_cell: trials must be >= 1")
    rng = Rng(seed)
    worst: dict[str, float] = {}
    for _ in range(trials):
        params = init_cell(kind, m, n, 0.5, rng)
        xs = rng.uniform(-1.0, 1.0, size=(T, m))
        gs = rng.uniform(-1.0, 1.0, size=(T, n))

        reused_row = new_trace(kind, 1, (), m, n).row(0)

        def forward_loss(p):
            state = zero_state(kind, n)
            total = 0.0
            for t in range(T):
                state, _ = step(kind, p, xs[t], state, reused_row)
                total += float(gs[t] @ state.h)
            return total

        state = zero_state(kind, n)
        trace = new_trace(kind, T, (), m, n)
        for t in range(T):
            state, _ = step(kind, params, xs[t], state, trace.row(t))
        analytic, _, _ = backward_cell_sequence(kind, params, trace, dh_steps=gs)
        if perturb:
            first = next(iter(analytic))
            analytic[first].reshape(-1)[0] += perturb
        numeric = fd_gradient(forward_loss, params, epsilon)
        for name, err in relative_errors(analytic, numeric).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
