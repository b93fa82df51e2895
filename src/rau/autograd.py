"""Reverse-mode gradients through unrolled recurrent sequences (BPTT).

The forward passes in `cells` and `models` record a `cells.Trace` per cell
layer; this module replays it backwards, a whole window per cell layer, and
computes exact analytic gradients for every parameter tensor; each kind's
step backward and gate groups come from the `cells` table. Keys in the resulting `Grads` mirror
`cells.iter_tensors` paths over the parameter container, so optimizer
updates and finite-difference checks can walk the same structure, and
each cell's gradient is a cell of its kind: one buffer per cell.

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
t+1. Each layer keeps its own steps in order, so the bits stay. Where a
stack is no wavefront, a step of a large forward hands its kind's branch
to the worker and runs the rest in the caller: a RAU its attention
branch beside its GRU branch, an LSTM its f and i gates beside its o and
g gates (see `cells.step`). A classifier's eval may score two batches at
once, the worker running one batch's whole forward beside the caller's
(see `_eval_pairs`). So the worker has five uses: the span flushes, the
head halves, the wavefront, a step's branch and the eval pairs. Every
handoff goes through one join, `_beside`, and one policy, `_handoff`:
work of its use's flop floor or more, and a CPU of its own for the
worker. A forward asks `_forward_plan` once which use, if either, it runs.

`fd_gradient` is the independent oracle: central differences of any
scalar function of the parameters, one coordinate at a time. It shares
no code with the analytic path.
"""

from __future__ import annotations

import copy
import functools
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cells, linalg
from .cells import CellParams, Trace, _kind_of, _owner, iter_buffers, iter_tensors, new_trace, step, zero_state
from .linalg import ContractError, NumericError

GRADCHECK_TOLERANCE = 1e-5


class Grads(dict):
    """Gradient arrays keyed by dotted tensor path.

    `zeros_like` lays them out as the parameters are: `owners` maps each `cells.iter_buffers` key to a
    gradient cell of the parameters' kind on a buffer of its own, or to a plain array, and the named
    gradients are its tensors. `buffers` maps the same keys to the buffers, for work done once per buffer
    (scaling, the optimizer update). A Grads built from a mapping has each tensor as its own buffer.
    """

    owners: dict | None = None

    @classmethod
    def zeros_like(cls, params, prefix: str = "", unset: tuple = ()) -> "Grads":
        """Zero gradients laid out like params, keyed under prefix; the buffers keyed in unset are left unfilled."""
        owners = {}
        for key, buf, cell in iter_buffers(params):
            g = (np.empty_like if key in unset else np.zeros_like)(buf)
            owners[prefix + key] = g if cell is None else cell.on_buffer(g)
        return cls._of(owners)

    @classmethod
    def _of(cls, owners: dict) -> "Grads":
        """The gradients that owners hold: each array under its key, each cell's tensors under their paths."""
        g = cls()
        g.owners = owners
        for key, owner in owners.items():
            g.update([(key, owner)] if isinstance(owner, np.ndarray) else
                     ((key + path, a) for path, a in owner.tensors))
        return g

    @property
    def buffers(self) -> dict:
        if self.owners is None:
            return self
        return {key: owner if isinstance(owner, np.ndarray) else owner.buffer for key, owner in self.owners.items()}

    def __deepcopy__(self, memo) -> "Grads":
        # numpy would copy each view on its own: copy each owner, a cell through its one buffer, and name the copies
        return Grads._of(copy.deepcopy(dict(self) if self.owners is None else self.owners, memo))

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
    if not max_norm > 0:  # NaN fails it too
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
# In a window of more than one span, the worker thread (see `_handoff`) may
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
# 1e6 multiply-adds: OpenBLAS computes smaller products with other kernels. A half that reaches
# OVERLAP_MIN_FLOP holds 15x that.
SPLIT_ROWS = 96
# A forward hands the worker a piece of every step only when that piece holds this many GEMM flops (see
# `_forward_plan`): each layer's step, 2 * batch * (m+n) * rows, for a stack's wavefront, and a one-layer step's
# branch, the same over the rows of its branch weights (RAU w_a and w_u, LSTM w_f and w_i); a handoff per step costs
# about 0.3 ms at small shapes. On the 2-core host with one BLAS thread, a 2-layer, 20-step forward with the wavefront
# against without ran 0.64-0.70x as fast at 1-2 MFLOP a step (RAU at B=1, n=200 and at B=20, n=64), 0.83-1.33x at
# 2.4-5.8 MFLOP (RAU 0.94-1.10x there), and 1.07-1.47x at 7.7-19.2 MFLOP, the ptb-small steps included (RAU 19.2, LSTM
# 12.8, GRU 9.6). A 1-layer, 28-step RAU eval forward with its attention branch on the worker against inline ran
# 0.28-0.39x as fast at B=1, 0.58-0.90x at 0.7-4.3 MFLOP of attention a step (m=28, n=128 at B=8-48; m=8, n=64 at
# B=64), 1.01x at 5.7 (B=64 at m=28, n=128) and 1.19-1.49x at 8.5-22.7 (B=96-256 at m=28, n=128; B=256 at m=8, n=64;
# B=20 at m=n=200). A 1-layer, 28-step LSTM eval forward (m=28, n=128) with its f and i gates on the worker against
# inline, in three series on a host whose two threads' GEMMs ran 1.0-1.5x one thread's time, ran 0.75-0.98x as fast at
# 2.6 MFLOP of f|i a step (B=32), 0.91-1.07x at 5.1 (B=64), 0.85-1.27x at 7.7 (B=96), 0.70-1.25x at 10.2 (B=128),
# 0.63-1.35x at 15.3 (B=192) and 1.30-1.46x at 20.4 (B=256); the split raised `rows-classify` LSTM train 11.2% at
# B=128. A classifier's eval that runs two whole batches at once (see `_eval_pairs`), each inline, against one at a
# time ran 0.95x as fast at 3.5 MFLOP a step (GRU m=8, n=64, B=128), 0.79x at 3.0 (RAU m=8, n=64, B=64), and
# 1.26-1.68x at 6.7-12.1 (RAU m=28, n=128 at B=32; GRU m=28, n=128 at B=64; RAU and GRU m=8, n=64 at B=256), a step
# counting every layer.
STEP_HANDOFF_FLOP = 6_000_000
# A forward step calls these names of `cells`, which the benchmark's tracer may wrap. A wrapped one opens
# spans on the thread that calls it, so no step hands work to the worker unless each is the library's own:
# a traced run then times the inline forward, and every span stays on the thread that opened it.
_STEP_NAMES = (("step", cells.step), ("sigmoid", linalg.sigmoid), ("tanh", linalg.tanh),
               ("softmax", linalg.softmax))


def backward_cell_sequence(
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
    the gradient cell `grads` holds under `prefix` (see
    `Grads.zeros_like`), and returns (grads, dx_steps, dh0) where
    dx_steps[t] is the gradient of that step's input; dx_steps is one
    (T, ..., m) array. With want_dx False no step computes its input
    gradient and dx_steps is None. Every flush has run when it returns
    or raises. A trace of another kind or sizes than params raises
    ContractError.
    """
    kind = _kind_of(params, "backward_cell_sequence")
    k, m, n = cells._KINDS[kind], params.input_size, params.hidden_size
    fields = set(vars(trace))
    if fields != _trace_fields(k):
        of = next((other for other, o in cells._KINDS.items() if _trace_fields(o) == fields), "unknown")
        raise ContractError(f"backward_cell_sequence: a trace of kind {of} for a cell of kind {kind}")
    widths = trace.xh.shape[-1], getattr(trace, k.block[0]).shape[-1]
    if widths != (m + n, n):
        raise ContractError(f"backward_cell_sequence: a trace of (m+n, n) = {widths} for a cell of {(m + n, n)}")
    T, batch = trace.lead
    if dh_steps is not None and len(dh_steps) != T:
        raise ContractError(f"backward_cell_sequence: {len(dh_steps)} per-step gradients for {T} steps")
    if grads is None:
        grads = Grads.zeros_like(params, prefix)
    grad_cell = grads.owners.get(prefix) if grads.owners else None
    if not isinstance(grad_cell, CellParams):
        raise ContractError(f"backward_cell_sequence: no cell gradient under {prefix!r}")
    if T == 0:
        return grads, [], None
    per_step = int(np.prod(batch))
    span = min(T, max(1, DW_GEMM_ROWS // per_step))
    starts = range(0, T, span)
    stacks = [w for w, _ in _owner(params).groups]
    # every span's flush but that of the first steps, which the backward reaches last, can run beside later steps
    on = len(starts) > 1 and _handoff(2 * (T - span) * per_step * sum(w.size for w in stacks),
                                      OVERLAP_MIN_FLOP * (len(starts) - 1))
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
        flush = functools.partial(_flush, k.groups, trace, slice(lo, lo + span), rebuilt, d, products,
                                  grad_cell.groups, m)
    flush()
    return grads, dx_steps, dh


def _trace_fields(k: cells._Kind) -> set:
    """The names in a trace of kind k (see `cells.new_trace`): its fields, its gate views and its shared fields."""
    return {f[0] for f in k.fields + k.shared} | set(k.block[1])


def _flush(groups, trace: Trace, rows: slice, rebuilt, deltas, products, grads, m: int) -> None:
    """A span's weight and bias gradients: rebuild its rows of the shared fields, then `_add_weight_grads`.

    It may run on the worker thread, so it calls nothing the benchmark's tracer wraps.
    """
    span = trace.row(rows)
    for name, fill, buf in rebuilt:
        setattr(span, name, fill(span, m, buf[:len(span.xh)]))
    _add_weight_grads(groups, deltas, span, products, grads)


def _add_weight_grads(groups, deltas, rows: Trace, products, grads) -> None:
    """Per gate group, one GEMM of the buffered deltas against the span's step inputs, the trace rows given,
    into the group's C-contiguous (m+n, k) array of products, added transposed into the group's weight
    gradient; and one bias sum into its bias gradient. grads is a gradient cell's `groups`. It allocates no
    product, so a flush leaves no freed chunk in its thread's malloc arena."""
    for (_, _, field_name), buf, product, (dw, db) in zip(groups, deltas, products, grads):
        inputs = getattr(rows, field_name)
        flat = buf[:len(inputs)].reshape(-1, buf.shape[-1])
        # the same product as flat.T @ inputs, and the faster GEMM order at these (rows, k) x (rows, m+n) shapes
        np.matmul(inputs.reshape(flat.shape[0], -1).T, flat, out=product)
        dw += product.T
        db += flat.sum(axis=0)


def _handoff(flop: float, floor: float) -> bool:
    """Whether work of flop flops goes to the worker thread: flop reaches the call site's floor (tested
    first, so small work makes no system call), `linalg.BLAS_THREADS`, the count the import pinned, is one
    (if None, the BLAS may split a GEMM among its own threads, by shape, so a half would get other bits
    than the whole) and the process may use two CPUs or more."""
    return (flop >= floor and linalg.BLAS_THREADS == 1 and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _forward_plan(stack: Sequence[CellParams], batch: int) -> str | None:
    """How the worker thread takes part in the forward of stack, its cells in layer order, at this batch:
    "wavefront", the upper layers' step t beside the first layer's step t+1 (see `models._forward`), for
    two layers or more; "branch", each step's branch beside the rest of the step (see `cells.step`), for
    one layer whose kind has a branch: RAU's attention branch, LSTM's f and i gates; else None, the
    forward inline. Each needs its piece of every step, the smallest layer's step or the GEMMs of the
    branch's weights (`cells._KINDS`), to `_handoff` at STEP_HANDOFF_FLOP, and the step functions to be
    the library's own (`_STEP_NAMES`). A layer's branch flops are below its step's, so a stack the
    wavefront declines would get no branch split either. A GRU's branch is empty: 0 flops, no split.
    """
    if not all(getattr(cells, name) is own for name, own in _STEP_NAMES):
        return None
    if len(stack) > 1:
        plan, flop = "wavefront", min(2 * batch * sum(w.size for w, _ in p.groups) for p in stack)
    else:
        p = stack[0]
        plan, flop = "branch", 2 * batch * sum(getattr(p, w).size for w in cells._KINDS[p.kind].branch)
    return plan if _handoff(flop, STEP_HANDOFF_FLOP) else None


def _eval_pairs(stack: Sequence[CellParams], batch: int, batches: int) -> bool:
    """Whether `train.evaluate_classifier` scores its batches of stack two at a time, the worker thread
    running one batch's forward beside the caller's: for two batches or more, where a step of the whole
    stack at the pairs' smallest batch `_handoff`s at STEP_HANDOFF_FLOP and the step functions and train's
    classify_forward and cross_entropy, which the benchmark's tracer may wrap, are the library's own."""
    from . import models, train

    own = train.classify_forward is models.classify_forward and train.cross_entropy is models.cross_entropy
    return (batches > 1 and own and all(getattr(cells, name) is fn for name, fn in _STEP_NAMES)
            and _handoff(2 * batch * sum(w.size for p in stack for w, _ in p.groups), STEP_HANDOFF_FLOP))


def _in_halves(rows: int, align: int, row_flop: int, fn: Callable, *args) -> None:
    """fn(*args, part) over parts that together cover range(rows), each row costing row_flop.

    The cut is the multiple of align nearest half of rows, rounding up; align is SPLIT_ROWS for a GEMM, the
    block for cross-entropy's row blocks and 1 for the SGD update's two halves. Where the rows from the cut
    `_handoff` at OVERLAP_MIN_FLOP, the worker thread runs fn(*args, slice(cut, rows)) beside fn(*args,
    slice(0, cut)) in the caller (see `_beside`); else the caller runs fn(*args, slice(0, rows)). fn must
    give each part's outputs its own memory, allocate no large array and call nothing the tracer wraps.
    """
    cut = align * ((rows + align) // (2 * align))
    if 0 < cut < rows and _handoff((rows - cut) * row_flop, OVERLAP_MIN_FLOP):
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

    With on, the worker thread runs job while the caller runs fn; else the caller runs job, then fn, as it
    also does on the worker thread, where a queued job would wait on itself. A job of None is no work.
    """
    if job is None:
        return fn(*args)
    if not on or threading.current_thread().name.startswith(_WORKER_NAME):
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


_worker: tuple | None = None  # (pid, executor) of the worker thread; a forked child starts its own
_WORKER_NAME = "rau-worker"


def _submit(job: Callable):
    """Queue job for the worker thread, a one-thread executor that runs jobs in the order queued; returns
    job's Future. The executor starts on first use in a process, with its import.

    job runs under the numpy error state its caller has now: a thread starts from numpy's defaults, so a
    half of a forward the caller runs under np.errstate(over="ignore") would still warn.
    """
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _worker = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix=_WORKER_NAME))
    return _worker[1].submit(np.errstate(**np.geterr())(job))


@dataclass
class Tape:
    """Forward record of one model loss evaluation, replayable in reverse.

    It holds what only the forward pass knows: each cell layer's trace,
    the head input (the top hidden state of the last step or of every
    step, per the model's readout), the dropout masks of each layer's
    cell inputs (one (T, B, m) array per layer) and of the head input,
    and the token ids of an embedding. The model is shared, not copied,
    so `backward` raises once `train.apply_update` has bumped its version.
    """

    model: object
    traces: list
    head_in: np.ndarray
    in_masks: list | None = None
    out_masks: np.ndarray | None = None
    token_ids: np.ndarray | None = None
    version: int = 0


def backward(tape: Tape, dlogits) -> Grads:
    """Exact gradients of the recorded scalar loss w.r.t. every model parameter.

    dlogits is d(loss)/d(logits), shaped like the forward's logits. At a
    vocabulary-sized head the worker thread (see `_handoff`) takes a row
    half of dh = dlogits @ w_out, then the head's weight and bias
    gradients, which it computes beside the layers' BPTT; they are done
    when backward returns or raises.
    """
    model = tape.model
    if tape.version != model.version:
        raise ContractError(f"backward: a stale tape, of model version {tape.version}, at {model.version} now")
    # the head-weight gradient overwrites its whole buffer, so it skips the zero fill
    grads = Grads.zeros_like(model, unset=("w_out",))
    V, n = model.w_out.shape
    flat = np.asarray(dlogits).reshape(-1, V)
    rows = flat.shape[0]
    dh = _split_gemm(flat, model.w_out).reshape(tape.head_in.shape)
    # the head's gradients read only dlogits and the head input, so they can run beside the BPTT
    head = functools.partial(_head_grads, tape.head_in.reshape(rows, -1), flat, [np.empty((n, V))], grads["w_out"],
                             grads["b_out"])
    _beside(head, _handoff(2 * rows * V * n, OVERLAP_MIN_FLOP), _backward_stack, tape, grads, dh)
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
    if not epsilon > 0:  # NaN fails it too
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


def gradcheck_cell(kind: str, m: int, n: int, T: int, trials: int, seed: int, perturb: float = 0.0):
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

        reused_row = new_trace(params, 1, ()).row(0)

        def forward_loss(p):
            state = zero_state(p)
            total = 0.0
            for t in range(T):
                state, _ = step(p, xs[t], state, reused_row)
                total += float(gs[t] @ state.h)
            return total

        state = zero_state(params)
        trace = new_trace(params, T, ())
        for t in range(T):
            state, _ = step(params, xs[t], state, trace.row(t))
        analytic, _, _ = backward_cell_sequence(params, trace, dh_steps=gs)
        if perturb:
            first = next(iter(analytic))
            analytic[first].reshape(-1)[0] += perturb
        numeric = fd_gradient(forward_loss, params)
        for name, err in relative_errors(analytic, numeric).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
