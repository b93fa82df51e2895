"""Reverse-mode gradients through unrolled recurrent sequences (BPTT).

The forward passes in `cells` and `models` record a `cells.Trace` per cell
layer; this module replays it backwards, a whole window per cell layer, and
computes exact analytic gradients for every parameter tensor; each kind's
step backward and gate groups come from the `cells` table. Keys in the resulting `Grads` mirror
`cells.iter_tensors` paths over the parameter container, so optimizer
updates and finite-difference checks can walk the same structure.

`fd_gradient` is the independent oracle: central differences of any
scalar function of the parameters, one coordinate at a time. It shares
no code with the analytic path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cells import CellParams, Trace, _kind, gate_block, iter_tensors, new_trace, step, weight_stacks, zero_state
from .linalg import ContractError, NumericError

GRADCHECK_TOLERANCE = 1e-5


class Grads(dict):
    """Gradient buffers keyed by dotted tensor path."""

    @classmethod
    def zeros_like(cls, params) -> "Grads":
        return cls((name, np.zeros_like(arr)) for name, arr in iter_tensors(params))

    def global_norm(self) -> float:
        return float(np.sqrt(sum(float(g.ravel() @ g.ravel()) for g in self.values())))

    def scale_(self, s: float) -> "Grads":
        for g in self.values():
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
# against the group's row-stacked weights. The buffers hold up to
# DW_GEMM_ROWS rows (steps x batch). Each time they fill, and at the start
# of the window, the span's rows of the shared trace fields are rebuilt,
# and each group's weight gradient gets one ((rows, m+n).T @ (rows, k)).T
# GEMM and its bias gradient one sum. A ptb-small
# window (20 x 20 rows) thus takes one GEMM per group. A row-MNIST window
# (28 x 128 rows) takes seven; there, buffers of 512 rows stay in cache
# and make the whole backward ~10% faster than buffers of 1024 rows or
# more, and whole-window buffers would also add ~27 MB to the peak memory
# of a RAU train step.
DW_GEMM_ROWS = 512


def backward_cell_sequence(
    kind: str,
    params: CellParams,
    trace: Trace,
    dh_last: np.ndarray | None = None,
    dh_steps: Sequence[np.ndarray] | None = None,
    grads: Grads | None = None,
    prefix: str = "",
    *,
    stacks: list | None = None,
    want_dx: bool = True,
):
    """BPTT over one cell layer's recorded steps, the rows of its trace.

    dh_last seeds the gradient at the final hidden state; dh_steps adds
    a per-step contribution (e.g. from a head or an upper layer) before
    each step's backward, one entry per recorded step. Accumulates into
    `grads` under `prefix` and returns (grads, dx_steps, dh0) where
    dx_steps[t] is the gradient of that step's input; dx_steps is one
    (T, ..., m) array. With want_dx False no step computes its input
    gradient and dx_steps is None. stacks is `cells.weight_stacks` of
    params, built here if None.
    """
    k = _kind(kind)
    T, batch = trace.lead
    if dh_steps is not None and len(dh_steps) != T:
        raise ContractError(f"backward_cell_sequence: {len(dh_steps)} per-step gradients for {T} steps")
    if grads is None:
        grads = Grads((prefix + name, np.zeros_like(arr)) for name, arr in iter_tensors(params))
    if T == 0:
        return grads, [], None
    m, n = params.input_size, params.hidden_size
    span = min(T, max(1, DW_GEMM_ROWS // int(np.prod(batch))))
    if stacks is None:
        stacks = weight_stacks(kind, params)
    deltas = [np.empty((span,) + batch + (w.shape[0],)) for w in stacks]
    # a shared field's rows are one row, the last step's; each span's rows are rebuilt here
    rebuilt = [(name, fill, np.empty((span,) + getattr(trace, name).shape[1:])) for name, _, fill in k.shared]
    dx_steps = np.empty((T,) + batch + (m,)) if want_dx else None
    dh = np.zeros(batch + (n,))
    if dh_last is not None:
        dh = dh + dh_last
    dc = None
    for t in reversed(range(T)):
        if dh_steps is not None and dh_steps[t] is not None:
            dh = dh + dh_steps[t]
        lo = t - t % span
        dx = None if dx_steps is None else dx_steps[t]
        dh, dc = k.backward(trace.row(t), dh, dc, stacks, [buf[t - lo] for buf in deltas], dx, m, n)
        if t == lo:
            rows = trace.row(slice(lo, lo + span))
            for name, fill, buf in rebuilt:
                setattr(rows, name, fill(rows, m, buf[:len(rows.xh)]))
            _add_weight_grads(k.groups, deltas, rows, grads, prefix)
    return grads, dx_steps, dh


def _add_weight_grads(groups, deltas, rows: Trace, grads: Grads, prefix: str) -> None:
    """Per gate group, one GEMM of the buffered deltas against the span's step inputs, the trace rows given, and one bias sum."""
    for (w_paths, b_paths, field_name), buf in zip(groups, deltas):
        inputs = getattr(rows, field_name)
        flat = buf[:len(inputs)].reshape(-1, buf.shape[-1])
        # the same product as flat.T @ inputs, and the faster GEMM order at these (rows, k) x (rows, m+n) shapes
        _add_row_blocks(grads, prefix, w_paths, (inputs.reshape(flat.shape[0], -1).T @ flat).T)
        _add_row_blocks(grads, prefix, b_paths, flat.sum(axis=0))


def _add_row_blocks(grads: Grads, prefix: str, paths, block: np.ndarray) -> None:
    """Add consecutive row blocks of a stacked gradient to the tensors at `paths`."""
    start = 0
    for path in paths:
        g = grads[prefix + path]
        g += block[start:start + g.shape[0]]
        start += g.shape[0]


@dataclass
class Tape:
    """Forward record of one model loss evaluation, replayable in reverse.

    It holds what only the forward pass knows: each cell layer's trace,
    the head input (the top hidden state of the last step or of every
    step, per the model's readout), the dropout masks of each layer's
    cell inputs (one (T, B, m) array per layer) and of the head input,
    the token ids of an embedding, and each layer's `cells.weight_stacks`,
    which the forward built for its gate blocks. The model and the stacks
    are shared, not copied, so a tape is only valid until its parameters
    are updated.
    """

    model: object
    traces: list
    head_in: np.ndarray
    in_masks: list | None = None
    out_masks: np.ndarray | None = None
    token_ids: np.ndarray | None = None
    stacks: list | None = None


def backward(tape: Tape, dlogits) -> Grads:
    """Exact gradients of the recorded scalar loss w.r.t. every model parameter.

    dlogits is d(loss)/d(logits), shaped like the forward's logits.
    """
    model = tape.model
    # the head-weight gradient overwrites its whole buffer, so it skips the zero fill
    grads = Grads((name, np.empty_like(arr) if name == "w_out" else np.zeros_like(arr))
                  for name, arr in iter_tensors(model))
    flat = np.asarray(dlogits).reshape(-1, model.w_out.shape[0])
    head_in = tape.head_in.reshape(flat.shape[0], -1)
    # (head_in.T @ flat).T equals flat.T @ head_in, and at an LM head's
    # (rows, V) x (rows, n) shape this GEMM order is about a third faster;
    # matmul(out=) into the transposed buffer would fall back to the slow order
    grads["w_out"][...] = (head_in.T @ flat).T
    grads["b_out"] += flat.sum(axis=0)
    dh = (flat @ model.w_out).reshape(tape.head_in.shape)
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
            stacks=None if tape.stacks is None else tape.stacks[layer],
            want_dx=want_dx,
        )
        if want_dx and tape.in_masks is not None:
            dx_steps *= tape.in_masks[layer]
        dh_steps, dh_last = dx_steps, None

    if tape.token_ids is not None:
        # ids go (T, B) step-major, the order of dx_steps
        ids = tape.token_ids.T.reshape(-1)
        np.add.at(grads["embedding"], ids, dx_steps.reshape(ids.shape[0], -1))
    return grads


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
            gates = gate_block(kind, p)  # after this call's perturbation
            total = 0.0
            for t in range(T):
                state, _ = step(kind, p, xs[t], state, reused_row, gates)
                total += float(gs[t] @ state.h)
            return total

        state = zero_state(kind, n)
        trace = new_trace(kind, T, (), m, n)
        gates = gate_block(kind, params)
        for t in range(T):
            state, _ = step(kind, params, xs[t], state, trace.row(t), gates)
        analytic, _, _ = backward_cell_sequence(kind, params, trace, dh_steps=gs)
        if perturb:
            first = next(iter(analytic))
            analytic[first].reshape(-1)[0] += perturb
        numeric = fd_gradient(forward_loss, params, epsilon)
        for name, err in relative_errors(analytic, numeric).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
