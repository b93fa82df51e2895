"""Reverse-mode gradients through unrolled recurrent sequences (BPTT).

The forward passes in `cells` and `models` record StepTraces; this
module replays them backwards, a whole window per cell layer, and
computes exact analytic gradients for every parameter tensor. Keys in the resulting `Grads` mirror
`cells.iter_tensors` paths over the parameter container, so optimizer
updates and finite-difference checks can walk the same structure.

`fd_gradient` is the independent oracle: central differences of any
scalar function of the parameters, one coordinate at a time. It shares
no code with the analytic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cells import CellParams, StepTrace, iter_tensors, step, zero_state
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

    def add_(self, other: "Grads", coeff: float = 1.0) -> "Grads":
        for k, g in other.items():
            self[k] += coeff * g
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


def _tensor(params, path: str) -> np.ndarray:
    for attr in path.split("."):
        params = getattr(params, attr)
    return params


def _gru_deltas(tr: StepTrace, dz, dhc, w_c, d_xh, d_c, m: int, n: int):
    """Shared update/reset/candidate path of one step.

    Writes the candidate delta into d_c and the reset and update gate
    deltas into d_xh[..., :n] and d_xh[..., n:2n]. Returns the gradient
    on [x, r*h_prev] from the candidate.
    """
    h_prev = tr.xh[..., m:]
    np.multiply(dhc, 1.0 - tr.hc * tr.hc, out=d_c)
    dxrh = d_c @ w_c
    dr = dxrh[..., m:] * h_prev
    np.multiply(dr * tr.r, 1.0 - tr.r, out=d_xh[..., :n])
    np.multiply(dz * tr.z, 1.0 - tr.z, out=d_xh[..., n:2 * n])
    return dxrh


def _gru_backward(tr: StepTrace, dh, dc, w, d, dx, m: int, n: int):
    h_prev = tr.xh[..., m:]
    dz = dh * (tr.hc - h_prev)
    dxrh = _gru_deltas(tr, dz, dh * tr.z, w[1], d[0], d[1], m, n)
    dxh = d[0] @ w[0]
    np.add(dxrh[..., :m], dxh[..., :m], out=dx)
    dhp = dxrh[..., m:] * tr.r
    dhp += dxh[..., m:]
    dhp += dh * (1.0 - tr.z)
    return dhp, None


def _rau_backward(tr: StepTrace, dh, dc, w, d, dx, m: int, n: int):
    h_prev = tr.xh[..., m:]
    mix = (tr.hc + tr.ha) / 2.0
    dz = dh * (mix - h_prev)
    dhc = dh * tr.z * 0.5  # = dha: the mix weighs candidate and attended alike
    # attention branch; softmax backward: dalpha = u * (du - <du, u>)
    np.multiply(dhc, 1.0 - tr.ha * tr.ha, out=d[2])
    dv = d[2] @ w[2]
    du = dv * tr.xh
    inner = np.sum(du * tr.u, axis=-1, keepdims=True)
    np.multiply(tr.u, du - inner, out=d[0][..., 2 * n:])
    dxrh = _gru_deltas(tr, dz, dhc, w[1], d[0], d[1], m, n)
    dxh = d[0] @ w[0]
    dxh += dv * tr.u
    np.add(dxrh[..., :m], dxh[..., :m], out=dx)
    dhp = dxrh[..., m:] * tr.r
    dhp += dxh[..., m:]
    dhp += dh * (1.0 - tr.z)
    return dhp, None


def _lstm_backward(tr: StepTrace, dh, dc_next, w, d, dx, m: int, n: int):
    tc = np.tanh(tr.c)
    do = dh * tc
    dc = dh * tr.o * (1.0 - tc * tc)
    if dc_next is not None:
        dc += dc_next
    fiog = d[0]
    np.multiply(dc * tr.c_prev * tr.f, 1.0 - tr.f, out=fiog[..., :n])
    np.multiply(dc * tr.g * tr.i, 1.0 - tr.i, out=fiog[..., n:2 * n])
    np.multiply(do * tr.o, 1.0 - tr.o, out=fiog[..., 2 * n:3 * n])
    np.multiply(dc * tr.i, 1.0 - tr.g * tr.g, out=fiog[..., 3 * n:])
    dxh = fiog @ w[0]
    dx[...] = dxh[..., :m]
    return dxh[..., m:], dc * tr.f


# BPTT runs one cell layer over a window. Each step writes its gate deltas
# into a buffer per gate group and forms its input gradient with one GEMM
# against the group's row-stacked weights. The buffers hold up to
# DW_GEMM_ROWS rows (steps x batch). Each time they fill, and at the start
# of the window, each group's weight gradient gets one
# (rows, k).T @ (rows, m+n) GEMM and its bias gradient one sum. A ptb-small
# window (20 x 20 rows) thus takes one GEMM per group. A row-MNIST window
# (28 x 128 rows) takes seven; there, buffers of 512 rows stay in cache
# and make the whole backward ~10% faster than buffers of 1024 rows or
# more, and whole-window buffers would also add ~27 MB to the peak memory
# of a RAU train step.
DW_GEMM_ROWS = 512

# Per kind: the step backward, then the gate groups. The step backward
# maps (trace, dh, dc from the step after or None, stacked weights per
# group, this step's delta rows per group, dx row) to (dh_prev, dc_prev);
# it writes the gate deltas into the delta rows and the input gradient
# into dx. A gate group is (weight paths, bias paths, the StepTrace field
# holding the input those weights multiply); its weights stack in path
# order.
_BPTT = {
    "gru": (_gru_backward, (
        (("w_r", "w_z"), ("b_r", "b_z"), "xh"),
        (("w_c",), ("b_c",), "xrh"),
    )),
    "rau": (_rau_backward, (
        (("gru.w_r", "gru.w_z", "w_a"), ("gru.b_r", "gru.b_z", "b_a"), "xh"),
        (("gru.w_c",), ("gru.b_c",), "xrh"),
        (("w_u",), ("b_u",), "v"),
    )),
    "lstm": (_lstm_backward, (
        (("w_f", "w_i", "w_o", "w_g"), ("b_f", "b_i", "b_o", "b_g"), "xh"),
    )),
}


def backward_cell_sequence(
    kind: str,
    params: CellParams,
    traces: Sequence[StepTrace],
    dh_last: np.ndarray | None = None,
    dh_steps: Sequence[np.ndarray] | None = None,
    grads: Grads | None = None,
    prefix: str = "",
):
    """BPTT over one cell layer's recorded steps.

    dh_last seeds the gradient at the final hidden state; dh_steps adds
    a per-step contribution (e.g. from a head or an upper layer) before
    each step's backward. Accumulates into `grads` under `prefix` and
    returns (grads, dx_steps, dh0) where dx_steps[t] is the gradient of
    that step's input; dx_steps is one (T, ..., m) array.
    """
    if kind not in _BPTT:
        raise ContractError(f"unknown cell kind {kind!r}")
    if grads is None:
        grads = Grads((prefix + name, np.zeros_like(arr)) for name, arr in iter_tensors(params))
    T = len(traces)
    if T == 0:
        return grads, [], None
    step_backward, groups = _BPTT[kind]
    m, n = params.input_size, params.hidden_size
    batch = traces[0].xh.shape[:-1]
    span = min(T, max(1, DW_GEMM_ROWS // int(np.prod(batch))))
    stacks = [np.concatenate([_tensor(params, p) for p in paths]) if len(paths) > 1 else _tensor(params, paths[0])
              for paths, _, _ in groups]
    deltas = [np.empty((span,) + batch + (w.shape[0],)) for w in stacks]
    dx_steps = np.empty((T,) + batch + (m,))
    dh = np.zeros(batch + (n,))
    if dh_last is not None:
        dh = dh + dh_last
    dc = None
    for t in reversed(range(T)):
        if dh_steps is not None and dh_steps[t] is not None:
            dh = dh + dh_steps[t]
        lo = t - t % span
        dh, dc = step_backward(traces[t], dh, dc, stacks, [buf[t - lo] for buf in deltas], dx_steps[t], m, n)
        if t == lo:
            _add_weight_grads(groups, deltas, traces[lo:lo + span], grads, prefix)
    return grads, dx_steps, dh


def _add_weight_grads(groups, deltas, traces, grads: Grads, prefix: str) -> None:
    """Per gate group, one GEMM of the buffered deltas against the stacked step inputs, and one bias sum."""
    for (w_paths, b_paths, field_name), buf in zip(groups, deltas):
        flat = buf[:len(traces)].reshape(-1, buf.shape[-1])
        inputs = np.stack([getattr(tr, field_name) for tr in traces]).reshape(flat.shape[0], -1)
        _add_row_blocks(grads, prefix, w_paths, flat.T @ inputs)
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
    """Forward record of one loss evaluation, replayable in reverse.

    kind "cell" holds a single recorded cell layer; "classifier" and
    "lm" add head, dropout, and optional embedding segments recorded by
    the model forwards. Parameter references are shared, not copied, so
    a tape is only valid until the parameters are updated.
    """

    kind: str
    cell_kind: str
    cell_params: list
    traces: list
    cell_prefixes: list = field(default_factory=lambda: [""])
    head_w: np.ndarray | None = None
    head_b: np.ndarray | None = None
    head_in: object = None
    in_masks: list | None = None
    out_masks: object = None
    token_ids: np.ndarray | None = None
    emb: np.ndarray | None = None
    emb_key: str = "embedding"
    head_keys: tuple = ("w_out", "b_out")
    model_params: object = None


def _zeros_for_tape(tape: Tape) -> Grads:
    target = tape.model_params if tape.model_params is not None else tape.cell_params[0]
    return Grads.zeros_like(target)


def backward(tape: Tape, loss_grad) -> Grads:
    """Exact gradients of the recorded scalar loss w.r.t. every parameter.

    loss_grad is the gradient at the tape's output: d(loss)/d(logits)
    for model tapes, d(loss)/d(h_T) (or a per-step list) for bare cell
    tapes.
    """
    grads = _zeros_for_tape(tape)

    if tape.kind == "cell":
        params = tape.cell_params[0]
        traces = tape.traces[0]
        if isinstance(loss_grad, (list, tuple)):
            if len(loss_grad) != len(traces):
                raise ContractError("backward: per-step loss_grad length != trace length")
            backward_cell_sequence(tape.cell_kind, params, traces, dh_steps=loss_grad, grads=grads, prefix=tape.cell_prefixes[0])
        else:
            backward_cell_sequence(tape.cell_kind, params, traces, dh_last=loss_grad, grads=grads, prefix=tape.cell_prefixes[0])
        return grads

    n_layers = len(tape.cell_params)
    w_key, b_key = tape.head_keys

    if tape.kind == "classifier":
        dlogits = np.asarray(loss_grad)
        dl2, head_in2 = np.atleast_2d(dlogits, tape.head_in)
        grads[w_key] += dl2.T @ head_in2
        grads[b_key] += dl2.sum(axis=0)
        dh = dlogits @ tape.head_w
        if tape.out_masks is not None:
            dh = dh * tape.out_masks
        dh_steps = None
        dh_last = dh
    elif tape.kind == "lm":
        head_in = tape.head_in  # (T, B, n)
        flat = np.asarray(loss_grad).reshape(-1, tape.head_w.shape[0])
        # the head gradient buffer is still all zeros: write it in place
        np.matmul(flat.T, head_in.reshape(flat.shape[0], -1), out=grads[w_key])
        grads[b_key] += flat.sum(axis=0)
        dh_steps = (flat @ tape.head_w).reshape(head_in.shape)
        if tape.out_masks is not None:
            dh_steps *= tape.out_masks
        dh_last = None
    else:
        raise ContractError(f"unknown tape kind {tape.kind!r}")

    dx_steps = None
    for layer in reversed(range(n_layers)):
        _, dx_steps, _ = backward_cell_sequence(
            tape.cell_kind,
            tape.cell_params[layer],
            tape.traces[layer],
            dh_last=dh_last,
            dh_steps=dh_steps,
            grads=grads,
            prefix=tape.cell_prefixes[layer] + "." if tape.cell_prefixes[layer] else "",
        )
        if tape.in_masks is not None:
            for t, mask in enumerate(tape.in_masks[layer]):
                dx_steps[t] *= mask
        dh_steps, dh_last = dx_steps, None

    if tape.emb is not None and tape.token_ids is not None:
        # ids go (T, B) step-major, the order of dx_steps
        ids = tape.token_ids.T.reshape(-1)
        np.add.at(grads[tape.emb_key], ids, dx_steps.reshape(ids.shape[0], -1))
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

        def forward_loss(p):
            state = zero_state(kind, n)
            total = 0.0
            for t in range(T):
                state, _ = step(kind, p, xs[t], state)
                total += float(gs[t] @ state.h)
            return total

        state = zero_state(kind, n)
        traces = []
        for t in range(T):
            state, tr = step(kind, params, xs[t], state)
            traces.append(tr)
        tape = Tape(kind="cell", cell_kind=kind, cell_params=[params], traces=[traces])
        analytic = backward(tape, [gs[t] for t in range(T)])
        if perturb:
            first = next(iter(analytic))
            analytic[first].reshape(-1)[0] += perturb
        numeric = fd_gradient(forward_loss, params, epsilon)
        for name, err in relative_errors(analytic, numeric).items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
