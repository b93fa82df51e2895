"""Optimizers, schedules, and the batch training loops.

Classification shuffles examples each epoch with the run's own RNG;
language modeling walks contiguous windows over parallel token streams,
carrying hidden state across windows (gradients stop at window edges).
Every random draw flows from the run seed, so a (seed, config, data)
triple pins every emitted metric except wall-clock time.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import autograd
from .autograd import Grads, backward, clip_global_norm
from .cells import iter_buffers, new_trace
from .data import lm_batches
from .linalg import ContractError, NumericError, Rng
from .models import classify_forward, cross_entropy, lm_forward, perplexity

DEFAULT_CLIP_NORM = 5.0


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient.

    checkpoint_path is the last checkpoint the diverged run wrote, or None if it wrote none.
    """

    def __init__(self, message: str, checkpoint_path: str | None = None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass
class LrSchedule:
    """base_lr held until decay_start_epoch, then multiplied by decay_factor each epoch."""

    base_lr: float
    decay_factor: float = 1.0
    decay_start_epoch: int = 1

    def __post_init__(self):
        if not 0.0 < self.decay_factor <= 1.0:
            raise ContractError(f"decay_factor must be in (0, 1], got {self.decay_factor}")


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    """Learning rate for a 1-based epoch index."""
    if epoch < 0:
        raise ContractError("lr_at: epoch must be >= 0")
    exponent = max(0, epoch - schedule.decay_start_epoch + 1)
    return schedule.base_lr * schedule.decay_factor**exponent


@dataclass
class MetricsRecord:
    epoch: int
    step: int
    split: str
    loss: float
    metric_name: str
    metric_value: float
    wall_ms: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


@dataclass
class OptimizerState:
    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: Grads | None = None
    v: Grads | None = None


def make_optimizer(kind: str, params, lr: float) -> OptimizerState:
    if kind == "sgd":
        return OptimizerState(kind="sgd", lr=lr)
    if kind == "adam":
        return OptimizerState(kind="adam", lr=lr, m=Grads.zeros_like(params), v=Grads.zeros_like(params))
    raise ContractError(f"unknown optimizer kind {kind!r}")


def apply_update(opt: OptimizerState, params, grads: Grads) -> None:
    """Plain gradient descent or a bias-corrected Adam step; mutates params and opt.

    It runs once per buffer of params (`cells.iter_buffers`), so grads and
    the Adam moments must be laid out like params (`Grads.zeros_like`). It
    consumes grads: SGD scales each buffer by the learning rate in place,
    as clip_global_norm scales them in place before it. It does not check
    the gradients: the loops' clip_global_norm already has. It first bumps
    a model's version, staling its tapes (`autograd.Tape`); a bare cell has none.
    """
    if hasattr(params, "version"):
        params.version += 1
    sgd = opt.kind == "sgd"
    by_key = [grads.buffers] if sgd else [grads.buffers, opt.m.buffers, opt.v.buffers]
    try:
        bufs = [(arr, *(buffers[key] for buffers in by_key)) for key, arr, _ in iter_buffers(params)]
    except KeyError as e:
        raise ContractError(f"apply_update: no buffer {e} among the gradients or moments; "
                            "lay them out with Grads.zeros_like") from e
    if sgd:
        # at a vocabulary-sized model the worker thread takes half of each buffer (see `autograd._in_halves`)
        size = sum(arr.size for arr, _ in bufs)
        autograd._in_halves(2, 1, size // 2 * autograd.ELEMENT_FLOP, _sgd, bufs, opt.lr)
        return
    opt.step += 1
    t = opt.step
    b1, b2 = opt.beta1, opt.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for arr, g, m, v in bufs:
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        arr -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


def _sgd(bufs, lr: float, part: slice) -> None:
    """g *= lr, then arr -= g, over part of (0, 1, 2): the first or second half of each buffer's leading
    axis, or all of it. Each element gets the same two roundings whichever part it falls in."""
    for arr, g in bufs:
        if arr.ndim == 0:
            arr, g = arr[None], g[None]
        ends = (0, len(arr) // 2, len(arr))
        arr, g = arr[ends[part.start]:ends[part.stop]], g[ends[part.start]:ends[part.stop]]
        g *= lr
        arr -= g


def _optimizer_step(model, opt: OptimizerState, tape, loss: float, loss_grad, clip_norm: float,
                    what: str, epoch: int, step: int) -> None:
    """One optimizer step from a recorded loss: backward, clip, update.

    A non-finite loss or gradient raises DivergenceError before any
    parameter changes.
    """
    if not np.isfinite(loss):
        raise DivergenceError(f"{what} loss diverged at epoch {epoch}, step {step}")
    grads = backward(tape, loss_grad)
    try:
        clip_global_norm(grads, clip_norm)
        apply_update(opt, model, grads)
    except NumericError as e:
        raise DivergenceError(f"{what} gradients diverged at epoch {epoch}, step {step}: {e}") from e


def _train_forward(what: str, epoch: int, step: int, forward, *args, **kwargs):
    """forward(*args, **kwargs) for an optimizer step; a NumericError in it raises DivergenceError.

    Diverged parameters overflow on the way to a non-finite pre-activation or loss, which the
    activations' NumericError and the loss check judge: numpy's warnings would only be noise.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return forward(*args, **kwargs)
    except NumericError as e:
        raise DivergenceError(f"{what} forward diverged at epoch {epoch}, step {step}: {e}") from e


def _check_loop(op: str, batch_size: int, max_steps: int | None = None, step_offset: int = 0,
                xs=(), ys=None) -> None:
    """A loop's ContractError, before any work, for a classifier's labels ys that are none or not one per
    input in xs, a batch size below 1 or no optimizer step left."""
    if ys is not None and not 0 < len(ys) == len(xs):
        raise ContractError(f"{op}: {len(xs)} inputs for {len(ys)} labels" if len(ys) else f"{op}: empty data")
    if batch_size < 1:
        raise ContractError(f"{op}: batch_size must be >= 1, got {batch_size}")
    if max_steps is not None and step_offset >= max_steps:
        raise ContractError(f"{op}: no step left: step_offset {step_offset} reaches max_steps {max_steps}")


def train_epoch_classifier(model, xs, ys, opt: OptimizerState, rng: Rng, batch_size: int,
                           epoch: int, seed: int, clip_norm: float = DEFAULT_CLIP_NORM,
                           max_steps: int | None = None, step_offset: int = 0):
    """One seeded-shuffle pass; returns (train record, steps done this epoch).

    Loss and accuracy are running averages over the shuffled batches.
    max_steps caps total optimizer steps (step_offset counts prior ones).
    """
    _check_loop("train_epoch_classifier", batch_size, max_steps, step_offset, xs, ys)
    N = len(ys)
    t0 = time.monotonic()
    order = rng.permutation(N)
    total_loss = 0.0
    correct = 0
    seen = 0
    steps = 0
    for start in range(0, N, batch_size):
        if max_steps is not None and step_offset + steps >= max_steps:
            break
        idx = order[start:start + batch_size]
        xb = xs[idx]
        yb = ys[idx]
        logits, tape = _train_forward("classifier", epoch, step_offset + steps,
                                      classify_forward, model, xb, train_mode=True, rng=rng)
        loss, dlogits = cross_entropy(logits, yb)
        _optimizer_step(model, opt, tape, loss, dlogits, clip_norm, "classifier", epoch, step_offset + steps)
        total_loss += loss * len(idx)
        correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        seen += len(idx)
        steps += 1
        # free this step's traces before the next forward allocates its own
        del logits, tape, dlogits
    wall_ms = int((time.monotonic() - t0) * 1000)
    record = MetricsRecord(
        epoch=epoch, step=step_offset + steps, split="train",
        loss=total_loss / seen, metric_name="accuracy", metric_value=correct / seen,
        wall_ms=wall_ms, seed=seed,
    )
    return record, steps


def evaluate_classifier(model, xs, ys, batch_size: int = 256):
    """Deterministic eval pass; returns (mean loss, accuracy).

    Where `autograd._eval_pairs` says so, the worker thread scores the second batch of each pair beside
    the first, and a last odd batch runs alone. The sums add each batch's loss and count in batch order.
    """
    _check_loop("evaluate_classifier", batch_size, xs=xs, ys=ys)
    N = len(ys)
    rows = [slice(start, min(start + batch_size, N)) for start in range(0, N, batch_size)]
    # every pair holds full batches, but the last when the batches are even in number
    paired = autograd._eval_pairs(model.cells, len(ys[rows[-1]]) if len(rows) % 2 == 0 else batch_size, len(rows))
    scores = [None] * len(rows)
    for i in range(0, len(rows), 1 + paired):
        if paired and i + 1 < len(rows):
            # the caller allocates both forwards' traces: the worker thread's malloc arena, which keeps its
            # high-water mark, then holds only the steps' temporaries
            traces = [[new_trace(p, 1, (len(ys[r]),)) for p in model.cells] for r in rows[i:i + 2]]
            autograd._beside(functools.partial(_score, model, xs, ys, rows[i + 1], scores, i + 1, traces[1]), True,
                             _score, model, xs, ys, rows[i], scores, i, traces[0])
        else:
            _score(model, xs, ys, rows[i], scores, i, None)
    total_loss, correct = 0.0, 0
    for loss, right in scores:
        total_loss, correct = total_loss + loss, correct + right
    return total_loss / N, correct / N


def _score(model, xs, ys, rows: slice, scores: list, i: int, traces: list | None) -> None:
    """scores[i] = (summed loss, correct count) of the batch of rows; a forward given its eval traces
    records into them and hands the worker thread nothing (see `models._forward`)."""
    logits, _ = classify_forward(model, xs[rows], train_mode=False, _traces=traces)
    loss, _ = cross_entropy(logits, ys[rows], grad=False)
    scores[i] = (loss * len(ys[rows]), int(np.sum(np.argmax(logits, axis=1) == ys[rows])))


def _lm_window_loss(model, inputs, targets, states, train_mode, rng):
    """Forward one window; returns (loss/token, token count, states, tape, per-step dlogits)."""
    logits, states, tape = lm_forward(model, inputs, h_init=states, train_mode=train_mode, rng=rng)
    T = logits.shape[0]
    B = logits.shape[1]
    flat = logits.reshape(T * B, -1)
    flat_targets = np.ascontiguousarray(targets.T).reshape(T * B)
    loss, dflat = cross_entropy(flat, flat_targets, grad=train_mode)
    dsteps = dflat.reshape(T, B, -1) if train_mode else None
    return loss, T * B, states, tape, dsteps


def train_epoch_lm(model, stream, opt: OptimizerState, rng: Rng, batch_size: int, unroll: int,
                   epoch: int, seed: int, clip_norm: float = DEFAULT_CLIP_NORM,
                   max_steps: int | None = None, step_offset: int = 0):
    """One pass over the token stream with cross-window state carry."""
    _check_loop("train_epoch_lm", batch_size, max_steps, step_offset)
    t0 = time.monotonic()
    total_loss = 0.0
    total_tokens = 0
    steps = 0
    states = None
    for inputs, targets, is_new_epoch in lm_batches(stream, batch_size, unroll):
        if max_steps is not None and step_offset + steps >= max_steps:
            break
        if is_new_epoch:
            states = None
        loss, tokens, states, tape, dsteps = _train_forward("LM", epoch, step_offset + steps,
                                                            _lm_window_loss, model, inputs, targets, states, True, rng)
        _optimizer_step(model, opt, tape, loss, dsteps, clip_norm, "LM", epoch, step_offset + steps)
        del tape, dsteps  # free this window's traces and (T, B, V) gradient before the next forward
        total_loss += loss * tokens
        total_tokens += tokens
        steps += 1
    wall_ms = int((time.monotonic() - t0) * 1000)
    avg = total_loss / total_tokens
    record = MetricsRecord(
        epoch=epoch, step=step_offset + steps, split="train",
        loss=avg, metric_name="perplexity", metric_value=perplexity(avg * total_tokens, total_tokens),
        wall_ms=wall_ms, seed=seed,
    )
    return record, steps


def evaluate_lm(model, stream, batch_size: int, unroll: int):
    """Deterministic stream evaluation; returns (loss per token, perplexity)."""
    total_loss = 0.0
    total_tokens = 0
    states = None
    for inputs, targets, is_new_epoch in lm_batches(stream, batch_size, unroll):
        if is_new_epoch:
            states = None
        loss, tokens, states, _, _ = _lm_window_loss(model, inputs, targets, states, False, None)
        total_loss += loss * tokens
        total_tokens += tokens
    avg = total_loss / total_tokens
    return avg, perplexity(avg * total_tokens, total_tokens)
