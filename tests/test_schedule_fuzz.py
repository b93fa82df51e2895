"""Every handoff to the worker thread gives the inline bits under shaken schedules.

The forced-on tests elsewhere see only the interleaving the host happens
to give. Here a fixture wraps `autograd._submit` so that each job sleeps
a seeded random 0-2 ms before and after it runs, or, in other seeds,
wraps the caller's side of `autograd._beside` the same way; the test
also lowers the interpreter's switch interval, so the GIL changes hands
often. Each path runs over SEEDS seeds (RAU_FUZZ_SEEDS, default 50; CI
also runs this file at 500): the span flushes, the head GEMM,
cross-entropy and SGD halves, the head's gradients, the forward
wavefront, a RAU step's attention branch, an LSTM step's f and i gates
and a classifier eval's pairs of batches. A run must give the inline
bits and leave no Future pending.
In every fifth seed one handoff fails instead, on the worker's side, on
the caller's, or with a KeyboardInterrupt in the caller's half; the
error must surface in the caller with nothing pending.
"""

import copy
import os
import random
import sys
import time

import numpy as np
import pytest

from rau import autograd, models
from rau.autograd import Grads, backward, backward_cell_sequence
from rau.cells import init_cell, iter_tensors, new_trace, step, zero_state
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import apply_update, evaluate_classifier, make_optimizer

from conftest import pinned_blas

SEEDS = int(os.environ.get("RAU_FUZZ_SEEDS", "50"))
FAILURES = ("worker", "caller", "interrupt")


class FuzzError(Exception):
    pass


class _Fuzz:
    """Seeded delays around each handoff, and at most one failing handoff per run."""

    def __init__(self):
        self.futures, self.handoffs, self.rng = [], 0, random.Random(0)
        self.delay_jobs, self.fail = True, None

    def reset(self, seed: int, fail=None):
        """fail is (side, handoff index) or None; a failing run delays its jobs, so its other side is late."""
        self.futures.clear()
        self.handoffs, self.rng, self.fail = 0, random.Random(seed), fail
        self.delay_jobs = fail is not None or seed % 2 == 0

    def delayed(self, fn, raise_after=None):
        # the delays are drawn now, in the caller, so each seed draws the same ones whatever the timing
        before, after = self.rng.uniform(0.0, 0.002), self.rng.uniform(0.0, 0.002)

        def run(*args):
            time.sleep(before)
            if raise_after is not None:
                raise raise_after("fuzzed failure")
            try:
                return fn(*args)
            finally:
                time.sleep(after)

        return run


@pytest.fixture
def fuzz(monkeypatch):
    state = _Fuzz()
    submit, beside = autograd._submit, autograd._beside

    def fuzzed_submit(job):
        future = submit(state.delayed(job) if state.delay_jobs else job)
        state.futures.append(future)
        return future

    def fuzzed_beside(job, on, fn, *args):
        if job is None or not on:
            return beside(job, on, fn, *args)
        k, state.handoffs = state.handoffs, state.handoffs + 1
        if state.fail is not None and state.fail[1] == k:
            side = state.fail[0]
            if side == "worker":
                job = state.delayed(job, FuzzError)
            else:
                fn = state.delayed(fn, KeyboardInterrupt if side == "interrupt" else FuzzError)
        elif not state.delay_jobs:
            fn = state.delayed(fn)
        return beside(job, on, fn, *args)

    monkeypatch.setattr(autograd, "_submit", fuzzed_submit)
    monkeypatch.setattr(autograd, "_beside", fuzzed_beside)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield state
    finally:
        sys.setswitchinterval(interval)


def _bits(outputs: dict) -> dict:
    return {name: np.asarray(v).tobytes() for name, v in outputs.items()}


def _shake(fuzz, run, inline: dict):
    """run() over SEEDS shaken schedules; every fifth seed fails one handoff, rotating the failing side."""
    for seed in range(SEEDS):
        if seed % 5 != 4:
            fuzz.reset(seed)
            assert _bits(run()) == inline, f"seed {seed}"
            assert fuzz.handoffs > 0, "nothing went to the worker"
        else:
            side = FAILURES[seed // 5 % len(FAILURES)]
            fuzz.reset(seed, (side, seed % fuzz.handoffs))
            with pytest.raises(KeyboardInterrupt if side == "interrupt" else FuzzError):
                run()
        assert fuzz.futures and all(f.done() for f in fuzz.futures), f"seed {seed}: a job is pending"


def _inline(handoff, run) -> dict:
    """run()'s bits with every handoff inline; then every handoff is forced on."""
    handoff(False)
    out = _bits(run())
    handoff(True)
    return out


pytestmark = pinned_blas


@pytest.mark.parametrize("kind", ["rau", "lstm"])
def test_span_flushes(kind, monkeypatch, handoff, fuzz):
    monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 8)  # spans of two steps over T=9: four flushes on the worker
    rng = Rng(1)
    params = init_cell(kind, 3, 5, 0.5, rng)
    xs, dh_steps = rng.uniform(-1.0, 1.0, (9, 4, 3)), rng.uniform(-1.0, 1.0, (9, 4, 5))
    state, trace = zero_state(params, 4), new_trace(params, 9, (4,))
    for t in range(9):
        state, _ = step(params, xs[t], state, trace.row(t))

    def run():
        grad, dx, dh0 = backward_cell_sequence(params, trace, dh_steps=dh_steps)
        return {**dict(grad.tensors), "dx": dx, "dh0": dh0}

    _shake(fuzz, run, _inline(handoff, run))


# B x T = 259 rows and V = 1009, as tests/test_head_split.py: each GEMM half holds over 1e6 multiply-adds
HB, HT, HN, HV = 7, 37, 48, 1009


def test_head_gemm(handoff, fuzz):
    rng = Rng(2)
    a, b, bias = rng.uniform(-1.0, 1.0, (HB * HT, HN)), rng.uniform(-1.0, 1.0, (HN, HV)), rng.uniform(-1.0, 1.0, HV)
    run = lambda: {"out": autograd._split_gemm(a, b, bias)}
    _shake(fuzz, run, _inline(handoff, run))


def test_cross_entropy_halves(monkeypatch, handoff, fuzz):
    monkeypatch.setattr(models, "CE_BLOCK_BYTES", 10 * 8 * HV)  # blocks of 10 rows
    logits, targets = Rng(3).uniform(-8.0, 8.0, (HB * HT, HV)), Rng(4).integers(HV, size=HB * HT)

    def run():
        loss, dlogits = cross_entropy(logits, targets)
        return {"loss": loss, "dlogits": dlogits, "no_grad": cross_entropy(logits, targets, grad=False)[0]}

    _shake(fuzz, run, _inline(handoff, run))


def test_sgd_halves(handoff, fuzz):
    start = build_language_model("gru", HV, HN, 1, 0.5, Rng(5))
    grads = Grads.zeros_like(start)
    for g in grads.buffers.values():
        g[...] = Rng(g.size).uniform(-1.0, 1.0, g.shape)

    def run():
        mdl, g = copy.deepcopy((start, grads))
        apply_update(make_optimizer("sgd", mdl, 0.7), mdl, g)
        return dict(iter_tensors(mdl))

    _shake(fuzz, run, _inline(handoff, run))


def test_head_gradients(handoff, fuzz):
    # dh's row half, then the head's weight and bias gradients beside the layers' BPTT
    mdl = build_language_model("rau", HV, HN, 1, 0.5, Rng(6))
    logits, _, tape = lm_forward(mdl, Rng(7).integers(HV, size=(HB, HT)), train_mode=True)
    dlogits = Rng(8).uniform(-1e-3, 1e-3, logits.shape)
    run = lambda: backward(tape, dlogits)
    _shake(fuzz, run, _inline(handoff, run))


@pytest.mark.parametrize("kind,layers", [("rau", 2), ("gru", 3), ("lstm", 2)])
def test_forward_wavefront(kind, layers, handoff, fuzz):
    # the head and cross-entropy are too small to cut: only the upper layers' steps go to the worker
    mdl = build_language_model(kind, 23, 6, layers, 0.5, Rng(9), dropout=0.3)
    tokens = Rng(10).integers(23, size=(4, 6))

    def run():
        train_logits, states, tape = lm_forward(mdl, tokens, train_mode=True, rng=Rng(11))
        eval_logits, eval_states, _ = lm_forward(mdl, tokens, states)
        return {"train": train_logits, "eval": eval_logits, **{f"h{l}": s.h for l, s in enumerate(eval_states)},
                **{f"trace{l}.{name}": buf for l, tr in enumerate(tape.traces) for name, buf in vars(tr).items()}}

    _shake(fuzz, run, _inline(handoff, run))


@pytest.mark.parametrize("kind", ["rau", "lstm"])
def test_step_branch(kind, handoff, fuzz):
    # one layer: no wavefront, so each step's branch, a RAU's attention or an LSTM's f and i gates, goes to
    # the worker
    mdl = build_classifier(kind, 3, 6, 1, 4, 0.5, Rng(12), dropout=0.3)
    xs = Rng(13).uniform(-1.0, 1.0, (4, 6, 3))

    def run():
        train_logits, tape = classify_forward(mdl, xs, train_mode=True, rng=Rng(14))
        return {"train": train_logits, "eval": classify_forward(mdl, xs)[0],
                **{f"trace.{name}": buf for name, buf in vars(tape.traces[0]).items()}}

    _shake(fuzz, run, _inline(handoff, run))


def test_eval_pairs(handoff, fuzz):
    # five batches: two pairs, each one's second batch on the worker, then a short batch alone whose
    # forward hands each step's attention branch to the worker
    mdl = build_classifier("rau", 3, 6, 1, 4, 0.5, Rng(15), dropout=0.3)
    xs, ys = Rng(16).uniform(-1.0, 1.0, (19, 6, 3)), Rng(17).integers(4, size=19)
    run = lambda: dict(zip(("loss", "accuracy"), evaluate_classifier(mdl, xs, ys, 4)))
    _shake(fuzz, run, _inline(handoff, run))
