"""Span flushes on the worker thread give the inline path's gradients, bit for bit.

`backward_cell_sequence` may hand each span's flush (the shared-row
rebuild, one weight GEMM per gate group and the bias sums) to one worker
thread while the caller runs the steps of the span before it; the flush
of the first span, which the backward reaches last, runs in the caller.
The flushes run one at a time in span order, so the gradient buffer gets
the same sums in the same order. These tests force every handoff on or
off through the `handoff` fixture, count only the flushes, and force many
spans with small `DW_GEMM_ROWS` values.
"""

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rau import autograd, cells, linalg
from rau.autograd import backward, backward_cell_sequence
from rau.cells import init_cell, iter_tensors, new_trace, step, zero_state
from rau.data import synthetic_memorization
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import make_optimizer, train_epoch_classifier

KINDS = ("rau", "gru", "lstm")
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def submitted(monkeypatch):
    """The Future of every flush handed to the worker, in order; the halves of the head's work
    (tests/test_head_split.py) are not counted."""
    futures = []
    submit = autograd._submit

    def record(job):
        future = submit(job)
        if job.func is autograd._flush:
            futures.append(future)
        return future

    monkeypatch.setattr(autograd, "_submit", record)
    return futures


def _record(kind, m, n, T, batch, seed):
    rng = Rng(seed)
    params = init_cell(kind, m, n, 0.5, rng)
    lead = () if batch is None else (batch,)
    xs = rng.uniform(-1.0, 1.0, (T, *lead, m))
    state = zero_state(params, batch)
    trace = new_trace(params, T, lead)
    for t in range(T):
        state, _ = step(params, xs[t], state, trace.row(t))
    return params, trace, rng.uniform(-1.0, 1.0, (T, *lead, n))


class TestSameBits:
    @pytest.mark.parametrize("rows", [1, 40, 512], ids=lambda r: f"rows{r}")
    @pytest.mark.parametrize("batch", [None, 1, 3, 20, 128], ids=lambda b: "1d" if b is None else f"B{b}")
    @pytest.mark.parametrize("kind", KINDS)
    def test_cell_gradients_equal_the_inline_path(self, kind, batch, rows, monkeypatch, same_bits, submitted):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", rows)
        params, trace, dh_steps = _record(kind, 5, 6, 9, batch, seed=rows + (batch or 0))

        def run():
            grads, dx, dh0 = backward_cell_sequence(params, trace, dh_last=dh_steps[-1], dh_steps=dh_steps)
            return {**grads, "dx": dx, "dh0": dh0}

        same_bits(run)
        span = min(9, max(1, rows // (batch or 1)))
        assert len(submitted) == -(-9 // span) - 1  # every span's flush but the first's

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_classify_shape(self, kind, same_bits, submitted):
        # B=128, T=28, m=28, n=128 at the default DW_GEMM_ROWS: seven spans of four steps
        params, trace, dh_steps = _record(kind, 28, 128, 28, 128, seed=3)
        run = lambda: backward_cell_sequence(params, trace, dh_steps=dh_steps, want_dx=False)[0]
        same_bits(run)
        assert len(submitted) == 6

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_layer_lm_with_dropout(self, kind, monkeypatch, same_bits, submitted):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 12)
        mdl = build_language_model(kind, 11, 5, 2, 0.5, Rng(30), dropout=0.3)
        tokens = Rng(31).integers(11, size=(4, 7))
        targets = Rng(32).integers(11, size=7 * 4)

        def run():
            logits, _, tape = lm_forward(mdl, tokens, train_mode=True, rng=Rng(33))
            _, dlogits = cross_entropy(logits.reshape(7 * 4, -1), targets)
            return backward(tape, dlogits.reshape(logits.shape))

        same_bits(run)
        assert len(submitted) == 2 * 2  # two layers, spans of 3, 3 and 1 steps

    @pytest.mark.parametrize("kind", KINDS)
    def test_classifier_trained_three_adam_steps(self, kind, monkeypatch, same_bits, submitted):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 24)
        xs, ys = synthetic_memorization(Rng(40), 24, 10, 3, 3, 0.25)
        start = build_classifier(kind, 3, 6, 1, 3, 0.5, Rng(41))
        start_opt = make_optimizer("adam", start, 0.01)

        def run():
            mdl, opt = copy.deepcopy((start, start_opt))
            _, steps = train_epoch_classifier(mdl, xs, ys, opt, Rng(42), 8, 1, 42, max_steps=3)
            assert steps == 3
            return dict(iter_tensors(mdl))

        same_bits(run)
        assert len(submitted) == 3 * 3  # spans of 3 steps over T=10


class TestFailures:
    @pytest.fixture
    def slow_flushes(self, monkeypatch):
        # a flush still pending when backward returns or raises would not be done yet
        add = autograd._add_weight_grads

        def slow(*args):
            time.sleep(0.02)
            return add(*args)

        monkeypatch.setattr(autograd, "_add_weight_grads", slow)

    def _tape(self):
        mdl = build_classifier("gru", 3, 4, 2, 2, 0.5, Rng(50))
        logits, tape = classify_forward(mdl, Rng(51).uniform(-1, 1, (5, 9, 3)), train_mode=True)
        return tape, np.ones_like(logits)

    def test_a_flush_that_raises_surfaces_in_the_caller(self, monkeypatch, handoff, submitted, same_bits):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 10)
        handoff(True)
        add, calls = autograd._add_weight_grads, []

        def fail_third(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("flush failed")
            return add(*args)

        monkeypatch.setattr(autograd, "_add_weight_grads", fail_third)
        tape, dlogits = self._tape()
        with pytest.raises(RuntimeError, match="flush failed"):
            backward(tape, dlogits)
        assert submitted and all(job.done() for job in submitted)
        # the worker keeps serving: the next backward gives the inline bits
        monkeypatch.setattr(autograd, "_add_weight_grads", add)
        same_bits(lambda: backward(tape, dlogits))

    def test_no_flush_is_pending_when_a_step_raises(self, monkeypatch, handoff, submitted, slow_flushes):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 10)
        handoff(True)
        tape, dlogits = self._tape()
        k, steps = cells._KINDS["gru"], []

        def fail_late(*args):
            steps.append(1)
            if len(steps) == 7:  # in the fourth span of two steps
                raise RuntimeError("step failed")
            return k.backward(*args)

        monkeypatch.setitem(cells._KINDS, "gru", k._replace(backward=fail_late))
        with pytest.raises(RuntimeError, match="step failed"):
            backward(tape, dlogits)
        assert len(submitted) == 3 and all(job.done() for job in submitted)

    def test_no_flush_is_pending_when_backward_returns(self, monkeypatch, handoff, submitted, slow_flushes):
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", 10)
        handoff(True)
        backward(*self._tape())
        assert len(submitted) == 2 * 4 and all(job.done() for job in submitted)


class TestWhenTheWorkerRuns:
    """The automatic decision, on the host the `host` fixture gives."""

    @staticmethod
    def _uses_worker(kind, m, n, T, batch, submitted):
        params, trace, dh_steps = _record(kind, m, n, T, batch, seed=T)
        before = len(submitted)
        backward_cell_sequence(params, trace, dh_steps=dh_steps, want_dx=False)
        return len(submitted) > before

    def test_on_for_a_multi_span_window_of_large_flushes(self, host, submitted):
        # B=128, n=128: two spans of four steps
        assert self._uses_worker("rau", 28, 128, 8, 128, submitted)

    def test_off_for_a_single_span_window(self, host, submitted):
        # the ptb-small shape: 20 x 20 rows
        assert not self._uses_worker("lstm", 200, 200, 20, 20, submitted)

    @pytest.mark.parametrize("batch", [None, 1], ids=["1d", "B1"])
    def test_off_for_one_row_steps(self, batch, host, submitted):
        # the gradient oracle's shape, and a window long enough for two spans of 512 steps
        assert not self._uses_worker("rau", 3, 4, 5, batch, submitted)
        assert not self._uses_worker("rau", 3, 4, 600, batch, submitted)

    def test_off_for_small_flushes(self, host, submitted):
        # B=32, m=8, n=32: two spans whose overlapped flush is about 5 MFLOP
        assert not self._uses_worker("rau", 8, 32, 28, 32, submitted)

    @pytest.mark.parametrize("blas", [2, None], ids=["two_threads", "no_symbol"])
    def test_off_unless_the_blas_runs_one_thread_per_call(self, blas, host, submitted, monkeypatch):
        monkeypatch.setattr(linalg, "BLAS_THREADS", blas)
        assert not self._uses_worker("rau", 28, 128, 8, 128, submitted)

    def test_off_on_one_cpu(self, host, submitted):
        host["cpus"] = {0}
        assert not self._uses_worker("rau", 28, 128, 8, 128, submitted)


def _run(script: str) -> dict:
    """The JSON object that script prints last, run in a fresh process in this one's environment."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_default_process_turns_the_worker_on():
    # a rows-classify-shaped window in a fresh process: importing rau pins OpenBLAS to one thread per call
    script = """
import json, os
from rau import autograd, cells
from rau.cells import init_cell, new_trace, step, zero_state
from rau.linalg import BLAS_THREADS, Rng

rng = Rng(1)
p = init_cell("rau", 28, 128, 0.5, rng)
trace, state = new_trace(p, 8, (128,)), zero_state(p, 128)
for t in range(8):
    state, _ = step(p, rng.uniform(-1, 1, (128, 28)), state, trace.row(t))
autograd.backward_cell_sequence(p, trace, dh_last=rng.uniform(-1, 1, (128, 128)))
print(json.dumps({"blas": BLAS_THREADS, "cpus": len(os.sched_getaffinity(0)),
                  "worker": autograd._worker is not None}))
"""
    got = _run(script)
    if got["blas"] is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count rau can pin")
    if got["cpus"] < 2:
        pytest.skip("this process may use one CPU only")
    assert got == {"blas": 1, "cpus": got["cpus"], "worker": True}


def test_the_inline_path_starts_nothing():
    # a B=1 train step and a gradient check, the gradcheck-oracle workload: no thread, not even the import
    script = """
import json, sys, threading
import rau.cli
from rau.autograd import gradcheck_cell
from rau.data import synthetic_memorization
from rau.linalg import Rng
from rau.models import build_classifier
from rau.train import make_optimizer, train_epoch_classifier

xs, ys = synthetic_memorization(Rng(1), 4, 5, 3, 4, 0.25)
mdl = build_classifier("rau", 3, 4, 1, 4, 0.5, Rng(2))
_, steps = train_epoch_classifier(mdl, xs, ys, make_optimizer("adam", mdl, 0.01), Rng(3), 1, 1, 3, max_steps=1)
gradcheck_cell("rau", 3, 4, 5, 1, 7)
print(json.dumps({"steps": steps, "imported": "concurrent.futures" in sys.modules,
                  "threads": threading.active_count()}))
"""
    assert _run(script) == {"steps": 1, "imported": False, "threads": 1}


def test_a_forked_child_starts_its_own_worker():
    # the parent's worker thread does not exist in a child; a child that queued on it would wait forever
    script = """
import json, os, signal, warnings
from rau import autograd
from rau.linalg import Rng
from rau.models import cross_entropy

warnings.simplefilter("ignore", DeprecationWarning)  # newer Pythons warn on a fork beside a live thread
logits, targets = Rng(1).uniform(-8.0, 8.0, (259, 1009)), Rng(2).integers(1009, size=259)
autograd._handoff = lambda flop, floor: False
inline = cross_entropy(logits, targets)[1].tobytes()
autograd._handoff = lambda flop, floor: True


def split_on_own_worker():
    return cross_entropy(logits, targets)[1].tobytes() == inline and autograd._worker[0] == os.getpid()


parent = split_on_own_worker()
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a child whose job never runs dies rather than hangs
    os._exit(0 if split_on_own_worker() else 1)
print(json.dumps({"parent": parent, "child": os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])}))
"""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    assert _run(script) == {"parent": True, "child": 0}
