"""The worker thread's halves of a vocabulary-sized head's work give the inline path's bits.

At a vocabulary-sized LM head, `autograd._in_halves` hands the worker
thread a row half of the head GEMM and bias add and of dh = dlogits @
w_out (both `autograd._split_gemm`), of cross-entropy, and a half of each
buffer of the SGD update; `autograd.backward` runs the head's weight and
bias gradients on the worker beside the layers' BPTT. These tests force
every handoff on or off through the `handoff` fixture, as
tests/test_overlap.py does, and count only the head's jobs. The forced
shapes keep each GEMM half above OpenBLAS's small-matrix sizes, as the
automatic decision does (see `autograd.SPLIT_ROWS`).
"""

import copy
import time
import weakref

import numpy as np
import pytest

from rau import autograd, models, train
from rau.autograd import Grads, backward
from rau.cells import iter_tensors
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import DivergenceError, apply_update, evaluate_lm, make_optimizer, train_epoch_lm

KINDS = ("rau", "gru", "lstm")
# B x T = 259 rows, an odd count that no CE block divides (10 rows here, or 129 at V = 1009); V is no
# multiple of 64. Cut at 129 rows rather than at 96 (`autograd.SPLIT_ROWS`), the head GEMM's bits change
B, T, N, V = 7, 37, 48, 1009
# the CI step's shape: the automatic decision splits it on a host with two CPUs and one BLAS thread
CI_SHAPE = dict(vocab=3000, hidden=64, batch=20, unroll=20)
HEAD_JOBS = {"_gemm_rows", "_cross_entropy_rows", "_head_grads", "_sgd"}


def _head_jobs(names):
    """The names of the head's jobs, without the forward's and the cell BPTT's that a forced handoff also sends."""
    return [name for name in names if name in HEAD_JOBS]


def _lm(kind, layers, dropout, vocab=V, hidden=N, seed=1):
    return build_language_model(kind, vocab, hidden, layers, 0.5, Rng(seed), dropout=dropout)


def _tokens(seed, shape=(B, T), vocab=V):
    return Rng(seed).integers(vocab, size=shape)


LAYERS = pytest.mark.parametrize("layers,dropout", [(1, 0.0), (2, 0.3)], ids=["1layer", "2layers_dropout"])


@pytest.mark.usefixtures("one_blas_thread")
class TestSameBits:
    @LAYERS
    @pytest.mark.parametrize("kind", KINDS)
    def test_logits(self, kind, layers, dropout, same_bits, jobs):
        mdl, tokens = _lm(kind, layers, dropout), _tokens(2)

        def run():
            train_logits, states, _ = lm_forward(mdl, tokens, train_mode=True, rng=Rng(3))
            eval_logits, _, _ = lm_forward(mdl, tokens)
            return {"train": train_logits, "eval": eval_logits, **{f"h{l}": s.h for l, s in enumerate(states)}}

        same_bits(run)
        assert _head_jobs(jobs) == ["_gemm_rows"] * 2

    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("rows", [B * T, 40], ids=["odd_rows", "even_rows"])
    def test_cross_entropy(self, rows, grad, monkeypatch, same_bits, jobs):
        monkeypatch.setattr(models, "CE_BLOCK_BYTES", 10 * 8 * V)  # blocks of 10 rows
        logits = Rng(4).uniform(-8.0, 8.0, (rows, V))
        targets = Rng(5).integers(V, size=rows)

        def run():
            loss, dlogits = cross_entropy(logits, targets, grad=grad)
            return {"loss": loss, "dlogits": dlogits}

        same_bits(run)
        assert jobs == ["_cross_entropy_rows"]

    @LAYERS
    @pytest.mark.parametrize("kind", KINDS)
    def test_backward(self, kind, layers, dropout, same_bits, jobs):
        mdl, tokens, targets = _lm(kind, layers, dropout), _tokens(6), _tokens(7, (B * T,))

        def run():
            logits, _, tape = lm_forward(mdl, tokens, train_mode=True, rng=Rng(8))
            _, dlogits = cross_entropy(logits.reshape(B * T, -1), targets)
            return backward(tape, dlogits.reshape(logits.shape))

        same_bits(run)
        assert _head_jobs(jobs) == ["_gemm_rows", "_cross_entropy_rows", "_gemm_rows", "_head_grads"]

    def test_sgd_update(self, same_bits, jobs):
        start = _lm("rau", 2, 0.0)
        grads = Grads.zeros_like(start)
        for g in grads.buffers.values():
            g[...] = Rng(g.size).uniform(-1.0, 1.0, g.shape)

        def run():
            mdl, g = copy.deepcopy((start, grads))
            apply_update(make_optimizer("sgd", mdl, 0.7), mdl, g)
            return {**dict(iter_tensors(mdl)), **{f"grad.{k}": v for k, v in g.items()}}

        same_bits(run)
        assert jobs == ["_sgd"]

    @LAYERS
    @pytest.mark.parametrize("kind", KINDS)
    def test_lm_trained_two_sgd_windows_then_evaluated(self, kind, layers, dropout, same_bits, jobs):
        start = _lm(kind, layers, dropout, seed=9)
        stream = _tokens(10, (B * (2 * T + 1),))

        def run():
            mdl = copy.deepcopy(start)
            record, steps = train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 0.5), Rng(11), B, T, 1, 11)
            assert steps == 2
            loss, ppl = evaluate_lm(mdl, stream, B, T)
            return {**dict(iter_tensors(mdl)), "train": record.loss, "eval": loss, "ppl": ppl}

        same_bits(run)
        # per window the forward, cross-entropy, dh, the head's gradients and the update; then the eval windows
        window = ["_gemm_rows", "_cross_entropy_rows"]
        assert _head_jobs(jobs) == (window + ["_gemm_rows", "_head_grads", "_sgd"]) * 2 + window * 2


@pytest.mark.usefixtures("one_blas_thread")
class TestFailures:
    def _tape(self):
        mdl = _lm("gru", 2, 0.0)
        logits, _, tape = lm_forward(mdl, _tokens(12), train_mode=True)
        return tape, np.full(logits.shape, 1e-3)

    def test_a_raising_worker_half_surfaces_in_the_caller(self, monkeypatch, handoff, jobs):
        handoff(True)
        gemm_rows = autograd._gemm_rows

        def fail_on_the_worker(a, b, bias, out, rows):
            if rows.start > 0:
                raise RuntimeError("worker half failed")
            time.sleep(0.02)  # the caller's half outlasts the worker's
            return gemm_rows(a, b, bias, out, rows)

        monkeypatch.setattr(autograd, "_gemm_rows", fail_on_the_worker)
        mdl, tokens = _lm("rau", 1, 0.0), _tokens(13)
        with pytest.raises(RuntimeError, match="worker half failed"):
            lm_forward(mdl, tokens)
        # the worker keeps serving: the next forward gives the inline bits
        monkeypatch.setattr(autograd, "_gemm_rows", gemm_rows)
        got = lm_forward(mdl, tokens)[0]
        handoff(False)
        assert lm_forward(mdl, tokens)[0].tobytes() == got.tobytes()

    def test_a_raising_caller_half_waits_for_the_worker_half(self, monkeypatch, handoff):
        handoff(True)
        sgd, done = train._sgd, []

        def fail_in_the_caller(bufs, lr, part):
            if part.start == 0:
                raise RuntimeError("caller half failed")
            time.sleep(0.05)
            sgd(bufs, lr, part)
            done.append(part)

        monkeypatch.setattr(train, "_sgd", fail_in_the_caller)
        mdl = _lm("lstm", 1, 0.0)
        with pytest.raises(RuntimeError, match="caller half failed"):
            apply_update(make_optimizer("sgd", mdl, 0.1), mdl, Grads.zeros_like(mdl))
        assert done == [slice(1, 2)]

    def test_a_raising_head_gradient_surfaces_and_nothing_is_pending(self, monkeypatch, handoff, queued):
        handoff(True)

        def fail(*args):
            time.sleep(0.02)
            raise RuntimeError("head gradient failed")

        tape, dlogits = self._tape()
        monkeypatch.setattr(autograd, "_head_grads", fail)
        with pytest.raises(RuntimeError, match="head gradient failed"):
            backward(tape, dlogits)
        assert queued and all(job.done() for job in queued)

    def test_no_job_is_pending_when_the_bptt_raises(self, monkeypatch, handoff, queued):
        handoff(True)
        head_grads = autograd._head_grads

        def slow(*args):
            time.sleep(0.05)
            return head_grads(*args)

        def fail(*args, **kwargs):
            raise RuntimeError("bptt failed")

        tape, dlogits = self._tape()
        queued.clear()  # the forward's
        monkeypatch.setattr(autograd, "_head_grads", slow)
        monkeypatch.setattr(autograd, "backward_cell_sequence", fail)
        with pytest.raises(RuntimeError, match="bptt failed"):
            backward(tape, dlogits)
        # dh's worker half, then the head's gradients
        assert len(queued) == 2 and all(job.done() for job in queued)

    def test_inline_head_gradients_free_their_scratch_before_the_bptt(self, monkeypatch, handoff):
        handoff(False)
        scratch, seen = [], []
        head_grads, backward_stack = autograd._head_grads, autograd._backward_stack

        def watch(head_in, flat, held, *rest):
            scratch.append(weakref.ref(held[0]))
            head_grads(head_in, flat, held, *rest)

        def bptt(*args):
            seen.append(scratch[0]() is None)
            backward_stack(*args)

        monkeypatch.setattr(autograd, "_head_grads", watch)
        monkeypatch.setattr(autograd, "_backward_stack", bptt)
        backward(*self._tape())
        assert seen == [True]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_worker_half_runs_under_the_callers_errstate(self, handoff, jobs):
        # the train forward ignores overflow; a worker thread starts from numpy's defaults and would warn
        handoff(True)
        mdl = _lm("rau", 1, 0.0)
        mdl.w_out[:] = 1e308
        stream = _tokens(14, (B * (T + 1),))
        with pytest.raises(DivergenceError, match="loss diverged"):
            train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 1.0), Rng(15), B, T, 1, 15)
        assert _head_jobs(jobs)[0] == "_gemm_rows"


class TestWhenItRuns:
    """The automatic decision, on the host the `host` fixture gives."""

    @staticmethod
    def _lm_step(vocab, hidden, batch, unroll, layers=2):
        """One SGD window and one eval window of an LM; returns the names of the head jobs run."""
        mdl = build_language_model("rau", vocab, hidden, layers, 0.1, Rng(16))
        stream = Rng(17).integers(vocab, size=batch * (unroll + 1))
        train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 1.0), Rng(18), batch, unroll, 1, 18)
        evaluate_lm(mdl, stream, batch, unroll)

    def test_on_at_the_ci_step_shape(self, host, jobs):
        self._lm_step(**CI_SHAPE)
        # the head GEMM, cross-entropy with and without grad, dh and the head's gradients; the
        # update's buffers (3000 x 64 at most) are too small to split
        assert jobs == ["_gemm_rows", "_cross_entropy_rows", "_gemm_rows", "_head_grads",
                        "_gemm_rows", "_cross_entropy_rows"]

    def test_on_for_the_update_of_a_large_model(self, host, jobs):
        mdl = _lm("gru", 1, 0.0, vocab=10000, hidden=200)
        apply_update(make_optimizer("sgd", mdl, 0.1), mdl, Grads.zeros_like(mdl))
        assert jobs == ["_sgd"]

    def test_off_at_the_ci_corpus_shape(self, host, jobs):
        self._lm_step(vocab=30, hidden=8, batch=2, unroll=5)
        assert not HEAD_JOBS & set(jobs)

    @pytest.mark.parametrize("m,n,T_,batch,classes", [(28, 128, 28, 128, 10), (3, 4, 5, 1, 4)],
                             ids=["rows_classify", "oracle"])
    def test_off_at_the_classifier_shapes(self, m, n, T_, batch, classes, host, jobs):
        mdl = build_classifier("rau", m, n, 1, classes, 0.1, Rng(19))
        xs = Rng(20).uniform(-1.0, 1.0, (batch, T_, m))
        logits, tape = classify_forward(mdl, xs, train_mode=True)
        loss, dlogits = cross_entropy(logits, Rng(21).integers(classes, size=batch))
        apply_update(make_optimizer("sgd", mdl, 0.1), mdl, backward(tape, dlogits))
        assert not HEAD_JOBS & set(jobs)

    @pytest.mark.parametrize("blas", [2, None], ids=["two_threads", "no_symbol"])
    def test_off_unless_the_blas_runs_one_thread_per_call(self, blas, host, jobs):
        host["blas"] = blas
        self._lm_step(**CI_SHAPE)
        assert not jobs

    def test_off_on_one_cpu(self, host, jobs):
        host["cpus"] = {0}
        self._lm_step(**CI_SHAPE)
        assert not jobs

    def test_row_cuts_fall_on_the_tiling_grid(self, handoff):
        handoff(True)

        def cut(rows, align):
            parts = []
            autograd._in_halves(rows, align, 1, parts.append)
            return 0 if len(parts) == 1 else min(part.stop for part in parts)

        G = autograd.SPLIT_ROWS
        assert [cut(rows, G) for rows in (95, 150, 217, 400, 401, 600)] == [0, 96, 96, 192, 192, 288]
        # cross-entropy's blocks, and the SGD update's two halves
        assert [cut(rows, 13) for rows in (12, 20, 39, 400)] == [0, 13, 26, 195]
        assert [cut(rows, 1) for rows in (1, 2, 3)] == [0, 1, 2]
