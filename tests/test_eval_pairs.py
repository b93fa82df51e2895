"""A classifier's eval that scores two batches at once gives the one-at-a-time bits.

Where `autograd._eval_pairs` says so, `train.evaluate_classifier` hands the
second batch of each pair to the worker thread (`train._score`) while the
caller scores the first. Both forwards record into eval traces the caller
allocated and hand nothing on; a last odd batch runs alone, under its own
forward plan. Each batch's loss and count are added in batch order, so the
loss and the accuracy keep their bits. The same-bits tests force every
handoff on or off through the `handoff` fixture where rau pinned BLAS at one
thread per call; the others keep the library's floors on the host the `host`
fixture describes.
"""

import threading

import numpy as np
import pytest

from rau import autograd, cells, linalg, models, train
from rau.cells import init_cell
from rau.linalg import NumericError, Rng
from rau.models import build_classifier
from rau.train import evaluate_classifier

from conftest import pinned_blas

KINDS = ("rau", "gru", "lstm")
B, T, M, N, C = 4, 5, 3, 6, 4
# the row-MNIST shape at `rau eval`'s batch: one GRU step is 2 * 256 * 156 * 384 = 30.7 MFLOP
ROWS = dict(m=28, n=128, batch=256)


def _data(seed, count, m=M, steps=T):
    return Rng(seed).uniform(-1.0, 1.0, (count, steps, m)), Rng(seed + 1).integers(C, size=count)


def _bits(result):
    loss, accuracy = result
    return np.float64(loss).tobytes(), np.float64(accuracy).tobytes()


def _stack(kind, widths):
    rng = Rng(19)
    return [init_cell(kind, m, n, 0.1, rng) for m, n in zip(widths, widths[1:])]


@pinned_blas
class TestSameBits:
    # (items, pairs): five full batches, two pairs and one alone; four batches, the last short and paired;
    # five batches, the last short and alone
    COUNTS = pytest.mark.parametrize("count,pairs", [(5 * B, 2), (4 * B - 1, 2), (5 * B - 2, 2)],
                                     ids=["odd_full", "even_short_paired", "odd_short_alone"])

    @COUNTS
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_paired_against_inline(self, kind, layers, count, pairs, handoff, jobs):
        mdl = build_classifier(kind, M, N, layers, C, 0.5, Rng(1), dropout=0.3)
        xs, ys = _data(2, count)
        handoff(False)
        inline = evaluate_classifier(mdl, xs, ys, B)
        assert jobs == []
        handoff(True)
        paired = evaluate_classifier(mdl, xs, ys, B)
        assert _bits(paired) == _bits(inline)
        assert repr(paired) == repr(inline)
        # each pair's second batch goes to the worker; the last batch alone may hand over its own plan's pieces
        assert jobs[:pairs] == ["_score"] * pairs and "_score" not in jobs[pairs:]

    def test_the_rows_shape_through_the_library_policy(self, host, jobs):
        # three batches of 256: one pair, then a batch alone whose forward hands over its attention branches
        mdl = build_classifier("rau", ROWS["m"], ROWS["n"], 1, 10, 0.1, Rng(3))
        xs, ys = _data(4, 3 * ROWS["batch"], ROWS["m"], 3)
        host["cpus"] = {0}
        inline = evaluate_classifier(mdl, xs, ys, ROWS["batch"])
        assert jobs == []
        host["cpus"] = {0, 1}
        assert _bits(evaluate_classifier(mdl, xs, ys, ROWS["batch"])) == _bits(inline)
        # neither paired forward hands the worker an attention branch: it would queue behind the other batch
        assert jobs == ["_score"] + ["_attend"] * 3


class TestWhenItRuns:
    @pytest.fixture
    def unasked(self, monkeypatch):
        """A host that fails the test if the policy asks it anything, at the pinned BLAS thread count, which
        the policy checks before it asks."""
        def unasked(*args):
            raise AssertionError("the policy asked the host")

        monkeypatch.setattr(linalg, "BLAS_THREADS", 1)
        monkeypatch.setattr(autograd.os, "sched_getaffinity", unasked)

    @pytest.mark.parametrize("kind", KINDS)
    def test_on_at_the_rows_shape(self, kind, host):
        assert autograd._eval_pairs(_stack(kind, (ROWS["m"], ROWS["n"])), ROWS["batch"], 2)

    def test_a_step_counts_every_layer(self, host):
        # one GRU layer of n=64 at m=8 and B=128 steps 3.5 MFLOP, where pairs ran 0.95x as fast; two, 9.8 MFLOP
        assert not autograd._eval_pairs(_stack("gru", (8, 64)), 128, 2)
        assert autograd._eval_pairs(_stack("gru", (8, 64, 64)), 128, 2)

    def test_off_at_batch_one_with_no_system_call(self, unasked):
        assert not autograd._eval_pairs(_stack("rau", (ROWS["m"], ROWS["n"])), 1, 8)
        mdl = build_classifier("rau", M, N, 1, C, 0.5, Rng(5))
        evaluate_classifier(mdl, *_data(6, 8), 1)

    def test_off_for_one_batch_with_no_system_call(self, unasked):
        assert not autograd._eval_pairs(_stack("gru", (ROWS["m"], ROWS["n"])), ROWS["batch"], 1)

    def test_off_on_one_cpu(self, host):
        host["cpus"] = {0}
        assert not autograd._eval_pairs(_stack("gru", (ROWS["m"], ROWS["n"])), ROWS["batch"], 2)

    @pytest.mark.parametrize("module,name", [(cells, "step"), (cells, "sigmoid"), (cells, "tanh"),
                                             (cells, "softmax"), (train, "classify_forward"),
                                             (train, "cross_entropy")])
    def test_off_while_a_traced_name_is_wrapped(self, module, name, host, monkeypatch, jobs):
        # a tracer's wrapper would open its spans on the worker thread
        own = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: own(*args, **kwargs))
        assert not autograd._eval_pairs(_stack("gru", (ROWS["m"], ROWS["n"])), ROWS["batch"], 2)
        mdl = build_classifier("gru", ROWS["m"], ROWS["n"], 1, 10, 0.1, Rng(7))
        evaluate_classifier(mdl, *_data(8, 2 * ROWS["batch"], ROWS["m"], 2), ROWS["batch"])
        assert jobs == []


class TestNoDeadlock:
    """A forward on the worker never waits on the worker, whose one thread would then wait on itself."""

    @pytest.mark.parametrize("kind,widths,batch,classes,plan", [
        pytest.param("rau", (ROWS["m"], ROWS["n"]), ROWS["batch"], C, "branch", id="rau_branch"),
        pytest.param("lstm", (ROWS["m"], ROWS["n"]), ROWS["batch"], C, "branch", id="lstm_branch"),
        pytest.param("rau", (200, 200, 200), 20, C, "wavefront", id="wavefront"),
        # a head of 1000 classes: a row half of its GEMM, 41 MFLOP at B=256, qualifies for the worker
        pytest.param("gru", (ROWS["m"], ROWS["n"]), ROWS["batch"], 1000, None, id="head_half"),
    ])
    def test_a_paired_eval_completes_where_a_lone_forward_would_hand_work_on(self, kind, widths, batch, classes,
                                                                                 plan, host, jobs):
        stack = _stack(kind, widths)
        assert autograd._forward_plan(stack, batch) == plan and autograd._eval_pairs(stack, batch, 2)
        mdl = models.SequenceModel(stack, np.zeros((classes, widths[-1])), np.zeros(classes))
        xs, ys = _data(9, 2 * batch, widths[0], 3)
        done = []
        runner = threading.Thread(target=lambda: done.append(evaluate_classifier(mdl, xs, ys, batch)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert done, "the paired eval did not finish"
        # the caller's head hands its half over too, after the worker's batch
        assert jobs == ["_score"] + ["_gemm_rows"] * (classes > C)

    def test_a_handoff_asked_on_the_worker_runs_inline(self):
        order = []

        def asks():
            out = autograd._beside(lambda: order.append("job"), True, lambda: order.append("fn"))
            return threading.current_thread().name, out

        name, _ = autograd._submit(asks).result(timeout=60)
        assert name.startswith("rau-worker") and order == ["job", "fn"]


@pinned_blas
class TestFailures:
    @pytest.mark.parametrize("side,bad", [("caller", 0), ("worker", 1)])
    def test_a_numeric_error_on_either_side_surfaces_and_nothing_is_pending(self, side, bad, handoff, queued):
        handoff(True)
        mdl = build_classifier("gru", M, N, 1, C, 0.5, Rng(10))
        xs, ys = _data(11, 2 * B)
        want = evaluate_classifier(mdl, xs, ys, B)
        queued.clear()
        broken = xs.copy()
        broken[bad * B] = np.inf  # a non-finite gate pre-activation in one batch: the sigmoid raises
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="sigmoid"):
            evaluate_classifier(mdl, broken, ys, B)
        assert len(queued) == 1 and queued[0].done()
        assert (queued[0].exception() is not None) == (side == "worker")
        # the worker keeps serving: the next eval gives the same bits
        assert _bits(evaluate_classifier(mdl, xs, ys, B)) == _bits(want)
