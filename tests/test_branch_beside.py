"""A step's branch on the worker thread gives the inline path's bits, for RAU and LSTM.

Where `autograd._forward_plan` answers "branch", each step writes xh,
then hands its kind's branch to the worker thread while the caller runs
the rest of the step. A RAU hands over its attention branch
(`cells._attend`: the w_a affine, the softmax into u, v = u*xh, the w_u
affine and tanh into ha) and runs its GRU branch (`cells._gru_gates`); an
LSTM hands over its f and i gates (`cells._forget_input`) and runs its o
and g gates (`cells._output_candidate`). The caller mixes after the join.
Both sides only read xh and each writes its own trace fields, so every
output keeps its bits. These tests force every handoff on or off through
the `handoff` fixture, which leaves the plan's check of the step
functions in force, where rau pinned BLAS at one thread per call.
When it runs unforced is tested in tests/test_forward_plan.py.
"""

import copy

import numpy as np
import pytest

from rau import cells
from rau.autograd import backward
from rau.cells import gru_step, init_cell, iter_tensors, rau_step
from rau.linalg import NumericError, Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import (DivergenceError, evaluate_classifier, evaluate_lm, make_optimizer, train_epoch_classifier,
                       train_epoch_lm)

from conftest import pinned_blas

B, T, M, N, C, V = 5, 7, 3, 6, 4, 29
DROPOUT = pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no_dropout", "dropout"])
KIND = pytest.mark.parametrize("kind", ["rau", "lstm"])
# each kind's branch, which goes to the worker, and the rest of its step, which the caller runs
BRANCH = {"rau": "_attend", "lstm": "_forget_input"}
REST = {"rau": "_gru_gates", "lstm": "_output_candidate"}
# the row-MNIST shape: a branch of 2 * 128 * 156 * 284 = 11.3 MFLOP a step (RAU), 2 * 128 * 156 * 256 =
# 10.2 MFLOP (LSTM)
ROWS = dict(m=28, n=128, batch=128, steps=28)


def _tape(tape):
    """Every trace field, the dropout masks and the head input of a one-layer tape."""
    out = {"head_in": tape.head_in, **{f"trace.{name}": buf for name, buf in vars(tape.traces[0]).items()}}
    if tape.in_masks is not None:
        out.update(in_mask=tape.in_masks[0], out_mask=tape.out_masks)
    return out


def _features(seed, shape):
    return Rng(seed).uniform(-1.0, 1.0, shape)


@pinned_blas
class TestSameBits:
    @DROPOUT
    @KIND
    def test_classifier_forward_and_gradients(self, kind, dropout, same_bits, jobs):
        mdl, xs = build_classifier(kind, M, N, 1, C, 0.5, Rng(1), dropout=dropout), _features(2, (B, T, M))
        targets = Rng(3).integers(C, size=B)

        def run():
            logits, tape = classify_forward(mdl, xs, train_mode=True, rng=Rng(4))
            grads = backward(tape, cross_entropy(logits, targets)[1])
            return {"train": logits, "eval": classify_forward(mdl, xs)[0], **_tape(tape), **grads}

        same_bits(run)
        # every step's branch goes to the worker, in the train pass and in the eval pass; the backward
        # hands the head's gradients over too
        assert [name for name in jobs if name != "_head_grads"] == [BRANCH[kind]] * (2 * T)

    @DROPOUT
    @KIND
    def test_lm_forward_and_gradients(self, kind, dropout, same_bits, jobs):
        mdl = build_language_model(kind, V, N, 1, 0.5, Rng(5), dropout=dropout)
        tokens, targets = Rng(6).integers(V, size=(B, T)), Rng(7).integers(V, size=T * B)
        # a carried-in state, as the next window of a stream starts from
        start = lm_forward(mdl, Rng(8).integers(V, size=(B, T)))[1]

        def run():
            logits, states, tape = lm_forward(mdl, tokens, start, train_mode=True, rng=Rng(9))
            grads = backward(tape, cross_entropy(logits.reshape(T * B, -1), targets)[1].reshape(logits.shape))
            eval_logits, eval_states, _ = lm_forward(mdl, tokens, start)
            # an LSTM's states carry c too; a RAU's c is empty
            return {"train": logits, "h": states[0].h, "c": states[0].c, "eval": eval_logits,
                    "eval_h": eval_states[0].h, "eval_c": eval_states[0].c, **_tape(tape), **grads}

        same_bits(run)
        assert [name for name in jobs if name != "_head_grads"] == [BRANCH[kind]] * (2 * T)

    @KIND
    def test_classifier_trained_two_adam_steps_then_evaluated(self, kind, same_bits):
        start = build_classifier(kind, M, N, 1, C, 0.5, Rng(10), dropout=0.2)
        xs, ys = _features(11, (2 * B, T, M)), Rng(12).integers(C, size=2 * B)

        def run():
            mdl = copy.deepcopy(start)
            record, steps = train_epoch_classifier(mdl, xs, ys, make_optimizer("adam", mdl, 0.01), Rng(13), B, 1, 13)
            assert steps == 2
            loss, acc = evaluate_classifier(mdl, xs, ys, B)
            return {**dict(iter_tensors(mdl)), "train": record.loss, "eval": loss, "acc": acc}

        same_bits(run)

    @KIND
    def test_lm_trained_two_sgd_windows_then_evaluated(self, kind, same_bits):
        start = build_language_model(kind, V, N, 1, 0.5, Rng(14), dropout=0.3)
        stream = Rng(15).integers(V, size=B * (2 * T + 1))

        def run():
            mdl = copy.deepcopy(start)
            # the state carries from the first window into the second
            record, steps = train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 0.5), Rng(16), B, T, 1, 16)
            assert steps == 2
            loss, ppl = evaluate_lm(mdl, stream, B, T)
            return {**dict(iter_tensors(mdl)), "train": record.loss, "eval": loss, "ppl": ppl}

        same_bits(run)

    @KIND
    def test_the_rows_shape_through_the_library_policy(self, kind, host, jobs, same_bits):
        # the floors stay the library's; only the host is taken to have one CPU, then two
        mdl = build_classifier(kind, ROWS["m"], ROWS["n"], 1, 10, 0.1, Rng(17))
        xs = _features(18, (ROWS["batch"], ROWS["steps"], ROWS["m"]))
        targets = Rng(19).integers(10, size=ROWS["batch"])

        def run():
            logits, tape = classify_forward(mdl, xs, train_mode=True)
            return {"logits": logits, **_tape(tape), **backward(tape, cross_entropy(logits, targets)[1])}

        def cpus(on):
            assert not on or jobs == []  # the one-CPU run hands nothing over
            host["cpus"] = {0, 1} if on else {0}

        same_bits(run, cpus)
        # the backward's span flushes go to the worker too
        assert [name for name in jobs if name != "_flush"] == [BRANCH[kind]] * ROWS["steps"]

    def test_attended_override_stays_inline(self):
        p = init_cell("rau", M, N, 0.5, Rng(20))
        x, h = _features(21, (B, M)), _features(22, (B, N))

        def unasked(*args):
            raise AssertionError("the step handed work on")

        h_gru, tr = gru_step(p.gru, x, h)
        h_rau, _ = rau_step(p, x, h, attended_override=tr.hc, beside=unasked)
        assert h_rau.tobytes() == h_gru.tobytes()


@pinned_blas
class TestFailures:
    @pytest.mark.parametrize("kind,bias,op", [("rau", "b_a", "softmax"), ("lstm", "b_f", "sigmoid")])
    def test_a_numeric_error_on_the_worker_ends_the_train_loop_as_a_divergence(self, kind, bias, op, handoff,
                                                                                 queued):
        handoff(True)
        mdl = build_classifier(kind, M, N, 1, C, 0.5, Rng(23))
        # a non-finite attention score or forget gate pre-activation: only the worker's branch sees it
        getattr(mdl.cells[0], bias)[0] = np.inf
        before = {k: v.copy() for k, v in iter_tensors(mdl)}
        xs, ys = _features(24, (B, T, M)), Rng(25).integers(C, size=B)
        with pytest.raises(DivergenceError, match=op) as exc:
            train_epoch_classifier(mdl, xs, ys, make_optimizer("adam", mdl, 0.01), Rng(26), B, 1, 26)
        assert isinstance(exc.value.__cause__, NumericError)
        assert [type(job.exception()) for job in queued] == [NumericError]
        assert all(job.done() for job in queued)
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k]), k

    @pytest.mark.parametrize("on", [False, True], ids=["inline", "beside"])
    @pytest.mark.parametrize("biases,index", [(("b_o",), 42), (("b_f", "b_o"), 2), (("b_i", "b_g"), 22)],
                             ids=["o", "f_and_o", "i_and_g"])
    def test_an_lstm_gate_error_reads_as_the_inline_steps(self, biases, index, on, handoff, queued):
        # at B=5, n=4 the inline step checks f|i|o in one sigmoid, so o's entries count from 2 * 5 * 4 = 40, and an
        # f or i entry is met before an o or g one: the split step, which checks f|i on the worker, says the same
        handoff(on)
        mdl = build_classifier("lstm", M, 4, 1, C, 0.5, Rng(29))
        for name in biases:
            getattr(mdl.cells[0], name)[2] = np.inf
        with pytest.raises(NumericError) as exc:
            classify_forward(mdl, _features(30, (B, T, M)))
        assert (str(exc.value), exc.value.index) == (f"sigmoid: non-finite input at flat index {index}", index)
        assert len(queued) == on and all(job.done() for job in queued)

    @pytest.mark.parametrize("side", ["worker", "caller"])
    @KIND
    def test_a_raising_branch_surfaces_and_nothing_is_pending(self, kind, side, monkeypatch, handoff, queued):
        handoff(True)
        mdl, xs = build_classifier(kind, M, N, 1, C, 0.5, Rng(27)), _features(28, (B, T, M))
        want = classify_forward(mdl, xs)[0]
        queued.clear()
        name = BRANCH[kind] if side == "worker" else REST[kind]
        own, calls = getattr(cells, name), []

        def branch(*args):
            calls.append(None)
            if len(calls) == 4:
                raise RuntimeError("branch failed")
            return own(*args)

        monkeypatch.setattr(cells, name, branch)
        with pytest.raises(RuntimeError, match="branch failed"):
            classify_forward(mdl, xs)
        assert len(queued) == 4 and all(job.done() for job in queued)
        # the worker keeps serving: the next forward gives the inline bits
        monkeypatch.setattr(cells, name, own)
        assert classify_forward(mdl, xs)[0].tobytes() == want.tobytes()

