"""A stack's forward as a wavefront on the worker thread gives the inline path's bits.

Where `autograd._forward_plan` answers "wavefront", `models._forward` hands
the upper layers' step t to the worker thread while the caller runs the
first layer's step t+1. Each layer still runs its own steps in order on
its own state, trace and dropout masks, so every output keeps its bits.
These tests force every handoff on or off through the `handoff` fixture,
which leaves the plan's check of the step functions in force, and pin
BLAS at one thread per call, where the wavefront runs. When it runs
unforced is tested in tests/test_forward_plan.py.
"""

import copy
import time

import pytest

from rau import cells
from rau.autograd import backward
from rau.cells import iter_tensors
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, cross_entropy, dropout_mask, lm_forward
from rau.train import evaluate_classifier, evaluate_lm, make_optimizer, train_epoch_classifier, train_epoch_lm

KINDS = ("rau", "gru", "lstm")
B, T, N, V = 5, 7, 6, 37
STACKS = pytest.mark.parametrize("layers", [2, 3], ids=["2layers", "3layers"])
DROPOUT = pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no_dropout", "dropout"])


def _lm(kind, layers, dropout=0.0, seed=1):
    return build_language_model(kind, V, N, layers, 0.5, Rng(seed), dropout=dropout)


def _tokens(seed, shape=(B, T)):
    return Rng(seed).integers(V, size=shape)


def _states(prefix, states):
    out = {}
    for l, s in enumerate(states):
        out[f"{prefix}.h{l}"], out[f"{prefix}.c{l}"] = s.h, s.c
    return out


def _tape(tape):
    """Every trace field of every layer, the dropout masks and the head input of a tape."""
    out = {"head_in": tape.head_in}
    for l, trace in enumerate(tape.traces):
        out.update({f"trace{l}.{name}": buf for name, buf in vars(trace).items()})
    if tape.in_masks is not None:
        out.update({f"in_mask{l}": mask for l, mask in enumerate(tape.in_masks)})
        out["out_mask"] = tape.out_masks
    return out


@pytest.mark.usefixtures("one_blas_thread")
class TestSameBits:
    @DROPOUT
    @STACKS
    @pytest.mark.parametrize("kind", KINDS)
    def test_lm_forward(self, kind, layers, dropout, same_bits, jobs):
        mdl, tokens = _lm(kind, layers, dropout), _tokens(2)
        # a carried-in state, as the next window of a stream starts from
        start = lm_forward(mdl, _tokens(3), train_mode=False)[1]

        def run():
            train_logits, train_states, tape = lm_forward(mdl, tokens, start, train_mode=True, rng=Rng(4))
            eval_logits, eval_states, _ = lm_forward(mdl, tokens, start)
            return {"train": train_logits, "eval": eval_logits, **_states("train", train_states),
                    **_states("eval", eval_states), **_tape(tape)}

        same_bits(run)
        # the upper layers' steps 0 .. T-2 go to the worker, in the train pass and in the eval pass
        assert jobs == ["_steps"] * (2 * (T - 1))

    @DROPOUT
    @STACKS
    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients(self, kind, layers, dropout, same_bits):
        mdl, tokens, targets = _lm(kind, layers, dropout), _tokens(5), _tokens(6, (T * B,))

        def run():
            logits, _, tape = lm_forward(mdl, tokens, train_mode=True, rng=Rng(7))
            _, dlogits = cross_entropy(logits.reshape(T * B, -1), targets)
            return backward(tape, dlogits.reshape(logits.shape))

        same_bits(run)

    @STACKS
    @pytest.mark.parametrize("kind", KINDS)
    def test_lm_trained_two_sgd_windows_then_evaluated(self, kind, layers, same_bits, jobs):
        start = _lm(kind, layers, 0.3, seed=8)
        stream = _tokens(9, (B * (2 * T + 1),))

        def run():
            mdl = copy.deepcopy(start)
            # the state carries from the first window into the second
            record, steps = train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 0.5), Rng(10), B, T, 1, 10)
            assert steps == 2
            loss, ppl = evaluate_lm(mdl, stream, B, T)
            return {**dict(iter_tensors(mdl)), "train": record.loss, "eval": loss, "ppl": ppl}

        same_bits(run)
        # two train windows, then two eval windows; the train windows hand the head's gradients and the SGD
        # update's halves over too
        assert [name for name in jobs if name == "_steps"] == ["_steps"] * (4 * (T - 1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_classifier_trained_two_adam_steps_then_evaluated(self, kind, same_bits):
        start = build_classifier(kind, 3, N, 2, 4, 0.5, Rng(11), dropout=0.2)
        xs, ys = Rng(12).uniform(-1.0, 1.0, (2 * B, T, 3)), Rng(13).integers(4, size=2 * B)

        def run():
            mdl = copy.deepcopy(start)
            record, steps = train_epoch_classifier(mdl, xs, ys, make_optimizer("adam", mdl, 0.01), Rng(14), B, 1, 14)
            assert steps == 2
            loss, acc = evaluate_classifier(mdl, xs, ys, B)
            return {**dict(iter_tensors(mdl)), "train": record.loss, "eval": loss, "acc": acc}

        same_bits(run)

    @STACKS
    def test_dropout_draws_stay_step_major_then_layer(self, layers, handoff):
        handoff(True)
        _, _, tape = lm_forward(_lm("rau", layers, 0.3), _tokens(15), train_mode=True, rng=Rng(16))
        rng = Rng(16)
        for t in range(T):
            for l in range(layers):
                assert tape.in_masks[l][t].tobytes() == dropout_mask(rng, (B, N), 0.3).tobytes(), (t, l)
        assert tape.out_masks.tobytes() == dropout_mask(rng, (T, B, N), 0.3).tobytes()


@pytest.mark.usefixtures("one_blas_thread")
class TestFailures:
    @staticmethod
    def _failing_steps(monkeypatch, kind, fail, slow):
        """The kind's step raises at fail's (params, call) and sleeps in slow's params; returns the real step."""
        k = cells._KINDS[kind]
        calls = {}

        def step(p, *args):
            calls[id(p)] = calls.get(id(p), 0) + 1
            if p is fail[0] and calls[id(p)] == fail[1]:
                raise RuntimeError("step failed")
            if p is slow:
                time.sleep(0.01)
            return k.step(p, *args)

        monkeypatch.setitem(cells._KINDS, kind, k._replace(step=step))
        return k

    @pytest.mark.parametrize("side", ["worker", "caller"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_raising_step_surfaces_and_nothing_is_pending(self, kind, side, monkeypatch, handoff, queued):
        handoff(True)
        mdl, tokens = _lm(kind, 2, 0.3), _tokens(17)
        want = lm_forward(mdl, tokens, train_mode=True, rng=Rng(18))[0]
        queued.clear()
        lower, upper = mdl.cells
        # the failing side raises at its fourth step while the other side's step is still running
        fail, slow = ((upper, 4), lower) if side == "worker" else ((lower, 4), upper)
        k = self._failing_steps(monkeypatch, kind, fail, slow)
        with pytest.raises(RuntimeError, match="step failed"):
            lm_forward(mdl, tokens, train_mode=True, rng=Rng(18))
        assert queued and all(job.done() for job in queued)
        # the worker keeps serving: the next forward gives the inline bits
        monkeypatch.setitem(cells._KINDS, kind, k)
        assert lm_forward(mdl, tokens, train_mode=True, rng=Rng(18))[0].tobytes() == want.tobytes()

