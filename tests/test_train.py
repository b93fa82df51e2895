"""Optimizers, schedules, and the training loops."""

import copy
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from rau.autograd import Grads, backward, clip_global_norm
from rau.cells import iter_tensors, new_trace
from rau.data import synthetic_memorization
from rau.linalg import ContractError, NumericError, Rng
from rau.models import build_classifier, classify_forward, cross_entropy
from rau.train import (
    LrSchedule,
    apply_update,
    evaluate_classifier,
    evaluate_lm,
    lr_at,
    make_optimizer,
    train_epoch_classifier,
    train_epoch_lm,
)

# synthetic-task preset (matches the CLI synthetic preset)
SYNTH = dict(hidden=64, lr=1e-2, batch=64, noise=0.25, scale=0.5, T=28, m=8, classes=4, count=5000)


def _tiny_model(seed=0, scale=0.5):
    return build_classifier("gru", 2, 3, 1, 2, scale, Rng(seed))


@dataclass
class P:
    theta: np.ndarray


def _theta_grads(p: P, theta) -> Grads:
    """Gradients laid out like p, holding theta."""
    g = Grads.zeros_like(p)
    g["theta"][...] = theta
    return g


class TestSgdStep:
    def test_zero_grad_unchanged(self):
        mdl = _tiny_model()
        before = {k: v.copy() for k, v in iter_tensors(mdl)}
        apply_update(make_optimizer("sgd", mdl, 0.1), mdl, Grads.zeros_like(mdl))
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k])

    def test_basic_update(self):
        p = P(theta=np.array([1.0]))
        apply_update(make_optimizer("sgd", p, 1.0), p, _theta_grads(p, [0.5]))
        assert p.theta[0] == 0.5

    def test_a_mapping_of_parameters_raises(self):
        # a mapping's tensors were skipped: the update left them as they were and raised nothing
        w = np.zeros(2)
        with pytest.raises(ContractError, match="mapping at its top"):
            apply_update(make_optimizer("sgd", {"w": w}, 0.1), {"w": w}, Grads.zeros_like([np.ones(2)]))
        with pytest.raises(ContractError, match="mapping at its top"):
            make_optimizer("adam", {"w": w}, 0.1)
        assert not w.any()

    def test_matches_scalar_loop(self):
        rng = Rng(1)
        mdl = _tiny_model()
        grads = Grads.zeros_like(mdl)  # laid out like the parameters, as apply_update requires
        for g in grads.values():
            g[...] = rng.uniform(-1, 1, g.shape)
        expect = {k: v.copy() - 0.3 * grads[k] for k, v in iter_tensors(mdl)}
        apply_update(make_optimizer("sgd", mdl, 0.3), mdl, grads)
        for k, v in iter_tensors(mdl):
            assert np.allclose(v, expect[k], atol=0, rtol=0)


class TestAdamStep:
    def test_zero_grad_unchanged_over_steps(self):
        mdl = _tiny_model()
        opt = make_optimizer("adam", mdl, 0.01)
        before = {k: v.copy() for k, v in iter_tensors(mdl)}
        for _ in range(5):
            apply_update(opt, mdl, Grads.zeros_like(mdl))
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k])

    def test_single_step_matches_hand_formula(self):
        p = P(theta=np.array([2.0, -1.0]))
        g = np.array([0.3, -0.7])
        opt = make_optimizer("adam", p, 0.1)
        apply_update(opt, p, _theta_grads(p, g))
        # zero state, first step: m_hat = g, v_hat = g^2
        expect = np.array([2.0, -1.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.theta, expect, atol=1e-15, rtol=0)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = P(theta=np.array([0.0]))
        opt = make_optimizer("adam", p, 0.05)
        prev = p.theta[0]
        for _ in range(100):
            apply_update(opt, p, _theta_grads(p, [2.5]))
            delta = abs(p.theta[0] - prev)
            prev = p.theta[0]
            assert abs(delta - 0.05) <= 1e-6 * 0.05


class TestStaleTape:
    """A tape replays its forward's parameters: after an update moves them, backward raises.

    Before, the old tape's backward gave the gradients of a mix of the old
    forward and the new weights, silently.
    """

    @staticmethod
    def _recorded(mdl):
        xs, ys = Rng(30).uniform(-1, 1, (4, 5, 2)), Rng(31).integers(2, size=4)
        logits, tape = classify_forward(mdl, xs, train_mode=True)
        return tape, cross_entropy(logits, ys)[1]

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_a_tape_recorded_before_an_update_raises(self, kind):
        mdl = _tiny_model()
        tape, dlogits = self._recorded(mdl)
        apply_update(make_optimizer(kind, mdl, 0.1), mdl, backward(tape, dlogits))
        with pytest.raises(ContractError, match="stale tape"):
            backward(tape, dlogits)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_a_tape_recorded_after_an_update_replays_it(self, kind):
        mdl = _tiny_model()
        opt = make_optimizer(kind, mdl, 0.1)
        apply_update(opt, mdl, backward(*self._recorded(mdl)))
        grads = backward(*self._recorded(mdl))
        # the gradients of a copy of the updated parameters
        for name, g in backward(*self._recorded(copy.deepcopy(mdl))).items():
            assert g.tobytes() == grads[name].tobytes(), name
        apply_update(opt, mdl, grads)


class TestLrSchedule:
    def test_before_decay_start(self):
        s = LrSchedule(1.0, 0.5, 5)
        assert lr_at(s, 1) == 1.0
        assert lr_at(s, 4) == 1.0

    def test_small_lm_preset_decay(self):
        s = LrSchedule(1.0, 0.5, 5)
        assert lr_at(s, 5) == 0.5
        assert lr_at(s, 6) == 0.25

    def test_factor_one_constant(self):
        s = LrSchedule(0.7, 1.0, 1)
        assert all(lr_at(s, e) == 0.7 for e in range(10))

    def test_invalid_factor(self):
        with pytest.raises(ContractError):
            LrSchedule(1.0, 0.0, 1)


class TestTrainEpochClassifier:
    def _data(self, rng, n=96):
        xs, ys = synthetic_memorization(rng, n, 6, 4, 3, 0.5)
        return xs, ys

    def test_zero_lr_leaves_params_unchanged(self):
        rng = Rng(3)
        xs, ys = self._data(rng)
        mdl = build_classifier("gru", 4, 5, 1, 3, 0.3, rng)
        before = {k: v.copy() for k, v in iter_tensors(mdl)}
        opt = make_optimizer("sgd", mdl, 0.0)
        train_epoch_classifier(mdl, xs, ys, opt, Rng(9), 32, 1, 9)
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k])

    def test_one_batch_matches_manual_composition(self):
        rng = Rng(4)
        xs, ys = self._data(rng, n=32)
        mdl_a = build_classifier("rau", 4, 5, 1, 3, 0.3, Rng(77))
        mdl_b = copy.deepcopy(mdl_a)

        opt_a = make_optimizer("adam", mdl_a, 0.01)
        rec, steps = train_epoch_classifier(mdl_a, xs, ys, opt_a, Rng(5), 32, 1, 5)
        assert steps == 1

        manual_rng = Rng(5)
        order = manual_rng.permutation(32)
        logits, tape = classify_forward(mdl_b, xs[order], train_mode=True, rng=manual_rng)
        loss, dlog = cross_entropy(logits, ys[order])
        grads = backward(tape, dlog)
        clip_global_norm(grads, 5.0)
        opt_b = make_optimizer("adam", mdl_b, 0.01)
        apply_update(opt_b, mdl_b, grads)
        for (k, a), (_, b) in zip(iter_tensors(mdl_a), iter_tensors(mdl_b)):
            assert np.array_equal(a, b), k
        assert rec.loss == loss

    def test_fixed_seed_reproducible_records(self):
        def run():
            rng = Rng(6)
            xs, ys = self._data(rng)
            mdl = build_classifier("gru", 4, 5, 1, 3, 0.3, Rng(8))
            opt = make_optimizer("adam", mdl, 0.01)
            recs = []
            for epoch in (1, 2):
                rec, _ = train_epoch_classifier(mdl, xs, ys, opt, rng, 32, epoch, 6)
                recs.append((rec.epoch, rec.step, rec.loss, rec.metric_value))
            return recs

        assert run() == run()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises(self):
        from rau.train import DivergenceError

        rng = Rng(7)
        xs, ys = self._data(rng)
        mdl = build_classifier("gru", 4, 5, 1, 3, 0.3, rng)
        mdl.w_out[:] = 1e308
        opt = make_optimizer("sgd", mdl, 1.0)
        with pytest.raises(DivergenceError):
            train_epoch_classifier(mdl, xs, ys, opt, Rng(1), 32, 1, 1)


class TestMemorizationLearning:
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_loss_drops_below_20_percent_within_200_steps(self, kind):
        cfg = SYNTH
        root = Rng(7)
        init_rng = root.split()
        data_rng = root.split()
        train_rng = root.split()
        xs, ys = synthetic_memorization(data_rng, cfg["count"], cfg["T"], cfg["m"],
                                        cfg["classes"], cfg["noise"])
        mdl = build_classifier(kind, cfg["m"], cfg["hidden"], 1, cfg["classes"], cfg["scale"], init_rng)
        opt = make_optimizer("adam", mdl, cfg["lr"])
        initial_loss, _ = evaluate_classifier(mdl, xs, ys)
        done, epoch = 0, 1
        while done < 200:
            _, steps = train_epoch_classifier(mdl, xs, ys, opt, train_rng, cfg["batch"],
                                              epoch, 7, max_steps=200, step_offset=done)
            done += steps
            epoch += 1
        final_loss, acc = evaluate_classifier(mdl, xs, ys)
        assert final_loss < 0.2 * initial_loss, (kind, initial_loss, final_loss, acc)


class TestStepMemory:
    def test_classifier_epoch_holds_one_step_tape_at_a_time(self):
        # the next forward's trace must not be allocated while the last step's tape is alive
        B, T, m, n = 32, 28, 8, 32
        xs, ys = synthetic_memorization(Rng(20), 3 * B, T, m, 4, 0.25)
        mdl = build_classifier("rau", m, n, 1, 4, 0.5, Rng(21))
        opt = make_optimizer("adam", mdl, 1e-3)
        block = new_trace(mdl.cells[0], T, (B,)).xh.base.nbytes
        tracemalloc.start()
        try:
            _, steps = train_epoch_classifier(mdl, xs, ys, opt, Rng(22), B, 1, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == 3
        assert peak < 2 * block


class TestTrainEpochLm:
    def test_lm_epoch_runs_and_eval_is_deterministic(self):
        rng = Rng(10)
        stream = rng.integers(50, size=2000)
        from rau.models import build_language_model

        mdl = build_language_model("gru", 50, 8, 1, 0.3, Rng(11))
        opt = make_optimizer("sgd", mdl, 0.5)
        rec, steps = train_epoch_lm(mdl, stream, opt, rng, batch_size=4, unroll=10, epoch=1, seed=10)
        assert steps == -(-(2000 // 4 - 1) // 10)  # the last window, 9 steps long, takes each row's tail
        assert rec.metric_name == "perplexity"
        a = evaluate_lm(mdl, stream, 4, 10)
        b = evaluate_lm(mdl, stream, 4, 10)
        assert a == b

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_a_short_window_weighs_each_target_as_a_full_window(self, kind):
        # rows of 5 tokens: one window of the row's 4 targets at unroll 4, or one short window of them at 8,
        # where each target weighs half as much, so SGD without clipping moves the weights half as far
        from rau.models import build_language_model

        stream = Rng(30).integers(9, size=15)
        moved = []
        for unroll in (4, 8):
            mdl = build_language_model(kind, 9, 5, 1, 0.3, Rng(31))
            before = {name: a.copy() for name, a in iter_tensors(mdl)}
            _, steps = train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 0.5), Rng(32), 3, unroll, 1, 0,
                                      clip_norm=1e9)
            assert steps == 1
            moved.append({name: a - before[name] for name, a in iter_tensors(mdl)})
        for name, full in moved[0].items():
            assert np.abs(full).max() > 0, name
            assert np.allclose(moved[1][name], full / 2, rtol=1e-9, atol=1e-15), name

    def test_training_reduces_lm_loss(self):
        rng = Rng(12)
        # highly predictable stream: repeated 0..9 pattern
        stream = np.tile(np.arange(10, dtype=np.int64), 200)
        from rau.models import build_language_model

        mdl = build_language_model("rau", 10, 16, 1, 0.3, Rng(13))
        opt = make_optimizer("adam", mdl, 3e-3)
        loss0, ppl0 = evaluate_lm(mdl, stream, 5, 10)
        for epoch in (1, 2, 3):
            train_epoch_lm(mdl, stream, opt, rng, 5, 10, epoch, 12)
        loss1, ppl1 = evaluate_lm(mdl, stream, 5, 10)
        assert ppl1 < 0.25 * ppl0


def _backward_with_bad_gradient(monkeypatch, name, value):
    """Make the training loops' backward return one non-finite gradient entry."""
    import rau.train

    real = rau.train.backward

    def bad_backward(tape, loss_grad):
        grads = real(tape, loss_grad)
        grads[name].reshape(-1)[0] = value
        return grads

    monkeypatch.setattr(rau.train, "backward", bad_backward)


class TestNonFiniteGradientsDiverge:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_classifier_loop(self, monkeypatch, bad):
        from rau.train import DivergenceError

        _backward_with_bad_gradient(monkeypatch, "cells.0.w_z", bad)
        xs, ys = synthetic_memorization(Rng(3), 64, 6, 4, 3, 0.5)
        mdl = build_classifier("gru", 4, 5, 1, 3, 0.3, Rng(4))
        before = {k: v.copy() for k, v in iter_tensors(mdl)}
        opt = make_optimizer("adam", mdl, 0.01)
        with pytest.raises(DivergenceError, match="cells.0.w_z") as exc:
            train_epoch_classifier(mdl, xs, ys, opt, Rng(5), 32, 1, 5)
        assert isinstance(exc.value.__cause__, NumericError)
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k]), k

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_lm_loop(self, monkeypatch, bad):
        from rau.models import build_language_model
        from rau.train import DivergenceError

        _backward_with_bad_gradient(monkeypatch, "embedding", bad)
        stream = Rng(6).integers(20, size=400)
        mdl = build_language_model("rau", 20, 6, 1, 0.3, Rng(7))
        opt = make_optimizer("sgd", mdl, 0.5)
        with pytest.raises(DivergenceError, match="embedding") as exc:
            train_epoch_lm(mdl, stream, opt, Rng(8), batch_size=4, unroll=5, epoch=1, seed=6)
        assert isinstance(exc.value.__cause__, NumericError)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_lm_gradient_norm_overflow(self, kind):
        # a finite loss whose gradients' squared norm overflows: a divergence, with no numpy warning on the way
        from rau.models import build_language_model
        from rau.train import DivergenceError

        mdl = build_language_model(kind, 20, 8, 2, 0.5, Rng(3))
        mdl.w_out[...] = np.random.default_rng(0).standard_normal(mdl.w_out.shape) * 1e306
        stream = Rng(5).integers(20, size=4 * (2 * 5 + 1))
        with pytest.raises(DivergenceError, match="gradient norm overflows"):
            train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 1.0), Rng(6), 4, 5, 1, 6)


class TestLoopArguments:
    """A loop given no step to take or a batch size below 1 raises ContractError before any work.

    Before, each of these divided by zero (no step taken) or failed in range() (batch size 0).
    """

    NO_STEP_LEFT = pytest.mark.parametrize("max_steps,step_offset", [(0, 0), (3, 3), (3, 5)],
                                           ids=["max_steps_0", "offset_at_max", "offset_past_max"])

    @staticmethod
    def _classifier():
        xs, ys = synthetic_memorization(Rng(3), 32, 6, 4, 3, 0.5)
        return build_classifier("rau", 4, 5, 1, 3, 0.3, Rng(4)), xs, ys

    @staticmethod
    def _untouched(mdl, rng, run, match=None):
        """run() raises ContractError, and leaves mdl's parameters and rng's stream as they were."""
        before, state = {k: v.copy() for k, v in iter_tensors(mdl)}, rng._state
        with pytest.raises(ContractError, match=match):
            run()
        assert rng._state == state
        for k, v in iter_tensors(mdl):
            assert np.array_equal(v, before[k]), k

    @NO_STEP_LEFT
    def test_classifier_epoch_with_no_step_left(self, max_steps, step_offset):
        mdl, xs, ys = self._classifier()
        rng, opt = Rng(5), make_optimizer("adam", mdl, 0.01)
        self._untouched(mdl, rng, lambda: train_epoch_classifier(mdl, xs, ys, opt, rng, 8, 1, 5,
                                                                 max_steps=max_steps, step_offset=step_offset))
        assert opt.step == 0

    @NO_STEP_LEFT
    def test_lm_epoch_with_no_step_left(self, max_steps, step_offset):
        from rau.models import build_language_model

        mdl, stream, rng = build_language_model("rau", 20, 6, 1, 0.3, Rng(7)), Rng(6).integers(20, size=400), Rng(8)
        opt = make_optimizer("sgd", mdl, 0.5)
        self._untouched(mdl, rng, lambda: train_epoch_lm(mdl, stream, opt, rng, 4, 5, 1, 6,
                                                         max_steps=max_steps, step_offset=step_offset))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_classifier_epoch_with_batch_size_below_one(self, batch_size):
        mdl, xs, ys = self._classifier()
        rng = Rng(5)
        self._untouched(mdl, rng, lambda: train_epoch_classifier(mdl, xs, ys, make_optimizer("sgd", mdl, 0.5), rng,
                                                                 batch_size, 1, 5))

    # 10 inputs for 8 labels used to drop the last 2 inputs; 6 for 8 raised an IndexError in the train loop
    # and a cross_entropy error about target shapes in the eval
    @pytest.mark.parametrize("inputs", [10, 6])
    def test_classifier_epoch_with_inputs_and_labels_of_two_lengths(self, inputs):
        mdl, xs, ys = self._classifier()
        rng, opt = Rng(5), make_optimizer("adam", mdl, 0.01)
        self._untouched(mdl, rng, lambda: train_epoch_classifier(mdl, xs[:inputs], ys[:8], opt, rng, 4, 1, 5),
                        f"{inputs} inputs for 8 labels")
        assert opt.step == 0

    @pytest.mark.parametrize("inputs", [10, 6])
    def test_classifier_eval_with_inputs_and_labels_of_two_lengths(self, inputs):
        mdl, xs, ys = self._classifier()
        with pytest.raises(ContractError, match=f"{inputs} inputs for 8 labels"):
            evaluate_classifier(mdl, xs[:inputs], ys[:8], 4)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_classifier_eval_with_batch_size_below_one(self, batch_size):
        mdl, xs, ys = self._classifier()
        with pytest.raises(ContractError, match="batch_size"):
            evaluate_classifier(mdl, xs, ys, batch_size)
