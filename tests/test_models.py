"""Classifier and language-model heads: forwards, losses, dropout, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from rau import cells
from rau.autograd import backward, fd_gradient
from rau.linalg import ContractError, Rng, softmax
from rau.models import (
    CheckpointError,
    DropoutSpec,
    build_classifier,
    build_language_model,
    classify_forward,
    cross_entropy,
    dropout_mask,
    lm_forward,
    load_checkpoint,
    perplexity,
    save_checkpoint,
)

# relative-error floor reflects fd roundoff on near-zero components of
# cross-entropy losses; analytic values are exact (see cell-level checks)
FD_EPS = 1e-4
FD_FLOOR = 1e-6
FD_TOL = 1e-5


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        if a.size == 0:
            continue
        rel = np.abs(a - b) / np.maximum(FD_FLOOR, np.abs(a) + np.abs(b))
        worst = max(worst, float(rel.max()))
    return worst


class TestClassifyForward:
    def test_zero_params_uniform_probabilities(self):
        mdl = build_classifier("rau", 3, 4, 1, 5, 0.0, Rng(0))
        logits, _ = classify_forward(mdl, np.zeros((6, 3)))
        assert np.array_equal(logits, np.zeros(5))
        assert np.allclose(softmax(logits), 0.2, atol=1e-15)

    def test_single_step_is_cell_plus_affine(self):
        rng = Rng(3)
        mdl = build_classifier("gru", 3, 4, 1, 2, 0.5, rng)
        x = rng.uniform(-1, 1, 3)
        logits, _ = classify_forward(mdl, x[None, :])
        state, _ = cells.step("gru", mdl.cells[0], x, cells.zero_state("gru", 4))
        manual = mdl.w_out @ state.h + mdl.b_out
        assert np.allclose(logits, manual, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_eval_memory_grows_by_at_most_two_states_per_step(self, kind):
        # an eval pass keeps only the top hidden state of each step, not the
        # gate arrays of its StepTraces (6-11 states' worth per step)
        B, n = 16, 32
        mdl = build_classifier(kind, 3, n, 1, 5, 0.5, Rng(0))
        peaks = []
        for T in (8, 64):
            xs = Rng(1).uniform(-1, 1, (B, T, 3))
            tracemalloc.start()
            try:
                classify_forward(mdl, xs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2 * (64 - 8) * B * n * 8

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_eval_logits_equal_train_mode_logits_without_dropout(self, kind):
        rng = Rng(8)
        mdl = build_classifier(kind, 3, 4, 2, 5, 0.5, rng)
        xs = rng.uniform(-1, 1, (3, 6, 3))
        eval_logits, tape = classify_forward(mdl, xs)
        train_logits, _ = classify_forward(mdl, xs, train_mode=True, rng=Rng(1))
        assert tape is None
        assert eval_logits.tobytes() == train_logits.tobytes()

    def test_empty_sequence_rejected(self):
        mdl = build_classifier("gru", 3, 4, 1, 2, 0.1, Rng(0))
        with pytest.raises(ContractError):
            classify_forward(mdl, np.zeros((0, 3)))

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_cross_entropy_gradient_passes_fd(self, kind):
        rng = Rng(5)
        mdl = build_classifier(kind, 3, 4, 2, 5, 0.5, rng)
        xs = rng.uniform(-1, 1, (2, 6, 3))
        ys = np.array([1, 3])

        def loss_fn(m):
            lg, _ = classify_forward(m, xs)
            return cross_entropy(lg, ys)[0]

        logits, tape = classify_forward(mdl, xs, train_mode=True, rng=Rng(1))
        loss, dlog = cross_entropy(logits, ys)
        assert _max_rel_err(backward(tape, dlog), fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL

    def test_embedding_classifier_gradient_passes_fd(self):
        rng = Rng(6)
        mdl = build_classifier("gru", None, 4, 1, 3, 0.5, rng, vocab=6, emb_dim=3)
        toks = rng.integers(6, size=(2, 5))
        ys = np.array([0, 2])

        def loss_fn(m):
            lg, _ = classify_forward(m, toks)
            return cross_entropy(lg, ys)[0]

        logits, tape = classify_forward(mdl, toks, train_mode=True, rng=Rng(1))
        loss, dlog = cross_entropy(logits, ys)
        assert _max_rel_err(backward(tape, dlog), fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL

    def test_dropout_gradient_passes_fd_with_fixed_masks(self):
        rng = Rng(7)
        mdl = build_classifier("gru", 3, 4, 1, 3, 0.5, rng, dropout=0.5)
        xs = rng.uniform(-1, 1, (2, 4, 3))
        ys = np.array([1, 2])

        def loss_fn(m):
            lg, _ = classify_forward(m, xs, train_mode=True, rng=Rng(42))
            return cross_entropy(lg, ys)[0]

        logits, tape = classify_forward(mdl, xs, train_mode=True, rng=Rng(42))
        loss, dlog = cross_entropy(logits, ys)
        assert _max_rel_err(backward(tape, dlog), fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL

    def test_single_sequence_gradient_passes_fd(self):
        rng = Rng(19)
        mdl = build_classifier("rau", 3, 4, 1, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (5, 3))

        def loss_fn(m):
            lg, _ = classify_forward(m, xs)
            return cross_entropy(lg, 2)[0]

        logits, tape = classify_forward(mdl, xs, train_mode=True, rng=Rng(1))
        loss, dlog = cross_entropy(logits, 2)
        assert _max_rel_err(backward(tape, dlog), fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL


class TestLmForward:
    def test_zero_params_uniform_next_token_loss(self):
        mdl = build_language_model("rau", 2, 3, 1, 0.0, Rng(0))
        toks = np.array([0, 1, 0])
        logits, states, _ = lm_forward(mdl, toks)
        assert logits.shape == (3, 2)
        loss, _ = cross_entropy(logits, np.array([1, 0, 1]))
        assert abs(loss - np.log(2)) <= 1e-12

    def test_single_token(self):
        mdl = build_language_model("gru", 5, 3, 1, 0.3, Rng(1))
        logits, states, _ = lm_forward(mdl, np.array([2]))
        assert logits.shape == (1, 5)
        assert states[0].h.shape == (1, 3)

    def test_out_of_range_token_rejected(self):
        mdl = build_language_model("gru", 5, 3, 1, 0.3, Rng(1))
        with pytest.raises(ContractError):
            lm_forward(mdl, np.array([5]))

    def test_two_layer_rau_gradient_passes_fd(self):
        rng = Rng(8)
        mdl = build_language_model("rau", 6, 3, 2, 0.5, rng)
        toks = rng.integers(6, size=(2, 4))
        targs = rng.integers(6, size=(2, 4))

        def loss_fn(m):
            lg, _, _ = lm_forward(m, toks)
            T, B, V = lg.shape
            return cross_entropy(lg.reshape(T * B, V), np.ascontiguousarray(targs.T).reshape(-1))[0]

        lg, _, tape = lm_forward(mdl, toks, train_mode=True, rng=Rng(2))
        T, B, V = lg.shape
        loss, dflat = cross_entropy(lg.reshape(T * B, V), np.ascontiguousarray(targs.T).reshape(-1))
        analytic = backward(tape, dflat.reshape(T, B, V))
        assert _max_rel_err(analytic, fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL

    def test_state_carry_matches_single_window(self):
        rng = Rng(9)
        mdl = build_language_model("rau", 7, 4, 2, 0.4, rng)
        toks = rng.integers(7, size=(3, 8))
        full, _, _ = lm_forward(mdl, toks)
        first, states, _ = lm_forward(mdl, toks[:, :4])
        second, _, _ = lm_forward(mdl, toks[:, 4:], h_init=states)
        stitched = np.concatenate([first, second], axis=0)
        assert np.allclose(full, stitched, atol=1e-12, rtol=0)

    def test_single_sequence_gradient_passes_fd(self):
        rng = Rng(20)
        mdl = build_language_model("gru", 5, 3, 1, 0.5, rng)
        toks = rng.integers(5, size=4)
        targs = rng.integers(5, size=4)

        def loss_fn(m):
            lg, _, _ = lm_forward(m, toks)
            return cross_entropy(lg, targs)[0]

        lg, _, tape = lm_forward(mdl, toks, train_mode=True, rng=Rng(3))
        loss, dlog = cross_entropy(lg, targs)
        analytic = backward(tape, dlog)
        assert _max_rel_err(analytic, fd_gradient(loss_fn, mdl, FD_EPS)) <= FD_TOL


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        loss, _ = cross_entropy(np.zeros(7), 3)
        assert abs(loss - np.log(7)) <= 1e-15

    def test_confident_correct_near_zero(self):
        logits = np.zeros(4)
        logits[2] = 1000.0
        loss, _ = cross_entropy(logits, 2)
        assert 0.0 <= loss <= 1e-12

    def test_dlogits_is_probs_minus_onehot(self):
        rng = Rng(10)
        logits = rng.uniform(-3, 3, 6)
        loss, dlog = cross_entropy(logits, 4)
        expect = softmax(logits)
        expect[4] -= 1.0
        assert np.allclose(dlog, expect, atol=1e-12, rtol=0)

    def test_dlogits_matches_fd(self):
        rng = Rng(11)
        logits = rng.uniform(-2, 2, 5)
        _, dlog = cross_entropy(logits, 1)
        eps = 1e-6
        for j in range(5):
            lp, lm = logits.copy(), logits.copy()
            lp[j] += eps
            lm[j] -= eps
            fd = (cross_entropy(lp, 1)[0] - cross_entropy(lm, 1)[0]) / (2 * eps)
            assert abs(fd - dlog[j]) <= 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(np.zeros(3), 3)

    @pytest.mark.parametrize("shape", [(7,), (40, 300)])
    def test_matches_two_exp_formula(self, shape):
        rng = Rng(12)
        logits = rng.uniform(-4, 4, shape)
        lg = np.atleast_2d(logits)
        targets = rng.integers(lg.shape[1], size=lg.shape[0])
        # reference: log-sum-exp for the loss, a second exp for the probabilities
        mx = lg.max(axis=1, keepdims=True)
        lse = mx + np.log(np.sum(np.exp(lg - mx), axis=1, keepdims=True))
        want_loss = float(np.mean(lse[:, 0] - lg[np.arange(lg.shape[0]), targets]))
        want = np.exp(lg - lse)
        want[np.arange(lg.shape[0]), targets] -= 1.0
        want /= lg.shape[0]
        single = len(shape) == 1
        loss, dlog = cross_entropy(logits, targets[0] if single else targets)
        np.testing.assert_allclose(loss, want_loss, rtol=1e-14, atol=0)
        np.testing.assert_allclose(dlog, want[0] if single else want, rtol=1e-14, atol=0)


class TestPerplexity:
    def test_uniform_model_branch_factor(self):
        n = 1234
        assert abs(perplexity(n * np.log(10000.0), n) - 10000.0) <= 1e-9

    def test_perfect_model(self):
        assert perplexity(0.0, 50) == 1.0

    def test_requires_tokens(self):
        with pytest.raises(ContractError):
            perplexity(1.0, 0)


class TestDropout:
    def test_rate_zero_is_identity(self):
        rng = Rng(12)
        mdl = build_classifier("gru", 3, 4, 1, 2, 0.5, rng, dropout=0.0)
        xs = rng.uniform(-1, 1, (4, 3))
        train_logits, _ = classify_forward(mdl, xs, train_mode=True, rng=Rng(0))
        eval_logits, _ = classify_forward(mdl, xs, train_mode=False)
        assert np.array_equal(train_logits, eval_logits)

    def test_eval_mode_ignores_dropout(self):
        rng = Rng(13)
        mdl = build_classifier("gru", 3, 4, 1, 2, 0.5, rng, dropout=0.5)
        xs = rng.uniform(-1, 1, (4, 3))
        a, _ = classify_forward(mdl, xs, train_mode=False)
        b, _ = classify_forward(mdl, xs, train_mode=False)
        assert np.array_equal(a, b)

    def test_inverted_scaling_preserves_expectation(self):
        rng = Rng(14)
        value = 0.8
        samples = dropout_mask(rng, 100_000, 0.5) * value
        assert abs(samples.mean() - value) <= 0.01 * value

    def test_invalid_rate_rejected(self):
        with pytest.raises(ContractError):
            DropoutSpec(rate=1.0)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = Rng(15)
        mdl = build_classifier("rau", 3, 4, 2, 5, 0.5, rng, dropout=0.25)
        path = tmp_path / "model.bin"
        save_checkpoint(path, mdl, {"seed": 7, "task": "synthetic"})
        loaded, cfg = load_checkpoint(path)
        assert cfg == {"seed": 7, "task": "synthetic"}
        assert loaded.cell_kind == "rau"
        assert loaded.dropout.rate == 0.25
        for (name_a, a), (name_b, b) in zip(cells.iter_tensors(mdl), cells.iter_tensors(loaded)):
            assert name_a == name_b
            assert np.array_equal(a, b)

    def test_lm_roundtrip(self, tmp_path):
        mdl = build_language_model("lstm", 9, 4, 2, 0.3, Rng(16))
        path = tmp_path / "lm.bin"
        save_checkpoint(path, mdl, {})
        loaded, _ = load_checkpoint(path)
        for (_, a), (_, b) in zip(cells.iter_tensors(mdl), cells.iter_tensors(loaded)):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        mdl = build_classifier("gru", 2, 3, 1, 2, 0.1, Rng(17))
        path = tmp_path / "model.bin"
        save_checkpoint(path, mdl, {})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
