"""Classifier and language-model heads: forwards, losses, dropout, checkpoints."""

import hashlib
import json
import os
import struct
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rau import cells
from rau.autograd import backward, fd_gradient
from rau.linalg import ContractError, Rng, init_matrix, softmax
from rau import models
from rau.models import (
    CheckpointError,
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
from rau.train import evaluate_lm

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


class TestModelOfCells:
    """A model reads its cell kind off its cells: a stack of one kind, each cell a cell."""

    def test_a_directly_built_rau_model_runs_and_round_trips(self, tmp_path):
        # with a kind field beside the cells, this model took the default "gru": its forward raised and its
        # checkpoint recorded a GRU spec that its RAU tensors did not fit
        rng = Rng(60)
        mdl = models.SequenceModel([cells.init_cell("rau", 3, 4, 0.5, rng)], init_matrix(2, 4, 0.5, rng), np.zeros(2))
        xs = Rng(61).uniform(-1, 1, (2, 5, 3))
        logits = classify_forward(mdl, xs)[0]
        assert logits.tobytes() == classify_forward(build_classifier("rau", 3, 4, 1, 2, 0.5, Rng(60)), xs)[0].tobytes()
        save_checkpoint(tmp_path / "model.bin", mdl)
        loaded, _ = load_checkpoint(tmp_path / "model.bin")
        assert [p.kind for p in loaded.cells] == ["rau"]
        assert classify_forward(loaded, xs)[0].tobytes() == logits.tobytes()

    @pytest.mark.parametrize("stack, match", [
        ([], "one cell kind, got no cells"),
        ([cells.init_cell("rau", 3, 4, 0.5, Rng(0)), cells.init_cell("gru", 4, 4, 0.5, Rng(0))],
         r"one cell kind, got \['gru', 'rau'\]"),
        ([np.zeros((12, 8))], "expected a .*Params, got ndarray"),
        ([cells.init_cell("gru", 3, 4, 0.5, Rng(0)), cells.init_cell("gru", 5, 4, 0.5, Rng(0))],
         r"cells of \(input, hidden\) sizes \[\(3, 4\), \(5, 4\)\]; a stack takes \(3, 4\) then \(4, 4\)"),
    ], ids=["empty", "mixed", "not_a_cell", "unchained"])
    def test_a_stack_that_is_no_one_kind_raises(self, stack, match):
        with pytest.raises(ContractError, match=match):
            models.SequenceModel(stack, np.zeros((2, 4)), np.zeros(2))

    @pytest.mark.parametrize("w_out, b_out, embedding, match", [
        ((2, 5), (2,), None, r"the head weight is \(2, 5\) where the stack takes \(2, 4\)"),
        ((2, 4), (3,), None, r"the head bias is \(3,\) where the stack takes \(2,\)"),
        ((2, 4), (2,), (9, 4), r"the embedding is \(9, 4\) where the stack takes \(9, 3\)"),
    ], ids=["head_width", "head_bias", "embedding_width"])
    def test_a_part_that_does_not_fit_the_stack_raises(self, w_out, b_out, embedding, match):
        with pytest.raises(ContractError, match=match):
            models.SequenceModel([cells.init_cell("gru", 3, 4, 0.5, Rng(0))], np.zeros(w_out), np.zeros(b_out),
                                 None if embedding is None else np.zeros(embedding))

    def test_a_nan_init_scale_raises(self):
        with pytest.raises(ContractError, match="scale must be non-negative"):
            build_classifier("rau", 3, 4, 1, 2, float("nan"), Rng(0))


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
        state, _ = cells.step(mdl.cells[0], x, cells.zero_state(mdl.cells[0]))
        manual = mdl.w_out @ state.h + mdl.b_out
        assert np.allclose(logits, manual, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_eval_memory_grows_by_at_most_two_states_per_step(self, kind):
        # an eval pass keeps only the top hidden state of each step, not the
        # gate arrays of a train-mode trace (6-11 states' worth per step)
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
    def test_eval_memory_does_not_grow_with_the_steps_at_the_rows_shape(self, kind):
        # the "last" readout keeps one step's top state: keeping every step's, at T=28, would add
        # 27 * (256, 128) floats = 7.1 MB to the peak of a B=256 eval forward
        B, m, n = 256, 28, 128
        mdl = build_classifier(kind, m, n, 1, 10, 0.1, Rng(0))
        peaks = []
        for T in (1, 28):
            xs = Rng(1).uniform(-1, 1, (B, T, m))
            tracemalloc.start()
            try:
                classify_forward(mdl, xs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 27 * B * n * 8 - 6_000_000

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

    def test_empty_feature_batch_rejected(self):
        mdl = build_classifier("rau", 4, 5, 1, 3, 0.3, Rng(1))
        with pytest.raises(ContractError, match="classify_forward: empty batch"):
            classify_forward(mdl, np.zeros((0, 6, 4)))

    def test_empty_token_batch_rejected(self):
        mdl = build_classifier("gru", None, 5, 1, 3, 0.3, Rng(1), vocab=7, emb_dim=4)
        with pytest.raises(ContractError, match="classify_forward: empty batch"):
            classify_forward(mdl, np.zeros((0, 5), dtype=np.int64))

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


class TestTape:
    """The tape keeps one (T, B, width) array per trace field the backward reads, and nothing else."""

    FIELDS = {
        "gru": {"xh": "m+n", "rz": "2n", "hc": "n"},
        "rau": {"xh": "m+n", "rz": "2n", "hc": "n", "u": "m+n", "ha": "n"},
        "lstm": {"xh": "m+n", "fiog": "4n", "c_prev": "n"},
    }
    # one scratch row per shared field, which every step overwrites: its row axis has stride 0
    SHARED = {"gru": {"xrh": "m+n"}, "rau": {"xrh": "m+n", "v": "m+n"}, "lstm": {}}
    # per-gate views into the fused gate field, which the trace carries beside the fields
    VIEWS = {"gru": {"r": "rz", "z": "rz"}, "rau": {"r": "rz", "z": "rz"},
             "lstm": {"f": "fiog", "i": "fiog", "o": "fiog", "g": "fiog"}}

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_trace_fields_equal_the_kind_table(self, kind):
        B, T, n = 2, 6, 4
        mdl = build_classifier(kind, 3, n, 2, 5, 0.5, Rng(2), dropout=0.2)
        _, tape = classify_forward(mdl, Rng(3).uniform(-1, 1, (B, T, 3)), train_mode=True, rng=Rng(4))
        assert len(tape.traces) == 2
        for p, trace in zip(mdl.cells, tape.traces):
            # the fused gate field is gate-major: (T, gates, B, n)
            width = {"n": (n,), "2n": (2, B, n), "4n": (4, B, n), "m+n": (p.input_size + n,)}
            want = {name: (T, *width[w]) if w[0].isdigit() else (T, B, *width[w])
                    for name, w in self.FIELDS[kind].items()}
            want.update({name: (T, B, n) for name in self.VIEWS[kind]})
            want.update({name: (T, B, *width[w]) for name, w in self.SHARED[kind].items()})
            assert {name: a.shape for name, a in vars(trace).items()} == want
            for j, (name, fused) in enumerate(self.VIEWS[kind].items()):
                view, block = getattr(trace, name), getattr(trace, fused)
                assert view[0].flags.c_contiguous and view.ctypes.data == block.ctypes.data + 8 * j * B * n
            assert all(getattr(trace, name).strides[0] == 0 for name in self.SHARED[kind])
            assert "alpha" not in vars(trace)
        assert [mask.shape for mask in tape.in_masks] == [(T, B, p.input_size) for p in mdl.cells]

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_train_memory_grows_by_the_trace_fields_per_step(self, kind):
        # per step: B times the trace fields and the top hidden state the forward
        # keeps, plus up to 4 KiB of array and row objects
        B, m, n = 64, 3, 32
        width = {"n": n, "2n": 2 * n, "4n": 4 * n, "m+n": m + n}
        floats = sum(width[w] for w in self.FIELDS[kind].values()) + n
        mdl = build_classifier(kind, m, n, 1, 5, 0.5, Rng(0))
        peaks = []
        for T in (8, 64):
            xs = Rng(1).uniform(-1, 1, (B, T, m))
            tracemalloc.start()
            try:
                classify_forward(mdl, xs, train_mode=True, rng=Rng(2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= (64 - 8) * (B * floats * 8 + 4096)


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

    def test_empty_batch_rejected(self):
        mdl = build_language_model("gru", 5, 3, 1, 0.3, Rng(1))
        with pytest.raises(ContractError, match="lm_forward: empty batch"):
            lm_forward(mdl, np.zeros((0, 5), dtype=np.int64))

    @pytest.mark.parametrize("count", [1, 3])
    def test_start_states_must_match_the_layers(self, count):
        mdl = build_language_model("gru", 5, 3, 2, 0.3, Rng(1))
        toks = Rng(2).integers(5, size=(2, 4))
        _, states, _ = lm_forward(mdl, toks)
        with pytest.raises(ContractError, match="start states for 2 layers"):
            lm_forward(mdl, toks, h_init=(states + states)[:count])

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

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_logits_read_the_top_state_of_every_step(self, kind):
        # the "every" readout keeps each step's top state: the head reads them all, in step order
        B, T, n, V = 3, 6, 4, 11
        mdl = build_language_model(kind, V, n, 2, 0.5, Rng(10))
        toks = Rng(11).integers(V, size=(B, T))
        states, tops = [cells.zero_state(p, B) for p in mdl.cells], []
        for t in range(T):
            inp = mdl.embedding[toks[:, t]]
            for l, p in enumerate(mdl.cells):
                states[l], _ = cells.step(p, inp, states[l])
                inp = states[l].h
            tops.append(inp)
        want = np.stack(tops).reshape(T * B, n) @ mdl.w_out.T + mdl.b_out
        assert lm_forward(mdl, toks)[0].tobytes() == want.reshape(T, B, V).tobytes()

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

    @pytest.mark.parametrize("target", [np.array([0.0, 1.0]), np.array([[0], [1]]), np.array([0, 1, 2])],
                             ids=["float", "column", "too_many"])
    def test_malformed_targets_raise(self, target):
        with pytest.raises(ContractError, match="targets"):
            cross_entropy(np.zeros((2, 3)), target)

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)], ids=["scalar", "3d"])
    def test_logits_of_another_rank_raise(self, shape):
        with pytest.raises(ContractError, match="logits must be"):
            cross_entropy(np.zeros(shape), np.zeros(shape[:-1], dtype=np.int64))

    def test_empty_batch_raises(self):
        with pytest.raises(ContractError, match="empty batch"):
            cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

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


def _one_pass_cross_entropy(lg, tg):
    """The whole-batch form: one shift, exp and sum over all rows at once."""
    B = lg.shape[0]
    rows = np.arange(B)
    d = lg - lg.max(axis=1, keepdims=True)
    picked = d[rows, tg]
    np.exp(d, out=d)
    total = np.sum(d, axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - picked))
    d *= 1.0 / (total * B)
    d[rows, tg] -= 1.0 / B
    return loss, d


class TestBlockedCrossEntropy:
    V = 10_000
    BLOCK = models.CE_BLOCK_BYTES // (8 * V)

    @pytest.mark.parametrize("B", [1, BLOCK - 1, BLOCK, BLOCK + 1, 400])
    def test_equals_one_pass_bitwise(self, B):
        rng = Rng(30 + B)
        logits = rng.uniform(-6, 6, (B, self.V))
        targets = rng.integers(self.V, size=B)
        want_loss, want = _one_pass_cross_entropy(logits, targets)
        loss, dlog = cross_entropy(logits, targets)
        assert loss == want_loss
        assert dlog.tobytes() == want.tobytes()
        assert cross_entropy(logits, targets, grad=False) == (want_loss, None)

    def test_single_example_equals_one_pass_bitwise(self):
        logits = Rng(31).uniform(-6, 6, self.V)
        want_loss, want = _one_pass_cross_entropy(logits[None, :], np.array([17]))
        loss, dlog = cross_entropy(logits, 17)
        assert dlog.shape == (self.V,)
        assert loss == want_loss
        assert dlog.tobytes() == want[0].tobytes()
        assert cross_entropy(logits, 17, grad=False) == (want_loss, None)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (40, 300), (27, 20_000)])
    def test_no_grad_loss_equals_grad_loss_bitwise(self, shape):
        rng = Rng(32)
        logits = rng.uniform(-30, 30, shape)
        k = shape[-1]
        targets = rng.integers(k, size=1)[0] if len(shape) == 1 else rng.integers(k, size=shape[0])
        loss, _ = cross_entropy(logits, targets)
        assert cross_entropy(logits, targets, grad=False)[0] == loss

    def test_leaves_logits_unchanged(self):
        logits = Rng(33).uniform(-6, 6, (30, 1000))
        before = logits.copy()
        cross_entropy(logits, np.arange(30))
        cross_entropy(logits, np.arange(30), grad=False)
        assert logits.tobytes() == before.tobytes()


class TestLeanLmWindow:
    @pytest.mark.parametrize("readout", ["lm", "classifier"])
    def test_head_weight_gradient_is_dlogits_t_times_head_input(self, readout):
        rng = Rng(34)
        if readout == "lm":
            mdl = build_language_model("rau", 300, 6, 2, 0.3, rng, dropout=0.2)
            logits, _, tape = lm_forward(mdl, rng.integers(300, size=(4, 5)), train_mode=True, rng=Rng(1))
        else:
            mdl = build_classifier("gru", 3, 6, 1, 7, 0.3, rng, dropout=0.2)
            logits, tape = classify_forward(mdl, rng.uniform(-1, 1, (4, 5, 3)), train_mode=True, rng=Rng(1))
        flat = logits.reshape(-1, logits.shape[-1])
        _, dflat = cross_entropy(flat, rng.integers(flat.shape[1], size=flat.shape[0]))
        grads = backward(tape, dflat.reshape(logits.shape))
        want = dflat.T @ tape.head_in.reshape(flat.shape[0], -1)
        np.testing.assert_allclose(grads["w_out"], want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(grads["b_out"], dflat.sum(axis=0), rtol=1e-13, atol=0)

    def test_eval_window_holds_about_one_logits_array(self):
        # the bias goes into the GEMM output in place and an eval
        # cross-entropy builds no dlogits, so a window's peak is its logits,
        # a cross-entropy block for each of the two halves of its rows (see
        # `autograd._in_halves`) and the small per-step arrays
        V, n, B, T = 5000, 8, 10, 20
        mdl = build_language_model("gru", V, n, 1, 0.1, Rng(35))
        stream = Rng(36).integers(V, size=B * (T + 1))
        logits_bytes = B * T * V * 8
        tracemalloc.start()
        try:
            evaluate_lm(mdl, stream, B, T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= logits_bytes + 2 * models.CE_BLOCK_BYTES + (1 << 20)


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
            build_classifier("gru", 3, 4, 1, 2, 0.5, Rng(14), dropout=1.0)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = Rng(15)
        mdl = build_classifier("rau", 3, 4, 2, 5, 0.5, rng, dropout=0.25)
        path = tmp_path / "model.bin"
        save_checkpoint(path, mdl, {"seed": 7, "task": "synthetic"})
        loaded, cfg = load_checkpoint(path)
        assert cfg == {"seed": 7, "task": "synthetic"}
        assert [p.kind for p in loaded.cells] == ["rau", "rau"]
        assert loaded.dropout == 0.25
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

    @pytest.mark.parametrize("build", [
        lambda rng: build_classifier("rau", 3, 4, 2, 5, 0.5, rng, dropout=0.25),
        lambda rng: build_classifier("gru", None, 4, 1, 3, 0.5, rng, vocab=7, emb_dim=5),
        lambda rng: build_language_model("lstm", 9, 4, 2, 0.3, rng),
    ], ids=["row-classifier", "token-classifier", "lm"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, build):
        mdl = build(Rng(18))
        path = tmp_path / "model.bin"
        save_checkpoint(path, mdl, {})

        def no_draws(self, size=None):
            raise AssertionError("load_checkpoint drew a random number")

        monkeypatch.setattr(Rng, "uniform01", no_draws)
        loaded, _ = load_checkpoint(path)
        for (name_a, a), (name_b, b) in zip(cells.iter_tensors(mdl), cells.iter_tensors(loaded)):
            assert name_a == name_b
            assert a.tobytes() == b.tobytes()

    def test_load_holds_the_payload_once(self, tmp_path):
        mdl = build_language_model("gru", 2000, 128, 3, 0.1, Rng(19))
        path = tmp_path / "lm.bin"
        save_checkpoint(path, mdl, {})
        largest = max(a.nbytes for _, a in cells.iter_tensors(mdl))
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + largest + (1 << 20)
        for (_, a), (_, b) in zip(cells.iter_tensors(mdl), cells.iter_tensors(loaded)):
            assert a.tobytes() == b.tobytes()

    def test_short_tensor_read_raises(self, tmp_path, monkeypatch):
        # a file that shrinks after its size was taken: the size checks pass, the read comes up short
        path = tmp_path / "model.bin"
        save_checkpoint(path, build_classifier("gru", 2, 3, 1, 2, 0.1, Rng(17)), {})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
        with pytest.raises(CheckpointError, match="truncated checkpoint tensors"):
            load_checkpoint(path)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_checkpoint(path, build_classifier("gru", 2, 3, 1, 2, 0.1, Rng(20)), {"seed": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]
        before = path.read_bytes()

        def first_tensor_then_fail(model):
            yield next(cells.iter_tensors(model))
            raise OSError("disk full")

        monkeypatch.setattr(models, "iter_tensors", first_tensor_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, build_classifier("gru", 2, 3, 1, 2, 0.5, Rng(21)), {"seed": 2})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

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


def _write_checkpoint(path, header: bytes, payload: bytes) -> None:
    path.write_bytes(b"RAUM" + struct.pack("<II", 1, len(header)) + header + payload)


def _valid_parts(tmp_path):
    """(header echo, tensor payload) of a small saved classifier."""
    path = tmp_path / "valid.bin"
    save_checkpoint(path, build_classifier("gru", 2, 3, 1, 2, 0.1, Rng(17)), {"seed": 7})
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + blob_len]), raw[12 + blob_len:]


def _with_spec(**changes):
    def mutate(echo):
        echo["model"].update(changes)
        return json.dumps(echo).encode()
    return mutate


def _without_spec_key(key):
    def mutate(echo):
        del echo["model"][key]
        return json.dumps(echo).encode()
    return mutate


class TestHostileCheckpointHeader:
    @pytest.mark.parametrize("mutate", [
        _with_spec(cell="foo"),
        _without_spec_key("hidden"),
        lambda echo: json.dumps(echo).encode()[:-1],
        _with_spec(layers=0),
        _with_spec(hidden="3"),
        _with_spec(hidden=True),
        _with_spec(dropout=1.5),
        _with_spec(vocab=-4, emb_dim=3),
        lambda echo: b"\xff\xfe",
        lambda echo: b"[]",
        lambda echo: json.dumps({"model": echo["model"]}).encode(),
        lambda echo: json.dumps({**echo, "model": None}).encode(),
    ], ids=["unknown-cell", "missing-key", "bad-json", "zero-layers", "str-hidden", "bool-hidden",
            "dropout-1.5", "negative-vocab", "bad-utf8", "not-an-object", "no-config", "null-model"])
    def test_raises_checkpoint_error(self, tmp_path, mutate):
        echo, payload = _valid_parts(tmp_path)
        path = tmp_path / "hostile.bin"
        _write_checkpoint(path, mutate(echo), payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_payload_bytes_rejected(self, tmp_path):
        echo, payload = _valid_parts(tmp_path)
        path = tmp_path / "long.bin"
        _write_checkpoint(path, json.dumps(echo).encode(), payload + bytes(8))
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_large_spec_over_tiny_payload_allocates_nothing(self, tmp_path):
        echo, payload = _valid_parts(tmp_path)
        path = tmp_path / "huge.bin"
        _write_checkpoint(path, _with_spec(hidden=1000)(echo), payload)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(["type", "cell", "input_size", "hidden", "layers", "classes", "vocab", "emb_dim",
                                "dropout"]),
           value=st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                              lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                           max_size=3),
                              max_leaves=5))
    def test_fuzzed_spec_field_loads_or_raises_checkpoint_error(self, tmp_path_factory, key, value):
        d = tmp_path_factory.mktemp("fuzz")
        echo, payload = _valid_parts(d)
        _write_checkpoint(d / "fuzzed.bin", _with_spec(**{key: value})(echo), payload)
        try:
            load_checkpoint(d / "fuzzed.bin")
        except CheckpointError:
            pass


class TestCheckpointLayout:
    """sha256 of fresh-init checkpoints: the byte layout and the init draw order are pinned."""

    @pytest.mark.parametrize("build, digest", [
        (lambda: build_classifier("rau", None, 5, 2, 3, 0.1, Rng(11), vocab=17, emb_dim=4, dropout=0.25),
         "4fa07ebc9a172ee93c38b5569cc706a0d0c06b13651a24dd87d59befc56061f8"),
        (lambda: build_classifier("gru", 28, 6, 1, 10, 0.1, Rng(12)),
         "f1e99b6a90b331920e11f94d6eec732425676b79d7def2b02da031e84dda1722"),
        (lambda: build_language_model("lstm", 23, 6, 2, 0.1, Rng(13), dropout=0.5),
         "a6d8b8d71b4723c492907ab9bd20c68d21fd5fa4809ec4d090bd79350ec50068"),
    ], ids=["rau-token-classifier", "gru-row-classifier", "lstm-lm"])
    def test_digest(self, tmp_path, build, digest):
        path = tmp_path / "model.bin"
        save_checkpoint(path, build(), {"seed": 1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
