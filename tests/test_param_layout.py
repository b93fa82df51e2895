"""One buffer per cell: parameters, gradients and Adam moments in gate-group layout.

A cell's buffer holds its (rows, m+n) weights and then its rows biases,
both in gate-group order; every named tensor is a contiguous row-block
view of it. The expected orders below are written out by hand, apart
from the `cells` table.
"""

import copy
import pickle

import numpy as np
import pytest

from rau import cells
from rau.autograd import Grads, backward, backward_cell_sequence
from rau.cells import init_cell, iter_buffers, iter_tensors, param_count, weight_stacks
from rau.data import synthetic_memorization
from rau.linalg import ContractError, Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import apply_update, make_optimizer, train_epoch_classifier

SHAPES = [(1, 2), (3, 4), (28, 128)]
# weight rows in buffer order, by group; biases follow in the same order
GROUPS = {
    "rau": [["gru.w_r", "gru.w_z", "w_a"], ["gru.w_c"], ["w_u"]],
    "gru": [["w_r", "w_z"], ["w_c"]],
    "lstm": [["w_f", "w_i", "w_o", "w_g"]],
}


def _offsets(kind, m, n):
    """{path: (first float, shape)} of each named tensor, from GROUPS."""
    paths = [w for group in GROUPS[kind] for w in group]
    rows = {w: m + n if w == "w_a" else n for w in paths}
    weights = sum(rows.values()) * (m + n)
    at, row = {}, 0
    for w in paths:
        b = w.replace("w_", "b_")
        at[w] = (row * (m + n), (rows[w], m + n))
        at[b] = (weights + row, (rows[w],))
        row += rows[w]
    return at


def _offset(view, buf):
    return (view.ctypes.data - buf.ctypes.data) // buf.itemsize


def _assert_on_buffer(p, buf):
    for name, a in iter_tensors(p):
        assert a.flags.c_contiguous and np.shares_memory(a, buf), name
        assert 0 <= _offset(a, buf) and _offset(a, buf) + a.size <= buf.size, name


class TestCellBuffer:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_each_tensor_is_a_contiguous_view_at_its_group_offset(self, kind, m, n):
        p = init_cell(kind, m, n, 0.5, Rng(1))
        buf = p.buffer
        assert buf.ndim == 1 and buf.dtype == np.float64 and buf.flags.c_contiguous
        assert buf.size == param_count(kind, m, n)
        want = _offsets(kind, m, n)
        tensors = dict(iter_tensors(p))
        assert set(tensors) == set(want)
        for name, a in tensors.items():
            start, shape = want[name]
            assert a.shape == shape and a.flags.c_contiguous, name
            assert np.shares_memory(a, buf) and _offset(a, buf) == start, name

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_the_tensors_tile_the_buffer(self, kind):
        p = init_cell(kind, 3, 4, 0.5, Rng(2))
        covered = np.zeros(p.buffer.size, dtype=int)
        for _, a in iter_tensors(p):
            covered[_offset(a, p.buffer):_offset(a, p.buffer) + a.size] += 1
        assert (covered == 1).all()

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_draws_are_those_of_the_unpacked_init(self, kind):
        # the init draws each named tensor in declaration order and copies it into the buffer
        p = init_cell(kind, 3, 4, 0.5, Rng(3))
        rng = Rng(3)
        for name, a in iter_tensors(p):
            if name.split(".")[-1].startswith("w_"):
                assert np.array_equal(a, rng.uniform(-0.5, 0.5, size=a.shape)), name


class TestStacksAreViews:
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_weight_stacks_view_the_params(self, kind):
        p = init_cell(kind, 3, 4, 0.5, Rng(4))
        tensors = dict(iter_tensors(p))
        stacks = weight_stacks(kind, p)
        assert len(stacks) == len(GROUPS[kind])
        for stack, group in zip(stacks, GROUPS[kind]):
            assert np.shares_memory(stack, p.buffer)
            assert np.array_equal(stack, np.concatenate([tensors[w] for w in group]))
            first = tensors[group[0]]
            first += 1.0  # an in-place update shows in the stack
            assert np.array_equal(stack[:first.shape[0]], first)

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_gate_block_views_the_params(self, kind):
        p = init_cell(kind, 2, 3, 0.5, Rng(8))
        tensors = dict(iter_tensors(p))
        w, b = p.gates
        first = GROUPS[kind][0][0]
        assert np.shares_memory(w, tensors[first]) and np.shares_memory(b, tensors[first.replace("w_", "b_")])
        tensors[first] += 1.0
        tensors[first.replace("w_", "b_")] += 1.0
        assert np.array_equal(w[0], tensors[first].T) and np.array_equal(b[0], tensors[first.replace("w_", "b_")])

    def test_a_rau_gru_part_has_its_rau_gate_block(self):
        p = init_cell("rau", 2, 3, 0.5, Rng(9))
        assert all(a is b for a, b in zip(p.gru.gates, p.gates))


class TestGradsLayout:
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_zeros_like_lays_gradients_out_like_the_params(self, kind):
        mdl = build_classifier(kind, 3, 4, 2, 5, 0.5, Rng(10))
        g = Grads.zeros_like(mdl)
        assert list(g) == [name for name, _ in iter_tensors(mdl)]
        assert list(g.buffers) == [key for key, _, _ in iter_buffers(mdl)] == ["cells.0.", "cells.1.", "w_out", "b_out"]
        for l, cell in enumerate(mdl.cells):
            gbuf = g.buffers[f"cells.{l}."]
            assert gbuf.shape == cell.buffer.shape and not gbuf.any()
            for name, a in iter_tensors(cell, f"cells.{l}"):
                assert np.shares_memory(g[name], gbuf) and _offset(g[name], gbuf) == _offset(a, cell.buffer), name
        assert g["w_out"] is g.buffers["w_out"]

    def test_backward_returns_gradients_in_the_layout(self):
        mdl = build_language_model("rau", 7, 4, 2, 0.5, Rng(11))
        rng = Rng(12)
        logits, _, tape = lm_forward(mdl, rng.integers(7, size=(2, 3)), train_mode=True)
        g = backward(tape, np.ones_like(logits))
        assert list(g.buffers) == ["cells.0.", "cells.1.", "w_out", "b_out", "embedding"]
        for name, a in g.items():
            key = name if name in g.buffers else name[:len("cells.0.")]
            assert np.shares_memory(a, g.buffers[key]), name

    def test_cell_sequence_needs_the_layout(self):
        p = init_cell("gru", 2, 3, 0.5, Rng(13))
        trace = cells.new_trace("gru", 1, (), 2, 3)
        cells.step("gru", p, np.ones(2), cells.zero_state("gru", 3), trace.row(0))
        per_tensor = Grads((name, np.zeros_like(a)) for name, a in iter_tensors(p))
        with pytest.raises(ContractError):
            backward_cell_sequence("gru", p, trace, dh_last=np.ones(3), grads=per_tensor)

    def test_zeros_like_rejects_a_rau_gru_part(self):
        p = init_cell("rau", 2, 3, 0.5, Rng(14))
        with pytest.raises(ContractError, match="views its RAU's buffer"):
            Grads.zeros_like(p.gru)

    @pytest.mark.parametrize("given", [False, True], ids=["grads_none", "grads_given"])
    def test_cell_sequence_rejects_a_rau_gru_part(self, given):
        p = init_cell("rau", 2, 3, 0.5, Rng(15))
        trace = cells.new_trace("gru", 1, (), 2, 3)
        cells.step("gru", p.gru, np.ones(2), cells.zero_state("gru", 3), trace.row(0))
        grads = Grads.zeros_like(init_cell("gru", 2, 3, 0.5, Rng(16))) if given else None
        with pytest.raises(ContractError, match="views its RAU's buffer"):
            backward_cell_sequence("gru", p.gru, trace, dh_last=np.ones(3), grads=grads)


def _per_tensor_update(opt_kind, params, grads, state, lr, t):
    """The update once per named tensor, on plain dicts: the reference for the per-buffer one."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    for name, arr in iter_tensors(params):
        g = grads[name].copy()
        if opt_kind == "sgd":
            g *= lr
            arr -= g
            continue
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        arr -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


class TestPerBufferUpdate:
    @pytest.mark.parametrize("opt_kind", ["sgd", "adam"])
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_matches_the_per_tensor_update_bitwise(self, kind, opt_kind):
        mdl = build_classifier(kind, 3, 4, 2, 5, 0.5, Rng(14), vocab=9, emb_dim=3)
        ref = copy.deepcopy(mdl)
        opt = make_optimizer(opt_kind, mdl, 0.03)
        state = {k: {name: np.zeros_like(a) for name, a in iter_tensors(ref)} for k in ("m", "v")}
        rng = Rng(15)
        for t in range(1, 4):
            grads = Grads.zeros_like(mdl)
            for g in grads.values():
                g[...] = rng.uniform(-1.0, 1.0, g.shape)
            want = {name: g.copy() for name, g in grads.items()}
            apply_update(opt, mdl, grads)
            _per_tensor_update(opt_kind, ref, want, state, 0.03, t)
            for (name, a), (_, b) in zip(iter_tensors(mdl), iter_tensors(ref)):
                assert a.tobytes() == b.tobytes(), (t, name)

    def test_rejects_gradients_not_in_the_layout(self):
        mdl = build_classifier("gru", 2, 3, 1, 2, 0.5, Rng(16))
        per_tensor = Grads((name, np.zeros_like(a)) for name, a in iter_tensors(mdl))
        with pytest.raises(ContractError):
            apply_update(make_optimizer("sgd", mdl, 0.1), mdl, per_tensor)

    def test_scale_runs_over_the_buffers(self):
        mdl = build_classifier("rau", 2, 3, 1, 2, 0.5, Rng(17))
        g = Grads.zeros_like(mdl)
        for a in g.values():
            a += 2.0
        g.scale_(0.25)
        assert all((a == 0.5).all() for a in g.values())


class TestDeepcopy:
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_copy_views_its_own_buffer(self, kind):
        p = init_cell(kind, 3, 4, 0.5, Rng(18))
        for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            _assert_on_buffer(q, q.buffer)
            assert not np.shares_memory(q.buffer, p.buffer)
            assert all(not np.shares_memory(a, p.buffer) for _, a in iter_tensors(q))
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(iter_tensors(p), iter_tensors(q)))
            assert q.buffer.tobytes() == p.buffer.tobytes()
            w, _ = q.gates
            assert np.shares_memory(w, q.buffer)
            if kind == "rau":
                assert q.gru.gates is q.gates

    def test_a_rau_gru_part_copies_into_a_gru_buffer(self):
        p = init_cell("rau", 3, 4, 0.5, Rng(19))
        q = copy.deepcopy(p.gru)
        _assert_on_buffer(q, q.buffer)
        assert not np.shares_memory(q.buffer, p.buffer)
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(iter_tensors(p.gru), iter_tensors(q)))

    def test_optimizer_moments_keep_their_layout(self):
        mdl = build_classifier("rau", 3, 4, 1, 2, 0.5, Rng(20))
        opt = make_optimizer("adam", mdl, 0.01)
        _, opt_b = copy.deepcopy((mdl, opt))
        for moments, copied in ((opt.m, opt_b.m), (opt.v, opt_b.v)):
            assert list(copied) == list(moments) and list(copied.buffers) == list(moments.buffers)
            for name, a in copied.items():
                key = name if name in copied.buffers else "cells.0."
                assert np.shares_memory(a, copied.buffers[key]) and not np.shares_memory(a, moments.buffers[key])

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_a_train_step_on_the_copy_gives_the_original_bits(self, kind):
        rng = Rng(21)
        xs, ys = synthetic_memorization(rng, 16, 5, 3, 3, 0.5)
        mdl = build_classifier(kind, 3, 4, 1, 3, 0.5, Rng(22))
        opt = make_optimizer("adam", mdl, 0.01)
        train_epoch_classifier(mdl, xs, ys, opt, Rng(23), 16, 1, 23)  # moments away from zero
        mdl_b, opt_b = copy.deepcopy((mdl, opt))
        for m, o in ((mdl, opt), (mdl_b, opt_b)):
            train_epoch_classifier(m, xs, ys, o, Rng(24), 16, 2, 24)
        for (name, a), (_, b) in zip(iter_tensors(mdl), iter_tensors(mdl_b)):
            assert a.tobytes() == b.tobytes(), name
        # and the copy trained through its own buffer: its views still tile it
        _assert_on_buffer(mdl_b.cells[0], mdl_b.cells[0].buffer)
        logits, _ = classify_forward(mdl_b, xs)
        want, _ = classify_forward(mdl, xs)
        assert logits.tobytes() == want.tobytes()
        assert cross_entropy(logits, ys, grad=False)[0] == cross_entropy(want, ys, grad=False)[0]
