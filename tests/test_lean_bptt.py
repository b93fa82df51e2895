"""Cell BPTT computes and keeps only what it reads.

`autograd.backward` asks `backward_cell_sequence` for no input gradient
where nothing reads it (the bottom layer of a model without an
embedding), and each step backward then multiplies by the h columns of
its weights only. The GRU and RAU traces keep the candidate input xrh
and the attended input v as one shared scratch row; the backward
rebuilds a span's rows from the recorded fields before its weight
GEMMs, and each flush writes its weight-gradient products into arrays
allocated once per call.
"""

import tracemalloc

import numpy as np
import pytest

from rau import autograd, cells
from rau.autograd import backward, backward_cell_sequence
from rau.cells import init_cell, new_trace, step, zero_state
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, lm_forward

KINDS = ("rau", "gru", "lstm")


def _record(kind, m, n, T, batch, seed):
    """A T-step trace, and a copy of every step's shared rows as the step wrote them."""
    rng = Rng(seed)
    params = init_cell(kind, m, n, 0.5, rng)
    lead = () if batch is None else (batch,)
    xs = rng.uniform(-1.0, 1.0, (T, *lead, m))
    state = zero_state(kind, n, batch)
    trace = new_trace(kind, T, lead, m, n)
    written = {name: [] for name, _, _ in cells._KINDS[kind].shared}
    for t in range(T):
        state, tr = step(kind, params, xs[t], state, trace.row(t))
        for name, rows in written.items():
            rows.append(getattr(tr, name).copy())
    dh_steps = rng.uniform(-1.0, 1.0, (T, *lead, n))
    return params, trace, {name: np.stack(rows) for name, rows in written.items()}, dh_steps


class TestUnreadInputGradient:
    @pytest.mark.parametrize("batch", [None, 1, 3, 20, 128], ids=lambda b: "1d" if b is None else f"B{b}")
    @pytest.mark.parametrize("m, n", [(3, 4), (7, 16), (28, 128)], ids=str)
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_gradients_equal_the_full_path_bitwise(self, kind, m, n, batch):
        params, trace, _, dh_steps = _record(kind, m, n, 4, batch, seed=m * n + (batch or 0))
        full, dx_steps, dh0 = backward_cell_sequence(kind, params, trace, dh_steps=dh_steps)
        lean, no_dx, lean_dh0 = backward_cell_sequence(kind, params, trace, dh_steps=dh_steps, want_dx=False)
        assert dx_steps.shape == dh_steps.shape[:-1] + (m,) and no_dx is None
        assert lean_dh0.tobytes() == dh0.tobytes()
        for name, g in full.items():
            assert lean[name].tobytes() == g.tobytes(), name

    def test_backward_skips_only_the_bottom_input_gradient_without_an_embedding(self, monkeypatch):
        asked = []
        sequence = autograd.backward_cell_sequence

        def spy(*args, want_dx=True, **kwargs):
            asked.append(want_dx)
            return sequence(*args, want_dx=want_dx, **kwargs)

        monkeypatch.setattr(autograd, "backward_cell_sequence", spy)
        rng = Rng(5)
        clf = build_classifier("gru", 3, 4, 2, 5, 0.5, rng)
        logits, tape = classify_forward(clf, rng.uniform(-1, 1, (2, 3, 3)), train_mode=True)
        backward(tape, np.ones_like(logits))
        emb = build_classifier("gru", None, 4, 2, 5, 0.5, rng, vocab=6, emb_dim=3)
        logits, tape = classify_forward(emb, rng.integers(6, size=(2, 3)), train_mode=True)
        backward(tape, np.ones_like(logits))
        lm = build_language_model("gru", 6, 4, 1, 0.5, rng)
        logits, _, tape = lm_forward(lm, rng.integers(6, size=(2, 3)), train_mode=True)
        backward(tape, np.ones_like(logits))
        # layers run top first
        assert asked == [True, False, True, True, True]


class TestSharedRows:
    @pytest.mark.parametrize("rows", [5, 10, 40], ids=["span1", "span2", "span8"])
    @pytest.mark.parametrize("kind", ["rau", "gru"])
    def test_span_flushes_rebuild_the_forward_values_bitwise(self, kind, rows, monkeypatch):
        # batch 5 at `rows` rows per weight GEMM: spans of 1, 2 and 8 steps over T=7
        monkeypatch.setattr(autograd, "DW_GEMM_ROWS", rows)
        params, trace, written, dh_steps = _record(kind, 3, 4, 7, 5, seed=rows)
        flushed = {name: np.full_like(w, np.nan) for name, w in written.items()}
        add = autograd._add_weight_grads

        def keep_rows(groups, deltas, span, *rest):
            lo = next(t for t in range(len(trace.xh)) if np.shares_memory(span.xh, trace.xh[t]))
            for name, got in flushed.items():
                got[lo:lo + len(span.xh)] = getattr(span, name)
            return add(groups, deltas, span, *rest)

        monkeypatch.setattr(autograd, "_add_weight_grads", keep_rows)
        backward_cell_sequence(kind, params, trace, dh_steps=dh_steps)
        assert set(flushed) == ({"xrh", "v"} if kind == "rau" else {"xrh"})
        for name, want in written.items():
            assert flushed[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("batch", [None, 6], ids=["1d", "batched"])
    def test_shared_field_is_one_row_every_step_writes(self, batch):
        lead = () if batch is None else (batch,)
        trace = new_trace("rau", 4, lead, 3, 5)
        assert trace.xrh.shape == trace.v.shape == (4, *lead, 8)
        for name in ("xrh", "v"):
            rows = [getattr(trace.row(t), name) for t in range(4)]
            assert all(r.flags.c_contiguous and r.ctypes.data == rows[0].ctypes.data for r in rows)
            assert not np.shares_memory(rows[0], trace.xh) and not np.shares_memory(rows[0], trace.u)

    def test_rau_train_trace_is_two_input_widths_per_row_smaller(self):
        # at the parent the RAU trace held 4(m+n) + 4n floats per row (xh, rz, xrh, hc, u, v, ha);
        # xrh and v now take one shared row each instead of one per row
        T, B, m, n = 28, 128, 28, 128
        block = new_trace("rau", T, (B,), m, n).xh.base
        rows = T * B
        assert block.size == rows * (4 * (m + n) + 4 * n) - (rows - B) * 2 * (m + n)


class TestFlushMemory:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_flush_allocates_no_weight_gradient_product(self, kind, monkeypatch):
        # the rows-classify shape, seven spans of 512 rows, with every flush inline: the peak is the flush's own
        monkeypatch.setattr(autograd, "_overlap", lambda spans, flop: False)
        params, trace, _, dh_steps = _record(kind, 28, 128, 28, 128, seed=1)
        add, extra = autograd._add_weight_grads, []

        def measured(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            add(*args)
            extra.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(autograd, "_add_weight_grads", measured)
        tracemalloc.start()
        try:
            backward_cell_sequence(kind, params, trace, dh_steps=dh_steps, want_dx=False)
        finally:
            tracemalloc.stop()
        # the smallest product, (m+n, n) floats, takes 156 x 128 x 8 bytes
        assert len(extra) == 7 and max(extra) < 156 * 128 * 8 // 2
