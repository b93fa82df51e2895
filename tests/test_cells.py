"""Cell forward steps against independent scalar-loop references."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from rau import cells
from rau.cells import (
    CellState,
    GruParams,
    LstmParams,
    RauParams,
    gru_step,
    init_cell,
    iter_tensors,
    lstm_step,
    new_trace,
    param_count,
    rau_step,
    step,
    zero_state,
)
from rau.autograd import backward_cell_sequence
from rau.linalg import ContractError, Rng


# --- scalar reference implementations (pure python, no shared code) ---

def _aff(w, b, vec):
    return [sum(w[i][j] * vec[j] for j in range(len(vec))) + b[i] for i in range(len(b))]


def _sig(v):
    return [1.0 / (1.0 + math.exp(-x)) for x in v]


def _tanh(v):
    return [math.tanh(x) for x in v]


def _smax(v):
    m = max(v)
    e = [math.exp(x - m) for x in v]
    s = sum(e)
    return [x / s for x in e]


def ref_gru(p, x, h):
    W_z, W_r, W_c = p.w_z.tolist(), p.w_r.tolist(), p.w_c.tolist()
    xh = list(x) + list(h)
    z = _sig(_aff(W_z, p.b_z.tolist(), xh))
    r = _sig(_aff(W_r, p.b_r.tolist(), xh))
    xrh = list(x) + [r[i] * h[i] for i in range(len(h))]
    hc = _tanh(_aff(W_c, p.b_c.tolist(), xrh))
    return [(1 - z[i]) * h[i] + z[i] * hc[i] for i in range(len(h))], z, r, hc


def ref_attention(p, x, h):
    xh = list(x) + list(h)
    alpha = _aff(p.w_a.tolist(), p.b_a.tolist(), xh)
    u = _smax(alpha)
    v = [u[i] * xh[i] for i in range(len(xh))]
    ha = _tanh(_aff(p.w_u.tolist(), p.b_u.tolist(), v))
    return ha, alpha, u


def ref_rau(p, x, h):
    hg, z, r, hc = ref_gru(p.gru, x, h)
    ha, _, _ = ref_attention(p, x, h)
    return [(1 - z[i]) * h[i] + z[i] * hc[i] / 2 + z[i] * ha[i] / 2 for i in range(len(h))]


def ref_lstm(p, x, h, c):
    xh = list(x) + list(h)
    f = _sig(_aff(p.w_f.tolist(), p.b_f.tolist(), xh))
    i = _sig(_aff(p.w_i.tolist(), p.b_i.tolist(), xh))
    o = _sig(_aff(p.w_o.tolist(), p.b_o.tolist(), xh))
    g = _tanh(_aff(p.w_g.tolist(), p.b_g.tolist(), xh))
    c2 = [f[k] * c[k] + i[k] * g[k] for k in range(len(h))]
    h2 = [o[k] * math.tanh(c2[k]) for k in range(len(h))]
    return h2, c2


def zero_gru(m, n):
    return init_cell("gru", m, n, 0.0, Rng(0))


def zero_rau(m, n):
    return init_cell("rau", m, n, 0.0, Rng(0))


class TestGruStep:
    def test_zero_params_zero_state(self):
        p = zero_gru(2, 3)
        h, tr = gru_step(p, np.array([0.7, -0.3]), np.zeros(3))
        assert np.array_equal(h, np.zeros(3))
        assert np.all(tr.z == 0.5) and np.all(tr.hc == 0.0)

    def test_gate_saturation_reserves_state(self):
        rng = Rng(1)
        p = init_cell("gru", 2, 3, 1e-3, rng)
        p.b_z[:] = -1000.0
        h_prev = rng.uniform(-1, 1, 3)
        h, _ = gru_step(p, rng.uniform(-1, 1, 2), h_prev)
        assert np.allclose(h, h_prev, atol=1e-12, rtol=0)

    def test_matches_scalar_reference(self):
        rng = Rng(21)
        for _ in range(20):
            p = init_cell("gru", 2, 3, 1.0, rng)
            x = rng.uniform(-2, 2, 2)
            h_prev = rng.uniform(-1, 1, 3)
            h, _ = gru_step(p, x, h_prev)
            ref, _, _, _ = ref_gru(p, x.tolist(), h_prev.tolist())
            assert np.allclose(h, ref, atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            gru_step(zero_gru(2, 3), np.zeros(5), np.zeros(3))
        with pytest.raises(ContractError):
            gru_step(zero_gru(2, 3), np.zeros(2), np.zeros(4))

    def test_batched_matches_single(self):
        rng = Rng(8)
        p = init_cell("gru", 3, 4, 0.8, rng)
        xb = rng.uniform(-1, 1, (5, 3))
        hb = rng.uniform(-1, 1, (5, 4))
        batch, _ = gru_step(p, xb, hb)
        for k in range(5):
            single, _ = gru_step(p, xb[k], hb[k])
            assert np.allclose(batch[k], single, atol=1e-12, rtol=0)


class TestRauAttention:
    """The attention weights u and attended state ha that rau_step records in its trace."""

    def test_zero_scores_give_uniform_weights(self):
        p = zero_rau(2, 3)
        _, tr = rau_step(p, np.array([1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
        assert np.allclose(tr.u, np.full(5, 0.2), atol=1e-15, rtol=0)
        assert np.array_equal(tr.ha, np.zeros(3))

    def test_matches_scalar_reference(self):
        rng = Rng(31)
        for _ in range(20):
            p = init_cell("rau", 2, 3, 1.0, rng)
            x = rng.uniform(-2, 2, 2)
            h_prev = rng.uniform(-1, 1, 3)
            _, tr = rau_step(p, x, h_prev)
            ra, _, ru = ref_attention(p, x.tolist(), h_prev.tolist())
            assert np.allclose(tr.ha, ra, atol=1e-12, rtol=0)
            assert np.allclose(tr.u, ru, atol=1e-12, rtol=0)

    def test_weights_positive_sum_to_one(self):
        rng = Rng(41)
        for _ in range(50):
            p = init_cell("rau", 3, 2, 2.0, rng)
            _, tr = rau_step(p, rng.uniform(-3, 3, 3), rng.uniform(-1, 1, 2))
            assert np.all(tr.u > 0)
            assert abs(tr.u.sum() - 1.0) <= 1e-12


class TestRauStep:
    def test_zero_params_zero_state(self):
        p = zero_rau(2, 3)
        h, _ = rau_step(p, np.array([0.4, 0.9]), np.zeros(3))
        assert np.array_equal(h, np.zeros(3))

    def test_candidate_override_degenerates_to_gru(self):
        rng = Rng(55)
        for _ in range(100):
            p = init_cell("rau", 2, 3, 1.0, rng)
            x = rng.uniform(-2, 2, 2)
            h_prev = rng.uniform(-1, 1, 3)
            h_gru, tr = gru_step(p.gru, x, h_prev)
            h_rau, _ = rau_step(p, x, h_prev, attended_override=tr.hc)
            assert np.array_equal(h_rau, h_gru)

    def test_matches_scalar_reference(self):
        rng = Rng(61)
        for _ in range(20):
            p = init_cell("rau", 2, 3, 1.0, rng)
            x = rng.uniform(-2, 2, 2)
            h_prev = rng.uniform(-1, 1, 3)
            h, _ = rau_step(p, x, h_prev)
            assert np.allclose(h, ref_rau(p, x.tolist(), h_prev.tolist()), atol=1e-12, rtol=0)

    def test_mixing_coefficients_sum_to_one(self):
        rng = Rng(71)
        z = rng.uniform(0.001, 0.999, 1000)
        total = (1.0 - z) + z / 2 + z / 2
        assert np.allclose(total, 1.0, atol=1e-15, rtol=0)

    def test_trace_records_attention_intermediates(self):
        rng = Rng(81)
        p = init_cell("rau", 2, 3, 0.5, rng)
        _, tr = rau_step(p, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3))
        widths = {"xh": (5,), "rz": (2, 3), "r": (3,), "z": (3,), "xrh": (5,), "hc": (3,), "u": (5,), "v": (5,), "ha": (3,)}
        assert {name: a.shape for name, a in vars(tr).items()} == widths
        assert all(np.all(np.isfinite(a)) for a in vars(tr).values())


class TestLstmStep:
    def test_zero_params_zero_state(self):
        p = init_cell("lstm", 2, 3, 0.0, Rng(0))
        p.b_f[:] = 0.0
        state, _ = lstm_step(p, np.array([1.0, -1.0]), zero_state(p))
        assert np.array_equal(state.h, np.zeros(3))
        assert np.array_equal(state.c, np.zeros(3))

    def test_memory_carry_under_saturated_gates(self):
        rng = Rng(2)
        p = init_cell("lstm", 2, 3, 1e-3, rng)
        p.b_f[:] = 1000.0
        p.b_i[:] = -1000.0
        c0 = rng.uniform(-1, 1, 3)
        state, _ = lstm_step(p, rng.uniform(-1, 1, 2), CellState(h=np.zeros(3), c=c0.copy()))
        assert np.allclose(state.c, c0, atol=1e-9, rtol=0)

    def test_matches_scalar_reference(self):
        rng = Rng(91)
        for _ in range(20):
            p = init_cell("lstm", 2, 3, 1.0, rng)
            x = rng.uniform(-2, 2, 2)
            h = rng.uniform(-1, 1, 3)
            c = rng.uniform(-1, 1, 3)
            state, _ = lstm_step(p, x, CellState(h=h, c=c))
            rh, rc = ref_lstm(p, x.tolist(), h.tolist(), c.tolist())
            assert np.allclose(state.h, rh, atol=1e-12, rtol=0)
            assert np.allclose(state.c, rc, atol=1e-12, rtol=0)


class TestCellState:
    def test_default_c_is_the_shared_empty_array(self):
        from rau import cells

        state = CellState(h=np.zeros(3))
        assert state.c.shape == (0,)
        assert state.c is cells._EMPTY
        assert CellState(h=np.zeros(5)).c is state.c
        assert zero_state(init_cell("rau", 2, 3, 0.1, Rng(0))).c is cells._EMPTY
        assert zero_state(init_cell("gru", 2, 3, 0.1, Rng(0))).c is cells._EMPTY
        lstm = zero_state(init_cell("lstm", 2, 3, 0.1, Rng(0)), batch=2)
        assert lstm.c.shape == lstm.h.shape == (2, 3)
        assert lstm.c is not lstm.h and not np.any(lstm.c)


class TestParamCount:
    def test_gru_minimal(self):
        assert param_count("gru", 1, 1) == 9

    def test_lstm_minimal(self):
        assert param_count("lstm", 1, 1) == 12

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_matches_container_reflection(self, kind):
        for m, n in [(1, 1), (2, 3), (28, 128)]:
            params = init_cell(kind, m, n, 0.1, Rng(4))
            assert param_count(kind, m, n) == sum(a.size for _, a in iter_tensors(params))


class TestKindTable:
    """The gate groups BPTT forms the weight gradients from agree with the parameter containers."""

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_groups_cover_every_tensor_once(self, kind):
        params = init_cell(kind, 2, 3, 0.1, Rng(5))
        paths = [p for weights, biases, _ in cells._KINDS[kind].groups for p in weights + biases]
        assert sorted(paths) == sorted(name for name, _ in iter_tensors(params))

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_group_rows_give_the_param_count(self, kind):
        k = cells._KINDS[kind]
        for m, n in [(1, 2), (3, 2), (5, 7)]:
            tensors = dict(iter_tensors(init_cell(kind, m, n, 0.1, Rng(6))))
            rows = 0
            widths = dict(k.fields) | {name: w for name, w, _ in k.shared}
            for weights, biases, field in k.groups:
                assert widths[field] == "m+n"
                for w, b in zip(weights, biases):
                    assert tensors[w].shape[1] == m + n and tensors[b].shape == tensors[w].shape[:1]
                    rows += tensors[w].shape[0]
            assert param_count(kind, m, n) == rows * (m + n + 1)


class TestUnknownKind:
    @pytest.mark.parametrize("call", [
        lambda: init_cell("foo", 2, 3, 0.1, Rng(0)),
        lambda: param_count("foo", 2, 3),
    ], ids=["init_cell", "param_count"])
    def test_raises_contract_error(self, call):
        with pytest.raises(ContractError, match="unknown cell kind 'foo'"):
            call()


class TestKindFromTheCell:
    """A function that takes a cell reads its kind and sizes off it, and names the type of anything else."""

    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_a_cell_names_its_kind(self, kind):
        p = init_cell(kind, 2, 3, 0.1, Rng(0))
        assert p.kind == kind and (p.input_size, p.hidden_size) == (2, 3)
        assert zero_state(p, 4).h.shape == new_trace(p, 5, (4,)).xh.shape[1:-1] + (3,)

    @pytest.mark.parametrize("not_a_cell", [{"w_z": np.zeros((3, 5))}, "gru", None], ids=["dict", "str", "None"])
    @pytest.mark.parametrize("call", [
        lambda p: step(p, np.zeros(2), CellState(h=np.zeros(3))),
        lambda p: new_trace(p, 1, ()),
        lambda p: zero_state(p),
        lambda p: backward_cell_sequence(p, new_trace(init_cell("gru", 2, 3, 0.1, Rng(0)), 1, ())),
    ], ids=["step", "new_trace", "zero_state", "backward_cell_sequence"])
    def test_a_non_cell_raises_naming_its_type(self, call, not_a_cell):
        with pytest.raises(ContractError, match=f"expected a .*Params, got {type(not_a_cell).__name__}$"):
            call(not_a_cell)


class TestBoundedness:
    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_hidden_state_stays_in_unit_box_from_zero_init(self, kind):
        rng = Rng(13)
        for _ in range(5):
            params = init_cell(kind, 3, 4, 2.0, rng)
            state = zero_state(params)
            for _ in range(50):
                state, _ = step(params, rng.uniform(-5, 5, 3), state)
                assert np.all(np.abs(state.h) < 1.0)


class TestIterTensors:
    def test_rau_paths_and_order(self):
        p = init_cell("rau", 2, 3, 0.1, Rng(0))
        names = [name for name, _ in iter_tensors(p)]
        assert names == ["gru.w_z", "gru.w_r", "gru.w_c", "gru.b_z", "gru.b_r", "gru.b_c",
                         "w_a", "b_a", "w_u", "b_u"]

    def test_a_mapping_raises_naming_its_path(self):
        # a mapping's tensors were skipped as a non-array leaf: an update or an oracle walked none of them
        @dataclass
        class Holder:
            params: dict

        with pytest.raises(ContractError, match="mapping at its top"):
            list(iter_tensors({"w": np.zeros(2)}))
        with pytest.raises(ContractError, match="mapping at params"):
            list(cells.iter_buffers(Holder({"w": np.zeros(2)})))

    def test_skips_non_tensor_fields(self):
        from rau.models import build_classifier

        mdl = build_classifier("gru", 2, 3, 1, 4, 0.1, Rng(0))
        names = [name for name, _ in iter_tensors(mdl)]
        assert names == ["cells.0.w_z", "cells.0.w_r", "cells.0.w_c",
                         "cells.0.b_z", "cells.0.b_r", "cells.0.b_c", "w_out", "b_out"]
