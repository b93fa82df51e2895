"""The fused gate step against the per-gate step it replaced.

Each kind computes its sigmoid gates (GRU and RAU r|z, LSTM f|i|o|g) with
one batched GEMM against a cell's `gates`, in place into one gate-major
trace field, and activates them with one call. The reference below is
the per-gate form: one GEMM, one bias add and one activation per gate.
Gate j of the batched GEMM multiplies by the same transposed weight view
as `xh @ w_j.T`, so with one BLAS the two usually agree to the bit; the
contract is agreement to rounding, atol 1e-12.
"""

import copy

import numpy as np
import pytest

from rau import cells
from rau.cells import CellState, init_cell, step, zero_state
from rau.linalg import Rng, sigmoid, softmax, tanh

ATOL = 1e-12
SHAPES = [(1, 2), (3, 4), (5, 7), (16, 24), (28, 128)]
BATCHES = [None, 1, 3, 20, 64]


def _ref_gru_gates(p, x, h):
    xh = np.concatenate([x, h], axis=-1)
    z = sigmoid(xh @ p.w_z.T + p.b_z)
    r = sigmoid(xh @ p.w_r.T + p.b_r)
    xrh = np.concatenate([x, r * h], axis=-1)
    hc = tanh(xrh @ p.w_c.T + p.b_c)
    return {"xh": xh, "z": z, "r": r, "rz": np.stack([r, z]), "xrh": xrh, "hc": hc}


def _ref_gru(p, x, state):
    f = _ref_gru_gates(p, x, state.h)
    return CellState(h=(1.0 - f["z"]) * state.h + f["z"] * f["hc"]), f


def _ref_rau(p, x, state):
    f = _ref_gru_gates(p.gru, x, state.h)
    f["u"] = softmax(f["xh"] @ p.w_a.T + p.b_a, axis=-1)
    f["v"] = f["u"] * f["xh"]
    f["ha"] = tanh(f["v"] @ p.w_u.T + p.b_u)
    return CellState(h=(1.0 - f["z"]) * state.h + f["z"] * ((f["hc"] + f["ha"]) / 2.0)), f


def _ref_lstm(p, x, state):
    xh = np.concatenate([x, state.h], axis=-1)
    f = {"xh": xh, "c_prev": state.c}
    for gate, act in (("f", sigmoid), ("i", sigmoid), ("o", sigmoid), ("g", tanh)):
        f[gate] = act(xh @ getattr(p, "w_" + gate).T + getattr(p, "b_" + gate))
    f["fiog"] = np.stack([f["f"], f["i"], f["o"], f["g"]])
    c = f["f"] * state.c + f["i"] * f["g"]
    return CellState(h=f["o"] * np.tanh(c), c=c), f


REFERENCE = {"gru": _ref_gru, "rau": _ref_rau, "lstm": _ref_lstm}


def _instance(kind, m, n, batch, seed):
    rng = Rng(seed)
    p = init_cell(kind, m, n, 0.5, rng)
    lead = () if batch is None else (batch,)
    x = rng.uniform(-1.0, 1.0, lead + (m,))
    state = zero_state(kind, n, batch)
    state.h = rng.uniform(-1.0, 1.0, lead + (n,))
    if cells._kind(kind).has_c:
        state.c = rng.uniform(-1.0, 1.0, lead + (n,))
    return p, x, state


class TestFusedStepMatchesPerGateReference:
    @pytest.mark.parametrize("batch", BATCHES, ids=lambda b: "1d" if b is None else f"B{b}")
    @pytest.mark.parametrize("m, n", SHAPES, ids=lambda v: str(v))
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_state_and_every_trace_field(self, kind, m, n, batch):
        p, x, state = _instance(kind, m, n, batch, seed=1000 * m + n)
        want_state, want = REFERENCE[kind](p, x, state)
        got_state, tr = step(kind, p, x, state)
        assert set(vars(tr)) == set(want)
        for name, value in want.items():
            got = getattr(tr, name)
            assert got.shape == value.shape, name
            assert np.allclose(got, value, atol=ATOL, rtol=0), name
        assert np.allclose(got_state.h, want_state.h, atol=ATOL, rtol=0)
        assert got_state.c.shape == want_state.c.shape
        assert np.allclose(got_state.c, want_state.c, atol=ATOL, rtol=0)

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_gate_block_follows_an_in_place_update(self, kind):
        # the step's gate block views the parameters, so it sees an update without being rebuilt
        p, x, state = _instance(kind, 5, 7, 3, seed=3)
        for _, a in cells.iter_tensors(p):
            a *= 1.5
        fresh = copy.deepcopy(p)
        updated, _ = step(kind, p, x, state)
        built, _ = step(kind, fresh, x, state)
        assert updated.h.tobytes() == built.h.tobytes() and updated.c.tobytes() == built.c.tobytes()

    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_step_writes_no_input_in_place(self, kind):
        p, x, state = _instance(kind, 3, 4, 2, seed=4)
        before = [a.copy() for a in (x, state.h, state.c)] + [a.copy() for _, a in cells.iter_tensors(p)]
        step(kind, p, x, state)
        after = [x, state.h, state.c] + [a for _, a in cells.iter_tensors(p)]
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestGateBlock:
    @pytest.mark.parametrize("kind", ["rau", "gru", "lstm"])
    def test_stacks_the_leading_weights_of_the_xh_group(self, kind):
        # the forward block is the leading weights of the backward's xh group, in one order
        k = cells._KINDS[kind]
        field, views = k.block
        xh_weights, xh_biases, xh_field = k.groups[0]
        weights, biases = xh_weights[:len(views)], xh_biases[:len(views)]
        assert xh_field == "xh" and [w[-1] for w in weights] == list(views)
        assert dict(k.fields)[field] == f"{len(views)}n"
        p = init_cell(kind, 2, 3, 0.5, Rng(6))
        w, b = p.gates
        tensors = dict(cells.iter_tensors(p))
        assert w.shape == (len(weights), 2 + 3, 3) and b.shape == (len(biases), 3)
        for j, (wj, bj) in enumerate(zip(weights, biases)):
            assert np.array_equal(w[j], tensors[wj].T) and np.array_equal(b[j], tensors[bj])

    def test_rau_block_is_the_gru_block_of_its_gru_part(self):
        p = init_cell("rau", 2, 3, 0.5, Rng(7))
        for a, b in zip(p.gates, p.gru.gates):
            assert a.tobytes() == b.tobytes()
