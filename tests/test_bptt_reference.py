"""Sequence-level BPTT against a per-step loop reference.

`autograd.backward_cell_sequence` defers every weight gradient to one
GEMM per gate group after the time loop (or per span of steps in a long
window). The reference below is the
straightforward form it replaced: each step accumulates its own outer
products into the weight gradients. Both compute the same sums in a
different float64 order, so they must agree to rounding: rtol 1e-12,
atol 1e-14.
"""

import numpy as np
import pytest

from rau import autograd
from rau.autograd import Grads, backward, backward_cell_sequence
from rau.cells import init_cell, iter_tensors, new_trace, step, zero_state
from rau.linalg import Rng
from rau.models import build_language_model, lm_forward

RTOL = 1e-12
ATOL = 1e-14
KINDS = ("rau", "gru", "lstm")


# ---- loop reference: per-step outer products -------------------------------

def _acc_outer(dw, da, inp):
    if da.ndim == 1:
        dw += np.outer(da, inp)
    else:
        dw += da.T @ inp


def _acc_bias(db, da):
    db += da if da.ndim == 1 else da.sum(axis=0)


def _ref_gru_branch(p, tr, dz, dhc, g, prefix, m):
    h_prev = tr.xh[..., m:]
    # the trace keeps one shared xrh row; the candidate input is [x, r*h_prev]
    xrh = np.concatenate([tr.xh[..., :m], tr.r * h_prev], axis=-1)
    dac = dhc * (1.0 - tr.hc * tr.hc)
    _acc_outer(g[prefix + "w_c"], dac, xrh)
    _acc_bias(g[prefix + "b_c"], dac)
    dxrh = dac @ p.w_c
    dx = dxrh[..., :m].copy()
    drh = dxrh[..., m:]
    dr = drh * h_prev
    dhp = drh * tr.r
    dar = dr * tr.r * (1.0 - tr.r)
    _acc_outer(g[prefix + "w_r"], dar, tr.xh)
    _acc_bias(g[prefix + "b_r"], dar)
    daz = dz * tr.z * (1.0 - tr.z)
    _acc_outer(g[prefix + "w_z"], daz, tr.xh)
    _acc_bias(g[prefix + "b_z"], daz)
    dxh = dar @ p.w_r + daz @ p.w_z
    dx += dxh[..., :m]
    return dx, dhp + dxh[..., m:]


def _ref_gru_step(p, tr, dh, g, prefix):
    m = p.input_size
    dz = dh * (tr.hc - tr.xh[..., m:])
    dx, dhp = _ref_gru_branch(p, tr, dz, dh * tr.z, g, prefix, m)
    return dx, dhp + dh * (1.0 - tr.z)


def _ref_rau_step(p, tr, dh, g, prefix):
    m = p.input_size
    dz = dh * ((tr.hc + tr.ha) / 2.0 - tr.xh[..., m:])
    dmix = dh * tr.z
    dau = dmix * 0.5 * (1.0 - tr.ha * tr.ha)
    # the trace keeps one shared v row; the attended input is u*xh
    _acc_outer(g[prefix + "w_u"], dau, tr.u * tr.xh)
    _acc_bias(g[prefix + "b_u"], dau)
    dv = dau @ p.w_u
    du = dv * tr.xh
    dalpha = tr.u * (du - np.sum(du * tr.u, axis=-1, keepdims=True))
    _acc_outer(g[prefix + "w_a"], dalpha, tr.xh)
    _acc_bias(g[prefix + "b_a"], dalpha)
    dxh_att = dv * tr.u + dalpha @ p.w_a
    dx, dhp = _ref_gru_branch(p.gru, tr, dz, dmix * 0.5, g, prefix + "gru.", m)
    dx += dxh_att[..., :m]
    return dx, dhp + dxh_att[..., m:] + dh * (1.0 - tr.z)


def _ref_lstm_step(p, tr, dh, dc_in, g, prefix):
    m = p.input_size
    tc = np.tanh(tr.f * tr.c_prev + tr.i * tr.g)
    do = dh * tc
    dc = dc_in + dh * tr.o * (1.0 - tc * tc)
    gates = {
        "f": dc * tr.c_prev * tr.f * (1.0 - tr.f),
        "i": dc * tr.g * tr.i * (1.0 - tr.i),
        "o": do * tr.o * (1.0 - tr.o),
        "g": dc * tr.i * (1.0 - tr.g * tr.g),
    }
    dxh = 0.0
    for name, da in gates.items():
        _acc_outer(g[prefix + "w_" + name], da, tr.xh)
        _acc_bias(g[prefix + "b_" + name], da)
        dxh = dxh + da @ getattr(p, "w_" + name)
    return dxh[..., :m].copy(), dxh[..., m:].copy(), dc * tr.f


def reference_cell_sequence(kind, params, trace, dh_last=None, dh_steps=None, grads=None, prefix=""):
    if grads is None:
        grads = Grads((prefix + k, np.zeros_like(a)) for k, a in iter_tensors(params))
    dx_steps = [None] * len(trace.xh)
    dh = dc = None
    for t in reversed(range(len(trace.xh))):
        tr = trace.row(t)
        if dh is None:
            dh = np.zeros_like(tr.f if kind == "lstm" else tr.z)
            if dh_last is not None:
                dh = dh + dh_last
        if dh_steps is not None:
            dh = dh + dh_steps[t]
        if kind == "lstm":
            dc = np.zeros_like(dh) if dc is None else dc
            dx, dh, dc = _ref_lstm_step(params, tr, dh, dc, grads, prefix)
        else:
            step_fn = _ref_rau_step if kind == "rau" else _ref_gru_step
            dx, dh = step_fn(params, tr, dh, grads, prefix)
        dx_steps[t] = dx
    return grads, dx_steps, dh


def reference_lm_backward(tape, dlogits):
    """The LM tape's backward with the loop reference per layer."""
    mdl = tape.model
    grads = Grads.zeros_like(mdl)
    flat = dlogits.reshape(-1, mdl.w_out.shape[0])
    head_in = tape.head_in
    grads["w_out"] += flat.T @ head_in.reshape(-1, head_in.shape[2])
    grads["b_out"] += flat.sum(axis=0)
    dh_all = (flat @ mdl.w_out).reshape(head_in.shape)
    if tape.out_masks is not None:
        dh_all = dh_all * tape.out_masks
    dh_steps = list(dh_all)
    for layer in reversed(range(len(mdl.cells))):
        _, dx_steps, _ = reference_cell_sequence(
            mdl.cell_kind, mdl.cells[layer], tape.traces[layer],
            dh_steps=dh_steps, grads=grads, prefix=f"cells.{layer}.")
        if tape.in_masks is not None:
            dx_steps = [dx * tape.in_masks[layer][t] for t, dx in enumerate(dx_steps)]
        dh_steps = dx_steps
    for t, dx in enumerate(dh_steps):
        np.add.at(grads["embedding"], tape.token_ids[:, t], dx)
    return grads


# ---- comparisons -------------------------------------------------------------

def _record(kind, m, n, T, batch, seed):
    rng = Rng(seed)
    params = init_cell(kind, m, n, 0.5, rng)
    shape = (T, m) if batch is None else (T, batch, m)
    xs = rng.uniform(-1.0, 1.0, size=shape)
    state = zero_state(kind, n, batch)
    trace = new_trace(kind, T, () if batch is None else (batch,), m, n)
    for t in range(T):
        state, _ = step(kind, params, xs[t], state, trace.row(t))
    return params, trace, rng


def _assert_grads_close(got, want):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=ATOL, err_msg=name)


def _assert_seq_close(got_dx, got_dh, want_dx, want_dh):
    assert len(got_dx) == len(want_dx)
    for t, (a, b) in enumerate(zip(got_dx, want_dx)):
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=ATOL, err_msg=f"dx step {t}")
    np.testing.assert_allclose(got_dh, want_dh, rtol=RTOL, atol=ATOL, err_msg="dh0")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch", [None, 5], ids=["1d", "batched"])
@pytest.mark.parametrize("upstream", ["dh_last", "dh_steps", "both"])
def test_matches_loop_reference(kind, batch, upstream):
    m, n, T = 3, 4, 6
    params, traces, rng = _record(kind, m, n, T, batch, 101)
    h_shape = (n,) if batch is None else (batch, n)
    dh_last = rng.uniform(-1.0, 1.0, size=h_shape) if upstream in ("dh_last", "both") else None
    dh_steps = ([rng.uniform(-1.0, 1.0, size=h_shape) for _ in range(T)]
                if upstream in ("dh_steps", "both") else None)
    want, want_dx, want_dh = reference_cell_sequence(kind, params, traces, dh_last, dh_steps)
    got, got_dx, got_dh = backward_cell_sequence(kind, params, traces, dh_last, dh_steps)
    _assert_grads_close(got, want)
    _assert_seq_close(got_dx, got_dh, want_dx, want_dh)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rows", [1, 10, 20], ids=["span1", "span2", "span4"])
def test_long_window_flushes_deltas_in_spans(kind, rows, monkeypatch):
    # batch 5 at `rows` rows per weight GEMM: spans of 1, 2 and 4 steps over
    # T=6, so the last span is short in the third case
    monkeypatch.setattr(autograd, "DW_GEMM_ROWS", rows)
    params, traces, rng = _record(kind, 3, 4, 6, 5, 31)
    dh_steps = [rng.uniform(-1.0, 1.0, size=(5, 4)) for _ in range(6)]
    want, want_dx, want_dh = reference_cell_sequence(kind, params, traces, dh_steps=dh_steps)
    got, got_dx, got_dh = backward_cell_sequence(kind, params, traces, dh_steps=dh_steps)
    _assert_grads_close(got, want)
    _assert_seq_close(got_dx, got_dh, want_dx, want_dh)


@pytest.mark.parametrize("kind", KINDS)
def test_accumulates_into_existing_grads_under_prefix(kind):
    params, traces, rng = _record(kind, 2, 3, 4, 2, 7)
    dh_last = rng.uniform(-1.0, 1.0, size=(2, 3))
    start = Grads(("layer." + k, rng.uniform(-1.0, 1.0, a.shape)) for k, a in iter_tensors(params))
    want = Grads((k, v.copy()) for k, v in start.items())
    reference_cell_sequence(kind, params, traces, dh_last=dh_last, grads=want, prefix="layer.")
    got, _, _ = backward_cell_sequence(kind, params, traces, dh_last=dh_last, grads=start, prefix="layer.")
    assert got is start
    _assert_grads_close(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_steps(kind):
    params = init_cell(kind, 2, 3, 0.5, Rng(3))
    empty = new_trace(kind, 0, (), 2, 3)
    got, dx_steps, dh0 = backward_cell_sequence(kind, params, empty, dh_last=np.ones(3))
    want, want_dx, want_dh = reference_cell_sequence(kind, params, empty, dh_last=np.ones(3))
    assert len(dx_steps) == len(want_dx) == 0
    assert dh0 is None and want_dh is None
    assert all(not v.any() for v in got.values())
    assert set(got) == set(want)


@pytest.mark.parametrize("kind", KINDS)
def test_two_layer_lm_tape_with_dropout(kind):
    rng = Rng(59)
    mdl = build_language_model(kind, 11, 6, 2, 0.4, rng, dropout=0.3)
    tokens = rng.integers(11, size=(3, 5))
    logits, _, tape = lm_forward(mdl, tokens, train_mode=True, rng=Rng(60))
    assert tape.in_masks is not None and tape.out_masks is not None
    dlogits = rng.uniform(-1.0, 1.0, size=logits.shape)
    want = reference_lm_backward(tape, dlogits)
    got = backward(tape, dlogits)
    _assert_grads_close(got, want)
