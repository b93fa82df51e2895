"""An SGD window writes only what it must: the reached embedding rows, and dlogits over the logits.

`backward` records on its `Grads` the embedding rows the token ids reach
(`grads.rows`); clipping's scale and the SGD update then run over the
gradient's dense part (the cells and the head) and those rows alone. Every
other row of the embedding gradient holds 0, so the result must be the bits
of the dense update over the whole buffer: g *= lr; buf -= g. A train
window's cross-entropy writes its gradient over its own logits
(`cross_entropy(out=)`), with the bits of the allocating call. Each check
runs with every handoff to the worker thread off and then on.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from rau import models
from rau.autograd import backward, clip_global_norm
from rau.linalg import ContractError, Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward
from rau.train import apply_update, make_optimizer, train_epoch_lm

from conftest import pinned_blas

KINDS = ("rau", "gru", "lstm")
V, N, B, T = 37, 6, 3, 4
LR = 0.7

pytestmark = pinned_blas


def _lm(kind, layers):
    mdl = build_language_model(kind, V, N, layers, 0.5, Rng(1), dropout=0.2)
    ids, targets = Rng(2).integers(V, size=(B, T)), Rng(3).integers(V, size=(B, T))

    def forward():
        logits, _, tape = lm_forward(mdl, ids, train_mode=True, rng=Rng(4))
        _, dflat = cross_entropy(logits.reshape(T * B, V), np.ascontiguousarray(targets.T).reshape(T * B))
        return dflat.reshape(T, B, V), tape

    return mdl, ids, forward


def _embedding_classifier(kind, layers):
    mdl = build_classifier(kind, None, N, layers, 4, 0.5, Rng(5), vocab=V, emb_dim=5, dropout=0.2)
    ids, ys = Rng(6).integers(V, size=(B, T)), Rng(7).integers(4, size=B)

    def forward():
        logits, tape = classify_forward(mdl, ids, train_mode=True, rng=Rng(8))
        return cross_entropy(logits, ys)[1], tape

    return mdl, ids, forward


MODELS = {"lm1": lambda kind: _lm(kind, 1), "lm2": lambda kind: _lm(kind, 2),
          "classifier": lambda kind: _embedding_classifier(kind, 1)}


def _grads(model, kind):
    mdl, ids, forward = MODELS[model](kind)
    dlogits, tape = forward()
    return mdl, ids, backward(tape, dlogits)


@pytest.mark.parametrize("on", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("kind", KINDS)
def test_grads_name_the_reached_rows_and_hold_zero_elsewhere(kind, model, on, handoff):
    handoff(on)
    _, ids, grads = _grads(model, kind)
    assert np.array_equal(grads.rows, np.unique(ids))
    unreached = np.setdiff1d(np.arange(V), ids)
    assert unreached.size and not grads["embedding"][unreached].any()
    assert np.abs(grads["embedding"][grads.rows]).sum(axis=1).all()
    # the dense part is the buffer before the embedding: the cells and the head
    assert grads.dense.size == grads.buffer.size - grads["embedding"].size
    assert np.shares_memory(grads.dense, grads["w_out"]) and not np.shares_memory(grads.dense, grads["embedding"])


@pytest.mark.parametrize("clip", ["off", "fires"])
@pytest.mark.parametrize("on", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("kind", KINDS)
def test_sgd_gives_the_bits_of_the_dense_update(kind, model, on, clip, handoff):
    handoff(on)
    mdl, _, grads = _grads(model, kind)
    ref_mdl, ref = copy.deepcopy((mdl, grads))
    # the dense clip and update over the whole buffer: the norm's per-tensor dots in path order, then one scale
    norm = math.sqrt(sum(float(v.ravel() @ v.ravel()) for v in ref.values()))
    max_norm = norm / 3 if clip == "fires" else norm * 3
    if norm > max_norm:
        ref.buffer *= max_norm / norm
    ref.buffer *= LR
    ref_mdl.buffer -= ref.buffer

    clip_global_norm(grads, max_norm)
    apply_update(make_optimizer("sgd", mdl, LR), mdl, grads)
    assert mdl.buffer.tobytes() == ref_mdl.buffer.tobytes()


@pytest.mark.parametrize("on", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("kind", KINDS)
def test_an_lm_epoch_gives_the_bits_of_allocating_cross_entropy_and_a_dense_update(kind, on, handoff):
    # two full windows per row with the state carried, dropout on and clipping firing; the reference
    # composes the forward, an allocating cross-entropy and the dense update over the whole buffer
    handoff(on)
    mdl = build_language_model(kind, V, N, 2, 0.5, Rng(9), dropout=0.2)
    ref = copy.deepcopy(mdl)
    stream = Rng(10).integers(V, size=B * (2 * T + 1))
    max_norm = 1e-3
    train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, LR), Rng(11), B, T, 1, 0, clip_norm=max_norm)

    rows, rng, states = stream.reshape(B, -1), Rng(11), None
    for lo in range(0, 2 * T, T):
        logits, states, tape = lm_forward(ref, rows[:, lo:lo + T], h_init=states, train_mode=True, rng=rng)
        targets = np.ascontiguousarray(rows[:, lo + 1:lo + T + 1].T).reshape(T * B)
        _, dflat = cross_entropy(logits.reshape(T * B, V).copy(), targets)
        g = backward(tape, dflat.reshape(T, B, V)).buffer
        norm = math.sqrt(sum(float(v.ravel() @ v.ravel()) for _, v in ref.on_buffer(g).tensors))
        assert norm > max_norm
        g *= max_norm / norm
        g *= LR
        ref.buffer -= g
    assert mdl.buffer.tobytes() == ref.buffer.tobytes()


def test_an_edit_to_a_row_not_reached_does_not_reach_sgd():
    mdl, ids, grads = _grads("lm1", "gru")
    unreached = np.setdiff1d(np.arange(V), ids)[0]
    grads["embedding"][unreached] = 1.0
    before = mdl.embedding[unreached].copy()
    apply_update(make_optimizer("sgd", mdl, LR), mdl, grads)
    assert np.array_equal(mdl.embedding[unreached], before)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_keep_the_rows(how):
    _, ids, grads = _grads("lm2", "rau")
    dup = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda g: pickle.loads(pickle.dumps(g))}[how](grads)
    assert np.array_equal(dup.rows, np.unique(ids))


@pytest.mark.parametrize("on", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("shape", [(4 * 37, 9), (9,)], ids=["batch", "single"])
def test_cross_entropy_out_has_the_allocating_calls_bits(shape, on, handoff, monkeypatch):
    handoff(on)
    monkeypatch.setattr(models, "CE_BLOCK_BYTES", 10 * 8 * 9)  # blocks of 10 rows, so the halves cut
    logits = Rng(12).uniform(-8.0, 8.0, shape)
    targets = Rng(13).integers(9, size=shape[:-1]) if len(shape) > 1 else 4
    loss, dlogits = cross_entropy(logits, targets)
    # into an array of its own, and over the logits themselves
    for lg, out in ((logits, np.empty(shape)), (logits.copy(),) * 2):
        got_loss, got = cross_entropy(lg, targets, out=out)
        assert got is out and got_loss == loss and got.tobytes() == dlogits.tobytes()


@pytest.mark.parametrize("out,grad", [
    (np.empty((5, 8)), True),            # another shape
    (np.empty((5, 9), np.float32), True),  # another dtype
    (np.empty((9, 5)).T, True),          # not C-contiguous
    (np.empty((5, 18))[:, ::2], True),   # strided
    (np.empty((5, 9)), False),           # no gradient to write
], ids=["shape", "dtype", "transposed", "strided", "no-grad"])
def test_cross_entropy_rejects_an_out_it_cannot_fill(out, grad):
    logits = Rng(14).uniform(-1.0, 1.0, (5, 9))
    kept = logits.copy()
    with pytest.raises(ContractError, match="out must be"):
        cross_entropy(logits, np.arange(5), grad=grad, out=out)
    assert np.array_equal(logits, kept)

