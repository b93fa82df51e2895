"""The whole model's gradient against central differences along directions.

`autograd.gradcheck_cell` checks one cell against a linear loss. This file
checks what that oracle never reaches: the head and cross-entropy, the
embedding gradient, the dropout masks and a stack of two layers, with every
handoff to the worker thread off and then on. For a direction v over the
model's tensors, (L(p + eps*v) - L(p - eps*v)) / 2eps must match g.v, with g
from `autograd.backward`, along three random whole-model directions and one
random direction per tensor. The loss is the train-mode forward plus
cross-entropy; reseeding the `Rng` fixes the dropout masks. The error
along v is |fd - g.v| / (|g| |v|), |g| the whole gradient's norm: g.v can
be no larger than the denominator, and a direction nearly orthogonal to
g does not turn the difference's rounding into a large relative error.

A wrong block shows and a wrong entry may not: the negative controls scale
one row of the head-weight gradient, or one row of the LM's embedding
gradient that the batch's ids reach, by 1.01, or leave a dropout mask out
of the backward.
"""

import numpy as np
import pytest

from rau.autograd import backward
from rau.cells import iter_tensors
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward

EPS = 1e-5
# Over every case here, handoffs off and on alike, the worst clean error was 5.4e-11 (the LM, LSTM). The
# tolerance keeps a margin of 185x over it; the head-weight control reads 3.2e-6 or more along the head-weight
# direction and 2.1e-6 or more along its worst whole-model direction, the embedding control 6.8e-7 or more along
# the embedding direction and 4.3e-6 or more along its worst whole-model direction, a dropout mask left out of the
# backward 2.6e-7 or more along each tensor it reaches and 3.2e-3 or more along its worst whole-model direction.
TOL = 1e-8
KINDS = ("rau", "gru", "lstm")
MASK_SEED = 42


def _classifier(kind):
    rng = Rng(3)
    mdl = build_classifier(kind, 3, 4, 1, 3, 0.5, rng, dropout=0.2)
    xs, ys = rng.uniform(-1.0, 1.0, (3, 4, 3)), rng.integers(3, size=3)

    def forward(m):
        logits, tape = classify_forward(m, xs, train_mode=True, rng=Rng(MASK_SEED))
        loss, dlogits = cross_entropy(logits, ys)
        return loss, dlogits, tape

    return mdl, forward


def _language_model(kind):
    rng = Rng(4)
    mdl = build_language_model(kind, 11, 5, 2, 0.5, rng, dropout=0.2)
    tokens, targets = rng.integers(11, size=(2, 3)), rng.integers(11, size=(2, 3))

    def forward(m):
        logits, _, tape = lm_forward(m, tokens, train_mode=True, rng=Rng(MASK_SEED))
        T, B, V = logits.shape
        loss, dflat = cross_entropy(logits.reshape(T * B, V), np.ascontiguousarray(targets.T).reshape(T * B))
        return loss, dflat.reshape(T, B, V), tape

    return mdl, forward


MODELS = {"classifier": _classifier, "lm": _language_model}


def _directions(mdl, rng: Rng) -> dict:
    """name -> a direction: a dict of one array per tensor path, three over every tensor, one per tensor."""
    shapes = [(name, a.shape) for name, a in iter_tensors(mdl)]
    out = {f"whole{i}": {name: rng.uniform(-1.0, 1.0, shape) for name, shape in shapes} for i in range(3)}
    for name, shape in shapes:
        out[name] = {name: rng.uniform(-1.0, 1.0, shape)}
    return out


def _loss_at(mdl, forward, v: dict, step: float) -> float:
    """The loss at the parameters moved by step*v, which it moves back to the bit."""
    tensors = dict(iter_tensors(mdl))
    saved = {name: tensors[name].copy() for name in v}
    for name, d in v.items():
        tensors[name] += step * d
    try:
        return forward(mdl)[0]
    finally:
        for name, a in saved.items():
            tensors[name][...] = a


def _errors(mdl, forward, grads, directions: dict) -> dict:
    """name -> |fd - g.v| / (|g| |v|) along each direction."""
    g_norm = np.sqrt(sum(np.sum(g * g) for g in grads.values()))
    out = {}
    for name, v in directions.items():
        fd = (_loss_at(mdl, forward, v, EPS) - _loss_at(mdl, forward, v, -EPS)) / (2 * EPS)
        gv = sum(float(np.sum(grads[path] * d)) for path, d in v.items())
        out[name] = abs(fd - gv) / (g_norm * np.sqrt(sum(np.sum(d * d) for d in v.values())))
    return out


def _check(model, kind, tamper=None, drop=None) -> dict:
    """name -> error along each direction; tamper edits the gradients, and drop names dropout masks that the
    tape loses before the backward, which then skips them where the forward applied them."""
    mdl, forward = MODELS[model](kind)
    _, dlogits, tape = forward(mdl)
    if drop is not None:
        setattr(tape, drop, None)
    grads = backward(tape, dlogits)
    if tamper is not None:
        tamper(grads)
    return _errors(mdl, forward, grads, _directions(mdl, Rng(5)))


@pytest.mark.parametrize("on", [False, True], ids=["inline", "worker"])
@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("kind", KINDS)
def test_gradient_matches_central_differences_along_directions(kind, model, on, handoff, jobs):
    handoff(on)
    errors = _check(model, kind)
    assert max(errors.values()) <= TOL, {name: f"{e:.2e}" for name, e in errors.items() if e > TOL}
    assert ("_head_grads" in jobs) == on  # with handoffs on, the worker took part in every backward


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("kind", KINDS)
def test_a_head_weight_row_scaled_by_1_01_is_caught(kind, model):
    def scale_row(grads):
        grads["w_out"][1] *= 1.01

    errors = _check(model, kind, scale_row)
    assert errors["w_out"] > TOL and max(errors[f"whole{i}"] for i in range(3)) > TOL
    assert all(e <= TOL for name, e in errors.items() if name != "w_out" and not name.startswith("whole"))


@pytest.mark.parametrize("kind", KINDS)
def test_an_embedding_row_scaled_by_1_01_is_caught(kind):
    def scale_row(grads):
        # a row no id reaches has a zero gradient, which no scale changes: take the largest, which the ids reach
        rows = np.add.reduce(np.abs(grads["embedding"]), axis=1)
        assert rows.any()
        grads["embedding"][rows.argmax()] *= 1.01

    errors = _check("lm", kind, scale_row)
    assert errors["embedding"] > TOL and max(errors[f"whole{i}"] for i in range(3)) > TOL
    assert all(e <= TOL for name, e in errors.items() if name != "embedding" and not name.startswith("whole"))


@pytest.mark.parametrize("model,mask", [("classifier", "out_masks"), ("lm", "out_masks"), ("lm", "in_masks")])
@pytest.mark.parametrize("kind", KINDS)
def test_a_dropout_mask_left_out_of_the_backward_is_caught(kind, model, mask):
    # the head input's masks reach every gradient below the head; the cell inputs' masks reach the first layer's
    # and the embedding's, and in the one-layer classifier, whose inputs are no parameters, none
    errors = _check(model, kind, drop=mask)
    paths = [name for name, _ in iter_tensors(MODELS[model](kind)[0])]
    below = [name for name in paths if name not in ("w_out", "b_out")]
    reached = below if mask == "out_masks" else [name for name in below if not name.startswith("cells.1.")]
    assert [name for name in paths if errors[name] > TOL] == reached
    assert max(errors[f"whole{i}"] for i in range(3)) > TOL
