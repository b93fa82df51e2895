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

A wrong block shows and a wrong entry may not: the negative control scales
one row of the head-weight gradient by 1.01.
"""

import numpy as np
import pytest

from rau.autograd import backward
from rau.cells import iter_tensors
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, cross_entropy, lm_forward

EPS = 1e-5
# Over every case here, handoffs off and on alike, the worst clean error was 5.4e-11 (the LM, LSTM). The
# tolerance keeps a margin of 185x over it; the negative control reads 3.2e-6 or more along the head-weight
# direction and 2.1e-6 or more along its worst whole-model direction.
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


def _check(model, kind, tamper=None) -> dict:
    mdl, forward = MODELS[model](kind)
    _, dlogits, tape = forward(mdl)
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
