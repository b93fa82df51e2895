"""Positive and negative controls for the benchmark's output checks.

Each check must pass on the library as it is and fail when a gradient is
made wrong on purpose, or it guards nothing.
"""

from __future__ import annotations

import math

import pytest

import measure
import workloads
from rau import autograd, train

# added to every entry of the first gradient tensor (the first cell weight)
OFFSET = 1e-3


@pytest.fixture(scope="module")
def reference():
    return measure.load_reference()


@pytest.fixture
def wrong_backward(monkeypatch):
    real = train.backward

    def offset_backward(tape, loss_grad):
        grads = real(tape, loss_grad)
        grads[next(iter(grads))] += OFFSET
        return grads

    monkeypatch.setattr(train, "backward", offset_backward)


@pytest.mark.parametrize("name", ["gradcheck-oracle", "rows-classify", "ptb-lm"])
def test_reference_losses_pass_on_library(name, reference):
    tally = measure.Tally()
    measure.reference_check(workloads.setup(name, 3), tally, None, reference)
    assert (tally.attempted, tally.failed) == (3, 0)


@pytest.mark.parametrize("name", ["gradcheck-oracle", "rows-classify", "ptb-lm"])
def test_reference_losses_catch_wrong_gradient(name, reference, wrong_backward):
    tally = measure.Tally()
    measure.reference_check(workloads.setup(name, 3), tally, None, reference)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_wrong_gradient_moves_losses_far_beyond_tolerance(reference, wrong_backward):
    wl = workloads.setup("gradcheck-oracle", 3)
    for cell in workloads.CELLS:
        bad = wl.reference_losses(cell, wl.models[cell], wl.opts[cell])
        rel = max(abs(b - r) / abs(r) for b, r in zip(bad, reference["gradcheck-oracle"][cell]))
        assert rel > 1e3 * workloads.LOSS_RTOL, (cell, rel)


def test_reference_losses_do_not_depend_on_workload_seed():
    a = workloads.setup("gradcheck-oracle", 1)
    b = workloads.setup("gradcheck-oracle", 2)
    for cell in workloads.CELLS:
        assert a.reference_losses(cell, a.models[cell], a.opts[cell]) == \
            b.reference_losses(cell, b.models[cell], b.opts[cell])


def test_timed_rounds_pass_on_library():
    tally = measure.Tally()
    samples, rounds = measure.timed_rounds(workloads.setup("gradcheck-oracle", 4), 0.0, tally, None)
    assert tally.failed == 0 and len(rounds) == 1
    assert set(samples) == {(a, c, False) for a in ("train", "eval", "gradcheck") for c in workloads.CELLS}


def test_perturbed_gradcheck_is_flagged(monkeypatch):
    real = autograd.gradcheck_cell
    monkeypatch.setattr(autograd, "gradcheck_cell", lambda *a, **k: real(*a, **k, perturb=1e-3))
    tally = measure.Tally()
    samples, _ = measure.timed_rounds(workloads.setup("gradcheck-oracle", 4), 0.0, tally, None)
    assert tally.failed == 3
    assert not any(key[0] == "gradcheck" for key in samples)


def test_diverged_training_counts_as_failed_operations(monkeypatch):
    monkeypatch.setattr(train, "cross_entropy", lambda logits, target: (math.nan, logits * 0.0))
    tally = measure.Tally()
    measure.timed_rounds(workloads.setup("gradcheck-oracle", 4), 0.0, tally, None)
    # each cell: the train call raises DivergenceError, the eval loss is NaN
    assert tally.failed == 6


@pytest.mark.parametrize("name", ["gradcheck-oracle", "rows-classify"])
def test_gru_identity_and_checkpoint_round_trip(name, tmp_path):
    wl = workloads.setup(name, 5)
    tally = measure.Tally()
    measure.gru_identity_check(wl, tally)
    figures = measure.checkpoint_check(wl, tally, tmp_path)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert figures["models.checkpoint_bytes"][0] > 0
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_check_catches_a_changed_tensor(tmp_path, monkeypatch):
    real = measure.models.load_checkpoint

    def lossy_load(path):
        model, config = real(path)
        model.w_out[0, 0] += 1e-12
        return model, config

    monkeypatch.setattr(measure.models, "load_checkpoint", lossy_load)
    tally = measure.Tally()
    measure.checkpoint_check(workloads.setup("gradcheck-oracle", 5), tally, tmp_path)
    assert tally.failed == 1
