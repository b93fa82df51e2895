"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 4 (row-wise MNIST) and 5 (small word-level LM) need the real
datasets; they skip with instructions when the files are absent (see
conftest) and run the full desk-scale protocol when present.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from rau import cli as rcli
from rau.autograd import backward
from rau.cells import gru_step, init_cell, rau_step, zero_state
from rau.data import (
    IdxCountMismatchError,
    IdxDimensionError,
    IdxMagicError,
    IdxTruncatedError,
    load_idx,
    load_token_corpus,
    synthetic_memorization,
)
from rau.linalg import Rng
from rau.models import load_checkpoint
from rau.train import evaluate_classifier

from conftest import require_mnist, require_ptb, write_idx_pair

GRADCHECK_BUDGET_S = 30.0
MNIST_BUDGET_S = 20 * 60.0


def test_criterion_1_gradient_certification(capsys):
    t0 = time.monotonic()
    for cell in ("rau", "gru", "lstm"):
        rc = rcli.main(["gradcheck", "--cell", cell, "--m", "3", "--n", "4", "--T", "5",
                        "--trials", "10", "--seed", "7"])
        assert rc == 0, f"gradcheck failed for {cell}"
    elapsed = time.monotonic() - t0
    assert elapsed < GRADCHECK_BUDGET_S
    capsys.readouterr()
    print(f"ACCEPTANCE 1 PASS: gradcheck rau/gru/lstm, 10 trials each, "
          f"rel err <= 1e-5, {elapsed:.1f}s < {GRADCHECK_BUDGET_S:.0f}s")


def test_criterion_2_gru_degeneration_bitwise():
    rng = Rng(1202)
    for _ in range(1000):
        m = 1 + rng.integers(4)
        n = 1 + rng.integers(4)
        p = init_cell("rau", m, n, 1.0, rng)
        x = rng.uniform(-2.0, 2.0, m)
        h_prev = rng.uniform(-1.0, 1.0, n)
        h_gru, tr = gru_step(p.gru, x, h_prev)
        h_rau, _ = rau_step(p, x, h_prev, attended_override=tr.hc)
        assert np.array_equal(h_rau, h_gru)
    print("ACCEPTANCE 2 PASS: attended:=candidate override collapses the attention "
          "update to the plain gated update bitwise on 1000 random instances")


def test_criterion_3_softmax_gate_invariants():
    rng = Rng(1303)
    steps_checked = 0
    for _ in range(25):
        m = 1 + rng.integers(5)
        n = 1 + rng.integers(5)
        p = init_cell("rau", m, n, 1.5, rng)
        state = zero_state(p)
        for _ in range(40):
            x = rng.uniform(-3.0, 3.0, m)
            h, tr = rau_step(p, x, state.h)
            assert np.all(tr.u > 0.0)
            assert abs(tr.u.sum() - 1.0) <= 1e-12
            assert np.all(np.abs(h) < 1.0)
            state.h = h
            steps_checked += 1
    assert steps_checked == 1000
    print("ACCEPTANCE 3 PASS: attention weights positive and sum to 1 within 1e-12; "
          "|h| < 1 from zero init over 1000 steps")


def test_criterion_4_desk_scale_mnist(tmp_path):
    data_dir = str(require_mnist())
    t0 = time.monotonic()
    accs = {}
    for cell in ("rau", "gru", "lstm"):
        cfg = rcli.RunConfig(task="mnist-rows", cell=cell, hidden=128, layers=1,
                             epochs=5, batch_size=128, optimizer="adam", lr=1e-3,
                             dropout=0.0, init_scale=0.1, seed=7, desk_scale=True,
                             data_dir=data_dir)
        records = rcli.run_experiment(cfg, tmp_path / f"mnist-{cell}")
        accs[cell] = [r.metric_value for r in records if r.split == "test"][-1]
    elapsed = time.monotonic() - t0
    for cell, acc in accs.items():
        assert acc >= 0.90, f"{cell} test accuracy {acc:.4f} < 0.90"
    assert elapsed <= MNIST_BUDGET_S
    print(f"ACCEPTANCE 4 PASS: desk-scale row-wise MNIST (10000/2000, 5 epochs, seed 7) "
          f"accuracies rau={accs['rau']:.4f} gru={accs['gru']:.4f} lstm={accs['lstm']:.4f} "
          f"(all >= 0.90), {elapsed / 60:.1f} min <= 20 min; full-scale reference 98.80/98.54/98.55% not reproduced here")


def _unigram_perplexity(train_stream, valid_stream, vocab_size):
    """Add-one-smoothed unigram baseline, the independent LM oracle."""
    counts = np.bincount(train_stream, minlength=vocab_size).astype(np.float64)
    probs = (counts + 1.0) / (counts.sum() + vocab_size)
    nll = -np.log(probs[valid_stream])
    return float(np.exp(nll.mean()))


def test_criterion_5_desk_scale_ptb(tmp_path):
    data_dir = require_ptb()
    cfg = rcli.RunConfig(task="ptb", cell="rau", hidden=200, layers=2, epochs=3,
                         batch_size=20, optimizer="sgd", lr=1.0, decay_factor=0.5,
                         decay_start_epoch=5, dropout=0.0, init_scale=0.1, seed=7,
                         unroll=20, vocab=10000, desk_scale=True, data_dir=str(data_dir))
    records = rcli.run_experiment(cfg, tmp_path / "ptb-rau")
    valid_ppls = [r.metric_value for r in records if r.split == "valid"]
    assert len(valid_ppls) == 3

    corpus = load_token_corpus(data_dir / "ptb.train.txt", data_dir / "ptb.valid.txt",
                               max_vocab=cfg.vocab)
    assert len(corpus.vocab) == 10000
    unigram = _unigram_perplexity(corpus.train, corpus.valid, len(corpus.vocab))
    assert valid_ppls[0] > valid_ppls[1] > valid_ppls[2], valid_ppls
    assert valid_ppls[-1] < unigram, (valid_ppls[-1], unigram)
    print(f"ACCEPTANCE 5 PASS: 3-epoch small LM valid perplexity {valid_ppls} decreasing, "
          f"final {valid_ppls[-1]:.2f} < unigram oracle {unigram:.2f}; "
          f"full-scale 113.89 test perplexity is a reference only")


def test_criterion_6_synthetic_memorization(tmp_path):
    cfg = rcli.RunConfig(task="synthetic", cell="rau", max_steps=300, seed=7)
    out = tmp_path / "synthetic-rau"
    rcli.run_experiment(cfg, out)
    model, _ = load_checkpoint(out / "model.bin")

    root = Rng(cfg.seed)
    root.split()  # init stream, consumed by run_experiment before data
    data_rng = root.split()
    xs, ys = synthetic_memorization(data_rng, rcli.SYNTH_COUNT, rcli.SYNTH_T, rcli.SYNTH_M,
                                    rcli.SYNTH_CLASSES, rcli.SYNTH_NOISE)
    _, acc = evaluate_classifier(model, xs, ys)
    assert acc >= 0.95, f"train accuracy {acc:.4f} < 0.95 within 300 steps"
    print(f"ACCEPTANCE 6 PASS: memorization task (T=28, m=8, 4 classes, 5000 seqs) "
          f"train accuracy {acc:.4f} >= 0.95 within 300 optimizer steps")


def _stripped_metrics(out_dir):
    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    out = []
    for line in lines:
        rec = json.loads(line)
        del rec["wall_ms"]
        out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out).encode()


def test_criterion_7_determinism(tmp_path):
    args = ["train", "--task", "synthetic", "--cell", "rau", "--epochs", "1", "--seed", "7"]
    assert rcli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert rcli.main(args + ["--out", str(tmp_path / "b")]) == 0
    bytes_a = _stripped_metrics(tmp_path / "a" / "synthetic-rau-seed7")
    bytes_b = _stripped_metrics(tmp_path / "b" / "synthetic-rau-seed7")
    assert bytes_a == bytes_b
    print("ACCEPTANCE 7 PASS: same-seed reruns give byte-identical metrics.jsonl "
          "after deleting wall_ms")


def test_criterion_8_format_fidelity(tmp_path):
    # distinct IDX rejection errors
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], image_magic=0x999)
    with pytest.raises(IdxMagicError):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], truncate_images=5)
    with pytest.raises(IdxTruncatedError):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], rows=14)
    with pytest.raises(IdxDimensionError):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], label_count=9)
    with pytest.raises(IdxTruncatedError):
        load_idx(img, lbl)
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1, 2])
    with pytest.raises(IdxCountMismatchError):
        load_idx(img, lbl)

    # checkpoint save -> load -> eval reproduces eval metrics bitwise
    cfg = rcli.RunConfig(task="synthetic", cell="gru", max_steps=3, epochs=1, seed=7)
    out = tmp_path / "run"
    records = rcli.run_experiment(cfg, out)
    final_test = [r for r in records if r.split == "test"][-1]
    model, _ = load_checkpoint(out / "model.bin")
    root = Rng(cfg.seed)
    root.split()
    data_rng = root.split()
    synthetic_memorization(data_rng, rcli.SYNTH_COUNT, rcli.SYNTH_T, rcli.SYNTH_M,
                           rcli.SYNTH_CLASSES, rcli.SYNTH_NOISE)
    xs_test, ys_test = synthetic_memorization(data_rng, rcli.SYNTH_COUNT // 5, rcli.SYNTH_T,
                                              rcli.SYNTH_M, rcli.SYNTH_CLASSES, rcli.SYNTH_NOISE)
    loss, acc = evaluate_classifier(model, xs_test, ys_test)
    assert loss == final_test.loss
    assert acc == final_test.metric_value
    print("ACCEPTANCE 8 PASS: IDX corruption raises distinct errors; "
          "checkpoint save->load->eval reproduces eval metrics bitwise")
