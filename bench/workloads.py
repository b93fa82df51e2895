"""The benchmark's workloads: seeded inputs, models, and the library calls they time.

Every workload runs the three cell kinds (rau, gru, lstm) through the
library's public entry points only: `train.train_epoch_classifier` or
`train.train_epoch_lm` to train, `train.evaluate_classifier` or
`train.evaluate_lm` for the forward-only pass, and
`autograd.gradcheck_cell` for the gradient oracle. Inputs are generated
here from the workload seed; the library only receives the arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rau import data, models, train
from rau.linalg import Rng

CELLS = ("rau", "gru", "lstm")

# `rau gradcheck` defaults (m=3, n=4, T=5, seed 7) with one trial per call.
# The seed stays fixed: the oracle's worst error depends on it, and seed 7
# is the one the CLI and the test suite certify.
GRADCHECK = dict(m=3, n=4, T=5, trials=1, seed=7)

# Models start from INIT_SEED and the reference check trains them on inputs
# from CHECK_SEED, so the recorded reference losses hold for every --seed.
INIT_SEED = 7
CHECK_SEED = 1810_12754

# Relative tolerance of the reference-loss check. Reordering a float64
# reduction moves these losses by ~1e-14 relative; a wrong gradient in one
# tensor moves them by far more than 1e-9 (see tests/test_controls.py).
LOSS_RTOL = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def gemm_flop(rows: int, k: int, out: int) -> float:
    """Flops of a (rows, k) @ (k, out) GEMM with its backward: forward, input and weight gradient."""
    return 3 * 2.0 * rows * k * out


def step_outputs(kind: str, m: int, n: int) -> int:
    """Output width of one cell step's GEMMs over [x, h]: gates and candidate, plus RAU's scores and projection."""
    return {"gru": 3 * n, "lstm": 4 * n, "rau": 4 * n + m + n}[kind]


@dataclass(frozen=True)
class ClassifierShape:
    """Row-scanned uint8 'images' of T rows by m pixels, one cell layer, Adam."""

    T: int
    m: int
    n: int
    classes: int
    batch: int
    lr: float
    init_scale: float
    train_steps: int      # optimizer steps per timed train call
    eval_items: int       # sequences per timed eval call
    eval_batch: int
    pool_chunks: int      # distinct train chunks; rounds cycle through them
    check_steps: int      # optimizer steps of the reference check
    check_eval_items: int


@dataclass(frozen=True)
class LmShape:
    """Zipf-distributed token stream, embedding + cell stack + vocabulary head, SGD."""

    vocab: int
    n: int
    layers: int
    batch: int
    unroll: int
    lr: float
    clip: float
    init_scale: float
    zipf_s: float
    train_windows: int    # windows per timed train call; state carries across them
    eval_windows: int
    pool_chunks: int
    check_windows: int


# the `mnist` preset: T=28, m=28, n=128, 1 layer, 10 classes, B=128, Adam 1e-3, init 0.1
ROWS = ClassifierShape(T=28, m=28, n=128, classes=10, batch=128, lr=1e-3, init_scale=0.1,
                       train_steps=2, eval_items=512, eval_batch=256, pool_chunks=8,
                       check_steps=2, check_eval_items=256)
# the gradcheck shape (m=3, n=4, T=5), single-example steps: per-call overhead dominates
TINY = ClassifierShape(T=5, m=3, n=4, classes=4, batch=1, lr=1e-2, init_scale=0.5,
                       train_steps=16, eval_items=32, eval_batch=1, pool_chunks=16,
                       check_steps=16, check_eval_items=32)
# the `ptb-small` preset: V=10k, n=200, 2 layers, B=20, unroll 20, SGD 1.0, clip 5, init 0.1
PTB = LmShape(vocab=10000, n=200, layers=2, batch=20, unroll=20, lr=1.0, clip=5.0, init_scale=0.1,
              zipf_s=1.0, train_windows=2, eval_windows=2, pool_chunks=8, check_windows=2)


class ClassifierWorkload:
    def __init__(self, name: str, shape: ClassifierShape, seed: int, main: str):
        self.name, self.shape, self.seed, self.main = name, shape, seed, main
        s = shape
        gen = np.random.default_rng(seed)
        n_train = s.pool_chunks * s.train_steps * s.batch
        train_img = gen.integers(0, 256, size=(n_train, s.T, s.m), dtype=np.uint8)
        eval_img = gen.integers(0, 256, size=(s.eval_items, s.T, s.m), dtype=np.uint8)
        self.train_y = gen.integers(0, s.classes, size=n_train)
        self.eval_y = gen.integers(0, s.classes, size=s.eval_items)
        self.identity_inputs = (gen.uniform(-1, 1, size=(s.batch, s.m)), gen.uniform(-1, 1, size=(s.batch, s.n)))
        chk = np.random.default_rng(CHECK_SEED)
        n_check = s.check_steps * s.batch
        check_img = chk.integers(0, 256, size=(n_check + s.check_eval_items, s.T, s.m), dtype=np.uint8)
        self.check_y = chk.integers(0, s.classes, size=n_check + s.check_eval_items)

        t0 = time.perf_counter()
        self.train_x = data.images_to_sequences(train_img)
        self.eval_x = data.images_to_sequences(eval_img)
        self.check_x = data.images_to_sequences(check_img)
        self.prepare_s = time.perf_counter() - t0
        self.distinct_tokens_per_window = 0.0

        self.models = {c: models.build_classifier(c, s.m, s.n, 1, s.classes, s.init_scale, Rng(INIT_SEED))
                       for c in CELLS}
        self.opts = {c: train.make_optimizer("adam", self.models[c], s.lr) for c in CELLS}
        self.rngs = {c: Rng(seed) for c in CELLS}

    def step_flop(self, cell: str) -> float:
        s = self.shape
        return s.T * gemm_flop(s.batch, s.m + s.n, step_outputs(cell, s.m, s.n)) + gemm_flop(s.batch, s.n, s.classes)

    def train(self, cell: str, rnd: int):
        """One timed train call; returns (sequences, optimizer steps, mean loss)."""
        s = self.shape
        k = s.train_steps * s.batch
        lo = (rnd % s.pool_chunks) * k
        record, steps = train.train_epoch_classifier(
            self.models[cell], self.train_x[lo:lo + k], self.train_y[lo:lo + k], self.opts[cell],
            self.rngs[cell], s.batch, 1, self.seed)
        return k, steps, record.loss

    def evaluate(self, cell: str):
        loss, _ = train.evaluate_classifier(self.models[cell], self.eval_x, self.eval_y, self.shape.eval_batch)
        return self.shape.eval_items, loss

    def reference_losses(self, cell: str, model, opt) -> tuple[float, float]:
        """Train `check_steps` steps on the check inputs, then evaluate; (train loss, eval loss)."""
        s = self.shape
        n = s.check_steps * s.batch
        record, _ = train.train_epoch_classifier(model, self.check_x[:n], self.check_y[:n], opt,
                                                 Rng(CHECK_SEED), s.batch, 1, CHECK_SEED)
        loss, _ = train.evaluate_classifier(model, self.check_x[n:], self.check_y[n:], s.eval_batch)
        return record.loss, loss


class LmWorkload:
    def __init__(self, name: str, shape: LmShape, seed: int, main: str):
        self.name, self.shape, self.seed, self.main = name, shape, seed, main
        s = shape
        gen = np.random.default_rng(seed)
        chunk = s.batch * (s.train_windows * s.unroll + 1)
        self.train_streams = [self._zipf(gen, chunk) for _ in range(s.pool_chunks)]
        self.eval_stream = self._zipf(gen, s.batch * (s.eval_windows * s.unroll + 1))
        self.identity_inputs = (gen.uniform(-1, 1, size=(s.batch, s.n)), gen.uniform(-1, 1, size=(s.batch, s.n)))
        chk = np.random.default_rng(CHECK_SEED)
        self.check_train = self._zipf(chk, s.batch * (s.check_windows * s.unroll + 1))
        self.check_eval = self._zipf(chk, s.batch * (s.check_windows * s.unroll + 1))

        t0 = time.perf_counter()
        windows = [w for stream in self.train_streams for w in data.lm_batches(stream, s.batch, s.unroll)]
        self.prepare_s = time.perf_counter() - t0
        self.distinct_tokens_per_window = float(np.mean([len(np.unique(inp)) for inp, _, _ in windows]))

        self.models = {c: models.build_language_model(c, s.vocab, s.n, s.layers, s.init_scale, Rng(INIT_SEED))
                       for c in CELLS}
        self.opts = {c: train.make_optimizer("sgd", self.models[c], s.lr) for c in CELLS}
        self.rngs = {c: Rng(seed) for c in CELLS}

    def _zipf(self, gen, count: int) -> np.ndarray:
        ranks = np.arange(1, self.shape.vocab + 1, dtype=np.float64)
        p = ranks ** -self.shape.zipf_s
        return gen.choice(self.shape.vocab, size=count, p=p / p.sum()).astype(np.int64)

    def step_flop(self, cell: str) -> float:
        s = self.shape
        cell_flop = s.layers * s.unroll * gemm_flop(s.batch, 2 * s.n, step_outputs(cell, s.n, s.n))
        return cell_flop + gemm_flop(s.batch * s.unroll, s.n, s.vocab)

    def train(self, cell: str, rnd: int):
        """One timed train call; returns (target tokens, optimizer steps, mean loss)."""
        s = self.shape
        record, steps = train.train_epoch_lm(
            self.models[cell], self.train_streams[rnd % s.pool_chunks], self.opts[cell], self.rngs[cell],
            s.batch, s.unroll, 1, self.seed, clip_norm=s.clip)
        return steps * s.batch * s.unroll, steps, record.loss

    def evaluate(self, cell: str):
        s = self.shape
        loss, _ = train.evaluate_lm(self.models[cell], self.eval_stream, s.batch, s.unroll)
        return s.eval_windows * s.batch * s.unroll, loss

    def reference_losses(self, cell: str, model, opt) -> tuple[float, float]:
        s = self.shape
        record, _ = train.train_epoch_lm(model, self.check_train, opt, Rng(CHECK_SEED), s.batch, s.unroll,
                                         1, CHECK_SEED, clip_norm=s.clip)
        loss, _ = train.evaluate_lm(model, self.check_eval, s.batch, s.unroll)
        return record.loss, loss


WORKLOADS = {
    # the recurrent step is ~98% of a training step: cells, linalg and cell BPTT show here
    "rows-classify": lambda seed: ClassifierWorkload("rows-classify", ROWS, seed, main="train"),
    # vocabulary-sized head, cross-entropy, dense SGD update and clip norm: over half a window
    "ptb-lm": lambda seed: LmWorkload("ptb-lm", PTB, seed, main="train"),
    # 1-D inputs of 3-7 elements: per-call overhead dominates and BLAS does nothing
    "gradcheck-oracle": lambda seed: ClassifierWorkload("gradcheck-oracle", TINY, seed, main="gradcheck"),
}


def setup(name: str, seed: int):
    return WORKLOADS[name](seed)
