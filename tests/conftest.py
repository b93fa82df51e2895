"""Shared fixtures: crafted IDX files and optional real-dataset roots.

Real MNIST/PTB files are not bundled; the desk-scale training tests
look for them under data/mnist and data/ptb (or RAU_MNIST_DIR /
RAU_PTB_DIR) and skip with instructions when absent.
"""

from __future__ import annotations

import ctypes
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from rau import autograd

REPO_ROOT = Path(__file__).resolve().parent.parent

MNIST_DIR = Path(os.environ.get("RAU_MNIST_DIR", REPO_ROOT / "data" / "mnist"))
PTB_DIR = Path(os.environ.get("RAU_PTB_DIR", REPO_ROOT / "data" / "ptb"))

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)
PTB_FILES = ("ptb.train.txt", "ptb.valid.txt", "ptb.test.txt")


def require_mnist() -> Path:
    missing = [f for f in MNIST_FILES if not (MNIST_DIR / f).exists()]
    if missing:
        pytest.skip(
            f"MNIST IDX files not found under {MNIST_DIR} (missing: {', '.join(missing)}). "
            "Place the four standard uncompressed IDX files there or set RAU_MNIST_DIR."
        )
    return MNIST_DIR


def require_ptb() -> Path:
    missing = [f for f in PTB_FILES if not (PTB_DIR / f).exists()]
    if missing:
        pytest.skip(
            f"PTB text files not found under {PTB_DIR} (missing: {', '.join(missing)}). "
            "Place ptb.train.txt/ptb.valid.txt/ptb.test.txt there or set RAU_PTB_DIR."
        )
    return PTB_DIR


def write_idx_pair(dirpath: Path, images: np.ndarray, labels: np.ndarray,
                   image_magic: int = 0x803, label_magic: int = 0x801,
                   rows: int | None = None, cols: int | None = None,
                   truncate_images: int = 0, label_count: int | None = None):
    """Write a (possibly corrupted) IDX image/label pair; returns the two paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, r, c = images.shape
    img_path = dirpath / "images-idx3-ubyte"
    lbl_path = dirpath / "labels-idx1-ubyte"
    body = struct.pack(">IIII", image_magic, n, rows if rows is not None else r,
                       cols if cols is not None else c) + images.tobytes()
    if truncate_images:
        body = body[:-truncate_images]
    img_path.write_bytes(body)
    lbl_path.write_bytes(struct.pack(">II", label_magic,
                                     label_count if label_count is not None else len(labels))
                         + labels.tobytes())
    return img_path, lbl_path


@pytest.fixture
def idx_fixture(tmp_path):
    """A well-formed 2-image IDX pair with recognizable pixel values."""
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[0, 3, 7] = 128
    images[1, 27, 27] = 7
    labels = np.array([3, 9], dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    return img_path, lbl_path, images, labels


@pytest.fixture
def one_blas_thread():
    """BLAS at one thread per call while the test runs, where the worker runs (see `autograd._handoff`).

    With more threads, BLAS partitions each GEMM among them by the GEMM's own shape, so a forced half
    would get other bits than the whole; and the automatic decisions never hand work to the worker there.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    before = autograd._blas_threads()
    try:
        set_threads = ctypes.CDLL(umath.__file__).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        set_threads = None
    if before is None or set_threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set, so the worker never runs")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    yield
    set_threads(before)


@pytest.fixture
def handoff(monkeypatch):
    """force(on): from now on every handoff the policy decides goes to the worker (on) or stays inline.

    It patches the one policy, `autograd._handoff`, so it forces the span flushes, the head's halves and
    gradients and a forward's plan at once; `_forward_plan` still runs the forward inline while a step
    function is wrapped. To force one use alone, lower that use's floor under the `host` fixture.
    """
    def force(on: bool):
        monkeypatch.setattr(autograd, "_handoff", lambda flop, floor: on)

    return force


@pytest.fixture
def same_bits(handoff):
    """same_bits(run, force=handoff): run() under force(False), then under force(True), by default with every
    handoff off and then on; the two results, dicts of arrays or numbers, must match key for key and byte for byte.
    """
    def check(run, force=handoff):
        force(False)
        off = run()
        force(True)
        on = run()
        assert list(off) == list(on)
        for name in off:
            assert np.asarray(off[name]).tobytes() == np.asarray(on[name]).tobytes(), name

    return check


@pytest.fixture
def host(monkeypatch):
    """The host the policy sees, as a dict to change: its BLAS threads per call and its CPU affinity.

    It starts as one BLAS thread and two CPUs, where `autograd._handoff` hands work of its floor over.
    """
    state = {"blas": 1, "cpus": {0, 1}}
    monkeypatch.setattr(autograd, "_blas_threads", lambda: state["blas"])
    monkeypatch.setattr(autograd.os, "sched_getaffinity", lambda pid: state["cpus"])
    return state


@pytest.fixture
def jobs(monkeypatch):
    """The name of the function behind every job handed to the worker, in order."""
    names = []
    submit = autograd._submit

    def record(job):
        names.append(job.func.__name__)
        return submit(job)

    monkeypatch.setattr(autograd, "_submit", record)
    return names


@pytest.fixture
def queued(monkeypatch):
    """The Future of every job handed to the worker, in order."""
    futures = []
    submit = autograd._submit

    def keep(job):
        futures.append(submit(job))
        return futures[-1]

    monkeypatch.setattr(autograd, "_submit", keep)
    return futures
