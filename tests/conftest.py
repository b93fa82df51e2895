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
    """BLAS at one thread per call while the test runs, where the worker runs (see `autograd._second_core`).

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
