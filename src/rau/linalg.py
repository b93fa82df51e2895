"""Dense float64 linear algebra primitives and a deterministic RNG.

Matrices are 2-D C-order float64 ndarrays, vectors are 1-D float64
ndarrays. Everything downstream (cells, models, training) goes through
the handful of operations defined here, so the numeric contract lives in
one place: 64-bit floats, pure functions, reproducible randomness.

Importing it sets numpy's bundled OpenBLAS to one thread per call for the
whole process (`BLAS_THREADS`): at more, OpenBLAS splits each GEMM among
them, and a run's bits would follow the core count and OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _pin_blas() -> int | None:
    """Set the bundled OpenBLAS to one thread per call and return the count it reads back; None where numpy
    bundles no OpenBLAS with the scipy-openblas symbols (numpy < 2, or another BLAS), whose count stays unset."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # numpy < 2 has no _core, nor the symbols
        set_threads, get_threads = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads(1)
    return get_threads()


BLAS_THREADS = _pin_blas()

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class ContractError(ValueError):
    """A caller violated an operation's precondition (shape, range, ...)."""


class NumericError(ArithmeticError):
    """A numeric domain violation; carries the flat index of the first bad entry."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def non_finite(op: str, index: int) -> NumericError:
    """The error of op's check for a non-finite input entry at flat index index."""
    return NumericError(f"{op}: non-finite input at flat index {index}", index=index)


def _check_finite(x: np.ndarray, op: str) -> None:
    # the ufunc reductions that ndarray.all, .max and .sum call through a Python wrapper, here and in softmax
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise non_finite(op, int(np.flatnonzero(~np.isfinite(np.ravel(x)))[0]))


class Rng:
    """Splittable counter-based generator (splitmix64).

    The state advances by a fixed odd constant and each output is a
    finalizer of the new state, so bulk draws are a vectorized map over
    consecutive counter values and agree bit-for-bit with repeated
    single draws. All arithmetic is mod 2^64, identical on every
    platform.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & 0xFFFFFFFFFFFFFFFF

    @staticmethod
    def _mix_py(x: int) -> int:
        x &= 0xFFFFFFFFFFFFFFFF
        x ^= x >> 30
        x = (x * _MIX1) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        x = (x * _MIX2) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 31
        return x

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & 0xFFFFFFFFFFFFFFFF
        return self._mix_py(self._state)

    def _bulk_u64(self, count: int) -> np.ndarray:
        counters = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = counters + np.uint64(self._state)
        self._state = (self._state + count * _GOLDEN) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniform01(self, size=None) -> float | np.ndarray:
        """Uniform draws in [0, 1) with 53-bit resolution."""
        if size is None:
            return (self.next_u64() >> 11) * 2.0**-53
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        u = (self._bulk_u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return u.reshape(shape)

    def uniform(self, low: float, high: float, size=None) -> float | np.ndarray:
        return low + (high - low) * self.uniform01(size)

    def integers(self, n: int, size=None) -> int | np.ndarray:
        """Draws in [0, n) by scaling; adequate bias margin for n << 2^53."""
        if n <= 0:
            raise ContractError("integers: n must be positive")
        u = self.uniform01(size)
        if size is None:
            return int(u * n)
        return (u * n).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        keys = self._bulk_u64(n)
        return np.argsort(keys, kind="stable")

    def split(self) -> "Rng":
        """Derive an independent child stream; advances this stream once."""
        return Rng(self.next_u64())


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function as 0.5*(1 + tanh(v/2)), written into out if given.

    The tanh form cannot overflow: it gives exactly 0 and 1 far out on
    the tails and is within 2.3e-16 of the exact logistic everywhere.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "sigmoid")
    out = np.multiply(v, 0.5, out=np.empty_like(v) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def tanh(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "tanh")
    return np.tanh(v, out=out)


def softmax(v: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax along `axis`, written into out if given; sums to 1, entries in (0,1).

    The shift, exp and normalization all run in out (which may be v
    itself); only the per-row max and sum are allocated.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "softmax")
    out = np.subtract(v, np.maximum.reduce(v, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


def init_matrix(rows: int, cols: int, scale: float, rng: Rng) -> np.ndarray:
    """Entries drawn uniform in [-scale, +scale].

    Scale 0 gives zeros without drawing from rng, so a zero init costs no
    random numbers.
    """
    if rows < 1 or cols < 1:
        raise ContractError("init_matrix: rows and cols must be >= 1")
    if not scale >= 0:  # NaN fails it too
        raise ContractError("init_matrix: scale must be non-negative")
    if scale == 0:
        return np.zeros((rows, cols))
    return rng.uniform(-scale, scale, size=(rows, cols))
