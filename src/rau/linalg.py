"""Dense float64 linear algebra primitives and a deterministic RNG.

Matrices are 2-D C-order float64 ndarrays, vectors are 1-D float64
ndarrays. Everything downstream (cells, models, training) goes through
the handful of operations defined here, so the numeric contract lives in
one place: 64-bit floats, pure functions, reproducible randomness.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
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


def _check_finite(x: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(np.ravel(x)))[0])
        raise NumericError(f"{op}: non-finite input at flat index {bad}", index=bad)


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


def matvec(m: Matrix, v: Vector) -> Vector:
    """Matrix-vector product with 64-bit accumulation."""
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if m.ndim != 2 or v.ndim != 1:
        raise ContractError(f"matvec: need 2-D matrix and 1-D vector, got {m.ndim}-D and {v.ndim}-D")
    if m.shape[1] != v.shape[0]:
        raise ContractError(f"matvec: matrix cols {m.shape[1]} != vector len {v.shape[0]}")
    return m @ v


def concat(a: Vector, b: Vector) -> Vector:
    """[a, b] with a occupying the first a.len slots (input first, hidden second)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ContractError("concat: both operands must be 1-D")
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ContractError("concat: zero-length operand not permitted")
    return np.concatenate([a, b])


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic function as 0.5*(1 + tanh(v/2)).

    The tanh form cannot overflow: it gives exactly 0 and 1 far out on
    the tails and is within 2.3e-16 of the exact logistic everywhere.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "sigmoid")
    out = np.multiply(v, 0.5, out=np.empty_like(v))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def tanh(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "tanh")
    return np.tanh(v)


def softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax along `axis`; output sums to 1, entries in (0,1)."""
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "softmax")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def init_matrix(rows: int, cols: int, scale: float, rng: Rng) -> Matrix:
    """Entries drawn uniform in [-scale, +scale]."""
    if rows < 1 or cols < 1:
        raise ContractError("init_matrix: rows and cols must be >= 1")
    if scale < 0:
        raise ContractError("init_matrix: scale must be non-negative")
    return rng.uniform(-scale, scale, size=(rows, cols))
