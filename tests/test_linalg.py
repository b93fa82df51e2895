import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rau.linalg import (
    ContractError,
    NumericError,
    Rng,
    concat,
    init_matrix,
    matvec,
    sigmoid,
    softmax,
    tanh,
)


def scalar_matvec(m, v):
    """Independent triple-loop reference."""
    rows, cols = m.shape
    out = [0.0] * rows
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += float(m[i, j]) * float(v[j])
        out[i] = acc
    return np.array(out)


class TestMatvec:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(matvec(np.eye(3), v), v)

    def test_zero_matrix(self):
        assert np.array_equal(matvec(np.zeros((2, 3)), np.array([4.0, 5.0, 6.0])), np.zeros(2))

    def test_against_scalar_loop(self):
        rng = Rng(42)
        m = rng.uniform(-2, 2, (3, 2))
        v = rng.uniform(-2, 2, 2)
        assert np.allclose(matvec(m, v), scalar_matvec(m, v), atol=1e-12, rtol=0)

    def test_against_scalar_loop_16x16(self):
        rng = Rng(7)
        for _ in range(5):
            m = rng.uniform(-1, 1, (16, 16))
            v = rng.uniform(-1, 1, 16)
            assert np.allclose(matvec(m, v), scalar_matvec(m, v), atol=1e-12, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            matvec(np.zeros((2, 3)), np.zeros(4))

    def test_pure(self):
        rng = Rng(3)
        m = rng.uniform(-1, 1, (4, 4))
        v = rng.uniform(-1, 1, 4)
        assert np.array_equal(matvec(m, v), matvec(m, v))


class TestConcat:
    def test_basic(self):
        assert np.array_equal(concat(np.array([1.0, 2.0]), np.array([3.0])), np.array([1.0, 2.0, 3.0]))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            concat(np.array([]), np.array([1.0]))
        with pytest.raises(ContractError):
            concat(np.array([1.0]), np.array([]))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    def test_length_and_order(self, a, b):
        out = concat(np.array(a), np.array(b))
        assert out.shape == (len(a) + len(b),)
        assert np.array_equal(out[: len(a)], np.array(a))
        assert np.array_equal(out[len(a):], np.array(b))


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.zeros(3))[0] == 0.5

    def test_tanh_zero(self):
        assert tanh(np.zeros(3))[0] == 0.0

    def test_sigmoid_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_nonfinite_rejected_with_index(self):
        bad = np.array([0.0, np.inf, 1.0])
        for fn in (sigmoid, tanh, softmax):
            with pytest.raises(NumericError) as exc:
                fn(bad)
            assert exc.value.index == 1

    def test_sigmoid_within_2p3e_16_of_exact_logistic(self):
        import mpmath

        mpmath.mp.dps = 40
        v = np.linspace(-40.0, 40.0, 4001)
        exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(x)))) for x in v])
        assert np.max(np.abs(sigmoid(v) - exact)) <= 2.3e-16

    def test_sigmoid_bounded_and_monotone_on_fine_grid(self):
        out = sigmoid(np.linspace(-40.0, 40.0, 400_001))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.all(np.diff(out) >= 0.0)

    def test_sigmoid_matches_scalar(self):
        rng = Rng(5)
        v = rng.uniform(-30, 30, 50)
        ref = np.array([1.0 / (1.0 + math.exp(-x)) for x in v])
        assert np.allclose(sigmoid(v), ref, atol=1e-15, rtol=0)


class TestSoftmax:
    def test_uniform_on_constant(self):
        assert np.array_equal(softmax(np.zeros(4)), np.full(4, 0.25))

    def test_extreme_values_against_mpmath(self):
        import mpmath

        mpmath.mp.dps = 60
        v = np.array([1000.0, 0.0])
        with np.errstate(over="raise"):
            out = softmax(v)
        exps = [mpmath.exp(mpmath.mpf(x)) for x in v]
        total = exps[0] + exps[1]
        expected = np.array([float(e / total) for e in exps])
        assert np.array_equal(out, expected)

    @settings(max_examples=200)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=64))
    def test_sums_to_one(self, vals):
        out = softmax(np.array(vals))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.all(out > 0)

    def test_sums_to_one_long(self):
        rng = Rng(11)
        v = rng.uniform(-50, 50, 10_000)
        assert abs(softmax(v).sum() - 1.0) <= 1e-12

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=32),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, vals, c):
        v = np.array(vals)
        assert np.allclose(softmax(v + c), softmax(v), atol=1e-12, rtol=0)


class TestInitMatrix:
    def test_scale_bound(self):
        # published init scale for the small LM configuration
        m = init_matrix(50, 40, 0.1, Rng(1))
        assert np.all(np.abs(m) <= 0.1)
        assert m.shape == (50, 40)

    def test_zero_scale(self):
        assert np.array_equal(init_matrix(3, 3, 0.0, Rng(1)), np.zeros((3, 3)))

    def test_seed_determinism(self):
        a = init_matrix(7, 9, 0.5, Rng(99))
        b = init_matrix(7, 9, 0.5, Rng(99))
        assert np.array_equal(a, b)

    def test_negative_scale_rejected(self):
        with pytest.raises(ContractError):
            init_matrix(2, 2, -0.1, Rng(0))


class TestRng:
    def test_bulk_matches_single_draws(self):
        a = Rng(123)
        b = Rng(123)
        bulk = a.uniform01(8)
        singles = np.array([b.uniform01() for _ in range(8)])
        assert np.array_equal(bulk, singles)

    def test_split_streams_differ_and_are_stable(self):
        r = Rng(5)
        c1 = r.split()
        c2 = r.split()
        assert c1.uniform01() != c2.uniform01()
        r2 = Rng(5)
        assert r2.split().uniform01() == Rng(5).split().uniform01()

    def test_permutation_is_permutation(self):
        perm = Rng(17).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    def test_uniform_range(self):
        u = Rng(2).uniform(-0.25, 0.25, 1000)
        assert np.all(u >= -0.25) and np.all(u < 0.25)

    def test_integers_range(self):
        draws = Rng(3).integers(10, size=1000)
        assert draws.min() >= 0 and draws.max() <= 9
