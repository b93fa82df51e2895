"""BPTT gradients against the central-difference oracle."""

from dataclasses import dataclass

import numpy as np
import pytest

from rau.autograd import (
    Grads,
    backward_cell_sequence,
    clip_global_norm,
    fd_gradient,
    gradcheck_cell,
    relative_errors,
)
from rau.cells import init_rau, iter_tensors, new_trace, step, zero_state
from rau.linalg import ContractError, NumericError, Rng


@dataclass
class OneParam:
    theta: np.ndarray


class TestFdGradient:
    def test_quadratic(self):
        p = OneParam(theta=np.array([3.0]))
        g = fd_gradient(lambda q: float(q.theta[0] ** 2), p, 1e-5)
        assert abs(g["theta"][0] - 6.0) <= 1e-9

    def test_linear_exact(self):
        p = OneParam(theta=np.array([1.0, -2.0, 0.5]))
        coef = np.array([2.0, 3.0, -1.0])
        g = fd_gradient(lambda q: float(coef @ q.theta), p, 1e-3)
        assert np.allclose(g["theta"], coef, atol=1e-10, rtol=0)

    def test_restores_params(self):
        p = OneParam(theta=np.array([1.5, 2.5]))
        before = p.theta.copy()
        fd_gradient(lambda q: float(q.theta.sum() ** 2), p)
        assert np.array_equal(p.theta, before)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ContractError):
            fd_gradient(lambda q: 0.0, OneParam(np.zeros(1)), 0.0)


class TestClipGlobalNorm:
    def test_scales_when_over(self):
        g = Grads({"a": np.array([6.0, 8.0])})  # norm 10
        clip_global_norm(g, 5.0)
        assert np.allclose(g["a"], [3.0, 4.0], atol=1e-12)

    def test_unchanged_when_under(self):
        g = Grads({"a": np.array([0.6, 0.8])})
        clip_global_norm(g, 5.0)
        assert np.allclose(g["a"], [0.6, 0.8], atol=0, rtol=0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_raises_naming_tensor(self, bad):
        g = Grads({"a": np.array([0.6, 0.8]), "b": np.array([[1.0, bad]])})
        with pytest.raises(NumericError, match="non-finite gradient in b"):
            clip_global_norm(g, 5.0)

    def test_overflowing_norm_raises(self):
        g = Grads({"a": np.array([1e200, 1e200])})
        with pytest.raises(NumericError, match="overflows"):
            clip_global_norm(g, 5.0)

    def test_post_norm_is_min_of_norm_and_max(self):
        rng = Rng(9)
        for max_norm in (0.5, 3.0, 100.0):
            g = Grads({"a": rng.uniform(-1, 1, 10), "b": rng.uniform(-1, 1, (3, 3))})
            before = g.global_norm()
            clip_global_norm(g, max_norm)
            assert abs(g.global_norm() - min(before, max_norm)) <= 1e-12


def _record_sequence(kind, params, xs):
    state = zero_state(kind, params.hidden_size)
    trace = new_trace(kind, len(xs), (), params.input_size, params.hidden_size)
    for t in range(len(xs)):
        state, _ = step(kind, params, xs[t], state, trace.row(t))
    return trace


def _rau_grads(params, traces, **seed):
    """RAU BPTT gradients, seeded by dh_last or dh_steps."""
    return backward_cell_sequence("rau", params, traces, **seed)[0]


class TestBackward:
    def test_zero_length_sequence_gives_zero_grads(self):
        p = init_rau(2, 3, 0.5, Rng(1))
        g = _rau_grads(p, _record_sequence("rau", p, []), dh_last=np.zeros(3))
        assert set(g) == {name for name, _ in iter_tensors(p)}
        assert all(np.array_equal(v, np.zeros_like(v)) for v in g.values())

    def test_one_step_zero_param_rau_sum_loss(self):
        p = init_rau(2, 3, 0.0, Rng(0))
        x = np.array([0.3, -0.8])
        traces = _record_sequence("rau", p, [x])
        analytic = _rau_grads(p, traces, dh_last=np.ones(3))

        def loss(q):
            s = zero_state("rau", 3)
            s, _ = step("rau", q, x, s)
            return float(s.h.sum())

        numeric = fd_gradient(loss, p, 1e-5)
        worst = max(relative_errors(analytic, numeric).values())
        assert worst <= 1e-5
        # at the symmetric zero point only the two value-path biases move the loss:
        # dh/db_c = z * (1 - hc^2) / 2 = 0.25, same for b_u; gate biases cancel
        assert np.allclose(analytic["gru.b_c"], 0.25, atol=1e-12)
        assert np.allclose(analytic["b_u"], 0.25, atol=1e-12)
        assert np.allclose(analytic["gru.b_z"], 0.0, atol=1e-12)

    def test_random_rau_sequence_against_fd(self):
        rng = Rng(17)
        p = init_rau(3, 4, 0.5, rng)
        xs = rng.uniform(-1, 1, (5, 3))
        gsel = rng.uniform(-1, 1, 4)
        traces = _record_sequence("rau", p, xs)
        analytic = _rau_grads(p, traces, dh_last=gsel)

        def loss(q):
            s = zero_state("rau", 4)
            for t in range(5):
                s, _ = step("rau", q, xs[t], s)
            return float(gsel @ s.h)

        # eps 1e-4: loss reads only h_T, so early-step gate gradients are
        # ~1e-8 and central-difference roundoff at eps 1e-5 swamps them
        numeric = fd_gradient(loss, p, 1e-4)
        assert max(relative_errors(analytic, numeric).values()) <= 1e-5

    def test_linearity(self):
        rng = Rng(23)
        p = init_rau(2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (4, 2))
        traces = _record_sequence("rau", p, xs)
        g1 = rng.uniform(-1, 1, 3)
        g2 = rng.uniform(-1, 1, 3)
        a, b = 0.7, -1.3
        combo = _rau_grads(p, traces, dh_last=a * g1 + b * g2)
        parts1 = _rau_grads(p, traces, dh_last=g1)
        parts2 = _rau_grads(p, traces, dh_last=g2)
        for name in combo:
            assert np.allclose(combo[name], a * parts1[name] + b * parts2[name], atol=1e-10, rtol=0)

    def test_determinism_bitwise(self):
        rng = Rng(29)
        p = init_rau(2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (4, 2))
        traces = _record_sequence("rau", p, xs)
        gsel = rng.uniform(-1, 1, 3)
        g_a = _rau_grads(p, traces, dh_last=gsel)
        g_b = _rau_grads(p, traces, dh_last=gsel)
        for name in g_a:
            assert np.array_equal(g_a[name], g_b[name])

    def test_per_step_loss_grad_list(self):
        rng = Rng(37)
        p = init_rau(2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (3, 2))
        traces = _record_sequence("rau", p, xs)
        gs = [rng.uniform(-1, 1, 3) for _ in range(3)]
        analytic = _rau_grads(p, traces, dh_steps=gs)

        def loss(q):
            s = zero_state("rau", 3)
            total = 0.0
            for t in range(3):
                s, _ = step("rau", q, xs[t], s)
                total += float(gs[t] @ s.h)
            return total

        numeric = fd_gradient(loss, p, 1e-5)
        assert max(relative_errors(analytic, numeric).values()) <= 1e-5

    @pytest.mark.parametrize("count", [0, 2, 4], ids=["none", "short", "long"])
    def test_per_step_list_of_wrong_length_raises(self, count):
        rng = Rng(41)
        p = init_rau(2, 3, 0.5, rng)
        traces = _record_sequence("rau", p, rng.uniform(-1, 1, (3, 2)))
        gs = [rng.uniform(-1, 1, 3) for _ in range(count)]
        with pytest.raises(ContractError, match=f"{count} per-step gradients for 3 steps"):
            _rau_grads(p, traces, dh_steps=gs)


class TestGradcheckCell:
    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_small_instances_pass(self, kind):
        worst = gradcheck_cell(kind, m=2, n=3, T=4, trials=3, seed=11)
        assert max(worst.values()) <= 1e-5

    def test_perturbed_backward_fails(self):
        worst = gradcheck_cell("gru", m=2, n=2, T=3, trials=1, seed=11, perturb=1e-2)
        assert max(worst.values()) > 1e-5
