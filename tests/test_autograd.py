"""BPTT gradients against the central-difference oracle."""

import re

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
from rau.cells import init_cell, iter_tensors, new_trace, step, zero_state
from rau.linalg import ContractError, NumericError, Rng


def _cell(m=2, n=1):
    """A GRU cell of zero weights: its w_z is (n, m+n), its b_z (n,)."""
    return init_cell("gru", m, n, 0.0, Rng(0))


class TestFdGradient:
    def test_quadratic(self):
        p = _cell()
        p.w_z[0, 0] = 3.0
        g = fd_gradient(lambda q: float(q.w_z[0, 0] ** 2), p, 1e-5)
        assert abs(g["w_z"][0, 0] - 6.0) <= 1e-9
        assert all(not a.any() for name, a in g.items() if name != "w_z")

    def test_linear_exact(self):
        p = _cell()
        p.w_z[0] = [1.0, -2.0, 0.5]
        coef = np.array([2.0, 3.0, -1.0])
        g = fd_gradient(lambda q: float(coef @ q.w_z[0]), p, 1e-3)
        assert np.allclose(g["w_z"][0], coef, atol=1e-10, rtol=0)

    def test_restores_params(self):
        p = init_cell("gru", 2, 1, 0.5, Rng(1))
        before = p.buffer.copy()
        fd_gradient(lambda q: float(q.buffer.sum() ** 2), p)
        assert np.array_equal(p.buffer, before)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ContractError):
            fd_gradient(lambda q: 0.0, _cell(), 0.0)

    def test_nan_epsilon_raises_contract_error(self):
        # NaN passed an `epsilon <= 0` test and surfaced as a non-finite loss while perturbing
        with pytest.raises(ContractError, match="epsilon must be positive"):
            fd_gradient(lambda q: float(q.buffer.sum()), _cell(), float("nan"))

    def test_a_mapping_raises_instead_of_giving_no_gradient(self):
        # a mapping's tensors were skipped, so the oracle returned {}
        with pytest.raises(ContractError, match="expected a cell or a model, got dict"):
            fd_gradient(lambda q: float(q["w"].sum()), {"w": np.zeros(2)})


def _grads(**values) -> Grads:
    """Zero gradients laid out like a GRU cell of m=2, n=3, the leading entries of each named tensor set to
    its value's: w_z and w_c hold 15 entries each, w_r 15, the biases 3."""
    g = Grads.zeros_like(init_cell("gru", 2, 3, 0.5, Rng(0)))
    for name, value in values.items():
        v = np.ravel(value)
        g[name].reshape(-1)[:v.size] = v
    return g


def _norm(g: Grads) -> float:
    return float(np.sqrt(sum(np.sum(v * v) for v in g.values())))


class TestClipGlobalNorm:
    def test_scales_when_over(self):
        g = _grads(w_r=[6.0, 8.0])  # norm 10
        clip_global_norm(g, 5.0)
        assert np.allclose(g["w_r"][0, :2], [3.0, 4.0], atol=1e-12)

    def test_unchanged_when_under(self):
        g = _grads(w_r=[0.6, 0.8])
        clip_global_norm(g, 5.0)
        assert np.allclose(g["w_r"][0, :2], [0.6, 0.8], atol=0, rtol=0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_gradient_raises_naming_tensor(self, bad):
        g = _grads(w_z=[0.6, 0.8], w_c=[[1.0, bad]])
        with pytest.raises(NumericError, match="non-finite gradient in w_c"):
            clip_global_norm(g, 5.0)

    def test_overflowing_norm_raises(self):
        g = _grads(w_z=[1e200, 1e200])
        with pytest.raises(NumericError, match="overflows"):
            clip_global_norm(g, 5.0)

    def test_nan_max_norm_raises(self):
        # NaN passed a `max_norm <= 0` test, and no norm exceeds NaN, so nothing was ever clipped
        with pytest.raises(ContractError, match="max_norm must be positive"):
            clip_global_norm(_grads(w_z=[6.0, 8.0]), float("nan"))

    def test_post_norm_is_min_of_norm_and_max(self):
        rng = Rng(9)
        for max_norm in (0.5, 3.0, 100.0):
            g = _grads(w_z=rng.uniform(-1, 1, 10), w_c=rng.uniform(-1, 1, (3, 3)))
            before = _norm(g)
            clip_global_norm(g, max_norm)
            assert abs(_norm(g) - min(before, max_norm)) <= 1e-12


def _record_sequence(params, xs):
    state = zero_state(params)
    trace = new_trace(params, len(xs), ())
    for t in range(len(xs)):
        state, _ = step(params, xs[t], state, trace.row(t))
    return trace


def _rau_grads(params, traces, **seed):
    """BPTT gradients by tensor path, seeded by dh_last or dh_steps."""
    return dict(backward_cell_sequence(params, traces, **seed)[0].tensors)


class TestBackward:
    def test_zero_length_sequence_gives_zero_grads(self):
        p = init_cell("rau", 2, 3, 0.5, Rng(1))
        g = _rau_grads(p, _record_sequence(p, []), dh_last=np.zeros(3))
        assert set(g) == {name for name, _ in iter_tensors(p)}
        assert all(np.array_equal(v, np.zeros_like(v)) for v in g.values())

    def test_one_step_zero_param_rau_sum_loss(self):
        p = init_cell("rau", 2, 3, 0.0, Rng(0))
        x = np.array([0.3, -0.8])
        traces = _record_sequence(p, [x])
        analytic = _rau_grads(p, traces, dh_last=np.ones(3))

        def loss(q):
            s = zero_state(q)
            s, _ = step(q, x, s)
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
        p = init_cell("rau", 3, 4, 0.5, rng)
        xs = rng.uniform(-1, 1, (5, 3))
        gsel = rng.uniform(-1, 1, 4)
        traces = _record_sequence(p, xs)
        analytic = _rau_grads(p, traces, dh_last=gsel)

        def loss(q):
            s = zero_state(q)
            for t in range(5):
                s, _ = step(q, xs[t], s)
            return float(gsel @ s.h)

        # eps 1e-4: loss reads only h_T, so early-step gate gradients are
        # ~1e-8 and central-difference roundoff at eps 1e-5 swamps them
        numeric = fd_gradient(loss, p, 1e-4)
        assert max(relative_errors(analytic, numeric).values()) <= 1e-5

    def test_linearity(self):
        rng = Rng(23)
        p = init_cell("rau", 2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (4, 2))
        traces = _record_sequence(p, xs)
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
        p = init_cell("rau", 2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (4, 2))
        traces = _record_sequence(p, xs)
        gsel = rng.uniform(-1, 1, 3)
        g_a = _rau_grads(p, traces, dh_last=gsel)
        g_b = _rau_grads(p, traces, dh_last=gsel)
        for name in g_a:
            assert np.array_equal(g_a[name], g_b[name])

    def test_per_step_loss_grad_list(self):
        rng = Rng(37)
        p = init_cell("rau", 2, 3, 0.5, rng)
        xs = rng.uniform(-1, 1, (3, 2))
        traces = _record_sequence(p, xs)
        gs = [rng.uniform(-1, 1, 3) for _ in range(3)]
        analytic = _rau_grads(p, traces, dh_steps=gs)

        def loss(q):
            s = zero_state(q)
            total = 0.0
            for t in range(3):
                s, _ = step(q, xs[t], s)
                total += float(gs[t] @ s.h)
            return total

        numeric = fd_gradient(loss, p, 1e-5)
        assert max(relative_errors(analytic, numeric).values()) <= 1e-5

    def test_rau_gradients_come_from_the_cell_alone(self):
        # with a kind passed beside the cell, a "gru" backward of a RAU trace gave an all-zero w_u gradient,
        # a wrong w_a one, and bits that changed between identical calls (it flushed unwritten delta columns)
        rng = Rng(43)
        p = init_cell("rau", 3, 4, 0.5, rng)
        xs = rng.uniform(-1, 1, (5, 3))
        gs = rng.uniform(-1, 1, (5, 4))
        traces = _record_sequence(p, xs)
        first, again = _rau_grads(p, traces, dh_steps=gs), _rau_grads(p, traces, dh_steps=gs)
        assert all(first[name].tobytes() == again[name].tobytes() for name in first)
        assert np.abs(first["w_u"]).max() > 0.01

        def loss(q):
            s = zero_state(q)
            total = 0.0
            for t in range(5):
                s, _ = step(q, xs[t], s)
                total += float(gs[t] @ s.h)
            return total

        assert max(relative_errors(first, fd_gradient(loss, p, 1e-5)).values()) <= 1e-5

    @pytest.mark.parametrize("count", [0, 2, 4], ids=["none", "short", "long"])
    def test_per_step_list_of_wrong_length_raises(self, count):
        rng = Rng(41)
        p = init_cell("rau", 2, 3, 0.5, rng)
        traces = _record_sequence(p, rng.uniform(-1, 1, (3, 2)))
        gs = [rng.uniform(-1, 1, 3) for _ in range(count)]
        with pytest.raises(ContractError, match=f"{count} per-step gradients for 3 steps"):
            _rau_grads(p, traces, dh_steps=gs)


class TestTraceOfTheCell:
    """backward_cell_sequence checks the trace's fields and widths against the cell's kind and sizes."""

    def test_a_rau_trace_for_a_gru_cell_raises(self):
        # it returned gradients without error
        rng = Rng(47)
        rau, gru = init_cell("rau", 3, 4, 0.5, rng), init_cell("gru", 3, 4, 0.5, rng)
        trace = _record_sequence(rau, rng.uniform(-1, 1, (5, 3)))
        with pytest.raises(ContractError, match="a trace of kind rau for a cell of kind gru"):
            backward_cell_sequence(gru, trace, dh_last=np.ones(4))

    def test_a_rau_trace_for_an_lstm_cell_raises(self):
        # it raised AttributeError: 'Trace' object has no attribute 'f'
        rng = Rng(53)
        rau, lstm = init_cell("rau", 3, 4, 0.5, rng), init_cell("lstm", 3, 4, 0.5, rng)
        trace = _record_sequence(rau, rng.uniform(-1, 1, (5, 3)))
        with pytest.raises(ContractError, match="a trace of kind rau for a cell of kind lstm"):
            backward_cell_sequence(lstm, trace, dh_last=np.ones(4))

    @pytest.mark.parametrize("m,n,want", [(3, 5, "(7, 4) for a cell of (8, 5)"), (4, 3, "(7, 4) for a cell of (7, 3)")],
                             ids=["hidden", "split"])
    def test_a_trace_of_other_sizes_raises(self, m, n, want):
        # a GRU cell with n=5 given an n=4 trace raised numpy's ValueError: operands could not be broadcast together
        rng = Rng(59)
        trace = _record_sequence(init_cell("gru", 3, 4, 0.5, rng), rng.uniform(-1, 1, (5, 3)))
        with pytest.raises(ContractError, match=re.escape(f"a trace of (m+n, n) = {want}")):
            backward_cell_sequence(init_cell("gru", m, n, 0.5, rng), trace, dh_last=np.ones(n))


class TestGradientCellOfTheCell:
    """backward_cell_sequence accumulates into a given gradient only if it is a cell of the params' kind and sizes."""

    @pytest.mark.parametrize("grad", [lambda rng: init_cell("gru", 3, 4, 0.5, rng),
                                      lambda rng: init_cell("rau", 3, 5, 0.5, rng),
                                      lambda rng: init_cell("rau", 2, 4, 0.5, rng),
                                      lambda rng: Grads.zeros_like(init_cell("rau", 3, 4, 0.5, rng))],
                             ids=["kind", "hidden", "input", "grads"])
    def test_a_gradient_of_another_kind_or_size_raises(self, grad):
        rng = Rng(61)
        p = init_cell("rau", 3, 4, 0.5, rng)
        trace = _record_sequence(p, rng.uniform(-1, 1, (5, 3)))
        with pytest.raises(ContractError, match=r"backward_cell_sequence: a gradient \w+ for a rau cell of \(3, 4\)"):
            backward_cell_sequence(p, trace, dh_last=np.ones(4), grad=grad(rng))

    def test_a_given_gradient_is_filled_and_returned(self):
        rng = Rng(67)
        p = init_cell("lstm", 3, 4, 0.5, rng)
        trace = _record_sequence(p, rng.uniform(-1, 1, (5, 3)))
        grad = p.on_buffer(np.zeros_like(p.buffer))
        got, _, _ = backward_cell_sequence(p, trace, dh_last=np.ones(4), grad=grad)
        fresh, _, _ = backward_cell_sequence(p, trace, dh_last=np.ones(4))
        assert got is grad and grad.buffer.tobytes() == fresh.buffer.tobytes()
        assert type(fresh) is type(p) and fresh.buffer is not p.buffer


class TestGradcheckCell:
    @pytest.mark.parametrize("kind", ["gru", "rau", "lstm"])
    def test_small_instances_pass(self, kind):
        worst = gradcheck_cell(kind, m=2, n=3, T=4, trials=3, seed=11)
        assert max(worst.values()) <= 1e-5

    def test_perturbed_backward_fails(self):
        worst = gradcheck_cell("gru", m=2, n=2, T=3, trials=1, seed=11, perturb=1e-2)
        assert max(worst.values()) > 1e-5
