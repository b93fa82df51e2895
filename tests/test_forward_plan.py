"""When a forward hands work to the worker thread: `autograd._forward_plan` on the host it sees.

A stack of two layers or more runs as a wavefront (tests/test_wavefront.py)
and a one-layer RAU or LSTM hands its step's branch over (tests/test_branch_beside.py),
each only where every step's piece reaches `autograd.STEP_HANDOFF_FLOP`, BLAS
runs one thread per call, the process may use two CPUs and the step functions
are the library's own. The `host` fixture patches the pinned BLAS thread count
and the CPU affinity; the floors stay the library's.
"""

import pytest

from rau import autograd, cells, linalg
from rau.cells import init_cell
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model, classify_forward, lm_forward

from conftest import pinned_blas

KINDS = ("rau", "gru", "lstm")
# the row-MNIST shape: a branch of 2 * 128 * 156 * 284 = 11.3 MFLOP a step (RAU), 2 * 128 * 156 * 256 = 10.2
# MFLOP (LSTM)
ROWS = dict(m=28, n=128, batch=128, steps=28)


def _stack(kind, widths):
    """Cells of kind whose layer l maps widths[l] to widths[l + 1]."""
    rng = Rng(19)
    return [init_cell(kind, m, n, 0.1, rng) for m, n in zip(widths, widths[1:])]


# (kind, widths, batch, plan) on a host with one BLAS thread per call and two CPUs
PLANS = [
    # the ptb-small shape, B=20, n=200: RAU steps of 19.2 MFLOP, LSTM 12.8, GRU 9.6
    *(pytest.param(kind, (200,) * (layers + 1), 20, "wavefront", id=f"ptb_small_{kind}_{layers}layers")
      for kind in KINDS for layers in (2, 3)),
    # B=20, n=64: a RAU step of 2 MFLOP, where the wavefront ran 0.64-0.70x as fast
    *(pytest.param(kind, (64, 64, 64), 20, None, id=f"hidden64_{kind}") for kind in KINDS),
    # a small layer anywhere in the stack: a 28-wide first layer under a 200-wide one, an 8-wide top layer
    pytest.param("gru", (28, 200, 200), 4, None, id="small_first_layer"),
    pytest.param("gru", (200, 200, 8), 20, None, id="small_top_layer"),
    # B=96, 8.5 MFLOP of attention a step, is on; B=64, 5.7 MFLOP, where the split ran 1.01x, is off
    *(pytest.param("rau", (ROWS["m"], ROWS["n"]), batch, plan, id=f"rows_B{batch}")
      for batch, plan in ((128, "branch"), (96, "branch"), (64, None))),
    # an LSTM's f and i gates: 10.2 MFLOP a step at B=128 and 7.7 at B=96 are on; 5.1 at B=64 is off
    *(pytest.param("lstm", (ROWS["m"], ROWS["n"]), batch, plan, id=f"rows_lstm_B{batch}")
      for batch, plan in ((128, "branch"), (96, "branch"), (64, None))),
    # a GRU has no branch to hand over, at any size
    *(pytest.param("gru", widths, batch, None, id=f"gru_{widths[-1]}_B{batch}")
      for widths, batch in (((ROWS["m"], ROWS["n"]), ROWS["batch"]), ((200, 200), 256))),
    # a two-layer RAU at the rows shape: each layer's attention branch qualifies, and so does its step
    pytest.param("rau", (ROWS["m"], ROWS["n"], ROWS["n"]), ROWS["batch"], "wavefront", id="rows_rau_2layers"),
]
# a stack of each plan at its shape, for the host and step-function rules
ON = [pytest.param("rau", (200, 200, 200), 20, id="wavefront"),
      *(pytest.param(kind, (ROWS["m"], ROWS["n"]), ROWS["batch"], id=f"branch_{kind}") for kind in ("rau", "lstm"))]


class TestWhenItRuns:
    @pytest.fixture
    def unasked(self, monkeypatch):
        """A host that fails the test if the policy asks it anything, at the pinned BLAS thread count, which
        the policy checks before it asks."""
        def unasked(*args):
            raise AssertionError("the policy asked the host")

        monkeypatch.setattr(linalg, "BLAS_THREADS", 1)
        monkeypatch.setattr(autograd.os, "sched_getaffinity", unasked)

    @pytest.mark.parametrize("kind,widths,batch,plan", PLANS)
    def test_the_plan_at_each_shape(self, kind, widths, batch, plan, host):
        assert autograd._forward_plan(_stack(kind, widths), batch) == plan

    @pytest.mark.parametrize("kind,widths,batch", [
        pytest.param("rau", (200, 200, 200), 1, id="B1_stack"),
        pytest.param("rau", (3, 4, 4), 1, id="oracle_stack"),
        pytest.param("rau", (ROWS["m"], ROWS["n"]), 1, id="B1_rows"),
        pytest.param("rau", (3, 4), 1, id="oracle"),
        pytest.param("gru", (200, 200), 256, id="one_gru_layer"),
        # f and i gates of 2 * 16 * 400 * 400 = 5.1 MFLOP a step
        pytest.param("lstm", (200, 200), 16, id="one_lstm_layer"),
    ])
    def test_small_steps_make_no_system_call(self, kind, widths, batch, unasked):
        assert autograd._forward_plan(_stack(kind, widths), batch) is None

    def test_one_sequence_lone_steps_and_gradcheck_make_no_system_call(self, unasked):
        # a one-sequence forward is a B=1 batch; gradcheck and lone steps run 1-D steps and never ask
        mdl = build_classifier("rau", ROWS["m"], ROWS["n"], 1, 10, 0.1, Rng(32))
        classify_forward(mdl, Rng(33).uniform(-1.0, 1.0, (ROWS["steps"], ROWS["m"])))
        cells.step(mdl.cells[0], Rng(34).uniform(-1.0, 1.0, ROWS["m"]), cells.zero_state(mdl.cells[0]))
        assert max(autograd.gradcheck_cell("rau", 3, 4, 5, 1, 35).values()) <= autograd.GRADCHECK_TOLERANCE

    @pytest.mark.parametrize("blas", [2, None], ids=["two_threads", "no_symbol"])
    @pytest.mark.parametrize("kind,widths,batch", ON)
    def test_off_unless_the_blas_runs_one_thread_per_call(self, kind, widths, batch, blas, host, monkeypatch):
        monkeypatch.setattr(linalg, "BLAS_THREADS", blas)
        assert autograd._forward_plan(_stack(kind, widths), batch) is None

    @pytest.mark.parametrize("kind,widths,batch", ON)
    def test_off_on_one_cpu(self, kind, widths, batch, host):
        host["cpus"] = {0}
        assert autograd._forward_plan(_stack(kind, widths), batch) is None

    @pytest.mark.parametrize("name", ["step", "sigmoid", "tanh", "softmax"])
    @pytest.mark.parametrize("kind,widths,batch", ON)
    def test_off_while_a_step_function_is_wrapped(self, kind, widths, batch, name, host, monkeypatch):
        # a tracer's wrapper would open its spans on the worker thread
        own = getattr(cells, name)
        monkeypatch.setattr(cells, name, lambda *args, **kwargs: own(*args, **kwargs))
        assert autograd._forward_plan(_stack(kind, widths), batch) is None

    @pytest.mark.parametrize("name", ["step", "sigmoid", "tanh", "softmax"])
    def test_a_forced_handoff_leaves_a_wrapped_step_function_inline(self, name, handoff, monkeypatch):
        handoff(True)
        own = getattr(cells, name)
        monkeypatch.setattr(cells, name, lambda *args, **kwargs: own(*args, **kwargs))
        assert autograd._forward_plan(_stack("rau", (3, 4, 4)), 1) is None


@pinned_blas
class TestForwards:
    """Whole forwards on the patched host: the jobs they hand over, and the same bits on one CPU."""

    def test_a_ptb_small_lm_hands_its_upper_layer_to_the_worker(self, host, jobs):
        mdl = build_language_model("rau", 50, 200, 2, 0.1, Rng(20))
        tokens = Rng(21).integers(50, size=(20, 4))
        got = lm_forward(mdl, tokens)[0]
        assert jobs == ["_steps"] * 3
        host["cpus"] = {0}
        assert lm_forward(mdl, tokens)[0].tobytes() == got.tobytes()
        assert len(jobs) == 3

    @pytest.mark.parametrize("kind,branch", [("rau", "_attend"), ("lstm", "_forget_input")])
    def test_a_rows_shape_eval_hands_each_branch_to_the_worker(self, kind, branch, host, jobs):
        mdl = build_classifier(kind, ROWS["m"], ROWS["n"], 1, 10, 0.1, Rng(30))
        xs = Rng(31).uniform(-1.0, 1.0, (ROWS["batch"], 4, ROWS["m"]))
        got = classify_forward(mdl, xs)[0]
        assert jobs == [branch] * 4
        host["cpus"] = {0}
        assert classify_forward(mdl, xs)[0].tobytes() == got.tobytes()
        assert len(jobs) == 4

    def test_a_two_layer_rau_runs_as_a_wavefront_alone(self, host, jobs):
        # at the rows shape both plans would qualify; the stack runs its steps as a wavefront, none split
        mdl = build_classifier("rau", ROWS["m"], ROWS["n"], 2, 10, 0.1, Rng(36))
        classify_forward(mdl, Rng(37).uniform(-1.0, 1.0, (ROWS["batch"], 4, ROWS["m"])))
        assert jobs == ["_steps"] * 3
