"""The span recorder: self time, grouping by root span, and install/uninstall."""

from __future__ import annotations

import sys
import time

import measure
import workloads
from spans import TARGETS, Tracer


def test_self_time_is_span_time_minus_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner")
    outer = tracer.wrap(lambda: [inner(), inner(), time.sleep(0.001)], "outer")
    tracer.install()  # root spans record only while installed
    try:
        with tracer.root_span("root", "train", "rau"):
            outer()
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    o_calls, o_total, o_self = totals[("outer", "train", "rau")]
    i_calls, i_total, i_self = totals[("inner", "train", "rau")]
    r_calls, r_total, r_self = totals[("root", "train", "rau")]
    assert (o_calls, i_calls, r_calls) == (1, 2, 1)
    assert abs(o_self - (o_total - i_total)) < 1e-12
    assert i_self == i_total
    assert abs(r_self - (r_total - o_total)) < 1e-12
    assert o_self >= 0.001 and i_total >= 0.004


def test_install_wraps_the_names_callers_use_and_uninstall_restores_them():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(sys.modules[m], a) is not f for (m, a), f in before.items())
    finally:
        tracer.uninstall()
    assert all(getattr(sys.modules[m], a) is f for (m, a), f in before.items())


def test_traced_reference_run_matches_untraced_bitwise():
    wl = workloads.setup("gradcheck-oracle", 6)
    tally = measure.Tally()
    tracer = Tracer()
    measure.reference_check(wl, tally, tracer, measure.load_reference())
    # per cell: traced == untraced, and traced within tolerance of the reference
    assert (tally.attempted, tally.failed) == (6, 0)
    totals = tracer.layer_totals()
    for cell in workloads.CELLS:
        calls = totals[("cells.step", "check", cell)][0]
        assert calls == (16 + 32) * workloads.TINY.T


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    tally, metrics, notes = measure.run("gradcheck-oracle", 7, 0.0, True, tmp_path)
    assert tally.failed == 0
    assert metrics["autograd.fd_loss_evals.rau"][0] > 0
    assert metrics["cells.step_calls.gru"][0] > 0
    assert all(v == v for v, _ in metrics.values())
    assert notes["host_speed"] > 0
    assert [p.name for p in tmp_path.iterdir()] == ["trace-gradcheck-oracle-seed7.npz"]
