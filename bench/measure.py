"""Timed rounds, output checks and metrics of one benchmark run.

Timed calls are interleaved cell by cell in rounds until the time budget
is spent. Between consecutive timed calls a fixed host probe runs (see
`host_probe`). Each end-to-end figure is the median over the run's calls
of the call's figure scaled by the host speed the probes on either side
of it measured, relative to the reference host. That host is a shared
2-core VM whose speed drifts by up to ~1.7x for seconds to minutes at a
time. There, raw medians of runs minutes apart spread by up to 44%
(quartiles over runs), the scaled ones by 2-9%. The raw
medians and the host speed are printed too.

In a traced run, untraced and traced rounds alternate: per-layer figures
come from the traced rounds, and the ratio of the two kinds of round
time is the tracing overhead.

Every timed call and every output check is one attempted operation. A
call that raises or returns a non-finite loss, a gradient check whose
worst error exceeds `autograd.GRADCHECK_TOLERANCE`, and a check whose
outputs are wrong each count as one failed operation.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rau import autograd, cells, models

import workloads
from spans import Tracer
from workloads import CELLS, GRADCHECK, LOSS_RTOL


# Median host_probe() times on the reference host (2-core Xeon VM, one BLAS
# thread): scaled figures read as the raw figures that host gives at that speed.
HOST_PROBE_REF_S = (0.005, 0.005)

_PROBE_A = np.linspace(-1.0, 1.0, 128 * 157).reshape(128, 157)
_PROBE_B = np.ascontiguousarray(_PROBE_A.T)
_PROBE_W = np.linspace(-0.5, 0.5, 28).reshape(4, 7)
_PROBE_X = np.array([0.1, 0.2, 0.3])


def host_probe() -> tuple[float, float]:
    """Seconds for two fixed pieces of work that never touch rau.

    The first, an interpreter loop and 128x157 GEMMs, tracks batched calls;
    the second, a loop of numpy calls on 3-7 element arrays, tracks calls
    bound by per-call overhead. On the reference host the two speed up by
    different factors when the host does, and each tracks its own kind of
    call to within a few percent where the other is off by 10-20%.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    for _ in range(10):
        np.tanh(_PROBE_A @ _PROBE_B)
    t1 = time.perf_counter()
    h = np.zeros(4)
    for _ in range(300):
        xh = np.concatenate([_PROBE_X, h])
        h = np.tanh(0.5 / (1.0 + np.exp(-(_PROBE_W @ xh))))
        s += float(np.sum(h * h))
    return t1 - t0, time.perf_counter() - t1


def probe_kind(wl, activity: str) -> int:
    """Which host probe scales a call: 1 at the oracle's tiny shape, 0 for batched calls."""
    return 1 if activity == "gradcheck" or wl.main == "gradcheck" else 0


class Sample(NamedTuple):
    seconds: float
    items: int
    steps: int
    speed: float  # reference probe time / probe time around the call: > 1 on a fast host

    @property
    def scaled_rate(self) -> float:
        return self.items / self.seconds / self.speed

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.speed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def load_reference() -> dict:
    with open(workloads.REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)["losses"]


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= LOSS_RTOL * abs(ref)


def reference_check(wl, tally: Tally, tracer: Tracer | None, reference: dict) -> None:
    """Train each cell's model for the fixed check steps and compare its losses with the reference.

    With a tracer, an untraced copy of each model runs first and the traced
    run must reproduce its losses bit for bit.
    """
    for cell in CELLS:
        model, opt = wl.models[cell], wl.opts[cell]
        if tracer is not None:
            plain = wl.reference_losses(cell, *copy.deepcopy((model, opt)))
            tracer.install()
            try:
                with tracer.root_span("check", "check", cell):
                    losses = wl.reference_losses(cell, model, opt)
            finally:
                tracer.uninstall()
            tally.check(losses == plain, f"{wl.name}/{cell}: traced losses {losses} != untraced {plain}")
        else:
            losses = wl.reference_losses(cell, model, opt)
        ref = reference[wl.name][cell]
        tally.check(all(_close(v, r) for v, r in zip(losses, ref)),
                    f"{wl.name}/{cell}: reference losses {losses} != recorded {ref} (rtol {LOSS_RTOL:g})")


def _timed(tally: Tally, fn, *args):
    """Call fn; return (result, seconds) or (None, None) after counting the failure."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        tally.check(False, f"{getattr(fn, '__name__', fn)} raised")
        return None, None
    dt = time.perf_counter() - t0
    tally.attempted += 1
    return out, dt


def _no_span(*_args):
    return contextlib.nullcontext()


def _call_train(wl, cell: str, rnd: int):
    items, steps, loss = wl.train(cell, rnd)
    return items, steps, math.isfinite(loss), f"train loss {loss}"


def _call_eval(wl, cell: str, rnd: int):
    items, loss = wl.evaluate(cell)
    return items, 1, math.isfinite(loss), f"eval loss {loss}"


def _call_gradcheck(wl, cell: str, rnd: int):
    worst = autograd.gradcheck_cell(cell, **GRADCHECK)
    bad = {k: v for k, v in worst.items() if not v <= autograd.GRADCHECK_TOLERANCE}
    return 1, 1, not bad, f"gradcheck errors above {autograd.GRADCHECK_TOLERANCE:g}: {bad}"


# (activity, root span name, call); each returns (items, optimizer steps, output ok, description)
ACTIVITIES = (
    ("train", "train.train_epoch", _call_train),
    ("eval", "train.evaluate", _call_eval),
    ("gradcheck", "autograd.gradcheck_cell", _call_gradcheck),
)


def timed_rounds(wl, seconds: float, tally: Tally, tracer: Tracer | None):
    """Run rounds until `seconds` have passed; returns (samples, round times).

    samples[(activity, cell, traced)] is a list of Sample, each scaled by
    the mean of the host probes run just before and just after its call; round
    times are (traced, seconds of timed calls). Failed calls leave no sample.
    """
    samples: dict[tuple[str, str, bool], list] = {}
    rounds: list[tuple[bool, float]] = []
    min_rounds = 2 if tracer is not None else 1
    t_start = time.perf_counter()
    rnd = 0
    probe = host_probe()
    while rnd < min_rounds or time.perf_counter() - t_start < seconds:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        root = tracer.root_span if traced else _no_span
        round_s = 0.0
        for cell in CELLS:
            for activity, span, call in ACTIVITIES:
                with root(span, activity, cell):
                    out, dt = _timed(tally, call, wl, cell, rnd)
                after = host_probe()
                if out is not None:
                    round_s += dt
                    items, steps, ok, what = out
                    if tally.check(ok, f"{wl.name}/{cell}: {what}"):
                        k = probe_kind(wl, activity)
                        speed = HOST_PROBE_REF_S[k] / ((probe[k] + after[k]) / 2)
                        sample = Sample(dt, items, steps, speed)
                        samples.setdefault((activity, cell, traced), []).append(sample)
                probe = after
        rounds.append((traced, round_s))
        if traced:
            tracer.uninstall()
        rnd += 1
    return samples, rounds


def gru_identity_check(wl, tally: Tally) -> None:
    """rau_step with the attended state overridden by the candidate must equal gru_step bitwise."""
    p = wl.models["rau"].cells[0]
    x, h = wl.identity_inputs
    h_gru, tr = cells.gru_step(p.gru, x, h)
    h_rau, _ = cells.rau_step(p, x, h, attended_override=tr.hc)
    tally.check(h_rau.tobytes() == h_gru.tobytes(), f"{wl.name}: rau_step(attended_override=hc) != gru_step")


def checkpoint_check(wl, tally: Tally, out_dir: Path) -> dict:
    """Save and reload the RAU model; tensors must come back bitwise. Returns per-layer figures."""
    model = wl.models["rau"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"checkpoint-{wl.name}-{id(model):x}.bin"
    try:
        t0 = time.perf_counter()
        models.save_checkpoint(path, model)
        t1 = time.perf_counter()
        loaded, _ = models.load_checkpoint(path)
        t2 = time.perf_counter()
        size = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    before = [(k, a.tobytes()) for k, a in cells.iter_tensors(model)]
    after = [(k, a.tobytes()) for k, a in cells.iter_tensors(loaded)]
    tally.check(before == after, f"{wl.name}: checkpoint round trip changed a tensor")
    return {"models.save_checkpoint_ms": ((t1 - t0) * 1e3, "ms"),
            "models.load_checkpoint_ms": ((t2 - t1) * 1e3, "ms"),
            "models.checkpoint_bytes": (float(size), "bytes")}


def end_to_end(samples) -> tuple[dict, dict]:
    """Per cell, the median probe-scaled train and eval throughput and gradcheck time; and the raw medians."""
    out, raw = {}, {}
    for cell in CELLS:
        for activity in ("train", "eval"):
            key = f"{activity}_items_per_s.{cell}"
            runs = samples[(activity, cell, False)]
            out[key] = (statistics.median(s.scaled_rate for s in runs), "items/s")
            raw[key] = statistics.median(s.items / s.seconds for s in runs)
        runs = samples[("gradcheck", cell, False)]
        out[f"gradcheck_s.{cell}"] = (statistics.median(s.scaled_seconds for s in runs), "s")
        raw[f"gradcheck_s.{cell}"] = statistics.median(s.seconds for s in runs)
    return out, raw


def per_layer(wl, samples, rounds, tracer: Tracer) -> dict:
    """Per-layer figures from the traced rounds.

    Train-path figures are per optimizer step, oracle figures per
    gradcheck_cell call, and linalg/cells figures per unit of the
    workload's main activity (a step, or a call on gradcheck-oracle).
    """
    totals = tracer.layer_totals()

    def get(name, activity, cell):
        return totals.get((name, activity, cell), (0, 0.0, 0.0))

    out = {}
    for cell in CELLS:
        steps = sum(s.steps for s in samples[("train", cell, True)])
        calls = len(samples[("gradcheck", cell, True)])
        main_units = steps if wl.main == "train" else calls

        def ms(name, activity, units, part=1):
            return get(name, activity, cell)[part] * 1e3 / units

        main = wl.main
        out[f"linalg.sigmoid_ms.{cell}"] = (ms("linalg.sigmoid", main, main_units), "ms")
        out[f"linalg.tanh_ms.{cell}"] = (ms("linalg.tanh", main, main_units), "ms")
        out[f"linalg.sigmoid_calls.{cell}"] = (get("linalg.sigmoid", main, cell)[0] / main_units, "count")
        if cell == "rau":
            out["linalg.softmax_ms.rau"] = (ms("linalg.softmax", main, main_units), "ms")
        step_calls, step_total, _ = get("cells.step", main, cell)
        out[f"cells.step_self_ms.{cell}"] = (ms("cells.step", main, main_units, part=2), "ms")
        out[f"cells.step_calls.{cell}"] = (step_calls / main_units, "count")
        out[f"cells.step_us_per_call.{cell}"] = (step_total * 1e6 / step_calls, "us")
        out[f"autograd.backward_cell_sequence_ms.{cell}"] = (ms("autograd.backward_cell_sequence", "train", steps), "ms")
        out[f"autograd.backward_self_ms.{cell}"] = (ms("autograd.backward", "train", steps, part=2), "ms")
        out[f"autograd.clip_global_norm_ms.{cell}"] = (ms("autograd.clip_global_norm", "train", steps), "ms")
        out[f"autograd.fd_gradient_ms.{cell}"] = (ms("autograd.fd_gradient", "gradcheck", calls), "ms")
        out[f"autograd.fd_loss_evals.{cell}"] = (get("autograd.fd_loss", "gradcheck", cell)[0] / calls, "count")
        out[f"models.forward_self_ms.{cell}"] = (ms("models.forward", "train", steps, part=2), "ms")
        out[f"models.cross_entropy_ms.{cell}"] = (ms("models.cross_entropy", "train", steps), "ms")
        out[f"train.apply_update_ms.{cell}"] = (ms("train.apply_update", "train", steps), "ms")
        out[f"train.loop_self_ms.{cell}"] = (ms("train.train_epoch", "train", steps, part=2), "ms")
        flop = wl.step_flop(cell)
        step_s = statistics.median(s.seconds / s.steps for s in samples[("train", cell, False)])
        out[f"step.computed_gflop.{cell}"] = (flop / 1e9, "GFLOP")
        out[f"step.achieved_gflops.{cell}"] = (flop / 1e9 / step_s, "GFLOP/s")
    traced = statistics.median(t for tr, t in rounds if tr)
    plain = statistics.median(t for tr, t in rounds if not tr)
    out["data.prepare_ms"] = (wl.prepare_s * 1e3, "ms")
    out["data.distinct_tokens_per_window"] = (wl.distinct_tokens_per_window, "count")
    out["trace_overhead_pct"] = ((traced / plain - 1.0) * 100.0, "%")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """One benchmark run in this process.

    Returns (tally, {metric: (value, unit)}, notes); notes hold the raw
    medians and the median host speed against the reference, for the record.
    """
    wl = workloads.setup(name, seed)
    tally = Tally()
    tracer = Tracer() if trace else None
    reference_check(wl, tally, tracer, load_reference())
    samples, rounds = timed_rounds(wl, seconds, tally, tracer)
    gru_identity_check(wl, tally)
    ckpt = checkpoint_check(wl, tally, out_dir)
    if tally.failed:
        return tally, {}, {}
    notes = {"host_speed": statistics.median(s.speed for runs in samples.values() for s in runs)}
    if not trace:
        metrics, raw = end_to_end(samples)
        return tally, metrics, {**notes, "raw_medians": raw}
    metrics = {**per_layer(wl, samples, rounds, tracer), **ckpt}
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"trace-{name}-seed{seed}.npz", {"workload": name, "seed": seed})
    return tally, metrics, notes
