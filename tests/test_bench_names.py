"""The library names the benchmark's traced run wraps must exist, and be called on the caller's thread.

`bench/spans.py` replaces module attributes such as `rau.train.backward`
with timing wrappers; a rename in the library would break only the
traced benchmark run. Its spans nest by a stack that one thread keeps,
so a wrapped name called on the worker thread would nest its spans into
the caller's. The file is loaded by path, so these tests read the
benchmark's own table.
"""

import importlib
import importlib.util
import threading
from pathlib import Path

import pytest

from rau import autograd, models
from rau.linalg import Rng
from rau.models import build_classifier, build_language_model
from rau.train import evaluate_classifier, evaluate_lm, make_optimizer, train_epoch_classifier, train_epoch_lm

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
_TARGETS = [(mod, attr) for mod, attr, _ in (*_spans.TARGETS, _spans.FD_TARGET)]


@pytest.mark.parametrize("module, attr", _TARGETS, ids=[f"{m}.{a}" for m, a in _TARGETS])
def test_wrapped_name_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.usefixtures("one_blas_thread")
def test_every_wrapped_call_runs_on_the_callers_thread(monkeypatch, handoff):
    calls, jobs = [], []
    for module, attr in _TARGETS:
        mod = importlib.import_module(module)
        own = getattr(mod, attr)

        def recorded(*args, _own=own, _name=f"{module}.{attr}", **kwargs):
            calls.append((_name, threading.current_thread()))
            return _own(*args, **kwargs)

        monkeypatch.setattr(mod, attr, recorded)
    submit = autograd._submit

    def record(job):
        jobs.append(job.func.__name__)
        return submit(job)

    monkeypatch.setattr(autograd, "_submit", record)
    # every handoff forced on: the head's halves, cross-entropy's, the update's and any flushes go to the
    # worker, and a stack whose step functions are the library's own would run as a wavefront, a one-layer
    # RAU with its attention branches on the worker
    handoff(True)
    monkeypatch.setattr(models, "CE_BLOCK_BYTES", 10 * 8 * 50)  # blocks of 10 rows, so cross-entropy splits
    mdl = build_language_model("rau", 50, 8, 2, 0.1, Rng(1), dropout=0.2)
    stream = Rng(2).integers(50, size=20 * 11)
    train_epoch_lm(mdl, stream, make_optimizer("sgd", mdl, 1.0), Rng(3), 20, 10, 1, 3)
    evaluate_lm(mdl, stream, 20, 10)
    clf = build_classifier("rau", 3, 8, 1, 4, 0.1, Rng(4))
    xs, ys = Rng(5).uniform(-1.0, 1.0, (8, 5, 3)), Rng(6).integers(4, size=8)
    train_epoch_classifier(clf, xs, ys, make_optimizer("adam", clf, 0.01), Rng(7), 8, 1, 7)
    evaluate_classifier(clf, xs, ys, 8)
    assert {"_gemm_rows", "_cross_entropy_rows", "_head_grads", "_sgd"} <= set(jobs)
    assert {name for name, _ in calls} >= {"rau.cells.step", "rau.cells.sigmoid", "rau.cells.softmax",
                                           "rau.train.lm_forward", "rau.train.classify_forward"}
    assert [name for name, thread in calls if thread is not threading.main_thread()] == []
