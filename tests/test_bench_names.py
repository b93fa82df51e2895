"""The library names the benchmark's traced run wraps must exist.

`bench/spans.py` replaces module attributes such as `rau.train.backward`
with timing wrappers; a rename in the library would break only the
traced benchmark run. The file is loaded by path, so this test reads
the benchmark's own table.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
