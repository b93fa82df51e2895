"""The import shim: applied only to the known break, loud when it cannot apply."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np

from conftest import BENCH_DIR, SHIM_APPLIED
from rau import cells
from rau_import import SHIM_ERROR, SHIM_OLD

BROKEN_CELLS = textwrap.dedent("""\
    import dataclasses
    from dataclasses import dataclass

    import numpy as np

    _EMPTY = np.zeros(0)


    @dataclass
    class CellState:
        h: np.ndarray
    {field}
""")


def _import_fake(tmp_path, cells_source: str) -> subprocess.CompletedProcess:
    pkg = tmp_path / "src" / "rau"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cells.py").write_text(cells_source)
    for name in ("linalg", "autograd", "models", "data", "train", "cli"):
        (pkg / f"{name}.py").write_text("")
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); from rau_import import import_rau; "
            f"print(import_rau({str(tmp_path / 'src')!r}))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)


def test_shim_keeps_the_default_object_and_the_arithmetic():
    state = cells.CellState(h=np.zeros(3))
    assert state.c is cells._EMPTY
    assert cells.CellState(h=np.zeros(3)).c is state.c
    assert cells.zero_state("gru", 4).c is cells._EMPTY


def test_shim_applies_only_on_the_known_break():
    broken = sys.version_info >= (3, 11)
    assert SHIM_APPLIED == broken


def test_shim_rewrites_the_exact_line(tmp_path):
    result = _import_fake(tmp_path, BROKEN_CELLS.format(field=SHIM_OLD.rstrip("\n")))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(sys.version_info >= (3, 11))


def test_shim_fails_loudly_when_the_line_is_not_found(tmp_path):
    source = BROKEN_CELLS.format(field="    c: np.ndarray = (_EMPTY)")
    result = _import_fake(tmp_path, source)
    if sys.version_info >= (3, 11):
        assert result.returncode != 0
        assert "ShimError" in result.stderr and SHIM_ERROR in result.stderr
    else:
        assert result.returncode == 0


def test_shim_reraises_any_other_import_error(tmp_path):
    result = _import_fake(tmp_path, "raise ValueError('something else')\n")
    assert result.returncode != 0
    assert "something else" in result.stderr and "ShimError" not in result.stderr
