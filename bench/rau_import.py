"""Import the `rau` package from a checkout's `src/`, working around one known break.

On Python >= 3.11, `dataclasses` rejects an unhashable default, so
`import rau.cells` fails on `CellState.c: np.ndarray = _EMPTY`. The
benchmark may not edit the library, so this module catches exactly that
error, rewrites that single line in memory to a `default_factory` that
returns the same `_EMPTY` object, and executes the module from its own
file. Any other import error is re-raised. Once the library is fixed the
first import succeeds and the shim does nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SHIM_ERROR = "mutable default <class 'numpy.ndarray'> for field c"
SHIM_OLD = "    c: np.ndarray = _EMPTY\n"
SHIM_NEW = "    c: np.ndarray = dataclasses.field(default_factory=lambda: _EMPTY)\n"


class ShimError(RuntimeError):
    """The known break occurred but the line to rewrite was not found exactly once."""


def import_rau(src_dir: Path) -> bool:
    """Import `rau` and all its modules from `src_dir`; return True when the shim was applied."""
    src_dir = Path(src_dir).resolve()
    sys.path.insert(0, str(src_dir))
    shim = False
    try:
        importlib.import_module("rau.cells")
    except ValueError as exc:
        if SHIM_ERROR not in str(exc):
            raise
        _exec_patched_cells()
        shim = True
    for name in ("linalg", "cells", "autograd", "models", "data", "train", "cli"):
        module = importlib.import_module(f"rau.{name}")
        origin = Path(module.__file__).resolve()
        if src_dir not in origin.parents:
            raise ImportError(f"rau.{name} was imported from {origin}, not from {src_dir}")
    return shim


def _exec_patched_cells() -> None:
    sys.modules.pop("rau.cells", None)
    spec = importlib.util.find_spec("rau.cells")
    source = Path(spec.origin).read_text(encoding="utf-8")
    if source.count(SHIM_OLD) != 1:
        raise ShimError(f"{spec.origin}: expected the line {SHIM_OLD.strip()!r} exactly once")
    code = compile(source.replace(SHIM_OLD, SHIM_NEW), spec.origin, "exec")
    module = importlib.util.module_from_spec(spec)
    # dataclass processing looks the module up in sys.modules while the body runs
    sys.modules["rau.cells"] = module
    try:
        exec(code, module.__dict__)
    except BaseException:
        del sys.modules["rau.cells"]
        raise
    setattr(sys.modules["rau"], "cells", module)
