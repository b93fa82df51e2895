"""Make the benchmark's modules and the checkout's `rau` importable in its tests.

Run from the root of the checkout: python3 -m pytest bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from rau_import import import_rau  # noqa: E402

SHIM_APPLIED = import_rau(REPO_ROOT / "src")
