"""Every committed perf record, `BENCH_<n>.json` at the repository root, is complete.

Each file summarises `bench/run.py` runs of one tree: the host, numpy
and its BLAS, the git sha and the seeds, and per workload the median
and quartiles of every end-to-end metric `BENCHMARK.json` names, plus
one traced run's per-layer metrics.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json", p.name)[1]))


def test_the_trajectory_has_no_gaps():
    assert [p.name for p in FILES] == [f"BENCH_{i}.json" for i in range(len(FILES))]
    assert FILES, "no BENCH_*.json is committed"


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_names_its_host_tree_and_seeds(path):
    record = json.loads(path.read_text())
    assert re.fullmatch(r"[0-9a-f]{40}", record["git_sha"])
    for key in ("cpu", "nproc", "python", "numpy", "blas", "blas_threads"):
        assert record["host"][key] not in (None, ""), key
    assert record["command"].startswith("python3 bench/run.py")
    assert set(record["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, wl in record["workloads"].items():
        assert wl["seeds"] and len(set(wl["seeds"])) == len(wl["seeds"]), name
        assert wl["correct"] is True and wl["failed"] == 0, name


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_gives_every_declared_metric_of_every_workload(path):
    record = json.loads(path.read_text())
    for name, wl in record["workloads"].items():
        for metric in BENCHMARK["end_to_end"]:
            entry = wl["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert len(entry["values"]) == len(wl["seeds"])
            assert entry["q1"] <= entry["median"] <= entry["q3"], (name, metric["name"])
        split = wl["per_layer"]
        assert isinstance(split["seed"], int)
        for metric in BENCHMARK["per_layer"]:
            assert split["metrics"][metric["name"]]["unit"] == metric["unit"], (name, metric["name"])
