"""Benchmark of the rau library: per-cell train/eval throughput and the gradient oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload rows-classify --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it records the host. `--record-reference` rewrites
bench/reference.json from the current library code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# BLAS threads are pinned before numpy loads, the same on every run. One
# thread is at or under nproc everywhere, and at these matrix sizes it was
# also faster than two on the 2-core reference host.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH_DIR))

from rau_import import import_rau  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and models, print 'ready' and exit (setup_s probe)")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json with the reference-check losses of the current code")
    return p, p.parse_args(argv)


def _git_sha() -> str:
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = REPO_ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (REPO_ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record(seed: int, shim: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "seed": seed,
        "import_shim": shim,
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time from process start to 'ready' (imports, inputs, models), over fresh processes.

    Returns the median of the times scaled by the host speed (see
    measure.host_probe; the batched-work probe, run before and after each
    process) and the raw median.
    """
    import measure

    times, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    for _ in range(SETUP_REPEATS):
        before = measure.host_probe()[0]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT) as proc:
            try:
                line = proc.stdout.readline()
                dt = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
        after = measure.host_probe()[0]
        times.append(dt)
        scaled.append(dt * measure.HOST_PROBE_REF_S[0] / ((before + after) / 2))
    return statistics.median(scaled), statistics.median(times)


def record_reference(shim: bool) -> None:
    import workloads

    losses = {}
    for name in workloads.WORKLOADS:
        wl = workloads.setup(name, 0)
        losses[name] = {c: list(wl.reference_losses(c, wl.models[c], wl.opts[c])) for c in workloads.CELLS}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump({"losses": losses, "loss_rtol": workloads.LOSS_RTOL, "host": host_record(0, shim)}, f, indent=2)
        f.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


def main(argv=None) -> int:
    parser, args = _parse(argv)
    try:
        shim = import_rau(REPO_ROOT / "src")
    except ImportError as exc:
        print(f"cannot import rau from {REPO_ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(shim)
        return 0

    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    tally, metrics, notes = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    if not args.trace and not tally.failed:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        setup_s, notes["raw_medians"]["setup_s"] = measure_setup(args.workload, args.seed)
        metrics["setup_s"] = (setup_s, "s")
    raw = notes.get("raw_medians", {})
    for key in sorted(metrics):
        value, unit = metrics[key]
        extra = f"  (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{args.workload:18s} {key:42s} {value:14.6g} {unit}{extra}")
    print(json.dumps({"host": host_record(args.seed, shim), **notes}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
