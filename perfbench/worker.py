"""Runs one workload for a fixed time and prints its measurements as JSON.

``run.py`` starts this script with BLAS threads pinned in its
environment; it is not meant to be called directly.  The last line of
standard output is one JSON object with the unit latencies, rows done,
operation counts, peak RSS, the environment and, with ``--trace 1``,
the per-layer summary of the traced units.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dpnewsvendor  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OutputMismatch, check  # noqa: E402

WORKDIR = ROOT / ".perfbench_out" / "work"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Runner:
    """Runs units of one workload, checks each one, and keeps the counts."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, key, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run one unit; return its wall time and the rows it completed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rows, outputs = self.workload.run(key)
            else:
                tracer.install()
                try:
                    rows, outputs = tracer.unit(self.workload.run, key)
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - t0
            check(outputs, self.reference[str(key)], f"{self.workload.name}[{key}]")
            return elapsed, rows
        except (*self.workload.failures, OutputMismatch) as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(dpnewsvendor.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"imported dpnewsvendor from {src}, not from {ROOT / 'src'}")

    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    with open(Path(__file__).with_name("reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[workload.name]
    order = workload.schedule(args.seed)
    workload.prepare(WORKDIR, order)
    keys = itertools.cycle(order)
    runner = Runner(workload, reference)
    runner.attempt(next(keys))  # warm-up: checked, not timed

    latencies, rows, out = [], 0, {}
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        while time.perf_counter() < deadline:
            elapsed, done = runner.attempt(next(keys))
            latencies.append(elapsed)
            rows += done
    else:
        # Untraced and traced units alternate on the same key, so their
        # ratio is the tracing overhead on identical work.
        tracer = Tracer()
        ratios = []
        while time.perf_counter() < deadline:
            key = next(keys)
            plain, _ = runner.attempt(key)
            traced, done = runner.attempt(key, tracer)
            latencies.append(traced)
            rows += done
            ratios.append(traced / plain)
        out["trace"] = {
            "units": len(latencies),
            "absent": tracer.absent,
            "overhead_frac": statistics.median(ratios) - 1.0,
            "layers": tracer.summary(),
        }
        tracer.save(WORKDIR.parent / f"spans-{workload.name}.npz")

    out.update(
        latencies=latencies,
        rows=rows,
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
