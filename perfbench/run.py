"""The dpnewsvendor benchmark: one command, three workloads.

    python3 perfbench/run.py --workload table2_cell|private_sweep|csv_fit|all \\
        --seed N --seconds S --trace 0|1

The runner itself never imports numpy.  It times cold interpreter starts
(``setup_s``) and runs each workload in a worker process whose
environment pins OpenBLAS and OpenMP to one thread, so BLAS never sees
more than one core.  With ``--trace 0`` it prints every end-to-end
metric; with ``--trace 1`` a run of traced units prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run's
full result, with the environment it ran in, is also written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table2_cell", "private_sweep", "csv_fit")
SETUP_STARTS = 4  # timed cold starts before the workloads, and again after them
WORKER_TIMEOUT_S = 150.0
# The highest percentile with about ten units beyond it in a 20 s run at
# the commit that added the benchmark; fixed, so commits compare alike.
TAIL_PCT = 75
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict, warm_up: bool) -> list[float]:
    """Wall times of cold interpreter starts that import the CLI module;
    ``warm_up`` adds one untimed start that fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import dpnewsvendor.cli"]
    times = []
    for i in range(SETUP_STARTS + warm_up):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
        if i or not warm_up:
            times.append(time.perf_counter() - t0)
    return times


def run_worker(env: dict, workload: str, args) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S, stdout=subprocess.PIPE, text=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(result: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    lat = result["latencies"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (sum(lat) / len(lat), "s"),
        "rows_per_s": (result["rows"] / sum(lat), "1/s"),
        "session_p50_s": (statistics.median(lat), "s"),
        "session_tail_s": (percentile(lat, TAIL_PCT), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per unit of work unless the name says otherwise."""
    layers, units = trace["layers"], trace["units"]
    out: dict[str, tuple[float, str]] = {}

    def add(fn: str, field: str, value: float, unit: str) -> None:
        out[f"{fn}.{field}"] = (value, unit)

    def basic(fn: str, *fields: str) -> dict:
        entry = layers[fn]
        for field in fields:
            if field == "calls":
                add(fn, "calls", entry["calls"] / units, "count")
            else:
                add(fn, field, entry[field] / units, "s" if field.endswith("_s") else "count")
        return entry

    oos = basic("evaluation.out_of_sample_cost", "calls", "self_s")
    add("evaluation.out_of_sample_cost", "rows", oos["work"] / units, "count")
    add("evaluation.out_of_sample_cost", "ns_per_row", 1e9 * _ratio(oos["self_s"], oos["work"]), "ns")
    gen = basic("data.generate_synthetic", "calls", "self_s")
    add("data.generate_synthetic", "rows", gen["work"] / units, "count")
    erm = basic("optimizer.smoothed_erm", "calls", "busy_s")
    add("optimizer.smoothed_erm", "gradients_per_call",
        _ratio(erm["inside"].get("model.smoothed_gradient", 0), erm["calls"]), "count")
    add("optimizer.smoothed_erm", "cost_evals_per_call",
        _ratio(erm["inside"].get("model.smoothed_empirical_cost", 0), erm["calls"]), "count")
    basic("model.smoothed_hessian", "calls")
    fit = basic("optimizer.fit", "calls", "busy_s", "self_s")
    add("optimizer.fit", "linesearch_evals_per_step",
        _ratio(fit["inside"].get("model.smoothed_empirical_cost", 0),
               fit["inside"].get("optimizer.noisy_step", 0)), "count")
    basic("model.smoothed_empirical_cost", "calls", "self_s")
    basic("optimizer.noisy_step", "calls", "self_s")
    grad = basic("model.smoothed_gradient", "calls", "self_s")
    add("model.smoothed_gradient", "us_per_call", 1e6 * _ratio(grad["busy_s"], grad["calls"]), "us")
    for fn in ("kernels.scaled_cdf", "kernels.smoothed_check_loss"):
        k = basic(fn, "calls", "self_s")
        add(fn, "ns_per_elem", 1e9 * _ratio(k["self_s"], k["work"]), "ns")
    csv = basic("data.load_csv", "calls", "self_s")
    add("data.load_csv", "rows_per_s", _ratio(csv["work"], csv["busy_s"]), "1/s")
    main = basic("cli.main", "calls", "busy_s")
    add("cli.main", "failures", main["work"] / units, "count")
    basic("privacy.calibrate_sigma", "calls", "self_s")
    out["trace.overhead_frac"] = (trace["overhead_frac"], "ratio")
    out["trace.absent"] = (float(len(trace["absent"])), "count")
    return out


def report(workload: str, result: dict, metrics: dict, setup: list[float]) -> None:
    lat = result["latencies"]
    print(f"== {workload}: {len(lat)} timed units, {result['failed']}/{result['attempted']} failed "
          f"(failed_frac {_ratio(result['failed'], result['attempted']):.4g})")
    for error in result["errors"]:
        print(f"   error: {error}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} cold starts importing dpnewsvendor.cli)"
        elif name == "session_tail_s":
            beyond = sum(v > value for v in lat)
            note = f"  (p{TAIL_PCT} of {len(lat)} units, {beyond} beyond it)"
        print(f"   {name:48s} {value:14.6g} {unit}{note}")
    if "trace" in result:
        trace = result["trace"]
        if trace["absent"]:
            print(f"   absent traced names: {', '.join(trace['absent'])}")
        total = trace["layers"]["bench.unit"]["busy_s"]
        shares = sorted(((v["self_s"] / total, k) for k, v in trace["layers"].items()), reverse=True)
        print("   self-time share of traced units: "
              + ", ".join(f"{k} {100 * s:.1f}%" for s, k in shares if s >= 0.005))
    print(f"   env: {json.dumps(result['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpnewsvendor" / "__init__.py").is_file():
        print(f"error: no dpnewsvendor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # Machine speed drifts over tens of seconds on a shared host, so the
    # set-up starts are split between the start and the end of the run.
    setup = [] if args.trace else measure_setup(env, warm_up=True)
    results = {name: run_worker(env, name, args) for name in names}
    if not args.trace:
        setup += measure_setup(env, warm_up=False)

    attempted = failed = 0
    metrics = {}
    for name, result in results.items():
        mine = per_layer(result["trace"]) if args.trace else end_to_end(result, setup)
        report(name, result, mine, setup)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in mine.items()})
        OUT.mkdir(exist_ok=True)
        record = dict(result, workload=name, seed=args.seed, seconds=args.seconds, setup_s=setup,
                      metrics={k: v for k, (v, _) in mine.items()})
        record_path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
