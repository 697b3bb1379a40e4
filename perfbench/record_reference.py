"""Records the reference outputs the benchmark checks every unit against.

Runs every pool key of every workload once and writes
``perfbench/reference.json``.  Run it only when a change is meant to
alter what the program computes (not how fast), and say so with the
change:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".perfbench_out" / "work"


def _rounded(value):
    """Floats to 10 significant digits, far inside the check's tolerance."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return float(f"{value:.10g}")


def main() -> int:
    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        outputs = {}
        keys = workload.pool_keys()
        workload.prepare(WORKDIR, keys)
        for key in keys:
            outputs[str(key)] = workload.run(key)[1]
            print(f"{name} key {key}", file=sys.stderr)
        reference[name] = outputs
    path = Path(__file__).with_name("reference.json")
    text = json.dumps(_rounded(reference), separators=(",", ":"))
    path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
