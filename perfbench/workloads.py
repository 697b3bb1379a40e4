"""The benchmark's workloads: inputs from a seed, one unit of work, its outputs.

Every unit draws its inputs from a fixed pool of keys (replication base
seeds, or synthetic CSV files), so that its outputs can be checked
against ``reference.json``, recorded once by ``record_reference.py``.
The benchmark seed picks which pool keys a run visits and in what order.
All calls into the package go through module attributes so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from dpnewsvendor import cli, evaluation
from dpnewsvendor.data import DEFAULT_THETA_STAR, ErrorDist, ar1_covariance
from dpnewsvendor.model import Problem

REL_TOL = 1e-6


class OutputMismatch(Exception):
    """A unit's outputs differ from the recorded reference."""


class CliFailure(RuntimeError):
    """A ``dpnv`` call in a CSV session exited with a non-zero code."""


def _cell(**overrides) -> evaluation.ReplicationConfig:
    settings = dict(
        problem=Problem.from_quantile(0.5),
        error_dist=ErrorDist.normal(),
        n=400,
        theta_star=DEFAULT_THETA_STAR,
        covariance=ar1_covariance(len(DEFAULT_THETA_STAR) - 1, 0.5),
        n_steps=10,
        clip_radius=2.0,
        kernel="gaussian",
        bandwidth=None,
        mode="known_sigma_matrix",
    )
    settings.update(overrides)
    return evaluation.ReplicationConfig(**settings)


def _row_outputs(report) -> list[list[float]]:
    return [[r.l2_error, r.sigma_error, r.regret, r.oos_cost] for r in report.rows]


class _Replications:
    """A replication workload: each unit is one harness call at a base
    seed drawn from the pool; its outputs are the per-row errors."""

    pool: int
    failures = (evaluation.ReplicationError,)

    def pool_keys(self) -> list[int]:
        return list(range(1, self.pool + 1))

    def schedule(self, seed: int) -> list[int]:
        # Every run cycles through the whole pool, so runs differ in order,
        # not in how much work their inputs take.
        keys = self.pool_keys()
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return keys

    def prepare(self, workdir: Path, keys) -> None:
        pass


class Table2Cell(_Replications):
    """One Table-2 cell: four estimators, line-search steps, a 1e6-row
    Monte-Carlo evaluation set regenerated by every replication run."""

    name = "table2_cell"
    pool = 32
    reps = 3

    def run(self, key: int):
        config = _cell(
            mu_grid=(None, 0.9, 0.5, 0.3), step_size=None, eval_n=1_000_000, base_seed=key
        )
        report = evaluation.run_replications(config, self.reps, jobs=1)
        return len(report.rows), _row_outputs(report)


class PrivateSweep(_Replications):
    """The certified path: fixed-step private fits only, at five sample
    sizes, with a small evaluation set."""

    name = "private_sweep"
    pool = 8
    reps = 24
    ns = (100, 200, 300, 400, 500)

    def run(self, key: int):
        config = _cell(mu_grid=(0.9, 0.5, 0.3), step_size=1.0, eval_n=20_000, base_seed=key)
        report = evaluation.sweep(config, self.ns, self.reps, jobs=1)
        return len(report.rows), _row_outputs(report)


class CsvFit:
    """A practitioner's ``dpnv`` session on CSV files: a private fit, a
    non-private fit, and an evaluation of each, run in-process."""

    name = "csv_fit"
    pool = 8
    datasets_per_run = 2
    train_rows = 100_000
    test_rows = 20_000
    failures = (CliFailure,)

    def __init__(self):
        self.workdir = None

    def pool_keys(self) -> list[int]:
        return list(range(self.pool))

    def schedule(self, seed: int) -> list[int]:
        return random.Random(f"{self.name}:{seed}").sample(self.pool_keys(), self.datasets_per_run)

    def prepare(self, workdir: Path, keys) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        for key in sorted(set(keys)):
            self.write_inputs(key)

    def write_inputs(self, key: int) -> None:
        rng = np.random.default_rng([7, key])
        p = len(DEFAULT_THETA_STAR) - 1
        chol = np.linalg.cholesky(ar1_covariance(p, 0.5))
        for split, n in (("train", self.train_rows), ("test", self.test_rows)):
            with open(self.workdir / f"{split}{key}.csv", "w", encoding="utf-8") as fh:
                fh.write("demand," + ",".join(f"z{j}" for j in range(1, p + 1)) + "\n")
                for start in range(0, n, 10_000):
                    m = min(10_000, n - start)
                    z = rng.standard_normal((m, p)) @ chol.T
                    d = DEFAULT_THETA_STAR[0] + z @ np.asarray(DEFAULT_THETA_STAR[1:])
                    d = d + rng.standard_t(3.0, m)
                    rows = np.column_stack([d, z]).tolist()
                    fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)

    def _dpnv(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        if code != 0:
            raise CliFailure(f"dpnv {argv[0]} exited {code}: {err.getvalue().strip()}")

    def run(self, key: int):
        w = self.workdir
        train, test = str(w / f"train{key}.csv"), str(w / f"test{key}.csv")
        costs = ("--b", "50", "--h", "30")
        private, erm = str(w / "private.json"), str(w / "erm.json")
        self._dpnv("fit", "--input", train, *costs, "--mu", "0.5", "--out", private)
        self._dpnv("fit", "--input", train, *costs, "--nonprivate", "--out", erm)
        outputs = {}
        for label, fit_path in (("private", private), ("erm", erm)):
            evaluated = str(w / f"{label}_eval.json")
            self._dpnv("evaluate", "--fit", fit_path, "--test", test, *costs, "--out", evaluated)
            fitted = json.loads(Path(fit_path).read_text(encoding="utf-8"))
            outputs[f"{label}_beta"] = fitted["beta"]
            outputs[f"{label}_oos_cost"] = json.loads(Path(evaluated).read_text(encoding="utf-8"))["oos_cost"]
            if label == "private":
                # the reference holds sigma = 16: the private fit must be certified
                outputs["private_sigma"] = (fitted["certificate"] or {}).get("sigma")
        return 2 * self.train_rows + 2 * self.test_rows, outputs


WORKLOADS = {w.name: w for w in (Table2Cell, PrivateSweep, CsvFit)}


def check(outputs, reference, where: str = "") -> None:
    """Raise OutputMismatch unless ``outputs`` equals ``reference`` with
    floats compared at relative tolerance REL_TOL."""
    if isinstance(reference, dict):
        if not isinstance(outputs, dict) or outputs.keys() != reference.keys():
            raise OutputMismatch(f"{where}: keys differ")
        for k in reference:
            check(outputs[k], reference[k], f"{where}.{k}")
    elif isinstance(reference, list):
        if not isinstance(outputs, list) or len(outputs) != len(reference):
            raise OutputMismatch(f"{where}: length differs")
        for i, (a, b) in enumerate(zip(outputs, reference)):
            check(a, b, f"{where}[{i}]")
    elif not (
        isinstance(outputs, (int, float))
        and math.isclose(outputs, reference, rel_tol=REL_TOL, abs_tol=1e-12)
    ):
        raise OutputMismatch(f"{where}: {outputs!r} != reference {reference!r}")
