"""Estimation-error metrics, Monte-Carlo regret, and the replication harness.

``run_replications`` repeats a generate -> fit cycle with independent
seeds and reports, per estimator, the L2 and whitened estimation errors,
the regret against the clairvoyant policy on a large held-out evaluation
set, and the out-of-sample cost.  Fitting comes first; every policy of
the run (of every sample size, for ``sweep``), the clairvoyant one
included, is then scored in one blocked pass by ``out_of_sample_cost``,
which draws the evaluation rows from their ``SyntheticSpec`` block by
block and scores each block as it is drawn, so the evaluation set is
never held whole as a ``Dataset``.

The private fits of a cell advance in lockstep: the replications are cut
into contiguous chunks, ``jobs`` of them or more so that none holds over
``_STACK_ROWS`` training rows, which run on ``jobs`` threads; every
private fit of a chunk, all replications at all privacy levels, takes
each noisy step together in ``optimizer._lockstep_fits``.  A fit
rounds the same whichever replications share its chunk, so rows do not
depend on ``jobs`` or on the chunking.  The noise scale of each privacy
level is calibrated once per cell.

Seeding is splittable and documented: replication ``r`` derives its
streams from ``SeedSequence((base_seed, r, k))`` where ``k = 0`` is the
training data and ``k = 1 + j`` the noise of the j-th privacy level.
The shared evaluation set uses ``(base_seed, 0, 0)``; replication ids
start at 1.  Rows are therefore a prefix-stable function of the base
seed: increasing R never changes earlier rows.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import optimizer
from .data import (
    ErrorDist,
    SyntheticSpec,
    Whitener,
    generate_synthetic,
    synthetic_blocks,
    true_beta_star,
    whitener_from,
)
from .errors import DimensionMismatch
from .model import Dataset, Problem, coefficients
from .optimizer import HyperParams, NoiseSource, default_bandwidth
from .privacy import calibrate_sigma

ROW_FIELDS = (
    "rep_id",
    "n",
    "mu_label",
    "tau",
    "dist_label",
    "l2_error",
    "sigma_error",
    "regret",
    "oos_cost",
)

METRICS = ("l2_error", "sigma_error", "regret", "oos_cost")


def estimation_error(beta, beta_star, whitener: Whitener | None = None) -> float:
    """L2 distance, or the quadratic-form distance induced by a whitener."""
    beta = coefficients(beta)
    beta_star = coefficients(beta_star)
    if beta.shape != beta_star.shape:
        raise DimensionMismatch(
            f"coefficient vectors of lengths {len(beta)} and {len(beta_star)}"
        )
    delta = beta - beta_star
    if whitener is None:
        return float(np.linalg.norm(delta))
    if whitener.p != len(delta):
        raise DimensionMismatch(
            f"whitener is {whitener.p}-dimensional, coefficients are {len(delta)}"
        )
    return float(np.sqrt(delta @ whitener.sigma_matrix @ delta))


# Layout of the blocked cost pass.  BLAS rounding depends on operand
# shape, so every product has the same shape whatever the number of
# policies: a policy's cost is then bitwise the same whichever policies
# share the pass and wherever it sits among them.
_BLOCK_ROWS = 4096
_GROUP_POLICIES = 16


def out_of_sample_cost(problem: Problem, policy, test_data: Dataset | SyntheticSpec):
    """Average newsvendor cost of one or several policies on held-out data.

    ``policy`` is a coefficient vector, which gives a float, or a
    ``(p, K)`` matrix with one policy per column, which gives the K costs
    as an array from a single pass over the data.  The data is a
    ``Dataset`` or a ``SyntheticSpec``; a spec's rows are drawn by
    ``synthetic_blocks`` one block at a time and scored as they are
    drawn, so its ``n``-row feature matrix is never built.  The pass
    takes rows in blocks of ``_BLOCK_ROWS`` and policies in zero-padded
    groups of ``_GROUP_POLICIES`` and sums the cost
    ``b * (d - q) + (b + h) * (q - d)^+`` block by block.
    """
    single = np.ndim(policy) == 1
    betas = coefficients(policy)[:, None] if single else np.asarray(policy, dtype=float)
    if betas.ndim != 2:
        raise ValueError("policies must form a coefficient vector or a (p, K) matrix")
    if betas.shape[0] != test_data.p:
        raise DimensionMismatch(
            f"policy has {betas.shape[0]} coefficients but data has {test_data.p} features"
        )
    k, p, n = betas.shape[1], test_data.p, test_data.n
    width = -(-k // _GROUP_POLICIES) * _GROUP_POLICIES
    # The demand rides along as a last feature with coefficient -1, so
    # one product gives the overage q - d of every policy in a group.
    groups = np.zeros((width, p + 1))
    groups[:k, :p] = betas.T
    groups[:, p] = -1.0
    block = np.empty((p + 1, _BLOCK_ROWS))
    over = np.empty((_GROUP_POLICIES, _BLOCK_ROWS))
    over_sum = np.zeros(width)  # sum of q - d
    excess_sum = np.zeros(width)  # sum of (q - d)^+
    for features, demands in _row_blocks(test_data):
        m = len(demands)
        block[:p, :m] = features.T
        block[p, :m] = demands
        for g in range(0, width, _GROUP_POLICIES):
            o = np.matmul(groups[g : g + _GROUP_POLICIES], block[:, :m], out=over[:, :m])
            over_sum[g : g + _GROUP_POLICIES] += o.sum(axis=1)
            np.maximum(o, 0.0, out=o)
            excess_sum[g : g + _GROUP_POLICIES] += o.sum(axis=1)
    total = (problem.b + problem.h) * excess_sum - problem.b * over_sum
    costs = total[:k] / n
    return float(costs[0]) if single else costs


def _row_blocks(source: Dataset | SyntheticSpec):
    """``(features, demands)`` blocks of ``_BLOCK_ROWS`` rows of a dataset
    or a synthetic recipe."""
    if isinstance(source, SyntheticSpec):
        yield from synthetic_blocks(source, _BLOCK_ROWS)
        return
    for start in range(0, source.n, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        yield source.features[start:stop], source.demands[start:stop]


@dataclass(frozen=True)
class ReplicationRow:
    rep_id: int
    n: int
    mu_label: str
    tau: float
    dist_label: str
    l2_error: float
    sigma_error: float
    regret: float
    oos_cost: float


@dataclass(frozen=True)
class AggregateCell:
    n: int
    mu_label: str
    tau: float
    dist_label: str
    metric: str
    mean: float
    std: float


@dataclass(frozen=True)
class ReplicationConfig:
    """One experiment cell: a data law, a problem, and a privacy grid.

    ``mu_grid`` entries are GDP levels; ``None`` denotes the non-private
    smoothed-ERM baseline.  ``bandwidth=None`` resolves to the
    rule-of-thumb value, ``step_size=None`` to the per-iteration line
    search.  Each private fit's noise scale is the calibrated sigma
    rounded up to an integer.
    """

    problem: Problem
    error_dist: ErrorDist
    n: int
    theta_star: tuple[float, ...]
    covariance: np.ndarray
    mu_grid: tuple[float | None, ...] = (None, 0.9, 0.5, 0.3)
    n_steps: int = 10
    clip_radius: float = 2.0
    kernel: str = "gaussian"
    bandwidth: float | None = None
    step_size: float | None = None
    max_step_size: float = 4.0
    mode: str = "known_sigma_matrix"
    eval_n: int = 1_000_000
    base_seed: int = 0

    def __post_init__(self):
        if not self.eval_n >= 1:
            raise ValueError(f"eval_n must be >= 1, got {self.eval_n}")
        if not self.base_seed >= 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")

    def resolved_bandwidth(self) -> float:
        if self.bandwidth is not None:
            return self.bandwidth
        return default_bandwidth(self.problem.tau, self.n, len(self.theta_star))

    def mu_label(self, mu: float | None) -> str:
        return "nonprivate" if mu is None else f"mu={mu:g}"


@dataclass(frozen=True, eq=False)
class ReplicationReport:
    rows: tuple[ReplicationRow, ...]

    @property
    def aggregates(self) -> tuple[AggregateCell, ...]:
        return aggregate_rows(self.rows)


class ReplicationError(RuntimeError):
    """Wraps a failure inside one replication with its id."""

    def __init__(self, rep_id: int, cause: BaseException):
        self.rep_id = rep_id
        super().__init__(f"replication {rep_id} failed: {cause!r}")


def derive_seed(base_seed: int, rep_id: int, stream: int) -> int:
    """Hash (base_seed, rep_id, stream) into one integer seed."""
    ss = np.random.SeedSequence((int(base_seed), int(rep_id), int(stream)))
    return int(ss.generate_state(1, np.uint64)[0])


def _synthetic_spec(config: ReplicationConfig, n: int, seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        theta_star=config.theta_star,
        covariance=config.covariance,
        error_dist=config.error_dist,
        n=n,
        seed=seed,
    )


# Training rows per lockstep chunk: a chunk's stacked designs and
# residuals stay a few megabytes however many replications a cell has.
_STACK_ROWS = 1 << 15


def _fit_chunk(
    config: ReplicationConfig, rep_ids: range, whitener: Whitener, sigmas: dict
) -> list[np.ndarray]:
    """Fit every estimator of the privacy grid on a run of replications,
    the private ones in lockstep; betas in (rep_id, mu_grid) order.
    ``sigmas`` maps the index of each private level in ``mu_grid`` to
    its noise scale."""
    problem = config.problem
    bandwidth = config.resolved_bandwidth()
    p = len(config.theta_star)
    train = []
    noise = np.empty((config.n_steps, len(rep_ids), p, len(sigmas)))
    for r, rep_id in enumerate(rep_ids):
        spec = _synthetic_spec(config, config.n, derive_seed(config.base_seed, rep_id, 0))
        train.append(generate_synthetic(spec))
        for m, (j, sigma) in enumerate(sigmas.items()):
            draws = NoiseSource(derive_seed(config.base_seed, rep_id, 1 + j))
            noise[:, r, :, m] = sigma * draws.standard_normal((config.n_steps, p))
    hp = HyperParams(
        bandwidth=bandwidth,
        n_steps=config.n_steps,
        clip_radius=config.clip_radius,
        step_size=config.step_size,
        kernel=config.kernel,
        mode=config.mode,
        max_step_size=config.max_step_size,
    )
    private = optimizer._lockstep_fits(train, problem, hp, whitener, noise)
    betas = []
    for data, levels in zip(train, private):
        columns = iter(levels.T)
        for mu in config.mu_grid:
            if mu is None:
                betas.append(optimizer.smoothed_erm(data, problem, config.kernel, bandwidth))
            else:
                betas.append(next(columns))
    return betas


def aggregate_rows(rows) -> tuple[AggregateCell, ...]:
    """Group rows by configuration cell and compute mean/std per metric.

    Standard deviations use ddof=1 (0.0 for singleton groups).
    """
    groups: dict[tuple, list[ReplicationRow]] = {}
    for row in rows:
        key = (row.n, row.mu_label, row.tau, row.dist_label)
        groups.setdefault(key, []).append(row)
    cells = []
    for key, members in groups.items():
        for metric in METRICS:
            vals = np.array([getattr(r, metric) for r in members])
            std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
            cells.append(
                AggregateCell(
                    n=key[0],
                    mu_label=key[1],
                    tau=key[2],
                    dist_label=key[3],
                    metric=metric,
                    mean=float(np.mean(vals)),
                    std=std,
                )
            )
    return tuple(cells)


def run_replications(config: ReplicationConfig, R: int, jobs: int = 1) -> ReplicationReport:
    """Run R independent replications of the experiment cell.

    Deterministic given ``config.base_seed``.  ``jobs`` threads fit
    contiguous chunks of replications concurrently; rows are always
    assembled in rep_id order and do not depend on ``jobs``.
    """
    return sweep(config, (config.n,), R, jobs=jobs)


def sweep(config: ReplicationConfig, ns, R: int, jobs: int = 1) -> ReplicationReport:
    """Run the cell at several sample sizes and concatenate the reports.

    Every sample size is fitted first; the policies of all of them are
    then scored in one pass over the shared evaluation set.
    """
    if not R >= 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if not jobs >= 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    problem = config.problem
    eval_spec = _synthetic_spec(config, config.eval_n, derive_seed(config.base_seed, 0, 0))
    whitener = whitener_from(eval_spec)
    sigmas = {
        j: calibrate_sigma(
            mu, config.clip_radius, config.n_steps, problem.tau_bar, round_up=True
        )
        for j, mu in enumerate(config.mu_grid)
        if mu is not None
    }
    cells = [replace(config, n=int(n)) for n in ns]

    def job(cell: ReplicationConfig, rep_ids: range) -> list[np.ndarray]:
        try:
            return _fit_chunk(cell, rep_ids, whitener, sigmas)
        except Exception as exc:
            if len(rep_ids) == 1:
                raise ReplicationError(rep_ids[0], exc) from exc
        # rows do not depend on the chunking: refit one replication at a
        # time to name the one that failed
        return [beta for rep_id in rep_ids for beta in job(cell, range(rep_id, rep_id + 1))]

    chunks = []
    for cell in cells:
        size = max(1, min(-(-R // jobs), _STACK_ROWS // cell.n))
        chunks += [(cell, range(a, min(a + size, R + 1))) for a in range(1, R + 1, size)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_chunk = list(pool.map(lambda chunk: job(*chunk), chunks))
    else:
        per_chunk = [job(*chunk) for chunk in chunks]

    beta_star = true_beta_star(eval_spec, problem.tau)
    betas = [beta for chunk in per_chunk for beta in chunk]
    clairvoyant_cost, *costs = out_of_sample_cost(
        problem, np.column_stack([beta_star, *betas]), eval_spec
    ).tolist()
    keys = [
        (cell.n, rep_id, mu)
        for cell in cells
        for rep_id in range(1, R + 1)
        for mu in config.mu_grid
    ]
    rows = tuple(
        ReplicationRow(
            rep_id=rep_id,
            n=n,
            mu_label=config.mu_label(mu),
            tau=problem.tau,
            dist_label=config.error_dist.label,
            l2_error=estimation_error(beta, beta_star),
            sigma_error=estimation_error(beta, beta_star, whitener),
            regret=oos - clairvoyant_cost,
            oos_cost=oos,
        )
        for (n, rep_id, mu), beta, oos in zip(keys, betas, costs)
    )
    return ReplicationReport(rows=rows)


def write_rows_csv(report: ReplicationReport, path) -> None:
    """Long-format CSV, one row per replication per estimator."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_FIELDS)
        for row in report.rows:
            writer.writerow([repr(getattr(row, f)) if isinstance(getattr(row, f), float) else getattr(row, f) for f in ROW_FIELDS])


def write_aggregates_csv(report: ReplicationReport, path) -> None:
    """Wide-format CSV: one estimator column per privacy level.

    Rows come in (mean, std) pairs per (dist, tau, n, metric) group,
    mirroring the usual results-table layout.
    """
    aggregates = report.aggregates
    labels = dict.fromkeys(cell.mu_label for cell in aggregates)
    keyed: dict[tuple, dict[str, AggregateCell]] = {}
    for cell in aggregates:
        key = (cell.dist_label, cell.tau, cell.n, cell.metric)
        keyed.setdefault(key, {})[cell.mu_label] = cell
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist", "tau", "n", "metric", "stat", *labels])
        for (dist, tau, n, metric), cells in keyed.items():
            for stat in ("mean", "std"):
                writer.writerow(
                    [dist, repr(tau), n, metric, stat]
                    + [
                        repr(getattr(cells[label], stat)) if label in cells else ""
                        for label in labels
                    ]
                )
