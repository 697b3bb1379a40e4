"""Estimation-error metrics, Monte-Carlo regret, and the replication harness.

``run_replications`` repeats a generate -> fit cycle with independent
seeds and reports, per estimator, the L2 and whitened estimation errors,
the regret against the clairvoyant policy on a large held-out evaluation
set, and the out-of-sample cost.  Every policy of the run (of every
sample size, for ``sweep``), the clairvoyant one included, is scored in
one blocked pass, ``_CostPartials``, straight from the evaluation set's
random stream: the standard normals and the noise that
``data._synthetic_stream`` draws into two arrays, scored with
``_overage_coefficients``.  Neither the set's features nor its demands
are built, so it is never held as a ``Dataset``; ``out_of_sample_cost``
scores a ``Dataset`` only.  The stream is drawn on one helper thread
while the fits run, the noise in chunks of rows, one task each, in
stream order.  After the fits, the main thread takes blocks of rows
from the front, each as soon as its chunk is drawn, and the helper,
once the draw has ended, takes blocks from the back, until the two
meet.  Each block keeps its own partial sums, added in block order at
the end, so the costs are bitwise those of one pass on one thread.  The
rows' estimation errors come from one stacked pass over the ``(K, p)``
coefficient differences, bitwise those of ``estimation_error``.

The private fits of a sweep advance in lockstep.  The sweep is cut for
the CPUs once: its replications, in (n, replication) order, are dealt
into lanes of near-equal rows (``_fit_cells``), which run through one
``kernels._fork_join``, the first on the calling thread.  Each lane
packs its replications into batches of at most its share of
``_STACK_ROWS`` training rows.  A batch draws each replication's
training rows straight into its slice of the batch's stack for that
size; only the non-private ERM gets them as a ``Dataset``.  Every
private fit of the batch, all its sizes, replications and privacy
levels, takes each noisy step together in ``optimizer._lockstep_fits``,
with one kernel evaluation a step.  A fit rounds the same whichever
fits share its batch, so rows do not depend on the lanes or on the
batching.  The noise scale of each privacy level is calibrated when the
cell is built.

Seeding is splittable and documented: replication ``r`` derives its
streams from ``SeedSequence((base_seed, r, k))`` where ``k = 0`` is the
training data and ``k = 1 + j`` the noise of the j-th privacy level.
The shared evaluation set uses ``(base_seed, 0, 0)``; replication ids
start at 1.  Rows are therefore a prefix-stable function of the base
seed: increasing R never changes earlier rows.  A sweep derives each
replication's seeds and draws its scaled noise once, before any fit:
the noise scales do not depend on n, so every sample size shares them
and draws only its own training sets from the shared seeds.
"""

from __future__ import annotations

import csv
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import kernels, optimizer
from .data import (
    ErrorDist,
    SyntheticSpec,
    Whitener,
    _chunk_stops,
    _synthetic_rows,
    _synthetic_stream,
    generate_synthetic,  # noqa: F401  not called here; perfbench's tracer test patches it
    true_beta_star,
    whitener_from,
)
from .errors import DimensionMismatch
from .model import Dataset, Problem, coefficients
from .optimizer import HyperParams, NoiseSource, default_bandwidth
from .privacy import calibrate_sigma

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


def out_of_sample_cost(problem: Problem, policy, test_data: Dataset):
    """Average newsvendor cost of one or several policies on held-out data.

    ``policy`` is a coefficient vector, which gives a float, or a
    ``(p, K)`` matrix with one policy per column, which gives the K costs
    as an array from a single pass over the data.  The rows ``(1, z,
    demand)`` of the ``Dataset`` are scored by ``_CostPartials`` with
    coefficients ``(beta, -1)``.  A ``SyntheticSpec`` is refused: score
    ``generate_synthetic(spec)``.
    """
    if isinstance(test_data, SyntheticSpec):
        raise TypeError(
            "out_of_sample_cost takes a Dataset, not a SyntheticSpec: "
            "score generate_synthetic(spec)"
        )
    single = np.ndim(policy) == 1
    betas = coefficients(policy)[:, None] if single else np.asarray(policy, dtype=float)
    if betas.ndim != 2 or betas.shape[1] == 0:
        raise ValueError("policies must form a coefficient vector or a (p, K) matrix, K >= 1")
    if betas.shape[0] != test_data.p:
        raise DimensionMismatch(
            f"policy has {betas.shape[0]} coefficients but data has {test_data.p} features"
        )
    coefs = np.vstack([betas, np.full(betas.shape[1], -1.0)]).T
    partials = _CostPartials(coefs, test_data.features[:, 1:], test_data.demands)
    partials.score(range(partials.n_blocks))
    costs = partials.costs(problem)
    return float(costs[0]) if single else costs


def _overage_coefficients(spec: SyntheticSpec, betas: np.ndarray) -> np.ndarray:
    """Per policy column of ``betas``, the row ``c = (a_0, chol.T @ a_1:, -1)``,
    ``a = beta - theta_star``, with ``q - d = c @ (1, z, eps)`` on every row
    of the spec's draw; mapped in zero-padded groups of ``_GROUP_POLICIES``."""
    k, p = betas.shape[1], spec.p
    a = np.zeros((p, -(-k // _GROUP_POLICIES) * _GROUP_POLICIES))
    a[:, :k] = betas - np.asarray(spec.theta_star)[:, None]
    c = np.full((a.shape[1], p + 1), -1.0)
    c[:, 0] = a[0]
    for g in range(0, a.shape[1], _GROUP_POLICIES):
        c[g : g + _GROUP_POLICIES, 1:p] = (spec._chol.T @ a[1:, g : g + _GROUP_POLICIES]).T
    return c[:k]


class _CostPartials:
    """The blocked cost pass of the rows of ``coefs`` over the rows
    ``r_i = (1, z_i, last_i)``, kept as per-block partials.

    Rows go in blocks of ``_BLOCK_ROWS`` and policies in zero-padded groups
    of ``_GROUP_POLICIES``, one product per group and block.  Each block
    keeps its own partials, the row sum ``sum_i r_i`` and, per policy, the
    sum of ``(q - d)^+``, and ``costs`` adds them in block order, so the
    costs are bitwise the same whichever thread scored which blocks.  The
    linear half, the sum of ``q - d``, is ``c @ sum_i r_i``.
    """

    def __init__(self, coefs: np.ndarray, z: np.ndarray, last: np.ndarray):
        k, cols = coefs.shape
        self.k, self.z, self.last = k, z, last
        self.groups = np.zeros((-(-k // _GROUP_POLICIES) * _GROUP_POLICIES, cols))
        self.groups[:k] = coefs
        self.n_blocks = -(-len(last) // _BLOCK_ROWS)
        self.sums = np.empty((self.n_blocks, cols))
        self.excess = np.empty((self.n_blocks, len(self.groups)))

    def score(self, blocks) -> None:
        """Fill the partials of the block indices that ``blocks`` yields,
        whose rows must be drawn; a generator may claim each block as it
        is asked for the next."""
        groups, z, last = self.groups, self.z, self.last
        block = np.ones((groups.shape[1], _BLOCK_ROWS))
        over = np.empty((_GROUP_POLICIES, _BLOCK_ROWS))
        for b in blocks:
            start = b * _BLOCK_ROWS
            m = min(_BLOCK_ROWS, len(last) - start)
            block[1:-1, :m] = z[start : start + m].T
            block[-1, :m] = last[start : start + m]
            block[:, :m].sum(axis=1, out=self.sums[b])
            for g in range(0, len(groups), _GROUP_POLICIES):
                o = np.matmul(groups[g : g + _GROUP_POLICIES], block[:, :m], out=over[:, :m])
                np.maximum(o, 0.0, out=o).sum(axis=1, out=self.excess[b, g : g + _GROUP_POLICIES])

    def costs(self, problem: Problem) -> np.ndarray:
        """The mean costs, once every block is scored."""
        sums = np.zeros(self.sums.shape[1])
        excess = np.zeros(self.excess.shape[1])
        for block_sums, block_excess in zip(self.sums, self.excess):
            sums += block_sums
            excess += block_excess
        starts = range(0, len(self.groups), _GROUP_POLICIES)
        linear = np.concatenate([self.groups[g : g + _GROUP_POLICIES] @ sums for g in starts])
        k = self.k
        return ((problem.b + problem.h) * excess[:k] - problem.b * linear[:k]) / len(self.last)


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


ROW_FIELDS = tuple(f.name for f in fields(ReplicationRow))
METRICS = ROW_FIELDS[-4:]


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
    rounded up to an integer.  The fit settings are checked, the cell's
    ``HyperParams`` built and each private level's sigma calibrated, on
    construction.
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
        if not self.n >= 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.eval_n >= 1:
            raise ValueError(f"eval_n must be >= 1, got {self.eval_n}")
        if not self.base_seed >= 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.mu_grid:
            raise ValueError("mu_grid must hold at least one level")
        labels = [self.mu_label(mu) for mu in self.mu_grid]
        if len(set(labels)) < len(labels):
            # rows and aggregates tell the levels apart by label alone
            raise ValueError(f"mu_grid levels must have distinct labels, got {labels}")
        hp = HyperParams(
            bandwidth=self.resolved_bandwidth(),
            n_steps=self.n_steps,
            clip_radius=self.clip_radius,
            step_size=self.step_size,
            kernel=self.kernel,
            mode=self.mode,
            max_step_size=self.max_step_size,
        )
        sigmas = {  # index of each private level in mu_grid -> its noise scale
            j: calibrate_sigma(
                mu, self.clip_radius, self.n_steps, self.problem.tau_bar, round_up=True
            )
            for j, mu in enumerate(self.mu_grid)
            if mu is not None
        }
        # not fields: replace() builds them anew
        object.__setattr__(self, "_hyper", hp)
        object.__setattr__(self, "_sigmas", sigmas)

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


# Training rows of the lockstep batches in flight at once, shared out
# among a sweep's lanes: their stacked designs and residuals stay a few
# megabytes however many replications and CPUs a sweep has.
_STACK_ROWS = 1 << 15


def _fit_batch(
    config: ReplicationConfig,
    batch: list[tuple[ReplicationConfig, range]],
    spec: SyntheticSpec,
    whitener: Whitener,
    seeds: list[int],
    noise: np.ndarray,
) -> list[np.ndarray]:
    """Fit every estimator of the privacy grid on a batch of ``(cell,
    rep_ids)`` runs of replications, the private fits of all of them in
    lockstep; betas in (n, rep_id, mu_grid) order.  Replication ``r`` of a
    cell trains on ``spec`` at ``cell.n`` rows and seed ``seeds[r - 1]``,
    drawn straight into its slice of the run's size stack, at the cell's
    bandwidth, and its private fits take the scaled noise
    ``noise[:, r - 1]``: the sweep derives both once, for every sample
    size.  Only an ERM gets its training set as a ``Dataset``."""
    problem, hp = config.problem, config._hyper
    stacks = []
    for cell, rep_ids in batch:
        x, d = np.empty((len(rep_ids), cell.n, spec.p)), np.empty((len(rep_ids), cell.n))
        for i, r in enumerate(rep_ids):
            _synthetic_rows(spec, seeds[r - 1], x[i], d[i])
        stacks.append((x, d, cell._hyper.bandwidth))
    reps = [r - 1 for _, rep_ids in batch for r in rep_ids]
    private = iter(optimizer._lockstep_fits(stacks, problem, hp, whitener, noise[:, reps])[-1])
    betas = []
    for x, d, bandwidth in stacks:
        for i in range(len(x)):
            columns = iter(next(private).T)
            for mu in config.mu_grid:
                if mu is None:
                    train = Dataset(demands=d[i], features=x[i])
                    betas.append(optimizer.smoothed_erm(train, problem, hp.kernel, bandwidth))
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

    Deterministic given ``config.base_seed``; rows are assembled in
    rep_id order.  ``jobs`` is checked but has no effect: the sweep's
    rows choose its lanes (``sweep``).
    """
    return sweep(config, (config.n,), R, jobs=jobs)


def sweep(config: ReplicationConfig, ns, R: int, jobs: int = 1) -> ReplicationReport:
    """Run the cell at several sample sizes and concatenate the reports.

    The evaluation set's random stream is drawn on a helper thread, one
    chunk of rows a task, while every sample size is fitted; the policies
    of all of them are then scored in one pass over that draw, each block
    as soon as its rows are drawn (see ``_score_as_drawn``).  Each
    replication's seeds and noise are derived once and shared by every
    sample size, so the rows of each size are those of its own
    ``run_replications``.  The fits run in lanes of replications, as
    many as the sweep's rows call for, at most one per usable CPU
    (``_fit_cells``).  ``jobs`` must be at least 1 and has no other
    effect.
    """
    if not R >= 1:
        raise ValueError(f"R must be >= 1, got {R}")
    if not jobs >= 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if len(ns) == 0:
        raise ValueError("ns must hold at least one sample size")
    sizes = [int(n) for n in ns]
    if sizes != list(ns):
        raise ValueError(f"ns must be whole sample sizes, got {list(ns)}")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"ns must be distinct sample sizes, got {list(ns)}")
    # each cell checks its size and settings before anything is drawn
    cells = [replace(config, n=n) for n in sizes]
    problem = config.problem
    eval_spec = SyntheticSpec(
        theta_star=config.theta_star,
        covariance=config.covariance,
        error_dist=config.error_dist,
        n=config.eval_n,
        seed=derive_seed(config.base_seed, 0, 0),
    )
    whitener = whitener_from(eval_spec)
    # numpy releases the interpreter lock while it fills the draw's arrays
    # and multiplies the blocks; leaving the block joins the thread
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="dpnv-evaluation") as helper:
        try:
            z, eps = np.empty((config.eval_n, eval_spec.p - 1)), np.empty(config.eval_n)
            stops = _chunk_stops(config.eval_n)
            stream = _synthetic_stream(eval_spec, eval_spec.seed, z, eps)
            # one task per chunk: the one worker runs them in stream order
            drawn = [helper.submit(next, stream) for _ in stops]
            betas = _fit_cells(config, cells, R, eval_spec, whitener)
            beta_star = true_beta_star(eval_spec, problem.tau)
            coefs = _overage_coefficients(eval_spec, np.column_stack([beta_star, *betas]))
            partials = _CostPartials(coefs, z, eps)
            _score_as_drawn(partials, stops, drawn, helper)
        except BaseException:
            # a failed fit or draw need not wait for the rest of the draw
            helper.shutdown(cancel_futures=True)
            raise
    clairvoyant_cost, *costs = partials.costs(problem).tolist()
    # estimation_error of every policy in one stacked pass: a (1, p)
    # product per policy over the C-contiguous (K, p) differences rounds
    # as estimation_error's vector products do; a (p, K) view does not
    delta = np.stack(betas) - beta_star
    l2 = np.sqrt(delta[:, None, :] @ delta[:, :, None]).ravel()
    sigma = np.sqrt((delta[:, None, :] @ whitener.sigma_matrix) @ delta[:, :, None]).ravel()
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
            l2_error=l2_error,
            sigma_error=sigma_error,
            regret=oos - clairvoyant_cost,
            oos_cost=oos,
        )
        for (n, rep_id, mu), l2_error, sigma_error, oos in zip(
            keys, l2.tolist(), sigma.tolist(), costs
        )
    )
    return ReplicationReport(rows=rows)


def _score_as_drawn(partials: _CostPartials, stops, drawn, helper: ThreadPoolExecutor) -> None:
    """Score every block of ``partials`` while its rows are still being drawn.

    ``drawn[i]`` is the helper's task that draws the rows up to
    ``stops[i]``.  This thread takes blocks from the front, those of each
    chunk once it is drawn; the helper, once the draw has ended, takes
    blocks from the back.  Each claims one block at a time under a lock,
    and the two meet wherever they meet.  The partials are the same
    whichever thread scores a block.
    """
    lock = threading.Lock()
    bounds = [0, partials.n_blocks]  # the unclaimed blocks: [front, back)

    def front(ready: int):
        while True:
            with lock:
                b = bounds[0]
                if b >= min(ready, bounds[1]):
                    return
                bounds[0] = b + 1
            yield b

    def back():
        while True:
            with lock:
                if bounds[0] >= bounds[1]:
                    return
                bounds[1] -= 1
                b = bounds[1]
            yield b

    def score_back():
        # a failed chunk ends the stream, so the last chunk's task fails
        # too: never score rows that were not drawn
        drawn[-1].result()
        partials.score(back())

    back_scored = helper.submit(score_back)
    for stop, chunk in zip(stops, drawn):
        chunk.result()
        # one call a chunk: its buffers are not held while the draw goes on
        partials.score(front(partials.n_blocks if stop == stops[-1] else stop // _BLOCK_ROWS))
    back_scored.result()


def _fit_cells(
    config: ReplicationConfig, cells, R: int, spec: SyntheticSpec, whitener: Whitener
) -> list[np.ndarray]:
    """Every policy of the sweep over ``cells`` in (n, rep_id, mu_grid)
    order.  The replications' training seeds and ``(T, R, p, M)`` scaled
    noise are built once, here.  The (n, rep_id) runs are dealt, in
    order, into ``min(usable CPUs, elements // kernels._BLOCK_ELEMENTS)``
    lanes, at least one, ``elements`` being the sweep's rows times its
    private levels, each replication to the lane that holds its middle
    row, and packs them into batches of a lane's share of ``_STACK_ROWS``
    rows.  Lane 0 runs on this thread; with one lane, its kernel
    evaluations still run in the kernels' row blocks."""
    # sigma does not depend on n, so neither does the noise
    p, sigmas = len(config.theta_star), config._sigmas
    seeds = [derive_seed(config.base_seed, rep_id, 0) for rep_id in range(1, R + 1)]
    noise = np.empty((config.n_steps, R, p, len(sigmas)))
    for r in range(R):
        for m, (j, sigma) in enumerate(sigmas.items()):
            draws = NoiseSource(derive_seed(config.base_seed, r + 1, 1 + j))
            noise[:, r, :, m] = sigma * draws.standard_normal((config.n_steps, p))
    rows = R * sum(cell.n for cell in cells)
    count = min(kernels._usable_cpus(), max(1, rows * len(sigmas) // kernels._BLOCK_ELEMENTS))
    lanes, start = [[] for _ in range(count)], 0
    for cell in cells:
        for r in range(1, R + 1):
            lanes[(2 * start + cell.n) * count // (2 * rows)].append((cell, r))
            start += cell.n
    args = (_STACK_ROWS // count, spec, whitener, seeds, noise)
    fits = (partial(_fit_lane, config, lane, *args) for lane in lanes if lane)
    return [beta for lane in kernels._fork_join(*fits) for beta in lane]


def _fit_lane(
    config: ReplicationConfig,
    runs: list[tuple[ReplicationConfig, int]],
    limit: int,
    spec: SyntheticSpec,
    whitener: Whitener,
    seeds: list[int],
    noise: np.ndarray,
) -> list[np.ndarray]:
    """The policies of a lane's ``(cell, rep_id)`` runs, in order, fitted
    in one lockstep per batch of at most ``limit`` training rows
    (``_fit_batch``); a replication larger than that, or any with a
    ``limit`` of 0, is a batch of its own."""
    batches, rows = [], limit  # as if full: the first run opens a batch
    for cell, r in runs:
        if rows + cell.n > limit:
            batches.append([])
            rows = 0
        batch = batches[-1]
        if batch and batch[-1][0] is cell:
            batch[-1] = (cell, range(batch[-1][1].start, r + 1))
        else:
            batch.append((cell, range(r, r + 1)))
        rows += cell.n
    betas = []
    for batch in batches:
        try:
            betas += _fit_batch(config, batch, spec, whitener, seeds, noise)
        except Exception as exc:
            failed = [(cell, r) for cell, rep_ids in batch for r in rep_ids]
            if len(failed) == 1:
                raise ReplicationError(failed[0][1], exc) from exc
            # rows do not depend on the batching: refit one size and
            # replication at a time to name the one that failed
            betas += _fit_lane(config, failed, 0, spec, whitener, seeds, noise)
    return betas


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
