"""Metrics and the replication harness."""

import math
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from dpnewsvendor import data, evaluation, kernels, optimizer
from dpnewsvendor.data import (
    ErrorDist,
    SyntheticSpec,
    _synthetic_draws,
    ar1_covariance,
    default_spec,
    generate_synthetic,
    true_beta_star,
    whitener_from,
)
from dpnewsvendor.errors import DimensionMismatch, MaxIterExceeded, NonPositiveMu
from dpnewsvendor.evaluation import (
    ReplicationConfig,
    derive_seed,
    estimation_error,
    out_of_sample_cost,
    run_replications,
    sweep,
    write_aggregates_csv,
    write_rows_csv,
)
from dpnewsvendor.kernels import KERNEL_NAMES, check_loss
from dpnewsvendor.model import Problem
from dpnewsvendor.optimizer import HyperParams
from dpnewsvendor.privacy import calibrate_sigma


@pytest.fixture(scope="module")
def small_config():
    return ReplicationConfig(
        problem=Problem.from_quantile(0.5),
        error_dist=ErrorDist.normal(),
        n=120,
        theta_star=(1.5, 1.0, -2.5, -1.5, 3.0),
        covariance=ar1_covariance(4, 0.5),
        mu_grid=(None, 0.9, 0.3),
        eval_n=20_000,
        base_seed=77,
    )


class TestEstimationError:
    def test_zero_at_truth(self):
        beta = np.array([1.0, 2.0])
        assert estimation_error(beta, beta) == 0.0

    def test_identity_whitener_reduces_to_l2(self):
        w = whitener_from(np.eye(2))
        a, b = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        assert estimation_error(a, b, w) == pytest.approx(estimation_error(a, b))

    def test_weighted_norm(self):
        w = whitener_from(np.diag([4.0, 1.0]))
        assert estimation_error(np.array([1.0, 0.0]), np.zeros(2), w) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            estimation_error(np.zeros(2), np.zeros(3))


class TestRegretAndOos:
    def test_clairvoyant_has_zero_regret(self):
        spec = default_spec(5_000, "normal", seed=1)
        data = generate_synthetic(spec)
        prob = Problem.from_quantile(0.5)
        beta_star = true_beta_star(spec, prob.tau)
        cost, clairvoyant_cost = out_of_sample_cost(
            prob, np.column_stack([beta_star, beta_star]), data
        )
        assert cost - clairvoyant_cost == 0.0

    def test_regret_nearly_nonnegative(self):
        # the spec is scored block by block; its 1e6 rows are never held
        spec = default_spec(1_000_000, "normal", seed=2)
        prob = Problem.from_quantile(0.5)
        beta_star = true_beta_star(spec, prob.tau)
        rng = np.random.default_rng(0)
        others = beta_star[:, None] + rng.normal(scale=0.05, size=(5, len(beta_star))).T
        clairvoyant_cost, *costs = out_of_sample_cost(
            prob, np.column_stack([beta_star, others]), spec
        )
        for cost in costs:
            assert cost - clairvoyant_cost >= -0.002

    def test_oos_single_point(self):
        from dpnewsvendor.model import Dataset

        test = Dataset(demands=[5.0], features=[[1.0]])
        prob = Problem(b=50, h=30)
        assert out_of_sample_cost(prob, np.array([2.0]), test) == pytest.approx(150.0)

    def test_policy_matrix_matches_vector_calls(self):
        spec = default_spec(10_000, "t3", seed=4)
        data = generate_synthetic(spec)
        prob = Problem(b=50, h=30)
        rng = np.random.default_rng(1)
        betas = true_beta_star(spec, prob.tau)[:, None] + rng.normal(scale=0.3, size=(5, 20))
        costs = out_of_sample_cost(prob, betas, data)
        assert costs.shape == (20,)
        for k in range(20):
            residuals = data.demands - data.features @ betas[:, k]
            reference = prob.total_cost * np.mean(check_loss(prob.tau, residuals))
            assert costs[k] == pytest.approx(out_of_sample_cost(prob, betas[:, k], data), rel=1e-12)
            assert costs[k] == pytest.approx(reference, rel=1e-12)

    def test_cost_of_a_policy_ignores_its_neighbours(self):
        # eval_n is not a multiple of the row block, so the last block is short
        data = generate_synthetic(default_spec(10_000, "normal", seed=5))
        prob = Problem.from_quantile(0.3)
        rng = np.random.default_rng(2)
        beta = rng.normal(size=5)
        alone = out_of_sample_cost(prob, beta[:, None], data)[0]
        for k in (1, 15, 16, 17, 40):
            for pos in sorted({0, k // 2, k - 1}):
                betas = rng.normal(size=(5, k))
                betas[:, pos] = beta
                assert out_of_sample_cost(prob, betas, data)[pos] == alone, (k, pos)

    def test_policy_matrix_row_count_checked(self):
        data = generate_synthetic(default_spec(100, "normal", seed=6))
        with pytest.raises(DimensionMismatch):
            out_of_sample_cost(Problem.from_quantile(0.5), np.zeros((4, 3)), data)

    def test_vector_policy_gives_python_float(self):
        data = generate_synthetic(default_spec(100, "normal", seed=7))
        prob = Problem.from_quantile(0.5)
        assert type(out_of_sample_cost(prob, np.ones(5), data)) is float
        assert type(out_of_sample_cost(prob, [1.0] * 5, data)) is float

    def test_perfect_forecast_costs_nothing(self):
        spec = default_spec(100, "normal", seed=3)
        data = generate_synthetic(spec)
        demands = data.features @ np.array([1.0, 0.5, 0.5, 0.5, 0.5])
        from dpnewsvendor.model import Dataset

        noiseless = Dataset(demands=demands, features=data.features)
        prob = Problem(b=2, h=1)
        assert out_of_sample_cost(
            prob, np.array([1.0, 0.5, 0.5, 0.5, 0.5]), noiseless
        ) == pytest.approx(0.0, abs=1e-12)


class TestStreamedEvaluation:
    # 1_000 rows fit in one block; 10_001 leave a short last block
    @pytest.mark.parametrize("eval_n", [1_000, 10_001])
    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_spec_cost_equals_dataset_cost(self, dist, eval_n):
        spec = default_spec(eval_n, dist, seed=8)
        prob = Problem(b=50, h=30)
        rng = np.random.default_rng(3)
        betas = true_beta_star(spec, prob.tau)[:, None] + rng.normal(scale=0.3, size=(5, 20))
        streamed = out_of_sample_cost(prob, betas, spec)
        materialised = out_of_sample_cost(prob, betas, generate_synthetic(spec))
        np.testing.assert_allclose(streamed, materialised, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eval_n", [1, 1_000, 10_001])
    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_draws_build_the_dataset(self, dist, eval_n):
        spec = default_spec(eval_n, dist, seed=9)
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((eval_n, spec.p - 1))
        eps = np.empty(eval_n)
        for _ in data._noise_chunks(spec.error_dist, eps, rng):
            pass
        drawn_z, drawn_eps = _synthetic_draws(spec)
        np.testing.assert_array_equal(drawn_z, z)
        np.testing.assert_array_equal(drawn_eps, eps)
        x = np.column_stack([np.ones(eval_n), z @ np.linalg.cholesky(spec.covariance).T])
        dataset = generate_synthetic(spec)
        np.testing.assert_array_equal(dataset.features, x)
        np.testing.assert_array_equal(dataset.demands, x @ np.asarray(spec.theta_star) + eps)

    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_pass_equals_one_loop_over_the_blocks(self, dist):
        # the partials of each block, added in block order, give the bits
        # of one running sum over the blocks, in the pass's block layout
        rows, k = evaluation._BLOCK_ROWS, 20
        spec = default_spec(12 * rows + 5, dist, seed=12)
        prob = Problem(b=50, h=30)
        rng = np.random.default_rng(4)
        betas = true_beta_star(spec, prob.tau)[:, None] + rng.normal(scale=0.3, size=(5, k))
        groups = np.zeros((32, spec.p + 1))
        groups[:k] = evaluation._overage_coefficients(spec, betas)
        z, eps = _synthetic_draws(spec)
        block = np.ones((spec.p + 1, rows))
        sums, excess = np.zeros(spec.p + 1), np.zeros(32)
        for start in range(0, spec.n, rows):
            m = min(rows, spec.n - start)
            block[1:-1, :m] = z[start : start + m].T
            block[-1, :m] = eps[start : start + m]
            sums += block[:, :m].sum(axis=1)
            for g in (0, 16):
                excess[g : g + 16] += np.maximum(groups[g : g + 16] @ block[:, :m], 0.0).sum(axis=1)
        linear = np.concatenate([groups[g : g + 16] @ sums for g in (0, 16)])
        expected = ((prob.b + prob.h) * excess[:k] - prob.b * linear[:k]) / spec.n
        assert out_of_sample_cost(prob, betas, spec).tolist() == expected.tolist()

    def test_spec_cost_of_a_policy_ignores_its_neighbours(self):
        spec = default_spec(10_000, "t3", seed=5)
        prob = Problem.from_quantile(0.3)
        rng = np.random.default_rng(2)
        beta = true_beta_star(spec, prob.tau) + rng.normal(scale=0.3, size=5)
        alone = out_of_sample_cost(prob, beta[:, None], spec)[0]
        for k in (1, 15, 16, 17, 40):
            for pos in sorted({0, k // 2, k - 1}):
                betas = rng.normal(size=(5, k))
                betas[:, pos] = beta
                assert out_of_sample_cost(prob, betas, spec)[pos] == alone, (k, pos)

    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_rows_match_scoring_the_materialised_set(self, small_config, dist):
        config = replace(
            small_config, error_dist=ErrorDist.from_name(dist), mu_grid=(0.9, 0.3),
            n=80, eval_n=10_001,
        )
        np.testing.assert_allclose(
            _metrics(run_replications(config, R=2)),
            _rows_from_single_fits(config, 2, materialise=True),
            rtol=1e-12,
            atol=0.0,
        )

    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_harness_never_holds_the_evaluation_set(self, small_config, dist):
        # the evaluation set as a Dataset costs over 100 bytes a row, and
        # 8-byte mixture labels would take mixture noise past 50
        config = replace(
            small_config, error_dist=ErrorDist.from_name(dist), n=200, eval_n=200_000
        )
        run_replications(replace(config, eval_n=10), R=1)  # lazy imports and caches
        tracemalloc.start()
        try:
            run_replications(config, R=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / config.eval_n <= 50


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        a = derive_seed(1, 2, 3)
        assert a == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 4) != a
        assert derive_seed(1, 3, 3) != a
        assert derive_seed(2, 2, 3) != a


class TestRunReplications:
    def test_row_layout(self, small_config):
        report = run_replications(small_config, R=3)
        assert len(report.rows) == 3 * len(small_config.mu_grid)
        labels = {r.mu_label for r in report.rows}
        assert labels == {"nonprivate", "mu=0.9", "mu=0.3"}
        for row in report.rows:
            assert row.n == 120
            assert row.tau == 0.5
            assert row.dist_label == "normal"
            assert np.isfinite(
                [row.l2_error, row.sigma_error, row.regret, row.oos_cost]
            ).all()

    def test_prefix_property(self, small_config):
        short = run_replications(small_config, R=2)
        long = run_replications(small_config, R=4)
        assert long.rows[: len(short.rows)] == short.rows

    def test_single_rep_matches_manual(self, small_config):
        from dpnewsvendor import optimizer
        from dpnewsvendor.data import SyntheticSpec

        report = run_replications(small_config, R=1)
        nonprivate = [r for r in report.rows if r.mu_label == "nonprivate"][0]

        spec = SyntheticSpec(
            theta_star=small_config.theta_star,
            covariance=small_config.covariance,
            error_dist=small_config.error_dist,
            n=small_config.n,
            seed=derive_seed(small_config.base_seed, 1, 0),
        )
        train = generate_synthetic(spec)
        beta = optimizer.smoothed_erm(
            train, small_config.problem, "gaussian", small_config.resolved_bandwidth()
        )
        beta_star = true_beta_star(spec, 0.5)
        assert nonprivate.l2_error == pytest.approx(
            estimation_error(beta, beta_star), rel=1e-12
        )

    def test_jobs_do_not_change_rows(self, small_config):
        seq = run_replications(small_config, R=4, jobs=1)
        par = run_replications(small_config, R=4, jobs=3)
        assert seq.rows == par.rows

    def test_covariance_is_checked_once_per_sweep(self, small_config, monkeypatch):
        checks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: checks.append(m) or eigvalsh(m))
        sweep(replace(small_config, eval_n=1_000), (60, 120), R=3)
        assert len(checks) == 1

    def test_nonpositive_mu_refused_on_construction(self, small_config):
        with pytest.raises(NonPositiveMu, match="mu must be > 0, got 0.0"):
            replace(small_config, mu_grid=(None, 0.0))

    @pytest.mark.parametrize(
        "setting, message",
        [({"n_steps": 0}, "n_steps must be >= 1"),
         ({"clip_radius": math.inf}, "clip_radius must be finite")],
        ids=["T-0", "B-inf"],
    )
    def test_private_level_settings_refused_on_construction(self, small_config, setting, message):
        with pytest.raises(ValueError, match=message):
            replace(small_config, **setting)
        # without a private level there is no sigma to calibrate
        replace(small_config, mu_grid=(None,), **setting)

    def test_aggregates_recomputable(self, small_config):
        report = run_replications(small_config, R=5)
        assert len(report.aggregates) == len(small_config.mu_grid) * 4
        for cell in report.aggregates:
            vals = [getattr(r, cell.metric) for r in report.rows if r.mu_label == cell.mu_label]
            assert len(vals) == 5
            assert cell.mean == pytest.approx(np.mean(vals), abs=1e-12)
            assert cell.std == pytest.approx(np.std(vals, ddof=1), abs=1e-12)
            assert (cell.n, cell.tau, cell.dist_label) == (120, 0.5, "normal")


def _rows_from_single_fits(
    config: ReplicationConfig, R: int, materialise: bool = False
) -> np.ndarray:
    """The rows of ``run_replications`` from one ``optimizer.fit`` per
    (replication, privacy level), written out by hand.  With
    ``materialise`` the evaluation set is scored as the ``Dataset``
    ``generate_synthetic`` builds, not from its spec."""
    eval_spec = _eval_spec(config)
    whitener = whitener_from(eval_spec)
    betas = []
    for rep_id in range(1, R + 1):
        train = generate_synthetic(
            replace(eval_spec, n=config.n, seed=derive_seed(config.base_seed, rep_id, 0))
        )
        for j, mu in enumerate(config.mu_grid):
            hp = HyperParams(
                bandwidth=config.resolved_bandwidth(),
                n_steps=config.n_steps,
                clip_radius=config.clip_radius,
                step_size=config.step_size,
                sigma=calibrate_sigma(
                    mu, config.clip_radius, config.n_steps, config.problem.tau_bar,
                    round_up=True,
                ),
                seed=derive_seed(config.base_seed, rep_id, 1 + j),
                kernel=config.kernel,
                mode=config.mode,
                max_step_size=config.max_step_size,
            )
            betas.append(optimizer.fit(train, config.problem, hp, whitener=whitener).beta_final)
    beta_star = true_beta_star(eval_spec, config.problem.tau)
    clairvoyant, *costs = out_of_sample_cost(
        config.problem,
        np.column_stack([beta_star, *betas]),
        generate_synthetic(eval_spec) if materialise else eval_spec,
    )
    return np.array(
        [
            [
                estimation_error(beta, beta_star),
                estimation_error(beta, beta_star, whitener),
                oos - clairvoyant,
                oos,
            ]
            for beta, oos in zip(betas, costs)
        ]
    )


def _eval_spec(config: ReplicationConfig) -> SyntheticSpec:
    """The recipe of the cell's evaluation set."""
    return SyntheticSpec(
        theta_star=config.theta_star,
        covariance=config.covariance,
        error_dist=config.error_dist,
        n=config.eval_n,
        seed=derive_seed(config.base_seed, 0, 0),
    )


def _metrics(report) -> np.ndarray:
    return np.array([[getattr(r, m) for m in evaluation.METRICS] for r in report.rows])


class TestLockstep:
    @pytest.mark.parametrize("dist", ["normal", "t3"])
    @pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
    @pytest.mark.parametrize("step_size", [None, 0.7], ids=["linesearch", "fixed"])
    def test_rows_match_one_fit_at_a_time(self, small_config, dist, mode, step_size):
        config = replace(
            small_config,
            error_dist=ErrorDist.from_name(dist),
            mode=mode,
            step_size=step_size,
            mu_grid=(0.9, 0.5, 0.3),
            n=80,
            eval_n=5_000,
        )
        report = run_replications(config, R=3)
        np.testing.assert_allclose(
            _metrics(report), _rows_from_single_fits(config, 3), rtol=1e-12, atol=0.0
        )

    @pytest.mark.parametrize("step_size", [None, 0.7], ids=["linesearch", "fixed"])
    def test_rows_ignore_the_chunking(self, small_config, monkeypatch, step_size):
        config = replace(small_config, step_size=step_size)
        whole = run_replications(config, R=5)
        # two replications of 120 rows a chunk: chunks of 2, 2 and 1
        monkeypatch.setattr(evaluation, "_STACK_ROWS", 250)
        assert run_replications(config, R=5).rows == whole.rows
        assert run_replications(config, R=5, jobs=2).rows == whole.rows

    @staticmethod
    def _count_clips_and_cdfs(monkeypatch) -> dict[str, int]:
        """Count calls of ``optimizer.clip`` and of ``kernels._standard_cdf``,
        the one CDF evaluation of every lockstep step and of ``scaled_cdf``."""
        calls = {"clip": 0, "cdf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizer, "clip", counted("clip", optimizer.clip))
        monkeypatch.setattr(kernels, "_standard_cdf", counted("cdf", kernels._standard_cdf))
        return calls

    @pytest.mark.parametrize("stack_rows, chunks", [(1 << 15, 1), (250, 3)])
    def test_fixed_step_cell_weighs_once_per_step_and_chunk(
        self, small_config, monkeypatch, stack_rows, chunks
    ):
        # one size: a batch is one chunk, and it clips its one stack once
        calls = self._count_clips_and_cdfs(monkeypatch)
        monkeypatch.setattr(evaluation, "_STACK_ROWS", stack_rows)
        config = replace(small_config, mu_grid=(0.9, 0.5, 0.3), step_size=0.5, n_steps=7)
        run_replications(config, R=5)
        assert calls == {"clip": chunks, "cdf": 7 * chunks}

    def test_fixed_step_sweep_weighs_once_per_step_over_every_size(
        self, small_config, monkeypatch
    ):
        # both sizes in one batch: one clip per size, one CDF call per step
        calls = self._count_clips_and_cdfs(monkeypatch)
        config = replace(small_config, mu_grid=(0.9, 0.5, 0.3), step_size=0.5, n_steps=7)
        sweep(config, (60, 120), R=5)
        assert calls == {"clip": 2, "cdf": 7}

    def test_failure_names_its_replication(self, small_config, monkeypatch):
        spec = SyntheticSpec(
            theta_star=small_config.theta_star,
            covariance=small_config.covariance,
            error_dist=small_config.error_dist,
            n=small_config.n,
            seed=derive_seed(small_config.base_seed, 3, 0),
        )
        bad = generate_synthetic(spec).demands
        erm = optimizer.smoothed_erm

        def failing_erm(data, *args, **kwargs):
            if np.array_equal(data.demands, bad):
                raise MaxIterExceeded("stuck")
            return erm(data, *args, **kwargs)

        monkeypatch.setattr(optimizer, "smoothed_erm", failing_erm)
        with pytest.raises(evaluation.ReplicationError) as failure:
            run_replications(small_config, R=5)
        assert failure.value.rep_id == 3
        assert isinstance(failure.value.__cause__, MaxIterExceeded)

    def test_sweep_rows_equal_separate_runs(self, small_config):
        ns = (60, 120)
        rows = sum((run_replications(replace(small_config, n=n), R=2).rows for n in ns), ())
        assert sweep(small_config, ns, R=2).rows == rows

    @pytest.mark.parametrize("step_size", [None, 0.7], ids=["linesearch", "fixed"])
    def test_sweep_rows_ignore_the_chunking(self, small_config, monkeypatch, step_size):
        config = replace(small_config, step_size=step_size)
        whole = sweep(config, (60, 120), R=5)
        # chunks of 4 and 1 replications at n=60, of 2, 2 and 1 at n=120:
        # each takes its own slice of the shared seeds and noise
        monkeypatch.setattr(evaluation, "_STACK_ROWS", 250)
        assert sweep(config, (60, 120), R=5).rows == whole.rows
        assert sweep(config, (60, 120), R=5, jobs=2).rows == whole.rows

    def test_sweep_failure_names_its_replication(self, small_config, monkeypatch):
        seed = derive_seed(small_config.base_seed, 3, 0)
        bad = generate_synthetic(replace(_eval_spec(small_config), n=120, seed=seed)).demands
        erm = optimizer.smoothed_erm

        def failing_erm(data, *args, **kwargs):
            if np.array_equal(data.demands, bad):
                raise MaxIterExceeded("stuck")
            return erm(data, *args, **kwargs)

        monkeypatch.setattr(evaluation, "_STACK_ROWS", 250)
        monkeypatch.setattr(optimizer, "smoothed_erm", failing_erm)
        # replication 3 trains on 60 rows first, then fails at 120
        with pytest.raises(evaluation.ReplicationError) as failure:
            sweep(small_config, (60, 120), R=5)
        assert failure.value.rep_id == 3
        assert isinstance(failure.value.__cause__, MaxIterExceeded)

    def test_streams_are_derived_once_per_sweep(self, small_config, monkeypatch):
        calls = {"derive_seed": 0, "NoiseSource": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "derive_seed", counted("derive_seed", derive_seed))
        monkeypatch.setattr(
            evaluation, "NoiseSource", counted("NoiseSource", optimizer.NoiseSource)
        )
        config = replace(small_config, eval_n=1_000)
        # the evaluation set, then per replication its training data and
        # the noise of each of the two private levels
        expected = {"derive_seed": 1 + 3 * 3, "NoiseSource": 3 * 2}
        sweep(config, (60, 120, 180), R=3)
        assert calls == expected
        calls.update(dict.fromkeys(calls, 0))
        run_replications(config, R=3)
        assert calls == expected


    @pytest.mark.filterwarnings("ignore:the epanechnikov kernel:RuntimeWarning")
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
    @pytest.mark.parametrize("step_size", [None, 0.7], ids=["linesearch", "fixed"])
    @pytest.mark.parametrize("bandwidth", [None, 0.4], ids=["rule_of_thumb", "explicit"])
    def test_fused_sizes_give_the_rows_of_one_run_per_size(
        self, small_config, kernel, mode, step_size, bandwidth
    ):
        # unsorted sizes, both in one batch: every step evaluates the CDF
        # once over both, each size at its own bandwidth
        config = replace(
            small_config, kernel=kernel, mode=mode, step_size=step_size,
            bandwidth=bandwidth, eval_n=2_000,
        )
        ns = (120, 60)
        rows = sum((run_replications(replace(config, n=n), R=3).rows for n in ns), ())
        assert sweep(config, ns, R=3).rows == rows

    @pytest.mark.parametrize("step_size", [None, 0.7], ids=["linesearch", "fixed"])
    def test_fused_rows_ignore_the_cdf_blocks(self, small_config, monkeypatch, step_size):
        config = replace(small_config, step_size=step_size, eval_n=2_000)
        whole = sweep(config, (120, 60), R=4)
        # the batch's buffer, 4 * 180 * 2 = 1,440 elements, in two blocks
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 512)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        assert sweep(config, (120, 60), R=4).rows == whole.rows

    @pytest.mark.parametrize("mu_grid, kept", [((0.9, 0.3), 0), ((None, 0.3), 6)])
    def test_training_sets_outlive_their_stack_only_for_the_erm(
        self, small_config, monkeypatch, mu_grid, kept
    ):
        made, alive = [], []
        generate = evaluation.generate_synthetic

        def tracked(spec):
            data = generate(spec)
            made.append(weakref.ref(data))
            return data

        cdf = kernels._standard_cdf

        def counted(kernel, t):
            alive.append(sum(ref() is not None for ref in made))
            return cdf(kernel, t)

        monkeypatch.setattr(evaluation, "generate_synthetic", tracked)
        monkeypatch.setattr(kernels, "_standard_cdf", counted)
        config = replace(small_config, mu_grid=mu_grid, step_size=0.7, eval_n=1_000)
        sweep(config, (60, 120), R=3)
        assert len(made) == 6
        # the lockstep's steps come first; the ERMs' gradients, if any, after
        assert alive[: config.n_steps] == [kept] * config.n_steps


def _one_whole_draw(spec):
    """The spec's ``z`` and ``eps`` drawn by one generator call each."""
    law = spec.error_dist
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, spec.p - 1))
    if law.kind == "normal":
        eps = rng.standard_normal(spec.n)
    elif law.kind == "student_t":
        eps = rng.standard_t(law.df, size=spec.n)
    else:
        comp = rng.choice(len(law.weights), size=spec.n, p=law.weights)
        eps = rng.normal(np.asarray(law.means)[comp], np.sqrt(law.variances)[comp])
    return z, eps


class TestEvaluationDraw:
    """The evaluation set is drawn on a helper thread beside the fits, a
    chunk of rows a task, and scored while it is drawn."""

    @pytest.mark.parametrize(
        "eval_n, chunk",
        [(2 * data._EPS_CHUNK + 5, data._EPS_CHUNK), (10_001, 1_000), (999, 1_000)],
        ids=["default-chunk", "small-chunk", "one-chunk"],
    )
    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_chunked_draw_equals_one_whole_draw(self, monkeypatch, dist, eval_n, chunk):
        monkeypatch.setattr(data, "_EPS_CHUNK", chunk)
        spec = default_spec(eval_n, ErrorDist.from_name(dist), seed=11)
        z, eps = _one_whole_draw(spec)
        drawn_z, drawn_eps, stops, stream = data._synthetic_stream(spec)
        assert stops == [*range(chunk, eval_n, chunk), eval_n]
        assert list(stream) == stops
        np.testing.assert_array_equal(drawn_z, z)
        np.testing.assert_array_equal(drawn_eps, eps)

    @pytest.mark.parametrize("dist", ["normal", "t3", "mixture"])
    def test_split_draw_equals_one_whole_draw(self, monkeypatch, dist):
        # z's 40,004 values are drawn on two threads, and eps from the
        # generator that the split hands on
        monkeypatch.setattr(data, "_SPLIT_VALUES", 1_000)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        joins, join = [], data._join

        def recorded(*args):
            joins.append(join(*args))
            return joins[-1]

        monkeypatch.setattr(data, "_join", recorded)
        for seed in range(3):
            spec = default_spec(10_001, ErrorDist.from_name(dist), seed=seed)
            z, eps = _one_whole_draw(spec)
            drawn_z, drawn_eps, stops, stream = data._synthetic_stream(spec)
            assert list(stream) == stops
            assert drawn_z.tobytes() == z.tobytes()
            assert drawn_eps.tobytes() == eps.tobytes()
        assert len(joins) == 3 and None not in joins

    @pytest.mark.parametrize("half", ["helper", "pool"])
    def test_failure_in_either_half_of_a_split_draw_propagates(
        self, small_config, monkeypatch, half
    ):
        class DrawFailed(Exception):
            pass

        config = replace(small_config, eval_n=1_000)
        monkeypatch.setattr(data, "_SPLIT_VALUES", 4 * config.eval_n)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        pool = kernels._executor()
        pool.submit(int).result()  # the pool's worker exists before the count
        ended = []

        class SlowPool:
            def submit(self, fn, *args, **kwargs):
                def run():
                    time.sleep(0.2)  # ends long after the helper's half
                    try:
                        if half == "pool":
                            raise DrawFailed
                        return fn(*args, **kwargs)
                    finally:
                        ended.append(True)

                return pool.submit(run)

        class FailingGenerator(np.random.Generator):
            def standard_normal(self, *args, out=None, **kwargs):
                if half == "helper" and out is not None and out.size == 2 * config.eval_n:
                    raise DrawFailed
                return super().standard_normal(*args, out=out, **kwargs)

        eval_seed, default_rng = derive_seed(config.base_seed, 0, 0), np.random.default_rng

        def rng_of(seed):
            if seed == eval_seed:
                return FailingGenerator(np.random.PCG64(seed))
            return default_rng(seed)

        monkeypatch.setattr(kernels, "_executor", SlowPool)
        monkeypatch.setattr(np.random, "default_rng", rng_of)
        before = threading.active_count()
        with pytest.raises(DrawFailed):
            sweep(config, (60, 120), R=2)
        # no pool task writes into z once the draw step has ended
        assert ended == [True]
        assert threading.active_count() == before

    @pytest.mark.parametrize("slowed", ["draw", "helper-scoring"])
    def test_rows_ignore_thread_timing(self, small_config, monkeypatch, slowed):
        # 11 blocks, the helper's share being blocks 9 and 10, drawn in 14
        # chunks that end inside blocks
        config = replace(small_config, eval_n=10 * evaluation._BLOCK_ROWS + 7)
        monkeypatch.setattr(data, "_EPS_CHUNK", 3_000)
        rows = sweep(config, (60, 120), R=2).rows
        chunks, score = data._noise_chunks, evaluation._CostPartials.score
        scorers = []
        scoring = threading.Event()  # set once the main thread scores

        def slow_chunks(dist, eps, rng):
            for stop in chunks(dist, eps, rng):
                yield stop
                if slowed == "draw" and len(eps) == config.eval_n:
                    # every later chunk lands while the main thread waits for it
                    assert scoring.wait(timeout=10)
                    time.sleep(0.005)

        def slow_score(partials, blocks):
            helper = threading.current_thread() is not threading.main_thread()
            if not helper:
                scoring.set()
            elif slowed == "helper-scoring":
                time.sleep(0.05)
            scorers.extend((helper, b) for b in blocks)
            score(partials, blocks)

        monkeypatch.setattr(data, "_noise_chunks", slow_chunks)
        monkeypatch.setattr(evaluation._CostPartials, "score", slow_score)
        assert sweep(config, (60, 120), R=2).rows == rows
        assert sorted(scorers, key=lambda s: s[1]) == [(b >= 9, b) for b in range(11)]

    @pytest.mark.parametrize("dist", ["normal", "mixture"])
    def test_each_cost_is_one_pass_over_the_spec(self, small_config, monkeypatch, dist):
        config = replace(
            small_config, error_dist=ErrorDist.from_name(dist), eval_n=3 * data._EPS_CHUNK + 11
        )
        fitted = []
        fit_cells = evaluation._fit_cells

        def recorded(*args):
            fitted.extend(fit_cells(*args))
            return fitted

        monkeypatch.setattr(evaluation, "_fit_cells", recorded)
        rows = run_replications(config, R=2).rows
        spec = _eval_spec(config)
        assert [r.oos_cost for r in rows] == [
            out_of_sample_cost(config.problem, beta, spec) for beta in fitted
        ]

    def test_thread_is_joined_after_success(self, small_config):
        before = threading.active_count()
        run_replications(replace(small_config, eval_n=1_000), R=2)
        assert threading.active_count() == before

    def test_thread_is_joined_after_a_failed_fit(self, small_config, monkeypatch):
        def failing_erm(*args, **kwargs):
            raise MaxIterExceeded("stuck")

        monkeypatch.setattr(optimizer, "smoothed_erm", failing_erm)
        before = threading.active_count()
        with pytest.raises(evaluation.ReplicationError):
            run_replications(replace(small_config, eval_n=1_000), R=2)
        assert threading.active_count() == before

    def test_draw_failure_propagates(self, small_config, monkeypatch):
        class DrawFailed(Exception):
            pass

        config = replace(small_config, eval_n=1_000)
        chunks = data._noise_chunks

        def failing_chunks(dist, eps, rng):
            # training sets (60 and 120 rows) draw as usual
            if len(eps) == config.eval_n:
                raise DrawFailed
            return chunks(dist, eps, rng)

        monkeypatch.setattr(data, "_noise_chunks", failing_chunks)
        before = threading.active_count()
        with pytest.raises(DrawFailed):
            sweep(config, (60, 120), R=2)
        assert threading.active_count() == before

    def test_failure_in_a_later_chunk_propagates(self, small_config, monkeypatch):
        class DrawFailed(Exception):
            pass

        # four chunks; the third fails, so the helper must not score the tail
        config = replace(small_config, eval_n=4 * evaluation._BLOCK_ROWS)
        monkeypatch.setattr(data, "_EPS_CHUNK", evaluation._BLOCK_ROWS)
        chunks = data._noise_chunks

        def failing_chunks(dist, eps, rng):
            for i, stop in enumerate(chunks(dist, eps, rng)):
                if i == 2 and len(eps) == config.eval_n:
                    raise DrawFailed
                yield stop

        monkeypatch.setattr(data, "_noise_chunks", failing_chunks)
        scored = []
        score = evaluation._CostPartials.score

        def recorded(partials, blocks):
            scored.extend(blocks)
            score(partials, blocks)

        monkeypatch.setattr(evaluation._CostPartials, "score", recorded)
        before = threading.active_count()
        with pytest.raises(DrawFailed):
            sweep(config, (60, 120), R=2)
        assert threading.active_count() == before
        assert scored == [0, 1]

    def test_failed_fit_cancels_the_rest_of_the_draw(self, small_config, monkeypatch):
        def failing_erm(*args, **kwargs):
            raise MaxIterExceeded("stuck")

        config = replace(small_config, eval_n=10_000)
        monkeypatch.setattr(data, "_EPS_CHUNK", 1_000)
        monkeypatch.setattr(optimizer, "smoothed_erm", failing_erm)
        chunks = data._noise_chunks
        drawn = []

        def slow_chunks(dist, eps, rng):
            for stop in chunks(dist, eps, rng):
                if len(eps) == config.eval_n:
                    drawn.append(stop)
                    time.sleep(0.05)
                yield stop

        monkeypatch.setattr(data, "_noise_chunks", slow_chunks)
        with pytest.raises(evaluation.ReplicationError):
            sweep(config, (60, 120), R=2)
        # the ten chunks would take 0.5 s; the fits fail long before
        assert len(drawn) < 10


class TestCsvOutput:
    def test_rows_csv_roundtrip(self, small_config, tmp_path):
        import csv

        report = run_replications(small_config, R=2)
        path = tmp_path / "rows.csv"
        write_rows_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.rows)
        assert float(rows[0]["regret"]) == report.rows[0].regret

    def test_aggregates_csv_layout(self, small_config, tmp_path):
        import csv

        report = run_replications(small_config, R=2)
        path = tmp_path / "agg.csv"
        write_aggregates_csv(report, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == [
            "dist", "tau", "n", "metric", "stat", "nonprivate", "mu=0.9", "mu=0.3",
        ]
        # one mean and one std row per metric
        assert len(body) == 2 * 4
        stats = {row[4] for row in body}
        assert stats == {"mean", "std"}

    def test_byte_identical_reruns(self, small_config, tmp_path):
        report = run_replications(small_config, R=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(report, p1)
        write_rows_csv(run_replications(small_config, R=2), p2)
        assert p1.read_bytes() == p2.read_bytes()
