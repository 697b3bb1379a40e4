"""Metrics and the replication harness."""

import math
import threading
import tracemalloc
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
    sample_errors,
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
from dpnewsvendor.kernels import check_loss
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
        eps = sample_errors(spec.error_dist, eval_n, rng)
        drawn_z, drawn_eps = _synthetic_draws(spec)
        np.testing.assert_array_equal(drawn_z, z)
        np.testing.assert_array_equal(drawn_eps, eps)
        x = np.column_stack([np.ones(eval_n), z @ np.linalg.cholesky(spec.covariance).T])
        dataset = generate_synthetic(spec)
        np.testing.assert_array_equal(dataset.features, x)
        np.testing.assert_array_equal(dataset.demands, x @ np.asarray(spec.theta_star) + eps)

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
    eval_spec = SyntheticSpec(
        theta_star=config.theta_star,
        covariance=config.covariance,
        error_dist=config.error_dist,
        n=config.eval_n,
        seed=derive_seed(config.base_seed, 0, 0),
    )
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

    @pytest.mark.parametrize("stack_rows, chunks", [(1 << 15, 1), (250, 3)])
    def test_fixed_step_cell_weighs_once_per_step_and_chunk(
        self, small_config, monkeypatch, stack_rows, chunks
    ):
        calls = {"clip": 0, "scaled_cdf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "_STACK_ROWS", stack_rows)
        monkeypatch.setattr(optimizer, "clip", counted("clip", optimizer.clip))
        monkeypatch.setattr(kernels, "scaled_cdf", counted("scaled_cdf", kernels.scaled_cdf))
        config = replace(small_config, mu_grid=(0.9, 0.5, 0.3), step_size=0.5, n_steps=7)
        run_replications(config, R=5)
        assert calls == {"clip": 5, "scaled_cdf": 7 * chunks}

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


class TestEvaluationDraw:
    """The evaluation set is drawn on a helper thread beside the fits."""

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
        sample = data.sample_errors

        def failing_sample(dist, n, rng):
            # training sets (60 and 120 rows) draw as usual
            if n == config.eval_n:
                raise DrawFailed
            return sample(dist, n, rng)

        monkeypatch.setattr(data, "sample_errors", failing_sample)
        before = threading.active_count()
        with pytest.raises(DrawFailed):
            sweep(config, (60, 120), R=2)
        assert threading.active_count() == before


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
