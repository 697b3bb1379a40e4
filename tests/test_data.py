"""Synthetic generation, noise quantiles, CSV ingestion, whitening, splits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

from dpnewsvendor import data as datamod
from dpnewsvendor import kernels
from dpnewsvendor.cli import main
from dpnewsvendor.data import (
    DEFAULT_THETA_STAR,
    ErrorDist,
    SyntheticSpec,
    ar1_covariance,
    default_spec,
    error_cdf,
    error_quantile,
    generate_synthetic,
    load_csv,
    train_test_split,
    true_beta_star,
    whitener_from,
)
from dpnewsvendor.errors import (
    InvalidCovariance,
    MissingColumn,
    NonNumericCell,
    SingularCovariance,
    SplitTooLarge,
)
from dpnewsvendor.kernels import check_loss
from dpnewsvendor.model import Problem


class TestErrorDist:
    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            ErrorDist.gaussian_mixture((0.5, 0.4), (0, 0), (1, 1))
        with pytest.raises(ValueError):
            ErrorDist.gaussian_mixture((0.5, 0.5), (0, 0), (1, 0))

    def test_names(self):
        assert ErrorDist.from_name("normal").kind == "normal"
        assert ErrorDist.from_name("t3").df == 3.0
        mix = ErrorDist.from_name("mixture")
        assert mix.weights == (0.9, 0.1)
        assert mix.variances == (1.0, 100.0)
        with pytest.raises(ValueError, match="t9"):
            ErrorDist.from_name("t9")

    def test_labels(self):
        assert ErrorDist.normal().label == "normal"
        assert ErrorDist.student_t(3).label == "t3"
        assert ErrorDist.from_name("mixture").label == "mixture"


class TestErrorQuantile:
    def test_normal_median(self):
        assert error_quantile(ErrorDist.normal(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_t3_upper_quartile(self):
        # oracle: scipy.stats.t.ppf(0.75, 3)
        assert error_quantile(ErrorDist.student_t(3), 0.75) == pytest.approx(
            0.7648923284043453, abs=1e-8
        )

    def test_symmetric_mixture_median(self):
        mix = ErrorDist.from_name("mixture")
        assert error_quantile(mix, 0.5) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize(
        "dist",
        [ErrorDist.normal(), ErrorDist.student_t(3), ErrorDist.from_name("mixture")],
    )
    def test_quantile_inverts_cdf(self, dist):
        for tau in (0.05, 0.25, 0.5, 0.75, 0.95):
            q = error_quantile(dist, tau)
            assert error_cdf(dist, q) == pytest.approx(tau, abs=1e-8)

    @pytest.mark.parametrize(
        "dist",
        [ErrorDist.student_t(3), ErrorDist.student_t(1.5), ErrorDist.from_name("mixture"),
         ErrorDist.gaussian_mixture((0.2, 0.5, 0.3), (-1.0, 0.5, 3.0), (0.5, 2.0, 9.0))],
        ids=["t3", "t1.5", "mixture", "mixture3"],
    )
    def test_matches_scipy_root_finders(self, dist):
        for tau in np.linspace(0.01, 0.99, 25):
            q = error_quantile(dist, tau)
            gap = lambda x: error_cdf(dist, x) - tau  # noqa: E731
            # bitwise the bisection the library ran before, so rows stay byte-identical
            assert q == optimize.bisect(gap, -1e3, 1e3, xtol=1e-10)
            assert q == pytest.approx(optimize.brentq(gap, -1e3, 1e3, xtol=1e-14), abs=1e-9)

    def test_quantile_outside_bracket_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            error_quantile(ErrorDist.student_t(1.0), 1e-4)  # Cauchy: about -3183

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            error_quantile(ErrorDist.normal(), 0.0)


def test_cli_import_leaves_out_scipy_optimize():
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, dpnewsvendor.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


class TestGenerateSynthetic:
    def test_feature_covariance_matches(self):
        spec = default_spec(100_000, "normal", seed=3)
        ds = generate_synthetic(spec)
        z = ds.features[:, 1:]
        sample_cov = z.T @ z / ds.n
        np.testing.assert_allclose(sample_cov, spec.covariance, atol=0.02)

    def test_non_pd_covariance_rejected(self):
        with pytest.raises(InvalidCovariance):
            SyntheticSpec(
                theta_star=(1.0, 2.0, 3.0),
                covariance=np.zeros((2, 2)),
                error_dist=ErrorDist.normal(),
                n=10,
                seed=0,
            )

    def test_centered_demand_with_zero_theta(self):
        spec = SyntheticSpec(
            theta_star=(0.0, 0.0, 0.0),
            covariance=ar1_covariance(2, 0.5),
            error_dist=ErrorDist.normal(),
            n=40_000,
            seed=9,
        )
        ds = generate_synthetic(spec)
        assert abs(ds.demands.mean()) < 4 / np.sqrt(ds.n)

    def test_deterministic_given_seed(self):
        a = generate_synthetic(default_spec(50, "t3", seed=7))
        b = generate_synthetic(default_spec(50, "t3", seed=7))
        np.testing.assert_array_equal(a.demands, b.demands)
        np.testing.assert_array_equal(a.features, b.features)

    def test_matches_column_stack_recipe(self):
        spec = default_spec(5_000, "t3", seed=11)
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((spec.n, spec.p - 1)) @ np.linalg.cholesky(spec.covariance).T
        x = np.column_stack([np.ones(spec.n), z])
        d = x @ np.asarray(spec.theta_star) + rng.standard_t(3.0, size=spec.n)
        ds = generate_synthetic(spec)
        assert np.array_equal(ds.features, x)
        assert np.array_equal(ds.demands, d)

    @pytest.mark.parametrize(
        "dist",
        [ErrorDist.from_name("mixture"),
         ErrorDist.gaussian_mixture((0.2, 0.5, 0.3), (-1.0, 0.5, 3.0), (0.5, 2.0, 9.0))],
        ids=["mixture", "mixture3"],
    )
    def test_mixture_noise_matches_per_row_normal(self, dist):
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            comp = ref_rng.choice(len(dist.weights), size=10_001, p=dist.weights)
            expected = ref_rng.normal(
                np.asarray(dist.means)[comp], np.sqrt(np.asarray(dist.variances))[comp]
            )
            eps = np.empty(10_001)
            for _ in datamod._noise_chunks(dist, eps, rng):
                pass
            assert np.array_equal(eps, expected)
            assert rng.random() == ref_rng.random()  # the stream is left where it was

    def test_resized_spec_draws_as_a_new_one(self, monkeypatch):
        spec = default_spec(100, "mixture", seed=1)
        checks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: checks.append(m) or eigvalsh(m))
        resized = spec._with(n=300, seed=4)
        assert checks == []  # the covariance is not checked again
        assert resized._chol is spec._chol
        fresh = generate_synthetic(default_spec(300, "mixture", seed=4))
        ds = generate_synthetic(resized)
        assert np.array_equal(ds.features, fresh.features)
        assert np.array_equal(ds.demands, fresh.demands)
        assert (spec.n, spec.seed) == (100, 1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            spec._with(n=0, seed=4)

    def test_mixture_has_heavy_tails(self):
        spec = default_spec(50_000, "mixture", seed=1)
        ds = generate_synthetic(spec)
        resid = ds.demands - ds.features @ np.asarray(spec.theta_star)
        assert np.mean(np.abs(resid) > 3) > 0.02  # far more than the normal share


class TestTrueBetaStar:
    def test_median_with_symmetric_noise(self):
        spec = default_spec(10, "normal", seed=0)
        np.testing.assert_allclose(true_beta_star(spec, 0.5), DEFAULT_THETA_STAR)

    def test_upper_quantile_shifts_intercept(self):
        spec = default_spec(10, "normal", seed=0)
        beta = true_beta_star(spec, 0.75)
        assert beta[0] == pytest.approx(1.5 + 0.6744897501960817, abs=1e-9)
        np.testing.assert_allclose(beta[1:], DEFAULT_THETA_STAR[1:])

    def test_population_optimality(self):
        # the clairvoyant coefficients beat nearby perturbations on a huge sample
        spec = default_spec(1_000_000, "normal", seed=123)
        ds = generate_synthetic(spec)
        prob = Problem.from_quantile(0.5)
        beta_star = true_beta_star(spec, prob.tau)

        def risk(beta):
            return float(np.mean(check_loss(prob.tau, ds.demands - ds.features @ beta)))

        base = risk(beta_star)
        rng = np.random.default_rng(5)
        for _ in range(20):
            delta = rng.standard_normal(len(beta_star))
            delta *= 0.05 / np.linalg.norm(delta)
            assert risk(beta_star + delta) >= base


def _refuse_scan(path, demand_column):
    raise AssertionError(f"{path} fell back to the row scanner")


# spreadsheet exports often start with a UTF-8 byte-order mark
_BOM = pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])


class TestLoadCsv(object):
    @_BOM
    def test_roundtrip(self, tmp_path, bom):
        path = tmp_path / "demand.csv"
        path.write_bytes(bom + b"demand,temp\n1.0,20\n2.5,21\n3.0,19\n")
        ds = load_csv(path, "demand")
        assert (ds.n, ds.p) == (3, 2)
        np.testing.assert_allclose(ds.features[:, 0], 1.0)
        np.testing.assert_allclose(ds.features[:, 1], [20, 21, 19])
        np.testing.assert_allclose(ds.demands, [1.0, 2.5, 3.0])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("sales,temp\n1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(path, "demand")

    @_BOM
    def test_non_numeric_cell_reports_location(self, tmp_path, bom):
        path = tmp_path / "x.csv"
        path.write_bytes(bom + b"demand,temp\n1,2\n3,NA\n")
        with pytest.raises(NonNumericCell) as info:
            load_csv(path, "demand")
        assert info.value.row == 2
        assert info.value.column == "temp"

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("demand,temp\n1,inf\n")
        with pytest.raises(NonNumericCell):
            load_csv(path, "demand")

    @pytest.mark.parametrize("row", ["3,4,99", "3"])
    def test_row_with_wrong_cell_count_rejected(self, tmp_path, row):
        path = tmp_path / "x.csv"
        path.write_text(f"demand,temp\n1,2\n{row}\n")
        with pytest.raises(ValueError, match="row 2 has"):
            load_csv(path, "demand")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "demand")

    def test_feature_order_preserved(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,demand,b\n10,1,30\n11,2,31\n")
        ds = load_csv(path, "demand")
        np.testing.assert_allclose(ds.features[:, 1], [10, 11])
        np.testing.assert_allclose(ds.features[:, 2], [30, 31])

    # files on which np.loadtxt and the row scanner disagree; load_csv
    # must give the scanner's outcome
    @pytest.mark.parametrize(
        "body, error, match, row, column",
        [
            ("1,2\n\n3,4\n", ValueError, "row 2 has 0 cells", None, None),
            ("1,2\n3,4\n\n", ValueError, "row 3 has 0 cells", None, None),
            # the lone CR adds the line the blank one removes from loadtxt's count
            ("1,2\n\n3,4\r5,6\n", ValueError, "row 2 has 0 cells", None, None),
            ("1,nan\n", NonNumericCell, None, 1, "temp"),
            ("1,2\ninf,4\n", NonNumericCell, None, 2, "demand"),
            ("1,Infinity\n", NonNumericCell, None, 1, "temp"),
            ("1e999,2\n", NonNumericCell, None, 1, "demand"),
            ("1,2#\n", NonNumericCell, None, 1, "temp"),
            ("1,\x1c2\n", NonNumericCell, None, 1, "temp"),
            ("", ValueError, "no data rows", None, None),
            ("1,2,3\n4,5\n", ValueError, "row 1 has 3 cells", None, None),
        ],
    )
    def test_rejected_where_parsers_differ(self, tmp_path, body, error, match, row, column):
        path = tmp_path / "x.csv"
        path.write_bytes(f"demand,temp\n{body}".encode("utf-8"))
        with pytest.raises(error, match=match) as info:
            load_csv(path, "demand")
        if row is not None:
            assert (info.value.row, info.value.column) == (row, column)

    def test_underscore_digits_load(self, tmp_path):
        # float() accepts "1_0" and loadtxt does not
        path = tmp_path / "x.csv"
        path.write_text("demand,temp\n1_0,2\n")
        ds = load_csv(path, "demand")
        assert ds.demands.tolist() == [10.0]
        assert ds.features.tolist() == [[1.0, 2.0]]

    def test_clean_file_skips_the_scanner(self, tmp_path, monkeypatch):
        path = tmp_path / "train.csv"
        assert main(["simulate", "--n", "1000", "--seed", "3", "--out", str(path)]) == 0
        expected = datamod._scan_csv(path, "demand")
        monkeypatch.setattr(datamod, "_scan_csv", _refuse_scan)
        ds = load_csv(path, "demand")
        assert ds.demands.tobytes() == expected.demands.tobytes()
        assert ds.features.tobytes() == expected.features.tobytes()

    def test_line_count_across_chunk_boundaries(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        path.write_bytes(b"demand\r\n1\r\n2\r\n3")
        # 5-byte chunks split the second CRLF between two reads
        monkeypatch.setattr(datamod, "_COUNT_CHUNK_BYTES", 5)
        monkeypatch.setattr(datamod, "_scan_csv", _refuse_scan)
        assert load_csv(path, "demand").demands.tolist() == [1.0, 2.0, 3.0]

    def test_line_count_with_a_lone_cr_after_a_chunk_without_one(self, tmp_path, monkeypatch):
        path = tmp_path / "x.csv"
        # 5-byte chunks: "deman" and "d\n1\n2" hold no CR, "\r3\n4" a lone one
        path.write_bytes(b"demand\n1\n2\r3\n4")
        monkeypatch.setattr(datamod, "_COUNT_CHUNK_BYTES", 5)
        monkeypatch.setattr(datamod, "_scan_csv", _refuse_scan)
        assert load_csv(path, "demand").demands.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestWhitener:
    def test_identity(self):
        w = whitener_from(np.eye(3))
        np.testing.assert_allclose(w.inv_sqrt, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w = whitener_from(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(w.inv_sqrt, np.diag([0.5, 1.0]), atol=1e-12)

    def test_inv_sqrt_whitens(self):
        spec = default_spec(10, "normal", seed=0)
        w = whitener_from(spec)
        product = w.inv_sqrt @ w.sigma_matrix @ w.inv_sqrt
        np.testing.assert_allclose(product, np.eye(w.p), atol=1e-8)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        with pytest.raises(SingularCovariance):
            whitener_from(x.T @ x / 10)

    def test_dataset_rejected(self):
        # X'X / n of private rows is not a public input
        ds = generate_synthetic(default_spec(10, "normal", seed=0))
        with pytest.raises(TypeError, match="SyntheticSpec or a matrix"):
            whitener_from(ds)

    def test_whitened_second_moment_near_identity(self):
        spec = default_spec(100_000, "normal", seed=11)
        ds = generate_synthetic(spec)
        w = whitener_from(spec)
        white = ds.features @ w.inv_sqrt
        second = white.T @ white / ds.n
        np.testing.assert_allclose(second, np.eye(w.p), atol=0.02)


class TestTrainTestSplit:
    def test_sizes(self):
        ds = generate_synthetic(default_spec(736, "normal", seed=0))
        train, test = train_test_split(ds, 552, seed=4)
        assert (train.n, test.n) == (552, 184)

    def test_partition(self):
        ds = generate_synthetic(default_spec(100, "normal", seed=0))
        train, test = train_test_split(ds, 60, seed=4)
        combined = np.sort(np.concatenate([train.demands, test.demands]))
        np.testing.assert_array_equal(combined, np.sort(ds.demands))

    def test_deterministic(self):
        ds = generate_synthetic(default_spec(100, "normal", seed=0))
        a, _ = train_test_split(ds, 60, seed=4)
        b, _ = train_test_split(ds, 60, seed=4)
        np.testing.assert_array_equal(a.demands, b.demands)

    def test_too_large(self):
        ds = generate_synthetic(default_spec(100, "normal", seed=0))
        with pytest.raises(SplitTooLarge):
            train_test_split(ds, 100, seed=4)


class TestSplitNormals:
    """``_fill_normals`` draws a large ``z`` on two threads, the second
    half from an advanced copy of the stream, joined bitwise."""

    @pytest.fixture
    def joins(self, monkeypatch):
        """A low threshold and two usable CPUs; lists each join found."""
        monkeypatch.setattr(datamod, "_SPLIT_VALUES", 64)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        found, join = [], datamod._join

        def recorded(rng, start, half):
            result = join(rng, start, half)
            found.append(None if result is None else (len(result[0]), result[1]))
            return result

        monkeypatch.setattr(datamod, "_join", recorded)
        return found

    @staticmethod
    def _refuse_pool(monkeypatch):
        def refuse():
            raise AssertionError("the pool was used")

        monkeypatch.setattr(kernels, "_executor", refuse)

    @staticmethod
    def _assert_one_call(seed, shape, fill):
        ref = np.random.default_rng(seed)
        want, then = ref.standard_normal(shape), ref.standard_normal(9)
        out = np.empty(shape)
        gen = fill(np.random.default_rng(seed), out)
        assert out.tobytes() == want.tobytes(), (seed, shape)
        assert gen.standard_normal(9).tobytes() == then.tobytes(), (seed, shape)

    @pytest.mark.parametrize("shape", [64, 999, 1_000, 30_001, (2_501, 4)])
    def test_split_fill_is_one_call(self, joins, shape):
        for seed in range(12):
            self._assert_one_call(seed, shape, datamod._fill_normals)
        assert len(joins) == 12 and None not in joins

    def test_join_behind_a_probe(self, joins, monkeypatch):
        # a copy advanced by exactly k raw draws: at 130 values, seed
        # 19835's copy draws its first value from the raw draw before the
        # second half and the one at its start, so it is no value of the
        # stream; the join comes after the first probe
        monkeypatch.setattr(datamod, "_COPY_LEAD", 0)
        self._assert_one_call(19835, 130, datamod._fill_normals)
        assert joins == [(1, 1)]

    def test_copy_ahead_of_the_stream_finds_no_join(self, joins, monkeypatch):
        # a copy advanced by exactly k raw draws: at 130 values, seed
        # 88625's copy value j is the stream's value j + 1 of the half,
        # which no join (j >= i) can express, so the half is drawn serially
        monkeypatch.setattr(datamod, "_COPY_LEAD", 0)
        self._assert_one_call(88625, 130, datamod._fill_normals)
        assert joins == [None]

    def test_lead_lets_a_copy_that_ran_ahead_join(self, joins):
        # started _COPY_LEAD raw draws earlier, seed 88625's copy parses
        # the whole second half, so the first probe joins
        self._assert_one_call(88625, 130, datamod._fill_normals)
        assert len(joins) == 1 and joins[0] is not None and joins[0][0] == 0

    def test_one_usable_cpu_draws_serially(self, joins, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
        self._refuse_pool(monkeypatch)
        for seed in range(3):
            self._assert_one_call(seed, 1_001, datamod._fill_normals)
        assert joins == []

    def test_other_bit_generators_draw_serially(self, joins, monkeypatch):
        self._refuse_pool(monkeypatch)
        for seed in range(3):
            ref = np.random.Generator(np.random.Philox(seed))
            want, then = ref.standard_normal(1_001), ref.standard_normal(9)
            out = np.empty(1_001)
            gen = datamod._fill_normals(np.random.Generator(np.random.Philox(seed)), out)
            assert out.tobytes() == want.tobytes()
            assert gen.standard_normal(9).tobytes() == then.tobytes()
        assert joins == []

    def test_no_join_draws_the_second_half_serially(self, joins, monkeypatch):
        monkeypatch.setattr(datamod, "_join", lambda rng, start, half: joins.append(None))
        for seed in range(3):
            self._assert_one_call(seed, 1_001, datamod._fill_normals)
        assert joins == [None] * 3

    def test_below_the_threshold_the_pool_is_never_touched(self, monkeypatch):
        self._refuse_pool(monkeypatch)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 64)
        self._assert_one_call(3, datamod._SPLIT_VALUES - 1, datamod._fill_normals)
        # a spec whose z holds just under the threshold
        spec = default_spec(datamod._SPLIT_VALUES // 4 - 1, "normal", seed=3)
        z, eps, _, stream = datamod._synthetic_stream(spec)
        next(stream)
        assert z.size == datamod._SPLIT_VALUES - 4
