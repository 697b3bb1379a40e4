"""Cost structure, dataset validation, risks and their derivatives."""

import numpy as np
import pytest

from dpnewsvendor.errors import DimensionMismatch, NonPositiveBandwidth
from dpnewsvendor.evaluation import out_of_sample_cost
from dpnewsvendor.kernels import KERNEL_NAMES, check_loss, constants
from dpnewsvendor.model import (
    Dataset,
    Problem,
    smoothed_empirical_cost,
    smoothed_gradient,
    smoothed_hessian,
)

from conftest import finite_difference_gradient


def random_dataset(rng, n=30, p=4):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    d = x @ rng.normal(size=p) + rng.standard_normal(n)
    return Dataset(demands=d, features=x)


class TestProblem:
    def test_tau_derived(self):
        prob = Problem(b=50, h=30)
        assert prob.tau == pytest.approx(0.625)
        assert prob.total_cost == 80

    def test_tau_bar(self):
        assert Problem(b=50, h=30).tau_bar == 0.625
        assert Problem(b=30, h=50).tau_bar == 0.625
        assert Problem.from_quantile(0.1).tau_bar == 0.9

    def test_from_quantile_unit_total(self):
        prob = Problem.from_quantile(0.3)
        assert prob.b == pytest.approx(0.3)
        assert prob.h == pytest.approx(0.7)
        assert prob.total_cost == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Problem(b=-1, h=2)
        with pytest.raises(ValueError):
            Problem(b=0, h=0)
        with pytest.raises(ValueError):
            Problem.from_quantile(1.0)


class TestDataset:
    def test_requires_intercept_column(self):
        with pytest.raises(ValueError, match="intercept"):
            Dataset(demands=[1.0, 2.0], features=[[0.5, 1.0], [1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(demands=[1.0, np.nan], features=[[1.0], [1.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(demands=[1.0, 2.0, 3.0], features=[[1.0], [1.0]])

    def test_immutable(self):
        ds = Dataset(demands=[1.0], features=[[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.demands[0] = 5.0
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0

    def test_shape_properties(self):
        ds = Dataset(demands=[1.0, 2.0], features=[[1.0, 3.0], [1.0, 4.0]])
        assert (ds.n, ds.p) == (2, 2)


def one_row(demand, features=(1.0,)):
    return Dataset(demands=[demand], features=[list(features)])


class TestNewsvendorCost:
    # the cost of a single order is out_of_sample_cost on a one-row dataset
    def test_exact_match_costs_nothing(self):
        assert out_of_sample_cost(Problem(b=0.5, h=0.5), [1.0], one_row(1.0)) == 0.0

    def test_understock(self):
        assert out_of_sample_cost(Problem(b=50, h=30), [2.0], one_row(5.0)) == pytest.approx(150.0)

    def test_overstock(self):
        assert out_of_sample_cost(Problem(b=50, h=30), [5.0], one_row(2.0)) == pytest.approx(90.0)

    def test_check_loss_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            b, h = rng.uniform(0.1, 100, size=2)
            q, d = rng.uniform(-50, 50, size=2)
            prob = Problem(b=b, h=h)
            assert out_of_sample_cost(prob, [q], one_row(d)) == pytest.approx(
                prob.total_cost * check_loss(prob.tau, d - q), rel=1e-12, abs=1e-12
            )


class TestCheckLoss:
    def test_values(self):
        assert check_loss(0.5, 1.0) == 0.5
        assert check_loss(0.25, -2.0) == pytest.approx(1.5)
        assert check_loss(0.77, 0.0) == 0.0


class TestEmpiricalCost:
    def test_single_observation(self):
        prob = Problem(b=0.5, h=0.5)
        assert out_of_sample_cost(prob, np.zeros(1), one_row(1.0)) == pytest.approx(0.5)

    def test_interpolating_policy_is_free(self):
        rng = np.random.default_rng(0)
        x = np.column_stack([np.ones(5), rng.standard_normal((5, 2))])
        beta = rng.normal(size=3)
        ds = Dataset(demands=x @ beta, features=x)
        assert out_of_sample_cost(Problem(b=1, h=2), beta, ds) == pytest.approx(0.0, abs=1e-12)

    def test_two_observations(self):
        ds = Dataset(demands=[0.0, 2.0], features=[[1.0], [1.0]])
        prob = Problem.from_quantile(0.5)
        assert out_of_sample_cost(prob, np.array([1.0]), ds) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            out_of_sample_cost(Problem(b=1, h=1), np.zeros(3), one_row(1.0, (1.0, 2.0)))

    def test_accepts_linear_policy(self):
        # a policy is its coefficient vector, here a plain list
        ds = Dataset(demands=[0.0, 2.0], features=[[1.0], [1.0]])
        prob = Problem.from_quantile(0.5)
        assert out_of_sample_cost(prob, [1.0], ds) == pytest.approx(0.5)


class TestSmoothedEmpiricalCost:
    def test_small_bandwidth_limit(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        prob = Problem(b=2, h=3)
        beta = rng.normal(size=ds.p)
        plain = out_of_sample_cost(prob, beta, ds)
        smoothed = smoothed_empirical_cost(prob, ds, beta, "gaussian", 1e-4)
        assert smoothed == pytest.approx(plain, abs=1e-3)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_sandwich_on_random_instances(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(rng)
            prob = Problem(b=rng.uniform(0.5, 5), h=rng.uniform(0.5, 5))
            beta = rng.normal(size=ds.p)
            bw = 10 ** rng.uniform(-1, 0.3)
            lo = out_of_sample_cost(prob, beta, ds)
            hi = lo + prob.total_cost * constants(kind).kappa_1 * bw / 2
            val = smoothed_empirical_cost(prob, ds, beta, kind, bw)
            assert lo - 1e-10 <= val <= hi + 1e-9

    def test_single_obs_at_fit(self):
        ds = Dataset(demands=[3.0], features=[[1.0]])
        prob = Problem(b=2, h=2)
        bw = 0.7
        expected = prob.total_cost * bw / np.sqrt(2 * np.pi)
        got = smoothed_empirical_cost(prob, ds, np.array([3.0]), "gaussian", bw)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_validation(self):
        ds = Dataset(demands=[1.0], features=[[1.0]])
        with pytest.raises(NonPositiveBandwidth):
            smoothed_empirical_cost(Problem(b=1, h=1), ds, np.zeros(1), "gaussian", 0.0)

    def test_convexity_in_beta(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng)
        prob = Problem(b=1.5, h=0.5)
        for _ in range(50):
            b1, b2 = rng.normal(size=(2, ds.p))
            lam = rng.uniform()
            mid = lam * b1 + (1 - lam) * b2
            lhs = smoothed_empirical_cost(prob, ds, mid, "logistic", 0.4)
            rhs = lam * smoothed_empirical_cost(
                prob, ds, b1, "logistic", 0.4
            ) + (1 - lam) * smoothed_empirical_cost(prob, ds, b2, "logistic", 0.4)
            assert lhs <= rhs + 1e-9


class TestSmoothedGradient:
    def test_zero_at_fit_with_median(self):
        ds = Dataset(demands=[2.0], features=[[1.0]])
        prob = Problem.from_quantile(0.5)
        g = smoothed_gradient(prob, ds, np.array([2.0]), "gaussian", 0.5)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ds = random_dataset(rng)
            prob = Problem(b=rng.uniform(0.5, 3), h=rng.uniform(0.5, 3))
            beta = rng.normal(size=ds.p)
            bw = 0.5

            def q(b):
                return smoothed_empirical_cost(prob, ds, b, kind, bw) / prob.total_cost

            fd = finite_difference_gradient(q, beta, h=3e-6)
            got = smoothed_gradient(prob, ds, beta, kind, bw)
            np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)

    def test_overstock_saturation(self):
        rng = np.random.default_rng(17)
        x = np.column_stack([np.ones(200), rng.standard_normal((200, 2))])
        d = x @ np.array([1.0, 0.5, -0.5])
        ds = Dataset(demands=d, features=x)
        prob = Problem.from_quantile(0.3)
        beta = np.array([100.0, 0.5, -0.5])  # orders far above any demand
        g = smoothed_gradient(prob, ds, beta, "gaussian", 0.2)
        np.testing.assert_allclose(g, (1 - prob.tau) * x.mean(axis=0), atol=1e-10)


class TestSmoothedHessian:
    def test_single_obs_gaussian(self):
        ds = Dataset(demands=[1.0], features=[[1.0]])
        prob = Problem.from_quantile(0.5)
        h = smoothed_hessian(prob, ds, np.array([1.0]), "gaussian", 1.0)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_psd_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            ds = random_dataset(rng)
            prob = Problem(b=1, h=1)
            beta = rng.normal(size=ds.p)
            h = smoothed_hessian(prob, ds, beta, "laplacian", 0.3)
            np.testing.assert_allclose(h, h.T, atol=1e-12)
            assert np.linalg.eigvalsh(h).min() >= -1e-10

    def test_matches_gradient_finite_differences(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng)
        prob = Problem(b=2, h=1)
        beta = rng.normal(size=ds.p)
        bw = 0.6
        h_fd = np.zeros((ds.p, ds.p))
        eps = 1e-6
        for j in range(ds.p):
            e = np.zeros(ds.p)
            e[j] = eps
            h_fd[:, j] = (
                smoothed_gradient(prob, ds, beta + e, "gaussian", bw)
                - smoothed_gradient(prob, ds, beta - e, "gaussian", bw)
            ) / (2 * eps)
        got = smoothed_hessian(prob, ds, beta, "gaussian", bw)
        np.testing.assert_allclose(got, h_fd, atol=1e-5)

    def test_smoothed_cost_dominates_plain(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            ds = random_dataset(rng)
            prob = Problem(b=1, h=3)
            beta = rng.normal(size=ds.p)
            assert smoothed_empirical_cost(
                prob, ds, beta, "uniform", 0.8
            ) >= out_of_sample_cost(prob, beta, ds) - 1e-12
