"""Clipping, noisy updates, the private fit, and the ERM baseline."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from dpnewsvendor import kernels, optimizer
from dpnewsvendor.data import (
    DEFAULT_THETA_STAR,
    ErrorDist,
    SyntheticSpec,
    Whitener,
    ar1_covariance,
    default_spec,
    generate_synthetic,
    whitener_from,
)
from dpnewsvendor.errors import LineSearchFailed, MaxIterExceeded, MissingWhitener
from dpnewsvendor.evaluation import ReplicationConfig, run_replications
from dpnewsvendor import model
from dpnewsvendor.model import Dataset, Problem, smoothed_empirical_cost, smoothed_gradient
from dpnewsvendor.optimizer import (
    HyperParams,
    NoiseSource,
    clip,
    default_bandwidth,
    fit,
    noisy_step,
    smoothed_erm,
)
from dpnewsvendor.privacy import calibrate_sigma, one_step_sensitivity


def _sigma_norm(delta, sigma_matrix):
    return float(np.sqrt(delta @ sigma_matrix @ delta))


class _Untouched:
    """A noise source for fits that must stop before they draw noise."""

    def standard_normal(self, shape):
        raise AssertionError("noise drawn before the certificate")


def _no_steps(*args, **kwargs):
    raise AssertionError("a step ran before the certificate")


class TestClip:
    def test_identity_inside_ball(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_array_equal(clip(u, 2.0), u)

    def test_scales_to_boundary(self):
        np.testing.assert_allclose(clip(np.array([3.0, 4.0]), 2.5), [1.5, 2.0])

    def test_zero_vector(self):
        np.testing.assert_array_equal(clip(np.zeros(3), 1.0), np.zeros(3))

    def test_rowwise(self):
        u = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = clip(u, 2.5)
        np.testing.assert_allclose(out[0], [1.5, 2.0])
        np.testing.assert_array_equal(out[1], u[1])

    def test_norm_capped_direction_kept(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=6) * rng.uniform(0.1, 10)
            v = clip(u, 1.5)
            assert np.linalg.norm(v) <= 1.5 + 1e-12
            cos = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            assert cos == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(6,), (40, 3)])
    def test_in_place_equals_a_copy(self, shape):
        u = np.random.default_rng(1).normal(scale=3.0, size=shape)
        expected = clip(u, 2.0)
        assert clip(u, 2.0, out=u) is u
        assert u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 10_000])
    def test_blocked_rows_equal_the_whole_array_formula(self, rows):
        u = np.random.default_rng(rows).normal(scale=2.0, size=(rows, 5))
        norms = np.linalg.norm(u, axis=1)
        expected = u / np.maximum(1.0, norms / 1.5)[:, None]
        assert clip(u, 1.5).tobytes() == expected.tobytes()
        assert clip(u, 1.5, out=u).tobytes() == expected.tobytes()

    def test_in_place_clip_allocates_less_than_its_input(self):
        u = np.random.default_rng(2).normal(scale=3.0, size=(100_000, 5))
        tracemalloc.start()
        try:
            clip(u, 2.0, out=u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes / 4, peak

    def test_infinite_radius_is_identity(self):
        u = np.array([5.0, -7.0])
        np.testing.assert_array_equal(clip(u, math.inf), u)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            clip(np.ones(2), 0.0)


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(bandwidth=0.0, n_steps=1)
        with pytest.raises(ValueError):
            HyperParams(bandwidth=0.1, n_steps=1, clip_radius=0.5)
        with pytest.raises(ValueError):
            HyperParams(bandwidth=0.1, n_steps=1, mode="whitened")
        for name, rule in (
            ("bandwidth", "bandwidth must be finite and > 0"),
            ("sigma", "sigma must be finite and >= 0"),
            ("max_step_size", "max_step_size must be finite and >= 1"),
        ):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{rule}, got {value}"):
                    HyperParams(**{"bandwidth": 0.1, "n_steps": 1, name: value})

    def test_kernel_coerced(self):
        hp = HyperParams(bandwidth=0.1, n_steps=1, kernel="uniform")
        assert hp.kernel == "uniform"


class TestNoiseSource:
    def test_deterministic(self):
        a = NoiseSource(42).standard_normal(8)
        b = NoiseSource(42).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        draws = NoiseSource(7).standard_normal(100_000)
        n = len(draws)
        assert abs(draws.mean()) <= 4 / math.sqrt(n)
        assert abs(draws.var() - 1.0) <= 4 * math.sqrt(2.0 / n)

    def test_unseeded_source_draws_afresh_and_certifies(self, instance):
        # NoiseSource(None) seeds Philox from the operating system's entropy
        a = NoiseSource(None).standard_normal(8)
        b = NoiseSource(None).standard_normal(8)
        assert not np.array_equal(a, b)
        data, problem, whitener = instance
        hp = HyperParams(
            bandwidth=0.15, n_steps=10, clip_radius=2.0, step_size=0.5, mu=0.5,
            sigma=calibrate_sigma(0.5, 2.0, 10, 0.5),
        )
        res = fit(data, problem, hp, whitener=whitener, noise=NoiseSource(None))
        assert res.certificate is not None and res.certificate.mu == 0.5
        assert np.isfinite(res.beta_final).all()


class TestDefaultBandwidth:
    def test_value(self):
        # arithmetic oracle: sqrt(.25) * ((5 + log 400)/400)^0.4
        want = math.sqrt(0.25) * ((5 + math.log(400)) / 400) ** 0.4
        assert default_bandwidth(0.5, 400, 5) == pytest.approx(want, rel=1e-15)
        assert default_bandwidth(0.5, 400, 5) == pytest.approx(0.11873212296283613, rel=1e-12)

    def test_tau_half_maximizes(self):
        for tau in (0.1, 0.3, 0.7, 0.9):
            assert default_bandwidth(tau, 400, 5) < default_bandwidth(0.5, 400, 5)

    def test_decreasing_in_n(self):
        for n in (50, 100, 1000, 10_000):
            assert default_bandwidth(0.5, 2 * n, 5) < default_bandwidth(0.5, n, 5)


@pytest.fixture(scope="module")
def instance():
    spec = default_spec(200, "normal", seed=12)
    data = generate_synthetic(spec)
    problem = Problem.from_quantile(0.5)
    whitener = whitener_from(spec)
    return data, problem, whitener


class TestNoisyStep:
    def test_reduces_to_plain_gradient_step(self, instance):
        data, problem, _ = instance
        hp = HyperParams(
            bandwidth=0.2, n_steps=1, step_size=0.7, sigma=0.0, mode="raw_covariates"
        )
        beta = np.full(data.p, 0.3)
        out = noisy_step(beta, data, problem, hp, np.zeros(data.p))
        grad = smoothed_gradient(problem, data, beta, "gaussian", 0.2)
        np.testing.assert_allclose(out, beta - 0.7 * grad, atol=1e-12)

    def test_whitened_identity_matches_raw(self, instance):
        data, problem, _ = instance
        eye = whitener_from(np.eye(data.p))
        hp_known = HyperParams(
            bandwidth=0.2, n_steps=1, step_size=0.5, clip_radius=2.0,
            mode="known_sigma_matrix",
        )
        hp_raw = HyperParams(
            bandwidth=0.2, n_steps=1, step_size=0.5, clip_radius=2.0,
            mode="raw_covariates",
        )
        beta = np.zeros(data.p)
        g = NoiseSource(3).standard_normal(data.p)
        a = noisy_step(beta, data, problem, hp_known, g, whitener=eye)
        b = noisy_step(beta, data, problem, hp_raw, g)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_fixed_point_at_median(self):
        data = Dataset(demands=[2.0], features=[[1.0]])
        problem = Problem.from_quantile(0.5)
        hp = HyperParams(bandwidth=0.3, n_steps=1, step_size=1.0, sigma=0.0,
                         mode="raw_covariates")
        out = noisy_step(np.array([2.0]), data, problem, hp, np.zeros(1))
        np.testing.assert_allclose(out, [2.0], atol=1e-15)

    def test_missing_whitener_raises(self, instance):
        data, problem, _ = instance
        hp = HyperParams(bandwidth=0.2, n_steps=1, step_size=0.5, mode="known_sigma_matrix")
        with pytest.raises(MissingWhitener):
            noisy_step(np.zeros(data.p), data, problem, hp, np.zeros(data.p))

    def test_requires_step_size(self, instance):
        data, problem, whitener = instance
        hp = HyperParams(bandwidth=0.2, n_steps=1, mode="known_sigma_matrix")
        with pytest.raises(ValueError, match="step_size"):
            noisy_step(np.zeros(data.p), data, problem, hp, np.zeros(data.p), whitener)

    def test_neighboring_sensitivity_bound(self, instance):
        data, problem, whitener = instance
        eta, radius = 0.8, 2.0
        hp = HyperParams(
            bandwidth=0.15, n_steps=1, step_size=eta, clip_radius=radius,
            sigma=13.0, mode="known_sigma_matrix",
        )
        bound = one_step_sensitivity(eta, radius, 0.5, data.n)
        rng = np.random.default_rng(99)
        for _ in range(200):
            i = rng.integers(data.n)
            d2 = data.demands.copy()
            x2 = data.features.copy()
            d2[i] = rng.normal() * 5
            x2[i, 1:] = rng.normal(size=data.p - 1) * 3
            neighbor = Dataset(demands=d2, features=x2)
            beta = rng.normal(size=data.p)
            g = rng.standard_normal(data.p)
            out_a = noisy_step(beta, data, problem, hp, g, whitener)
            out_b = noisy_step(beta, neighbor, problem, hp, g, whitener)
            dist = _sigma_norm(out_a - out_b, whitener.sigma_matrix)
            assert dist <= bound + 1e-12


def _line(beta):
    # q(b) = b: a step along d = 1 decreases it at slope 1, however long
    return float(beta[0])


def _bowl(beta):
    # q(b) = 5 b'b, gradient 10 b: from b = 1 along the gradient, the
    # Armijo condition holds for eta <= 2 (1 - 1e-4) / 10 only
    return 5.0 * float(beta @ beta)


def _search(entries, max_step, counted=None):
    """``optimizer._armijo_steps`` on a stack of ``(q, beta, direction,
    slope)`` searches along plain functions ``q``; the steps as a list.
    ``counted`` collects the step of each objective call."""
    slope = np.reshape([s for *_, s in entries], (len(entries), 1, 1))

    def objective(eta):
        if counted is not None:
            counted.append(eta)
        return np.reshape([q(beta - eta * d) for q, beta, d, _ in entries], slope.shape)

    return optimizer._armijo_steps(objective, slope, max_step).ravel().tolist()


_ZERO_SLOPE = (_bowl, np.zeros(1), np.zeros(1), 0.0)
_SHRINKS = (_bowl, np.ones(1), np.full(1, 10.0), 100.0)
_GROWS = (_line, np.zeros(1), np.ones(1), 1.0)


class TestBacktracking:
    def test_zero_gradient_returns_one(self):
        assert _search([_ZERO_SLOPE], 4.0) == [1.0]

    def test_armijo_decrease(self):
        # a smooth convex q, searched along its gradient
        def q(beta):
            return float(np.sum(np.logaddexp(0.0, beta)) + 0.5 * beta @ beta)

        beta = np.array([0.7, -1.3, 2.0])
        grad = 1.0 / (1.0 + np.exp(-beta)) + beta
        (eta,) = _search([(q, beta, grad, float(grad @ grad))], 4.0)
        assert q(beta - eta * grad) < q(beta)
        assert eta == _armijo_by_hand(q, beta, grad, float(grad @ grad), 4.0)

    def test_quadratic_regime_shrinks(self):
        assert _search([_SHRINKS], 4.0) == [0.125]

    def test_expand_caps_at_max_step(self):
        assert _search([_GROWS], 4.0) == [4.0]
        assert _search([_GROWS], 7.0) == [4.0]
        assert _search([_GROWS], 1.0) == [1.0]

    def test_stack_steps_as_each_search_alone(self):
        # a zero slope, a shrink to 0.125 and a growth capped at 4, in one
        # stack: every round is one call, and each entry steps as alone
        entries = [_ZERO_SLOPE, _SHRINKS, _GROWS]
        calls = []
        steps = _search(entries, 4.0, counted=calls)
        assert steps == [1.0, 0.125, 4.0]
        assert steps == [_search([e], 4.0)[0] for e in entries]
        assert steps == [_armijo_by_hand(q, b, d, s, 4.0) for q, b, d, s in entries]
        # Q(0), then one trial a round for the whole stack, halving from the
        # cap: the growing entry passes at 4 in the first round, the
        # shrinking one at 0.125 in the last
        assert calls == [0.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.125]

    @pytest.mark.parametrize(
        "max_step, first",
        [(7.0, 4.0), (1.5, 1.0), (1.0, 1.0), (8.0, 8.0), (np.nextafter(8.0, 0.0), 4.0)],
    )
    def test_first_trial_is_the_largest_power_of_two_under_the_cap(self, max_step, first):
        calls = []
        assert _search([_GROWS], max_step, counted=calls) == [first]
        assert calls == [0.0, first]

    def test_stack_passing_the_cap_makes_two_calls(self):
        entries = [
            _GROWS,
            (_line, np.ones(1), np.full(1, 3.0), 3.0),
            (_line, -np.ones(1), np.ones(1), 1.0),
        ]
        calls = []
        assert _search(entries, 4.0, counted=calls) == [4.0, 4.0, 4.0]
        assert calls == [0.0, 4.0]

    def test_last_trial_is_two_to_the_minus_sixty(self):
        # from b = 1 along d, 5 b'b passes only at eta d <= 2 (1 - 1e-4)
        far = (_bowl, np.ones(1), np.full(1, 2.0**60), 10.0 * 2.0**60)
        assert _search([far], 4.0) == [2.0**-60]
        farther = (_bowl, np.ones(1), np.full(1, 2.0**61), 10.0 * 2.0**61)
        with pytest.raises(LineSearchFailed):
            _search([farther], 4.0)

    def test_decrease_below_resolution_takes_one(self):
        # Q(0) = 1000, and every step reads one rounding unit higher: an
        # Armijo decrease 1e-4 slope within eps |Q(0)| cannot show, so its
        # slope takes the unit step; twice that slope searches, and fails
        def rounding(beta):
            return 1e3 * (1.0 + np.finfo(float).eps * (beta[0] != 0.0))

        bound = np.finfo(float).eps * 1e3 / 1e-4
        assert _search([(rounding, np.zeros(1), np.ones(1), 0.5 * bound)], 4.0) == [1.0]
        with pytest.raises(LineSearchFailed):
            _search([(rounding, np.zeros(1), np.ones(1), 2.0 * bound)], 4.0)

    @settings(deadline=None, max_examples=300)
    @given(
        shapes=st.lists(
            st.tuples(st.floats(0.01, 10.0), st.floats(-5.0, 5.0), st.floats(0.0, 5.0)),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
        max_step=st.floats(1.0, 16.0),
    )
    def test_equals_the_doubling_search_on_convex_lines(self, shapes, seed, max_step):
        # a stack of convex q(b) = a softplus(b x) + c x'x, each searched
        # along a random descent direction from a random start
        rng = np.random.default_rng(seed)
        entries = []
        for a, b, c in shapes:
            def q(x, a=a, b=b, c=c):
                return float(a * np.sum(np.logaddexp(0.0, b * x)) + c * x @ x)

            x = rng.normal(scale=3.0, size=3)
            grad = a * b * expit(b * x) + 2.0 * c * x
            direction = grad + rng.normal(scale=0.5 * np.linalg.norm(grad), size=3)
            slope = float(grad @ direction)
            assume(1e-4 * slope > 1e-12 * abs(q(x)))  # well above Q's resolution
            entries.append((q, x, direction, slope))
        assert _search(entries, max_step) == [
            _armijo_by_hand(q, x, d, s, max_step) for q, x, d, s in entries
        ]

    def test_entry_never_accepted_raises(self):
        # along d = -1 the line only rises, although the slope claims descent
        climbs = (_line, np.zeros(1), -np.ones(1), 1.0)
        with pytest.raises(LineSearchFailed, match="no acceptable step after 60 shrinks"):
            _search([_GROWS, climbs, _SHRINKS], 4.0)


def _reference_fit(data, problem, hp, whitener):
    """The fit loop written out step by step, with the map A of the update
    spelled out: ``S^{-1/2}`` with a whitener, the identity without.

    When the step size is not fixed, each step takes the full smoothed
    gradient and searches along the noise-free clipped direction, with the
    Armijo search written out below on the scaled smoothed cost.
    """

    def q(beta):
        cost = smoothed_empirical_cost(problem, data, beta, hp.kernel, hp.bandwidth)
        return cost / problem.total_cost

    a = np.eye(data.p) if whitener is None else whitener.inv_sqrt
    rows = clip(data.features @ a, hp.clip_radius)
    beta = np.zeros(data.p)
    noise = NoiseSource(hp.seed)
    trajectory = [beta]
    for _ in range(hp.n_steps):
        weights = kernels.scaled_cdf(
            hp.kernel, data.features @ beta - data.demands, hp.bandwidth
        ) - problem.tau
        summed = rows.T @ weights
        eta = hp.step_size
        if eta is None:
            grad = smoothed_gradient(problem, data, beta, hp.kernel, hp.bandwidth)
            direction = a @ summed / data.n
            eta = _armijo_by_hand(
                q, beta, direction, float(grad @ direction), hp.max_step_size
            )
        g = noise.standard_normal(data.p)
        beta = beta - (eta / data.n) * (a @ (summed + hp.sigma * g))
        trajectory.append(beta)
    return np.array(trajectory)


class TestFit:
    def test_zero_steps_returns_start(self, instance):
        data, problem, whitener = instance
        hp = HyperParams(bandwidth=0.2, n_steps=0)
        res = fit(data, problem, hp, whitener=whitener)
        np.testing.assert_array_equal(res.beta_final, np.zeros(data.p))

    def test_missing_whitener_raises_before_any_step(self, instance):
        data, problem, _ = instance
        for n_steps in (0, 3):
            hp = HyperParams(bandwidth=0.2, n_steps=n_steps, mode="known_sigma_matrix")
            with pytest.raises(MissingWhitener):
                fit(data, problem, hp)

    @pytest.mark.parametrize("step_size", [None, 0.5], ids=["linesearch", "fixed"])
    @pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
    def test_matches_reference_loop_bitwise(self, instance, mode, step_size):
        data, problem, whitener = instance
        whitener = whitener if mode == "known_sigma_matrix" else None
        hp = HyperParams(
            bandwidth=0.15, n_steps=6, clip_radius=2.0, step_size=step_size,
            sigma=3.0, seed=4, mode=mode,
        )
        res = fit(data, problem, hp, whitener=whitener)
        trajectory = _reference_fit(data, problem, hp, whitener)
        assert res.trajectory.tobytes() == trajectory.tobytes()

    @pytest.mark.parametrize("step_size", [None, 0.5], ids=["linesearch", "fixed"])
    def test_raw_covariates_is_the_identity_map(self, instance, step_size):
        data, problem, _ = instance
        base = dict(bandwidth=0.15, n_steps=6, clip_radius=2.0, step_size=step_size,
                    sigma=3.0, seed=4)
        eye = Whitener(np.eye(data.p), np.eye(data.p))
        raw = fit(data, problem, HyperParams(mode="raw_covariates", **base))
        known = fit(data, problem, HyperParams(mode="known_sigma_matrix", **base),
                    whitener=eye)
        assert raw.trajectory.tobytes() == known.trajectory.tobytes()

    @pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
    def test_fixed_step_fit_clips_once_and_weighs_once_per_step(
        self, instance, monkeypatch, mode
    ):
        data, problem, whitener = instance
        calls = {"clip": 0, "cdf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optimizer, "clip", counted("clip", optimizer.clip))
        # every CDF evaluation, the lockstep's and scaled_cdf's, goes through it
        monkeypatch.setattr(
            kernels, "_standard_cdf", counted("cdf", kernels._standard_cdf)
        )
        hp = HyperParams(
            bandwidth=0.15, n_steps=7, clip_radius=2.0, step_size=0.5, sigma=1.0,
            mode=mode,
        )
        fit(data, problem, hp, whitener=whitener if mode == "known_sigma_matrix" else None)
        assert calls == {"clip": 1, "cdf": 7}

    def test_deterministic_given_seed(self, instance):
        data, problem, whitener = instance
        hp = HyperParams(
            bandwidth=0.15, n_steps=10, clip_radius=2.0, sigma=13.0, seed=5,
            mode="known_sigma_matrix",
        )
        a = fit(data, problem, hp, whitener=whitener)
        b = fit(data, problem, hp, whitener=whitener)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)

    def test_trajectory_ends_at_final(self, instance):
        data, problem, whitener = instance
        hp = HyperParams(
            bandwidth=0.15, n_steps=4, clip_radius=2.0, sigma=3.0, seed=1,
            mode="known_sigma_matrix",
        )
        res = fit(data, problem, hp, whitener=whitener)
        assert res.trajectory.shape == (5, data.p)
        np.testing.assert_array_equal(res.trajectory[-1], res.beta_final)

    @pytest.mark.parametrize("step_size", [None, 0.5], ids=["linesearch", "fixed"])
    @pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
    def test_shorter_fit_is_a_prefix_of_the_path(self, mode, step_size):
        # T steps draw T noise rows, and a (t, p) draw is the first t rows
        # of the (T, p) one, so a t-step fit stops at the path's t-th iterate
        spec = default_spec(300, "t3", seed=8)
        data, problem = generate_synthetic(spec), Problem.from_quantile(0.7)
        whitener = whitener_from(spec) if mode == "known_sigma_matrix" else None
        base = dict(bandwidth=0.2, clip_radius=2.0, step_size=step_size, sigma=2.0,
                    seed=3, mode=mode)
        path = fit(data, problem, HyperParams(n_steps=8, **base), whitener=whitener).trajectory
        for t in range(9):
            res = fit(data, problem, HyperParams(n_steps=t, **base), whitener=whitener)
            assert res.beta_final.tobytes() == path[t].tobytes(), t

    def test_noise_free_matches_erm(self):
        spec = default_spec(500, "normal", seed=3)
        data = generate_synthetic(spec)
        problem = Problem.from_quantile(0.5)
        bw = default_bandwidth(0.5, data.n, data.p)
        hp = HyperParams(bandwidth=bw, n_steps=500, sigma=0.0, mode="raw_covariates")
        res = fit(data, problem, hp)
        baseline = smoothed_erm(data, problem, "gaussian", bw)
        assert np.linalg.norm(res.beta_final - baseline) <= 1e-4

    def test_monotone_descent_without_noise(self, instance):
        data, problem, _ = instance
        bw = 0.2
        hp = HyperParams(bandwidth=bw, n_steps=40, sigma=0.0, mode="raw_covariates")
        res = fit(data, problem, hp)
        values = [
            smoothed_empirical_cost(problem, data, beta, "gaussian", bw)
            for beta in res.trajectory
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_clipping_inactive_is_bitwise_identical(self, instance):
        data, problem, whitener = instance
        w = data.features @ whitener.inv_sqrt
        big = float(np.linalg.norm(w, axis=1).max()) + 1.0
        base = dict(bandwidth=0.15, n_steps=8, sigma=4.0, seed=9,
                    step_size=0.8, mode="known_sigma_matrix")
        res_finite = fit(data, problem, HyperParams(clip_radius=big, **base), whitener=whitener)
        res_inf = fit(data, problem, HyperParams(clip_radius=math.inf, **base), whitener=whitener)
        np.testing.assert_array_equal(res_finite.beta_final, res_inf.beta_final)

    def test_certificate_attached_when_calibrated(self, instance):
        data, problem, whitener = instance
        sigma = calibrate_sigma(0.5, 2.0, 10, 0.5, round_up=True)
        hp = HyperParams(
            bandwidth=0.15, n_steps=10, clip_radius=2.0, mu=0.5, sigma=sigma,
            mode="known_sigma_matrix",
        )
        res = fit(data, problem, hp, whitener=whitener)
        assert res.certificate is not None
        assert res.certificate.mu == 0.5
        assert res.certificate.sigma == 13

    def test_certificate_unavailable_when_sigma_low(self, instance, monkeypatch):
        data, problem, whitener = instance
        hp = HyperParams(
            bandwidth=0.15, n_steps=10, clip_radius=2.0, mu=0.5, sigma=1.0,
            mode="known_sigma_matrix",
        )
        monkeypatch.setattr(optimizer, "_lockstep_fits", _no_steps)
        with pytest.raises(ValueError, match="below the calibration bound"):
            fit(data, problem, hp, whitener=whitener, noise=_Untouched())

    def test_certificate_within_calibration_slack(self, instance, monkeypatch):
        # the fit certifies exactly the noise scales PrivacyCertificate accepts,
        # and refuses the others before it draws noise or takes a step
        data, problem, whitener = instance
        bound = calibrate_sigma(0.5, 2.0, 10, 0.5)
        base = dict(bandwidth=0.15, n_steps=10, clip_radius=2.0, mu=0.5,
                    step_size=0.5, mode="known_sigma_matrix")
        res = fit(data, problem, HyperParams(sigma=bound * (1 - 1e-13), **base),
                  whitener=whitener)
        assert res.certificate is not None
        monkeypatch.setattr(optimizer, "_lockstep_fits", _no_steps)
        for change, match in (({"sigma": bound * (1 - 1e-11)}, "below the calibration bound"),
                              ({"n_steps": 0}, "n_steps must be >= 1"),
                              ({"clip_radius": math.inf}, "clip_radius must be finite")):
            hp = HyperParams(**{**base, "sigma": bound, **change})
            with pytest.raises(ValueError, match=match):
                fit(data, problem, hp, whitener=whitener, noise=_Untouched())

    def test_epanechnikov_warns(self, instance):
        data, problem, _ = instance
        hp = HyperParams(bandwidth=0.2, n_steps=1, sigma=0.0, kernel="epanechnikov",
                         step_size=0.5, mode="raw_covariates")
        with pytest.warns(RuntimeWarning, match="epanechnikov"):
            fit(data, problem, hp)
        # a single step is a step of the same loop, so it warns too
        with pytest.warns(RuntimeWarning, match="epanechnikov"):
            noisy_step(np.zeros(data.p), data, problem, hp, np.zeros(data.p))

    def test_per_step_budgets_compose_to_target(self):
        from dpnewsvendor.privacy import compose_gdp

        mu, steps = 0.5, 10
        sigma = calibrate_sigma(mu, 2.0, steps, 0.5)
        per_step = 2 * 0.5 * 2.0 / sigma  # each step is (2 tau_bar B / sigma)-GDP
        assert compose_gdp([per_step] * steps) == pytest.approx(mu, abs=1e-12)


def _armijo_by_hand(q, beta, direction, slope, max_step):
    """Armijo backtracking written out: halve from 1 until accepted, or
    double an accepted unit step while accepted, up to ``max_step``."""
    if slope <= 0.0:
        return 1.0

    def accepted(eta):
        return q(beta - eta * direction) <= q(beta) - 1e-4 * eta * slope

    eta = 1.0
    if not accepted(eta):
        for _ in range(60):
            eta *= 0.5
            if accepted(eta):
                return eta
        raise AssertionError("no acceptable step")
    while 2.0 * eta <= max_step and accepted(2.0 * eta):
        eta *= 2.0
    return eta


class TestLineSearchDirection:
    def test_known_sigma_matrix_searches_along_the_mapped_direction(self):
        # a strongly anisotropic Sigma: the whitened direction S^{-1/2} v
        # and the unmapped v take different steps
        spec = SyntheticSpec(
            theta_star=(1.0, 0.5, -2.0, 3.0),
            covariance=np.diag([25.0, 1.0, 0.01]),
            error_dist=ErrorDist.normal(),
            n=300,
            seed=6,
        )
        data = generate_synthetic(spec)
        problem = Problem.from_quantile(0.7)
        whitener = whitener_from(spec)
        hp = HyperParams(
            bandwidth=0.3, n_steps=8, clip_radius=2.0, sigma=1.0, seed=3,
            mode="known_sigma_matrix", max_step_size=8.0,
        )
        path = fit(data, problem, hp, whitener=whitener).trajectory
        x, d, n, h, tau = data.features, data.demands, data.n, hp.bandwidth, problem.tau
        s_inv_sqrt = whitener.inv_sqrt
        rows = x @ s_inv_sqrt
        rows = rows / np.maximum(1.0, np.linalg.norm(rows, axis=1) / hp.clip_radius)[:, None]
        noise = hp.sigma * NoiseSource(hp.seed).standard_normal((hp.n_steps, data.p))

        def q(beta):
            # the gaussian-smoothed check loss in closed form
            u = d - x @ beta
            density = np.exp(-0.5 * (u / h) ** 2) / np.sqrt(2 * np.pi)
            return np.mean(u * (tau - ndtr(-u / h)) + h * density)

        steps = []
        for t in range(hp.n_steps):
            beta = path[t]
            w = ndtr((x @ beta - d) / h) - tau
            direction = s_inv_sqrt @ (rows.T @ w) / n
            slope = float((x.T @ w / n) @ direction)
            eta = _armijo_by_hand(q, beta, direction, slope, hp.max_step_size)
            update = s_inv_sqrt @ (rows.T @ w + noise[t]) / n
            taken = (beta - path[t + 1]) @ update / (update @ update)
            assert taken == pytest.approx(eta, rel=1e-9), t
            steps.append(eta)
        assert len(set(steps)) > 1


class TestSmoothedErm:
    def test_symmetric_demands_give_zero(self):
        data = Dataset(demands=[-1.0, 1.0], features=[[1.0], [1.0]])
        problem = Problem.from_quantile(0.5)
        beta = smoothed_erm(data, problem, "gaussian", 0.5, tol=1e-10)
        assert abs(beta[0]) < 1e-8

    def test_local_optimality(self, instance):
        data, problem, _ = instance
        bw = 0.2
        beta = smoothed_erm(data, problem, "gaussian", bw)
        best = smoothed_empirical_cost(problem, data, beta, "gaussian", bw)
        rng = np.random.default_rng(2)
        for _ in range(50):
            delta = rng.standard_normal(data.p)
            delta *= 0.01 / np.linalg.norm(delta)
            assert smoothed_empirical_cost(
                problem, data, beta + delta, "gaussian", bw
            ) >= best - 1e-12

    def test_matches_grid_oracle_one_dim(self):
        data = Dataset(
            demands=[0.2, 1.0, 1.5, 2.2, 3.1], features=[[1.0]] * 5
        )
        problem = Problem.from_quantile(0.3)
        bw = 0.4
        beta = smoothed_erm(data, problem, "logistic", bw)
        grid = np.linspace(-1, 4, 50_001)
        losses = [
            smoothed_empirical_cost(problem, data, np.array([g]), "logistic", bw)
            for g in grid
        ]
        coarse = grid[int(np.argmin(losses))]
        fine = np.linspace(coarse - 2e-4, coarse + 2e-4, 40_001)
        losses = [
            smoothed_empirical_cost(problem, data, np.array([g]), "logistic", bw)
            for g in fine
        ]
        oracle = fine[int(np.argmin(losses))]
        assert beta[0] == pytest.approx(oracle, abs=1e-5)

    def test_max_iter_exceeded(self, instance):
        # the message names the last gradient norm, so a stall at the
        # objective's float resolution shows against tol
        data, problem, _ = instance
        with pytest.raises(MaxIterExceeded, match=r"gradient norm \d\S* still above 1e-14"):
            smoothed_erm(data, problem, "gaussian", 0.2, tol=1e-14, max_iter=2)

    @pytest.mark.parametrize("base_seed", [3983984860010017280, 4254483093876272939])
    def test_harness_designs_that_stalled_converge(self, base_seed):
        # n = 40 mixture-noise designs whose gradient norm stalled just above
        # tol: the Newton decrease fell below Q's rounding, so the search
        # refused the unit step until MaxIterExceeded after 10,000 iterations
        config = ReplicationConfig(
            problem=Problem.from_quantile(0.5),
            error_dist=ErrorDist.from_name("mixture"),
            n=40,
            theta_star=DEFAULT_THETA_STAR,
            covariance=ar1_covariance(len(DEFAULT_THETA_STAR) - 1, 0.5),
            mu_grid=(None, 0.5),
            eval_n=1,
            base_seed=base_seed,
        )
        assert len(run_replications(config, R=2).rows) == 4

    def test_rescaled_feature_gives_rescaled_coefficient(self, instance):
        # Newton steps are scale-equivariant: scaling a column by 1e3 scales
        # its coefficient by 1e-3
        data, problem, _ = instance
        scaled = data.features.copy()
        scaled[:, 2] *= 1e3
        beta = smoothed_erm(data, problem, "gaussian", 0.2)
        beta_scaled = smoothed_erm(
            Dataset(demands=data.demands, features=scaled), problem, "gaussian", 0.2
        )
        beta_scaled[2] *= 1e3
        np.testing.assert_allclose(beta_scaled, beta, rtol=0.0, atol=1e-6)

    def test_newton_path(self, monkeypatch):
        data = generate_synthetic(default_spec(400, "normal", seed=3))
        problem = Problem.from_quantile(0.5)
        bw = default_bandwidth(0.5, data.n, data.p)
        calls = []
        hessian = model.smoothed_hessian

        def counting_hessian(*args, **kwargs):
            calls.append(1)
            return hessian(*args, **kwargs)

        monkeypatch.setattr(model, "smoothed_hessian", counting_hessian)
        tol = 1e-8
        beta = smoothed_erm(data, problem, "gaussian", bw, tol=tol)
        assert 1 <= len(calls) <= 10
        assert np.linalg.norm(smoothed_gradient(problem, data, beta, "gaussian", bw)) <= tol

    @pytest.mark.parametrize(
        "kernel, tau, dist, n",
        [
            ("gaussian", 0.5, "normal", 400),
            ("logistic", 0.9, "t3", 60),
            ("epanechnikov", 0.1, "normal", 400),
            ("uniform", 0.05, "t3", 60),
        ],
    )
    def test_no_coefficients_are_scored_twice(self, monkeypatch, kernel, tau, dist, n):
        # each search starts from the cost its predecessor's passing trial
        # gave the new iterate, so no cost is taken twice
        data = generate_synthetic(default_spec(n, dist, seed=5))
        problem = Problem.from_quantile(tau)
        scored, costs = [], optimizer._scaled_costs

        def recorded(x, demands, problem, kernel, bandwidth, betas):
            scored.append(betas.tobytes())
            return costs(x, demands, problem, kernel, bandwidth, betas)

        monkeypatch.setattr(optimizer, "_scaled_costs", recorded)
        bw = default_bandwidth(tau, data.n, data.p)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "the epanechnikov kernel has zero", RuntimeWarning)
            smoothed_erm(data, problem, kernel, bw)
        assert len(scored) >= 3
        assert len(set(scored)) == len(scored)

    def test_zero_hessian_at_start(self):
        # at the least-squares start 0 both residuals lie outside the
        # uniform kernel's support, so the Hessian is exactly zero and the
        # first direction comes from the shift alone
        data = Dataset(demands=[-1.0, 1.0], features=[[1.0], [1.0]])
        problem = Problem.from_quantile(0.9)
        assert not model.smoothed_hessian(problem, data, np.zeros(1), "uniform", 0.1).any()
        tol = 1e-8
        beta = smoothed_erm(data, problem, "uniform", 0.1, tol=tol)
        assert np.linalg.norm(smoothed_gradient(problem, data, beta, "uniform", 0.1)) <= tol
        assert beta[0] == pytest.approx(1.06, abs=1e-6)

    def test_singular_hessian_on_small_scale_features(self):
        # a bandwidth far below the residual spread leaves the Hessian
        # singular at most iterates; the shift is measured in the metric of
        # X'X/n, so columns of scale 0.1 slow the iteration no more than
        # columns of scale 1
        rng = np.random.default_rng(8)
        x = np.column_stack([np.ones(8), 0.1 * rng.normal(size=(8, 2))])
        d = x @ rng.normal(size=3) + rng.normal(size=8)
        data = Dataset(demands=d, features=x)
        problem = Problem.from_quantile(0.05)
        tol = 1e-8
        beta = smoothed_erm(data, problem, "uniform", 0.005, tol=tol)
        assert np.linalg.norm(smoothed_gradient(problem, data, beta, "uniform", 0.005)) <= tol

    @pytest.mark.parametrize("s", [8, 10])
    def test_tiny_bandwidth_uniform_kernel_converges(self, s):
        # the Hessian is singular at most iterates and nearly so at the
        # rest; the shifted Newton step must still reach tol within max_iter
        rng = np.random.default_rng([8, s])
        x = np.column_stack([np.ones(8), 0.1 * rng.normal(size=(8, 2))])
        d = x @ rng.normal(size=3) + rng.normal(size=8)
        data = Dataset(demands=d, features=x)
        problem = Problem.from_quantile(0.05)
        tol = 1e-8
        beta = smoothed_erm(data, problem, "uniform", 0.005, tol=tol)
        assert np.linalg.norm(smoothed_gradient(problem, data, beta, "uniform", 0.005)) <= tol

    def test_tiny_bandwidth_logistic_kernel_stays_finite(self):
        # with steps of at most one Newton step no iterate goes where the
        # logistic kernel overflows; pytest turns that RuntimeWarning into
        # an error
        rng = np.random.default_rng(316)
        x = np.column_stack([np.ones(8), rng.normal(size=(8, 2))])
        rng.normal(size=8)
        d = x @ np.array([1.0, 1.0, -2.0]) + rng.standard_t(3, 8)
        data = Dataset(demands=d, features=x)
        problem = Problem.from_quantile(0.95)
        tol = 1e-8
        beta = smoothed_erm(data, problem, "logistic", 0.005, tol=tol)
        assert np.linalg.norm(smoothed_gradient(problem, data, beta, "logistic", 0.005)) <= tol
