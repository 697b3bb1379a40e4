"""Kernel densities, CDFs, constants, and the smoothed check loss."""

import math

import numpy as np
import pytest
from scipy import integrate

from dpnewsvendor import kernels
from dpnewsvendor.errors import NonPositiveBandwidth
from dpnewsvendor.kernels import (
    KERNEL_NAMES,
    check_loss,
    constants,
    scaled_cdf,
    scaled_density,
    smoothed_check_loss,
)
from dpnewsvendor.optimizer import HyperParams

from conftest import ORACLE_PDFS, ORACLE_SUPPORT, kernel_moment_oracle, smoothed_loss_oracle

GRID = np.linspace(-10, 10, 801)


def test_unknown_kernel_rejected():
    msg = "unknown kernel 'triangular'; valid kernels: gaussian, laplacian"
    with pytest.raises(ValueError, match=msg):
        scaled_cdf("triangular", 0.0, 1.0)
    with pytest.raises(ValueError, match=msg):
        HyperParams(bandwidth=0.1, n_steps=1, kernel="triangular")


class TestDensity:
    def test_gaussian_at_zero(self):
        assert scaled_density("gaussian", 0.0, 1.0) == pytest.approx(
            1 / math.sqrt(2 * math.pi), abs=1e-15
        )

    def test_uniform_outside_support(self):
        assert scaled_density("uniform", 2.0, 1.0) == 0.0

    def test_epanechnikov_at_zero(self):
        assert scaled_density("epanechnikov", 0.0, 1.0) == 0.75

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_symmetry_nonnegative(self, kind):
        vals = scaled_density(kind, GRID, 1.0)
        np.testing.assert_allclose(vals, scaled_density(kind, -GRID, 1.0), atol=1e-15)
        assert np.all(vals >= 0)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_integrates_to_one(self, kind):
        lo, hi = ORACLE_SUPPORT[kind]
        total, _ = integrate.quad(lambda v: scaled_density(kind, v, 1.0), lo, hi, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_gaussian_at_zero(self):
        assert scaled_cdf("gaussian", 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_midpoint(self):
        assert scaled_cdf("uniform", 0.5, 1.0) == 0.75

    def test_logistic_at_one(self):
        assert scaled_cdf("logistic", 1.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_monotone_with_correct_limits(self, kind):
        vals = scaled_cdf(kind, GRID, 1.0)
        assert np.all(np.diff(vals) >= -1e-15)
        assert scaled_cdf(kind, -1e8, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert scaled_cdf(kind, 1e8, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert scaled_cdf(kind, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_cdf_matches_integrated_density(self, kind):
        for u in (-2.0, -0.4, 0.3, 1.7):
            lo = ORACLE_SUPPORT[kind][0]
            val, _ = integrate.quad(ORACLE_PDFS[kind], lo, u, limit=400)
            assert scaled_cdf(kind, u, 1.0) == pytest.approx(val, abs=1e-9)


class TestScaled:
    def test_gaussian_halved(self):
        assert scaled_density("gaussian", 0.0, 2.0) == pytest.approx(
            0.5 / math.sqrt(2 * math.pi), abs=1e-15
        )

    def test_bandwidth_one_is_identity(self):
        for kind in KERNEL_NAMES:
            np.testing.assert_allclose(
                scaled_density(kind, GRID, 1.0),
                [ORACLE_PDFS[kind](v) for v in GRID],
                rtol=1e-14,
                atol=0,
            )

    def test_uniform_narrow(self):
        assert scaled_density("uniform", 0.25, 0.5) == 1.0

    def test_scaled_cdf_center(self):
        for kind in KERNEL_NAMES:
            assert scaled_cdf(kind, 0.0, 0.37) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    @pytest.mark.parametrize("bandwidth", [0.1, 0.5, 1.0, 2.0])
    def test_scaled_density_integrates_to_one(self, kind, bandwidth):
        lo, hi = ORACLE_SUPPORT[kind]
        total, _ = integrate.quad(
            lambda v: scaled_density(kind, v, bandwidth),
            lo * bandwidth,
            hi * bandwidth,
            limit=400,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(NonPositiveBandwidth):
            scaled_density("gaussian", 0.0, 0.0)
        with pytest.raises(NonPositiveBandwidth):
            scaled_cdf("gaussian", 0.0, -1.0)
        with pytest.raises(NonPositiveBandwidth):
            smoothed_check_loss("gaussian", 0.0, 0.5, -0.5)
        for bandwidth in (math.inf, math.nan):
            with pytest.raises(NonPositiveBandwidth, match="bandwidth must be finite and > 0"):
                scaled_cdf("gaussian", 0.0, bandwidth)


class TestConstants:
    # frozen from the numeric integration oracle
    EXPECTED = {
        "gaussian": (0.3989422804014327, 0.7978845608028654, 1.0, 0.24197072451914337),
        "laplacian": (0.5, 1.0, 2.0, 0.18393972058572117),
        "logistic": (0.25, 1.3862943611198906, 3.289868133696453, 0.19661193324148185),
        "uniform": (0.5, 0.5, 1 / 3, 0.5),
        "epanechnikov": (0.75, 0.375, 0.2, 0.0),
    }

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_values(self, kind):
        c = constants(kind)
        ku, k1, k2, kl = self.EXPECTED[kind]
        assert c.kappa_u == pytest.approx(ku, rel=1e-12)
        assert c.kappa_1 == pytest.approx(k1, rel=1e-12)
        assert c.kappa_2 == pytest.approx(k2, rel=1e-12)
        assert c.kappa_l == pytest.approx(kl, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_against_integration_oracle(self, kind):
        c = constants(kind)
        assert c.kappa_1 == pytest.approx(kernel_moment_oracle(kind, 1), abs=1e-9)
        assert c.kappa_2 == pytest.approx(kernel_moment_oracle(kind, 2), abs=1e-9)
        assert c.kappa_u == pytest.approx(max(scaled_density(kind, GRID, 1.0)), abs=1e-9)
        assert c.kappa_l == pytest.approx(
            min(scaled_density(kind, np.linspace(-1, 1, 4001), 1.0)), abs=1e-9
        )

    def test_positivity_pattern(self):
        for kind in KERNEL_NAMES:
            c = constants(kind)
            assert c.kappa_u > 0 and c.kappa_1 > 0 and c.kappa_2 > 0
            if kind == "epanechnikov":
                assert c.kappa_l == 0.0
            else:
                assert c.kappa_l > 0


class TestSmoothedCheckLoss:
    def test_gaussian_at_origin(self):
        # oracle value: convolution at u=0 equals bandwidth * peak density
        assert smoothed_check_loss("gaussian", 0.0, 0.5, 1.0) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_gaussian_frozen_oracle_value(self):
        # smoothed_loss_oracle("gaussian", 2.0, tau=0.25, bandwidth=0.5)
        assert smoothed_check_loss("gaussian", 2.0, 0.25, 0.5) == pytest.approx(
            0.5000035726, abs=1e-8
        )

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_matches_quadrature_oracle(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            bandwidth = 10 ** rng.uniform(-1.2, 0.4)
            tau = rng.uniform(0.05, 0.95)
            u = rng.uniform(-6, 6)
            got = smoothed_check_loss(kind, u, tau, bandwidth)
            want = smoothed_loss_oracle(kind, u, tau, bandwidth)
            assert got == pytest.approx(want, abs=1e-8), (kind, u, tau, bandwidth)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    @pytest.mark.parametrize("bandwidth", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_sandwich(self, kind, bandwidth, tau):
        gap = 0.5 * constants(kind).kappa_1 * bandwidth
        base = check_loss(tau, GRID)
        smoothed = smoothed_check_loss(kind, GRID, tau, bandwidth)
        assert np.all(smoothed >= base - 1e-12)
        assert np.all(smoothed <= base + gap + 1e-9)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_derivative_identity(self, kind):
        # d/du loss = scaled_cdf(u) - (1 - tau), checked by central differences
        tau, bandwidth = 0.3, 0.7
        u = np.linspace(-4, 4, 101)
        h = 1e-6
        fd = (
            smoothed_check_loss(kind, u + h, tau, bandwidth)
            - smoothed_check_loss(kind, u - h, tau, bandwidth)
        ) / (2 * h)
        analytic = scaled_cdf(kind, u, bandwidth) - (1 - tau)
        np.testing.assert_allclose(fd, analytic, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("kind", KERNEL_NAMES)
    def test_convexity_via_second_derivative(self, kind):
        # second derivative equals the scaled density, hence non-negative
        tau, bandwidth = 0.4, 0.6
        u = np.linspace(-3, 3, 301)
        h = 1e-4
        second = (
            smoothed_check_loss(kind, u + h, tau, bandwidth)
            - 2 * smoothed_check_loss(kind, u, tau, bandwidth)
            + smoothed_check_loss(kind, u - h, tau, bandwidth)
        ) / h**2
        assert np.all(second >= -1e-6)
        smooth_kinds = ("gaussian", "laplacian", "logistic")
        if kind in smooth_kinds:
            np.testing.assert_allclose(
                second, scaled_density(kind, u, bandwidth), atol=1e-4
            )

    def test_far_tail_gap_bounded(self):
        for kind in KERNEL_NAMES:
            gap_bound = 0.5 * constants(kind).kappa_1
            for u in (-1e3, 1e3):
                gap = smoothed_check_loss(kind, u, 0.3, 1.0) - check_loss(0.3, u)
                assert -1e-9 <= gap <= gap_bound + 1e-9

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            smoothed_check_loss("gaussian", 0.0, 0.0, 1.0)
