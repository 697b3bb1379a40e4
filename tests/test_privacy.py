"""GDP trade-off curves, composition, calibration, conversions."""

import math

import mpmath
import numpy as np
import pytest

from dpnewsvendor.errors import AlphaOutOfRange, NegativeBudget, NonPositiveMu
from dpnewsvendor.privacy import (
    EpsDelta,
    PrivacyCertificate,
    calibrate_sigma,
    compose_gdp,
    eps_delta_tradeoff,
    gdp_delta_at_eps,
    gdp_to_eps_delta,
    gdp_tradeoff,
    one_step_sensitivity,
)

from conftest import normal_cdf_oracle, normal_quantile_oracle


class TestGdpTradeoff:
    def test_perfect_privacy_is_diagonal(self):
        assert gdp_tradeoff(0.0, 0.3) == pytest.approx(0.7, abs=1e-12)

    def test_mu_one_at_half(self):
        assert gdp_tradeoff(1.0, 0.5) == pytest.approx(normal_cdf_oracle(-1.0), abs=1e-10)

    def test_boundaries(self):
        assert gdp_tradeoff(0.7, 0.0) == 1.0
        assert gdp_tradeoff(0.7, 1.0) == 0.0

    def test_oracle_on_grid(self):
        # G_mu(alpha) = Phi(Phi^{-1}(1 - alpha) - mu) by independent arithmetic
        for mu in (0.3, 1.0, 3.0):
            for alpha in (0.01, 0.2, 0.5, 0.8, 0.99):
                want = normal_cdf_oracle(normal_quantile_oracle(1 - alpha) - mu)
                assert gdp_tradeoff(mu, alpha) == pytest.approx(want, abs=1e-10)

    def test_valid_tradeoff_shape(self):
        alphas = np.linspace(0, 1, 501)
        for mu in (0.1, 0.5, 1.0, 4.0):
            vals = gdp_tradeoff(mu, alphas)
            assert np.all(np.diff(vals) <= 1e-12)  # non-increasing
            assert np.all(vals <= 1 - alphas + 1e-12)
            chords = 0.5 * (vals[:-2] + vals[2:])  # convexity on the even grid
            assert np.all(vals[1:-1] <= chords + 1e-12)
            assert np.all((0 <= vals) & (vals <= 1))

    def test_dominance_in_mu(self):
        alphas = np.linspace(0, 1, 101)
        lo = gdp_tradeoff(0.4, alphas)
        hi = gdp_tradeoff(1.7, alphas)
        assert np.all(lo >= hi - 1e-12)

    def test_validation(self):
        with pytest.raises(AlphaOutOfRange):
            gdp_tradeoff(1.0, 1.5)
        with pytest.raises(NegativeBudget):
            gdp_tradeoff(-0.1, 0.5)


class TestComposeGdp:
    def test_three_four_five(self):
        assert compose_gdp([0.3, 0.4]) == pytest.approx(0.5, rel=1e-15)

    def test_per_step_budgets_recombine(self):
        for mu in (0.3, 0.5, 0.9):
            for t in (1, 10, 100):
                assert compose_gdp([mu / math.sqrt(t)] * t) == pytest.approx(
                    mu, abs=1e-12
                )

    def test_empty(self):
        assert compose_gdp([]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeBudget):
            compose_gdp([0.5, -0.1])


class TestCalibrateSigma:
    def test_rounded_values(self):
        assert calibrate_sigma(0.5, 2, 10, 0.5, round_up=True) == 13
        assert calibrate_sigma(0.5, 2, 10, 0.75, round_up=True) == 19

    def test_unrounded_value(self):
        assert calibrate_sigma(0.5, 2, 10, 0.5) == pytest.approx(
            4 * math.sqrt(10), rel=1e-15
        )

    def test_identity_when_mu_matches(self):
        mu = 2 * 0.6 * 3 * math.sqrt(7)
        assert calibrate_sigma(mu, 3, 7, 0.6) == pytest.approx(1.0, rel=1e-12)

    def test_calibration_inverse(self):
        for mu in (0.17, 0.5, 1.3):
            sigma = calibrate_sigma(mu, 2, 10, 0.75)
            recovered = 2 * 0.75 * 2 * math.sqrt(10) / sigma
            assert recovered == pytest.approx(mu, abs=1e-12)

    def test_validation(self):
        with pytest.raises(NonPositiveMu):
            calibrate_sigma(0.0, 2, 10, 0.5)
        for round_up in (False, True):
            with pytest.raises(NonPositiveMu, match="mu must be finite and > 0, got inf"):
                calibrate_sigma(math.inf, 2, 10, 0.5, round_up=round_up)
        with pytest.raises(ValueError):
            calibrate_sigma(0.5, 0.5, 10, 0.5)
        with pytest.raises(ValueError):
            calibrate_sigma(0.5, 2, 0, 0.5)
        with pytest.raises(ValueError):
            calibrate_sigma(0.5, 2, 10, 0.4)

    @pytest.mark.parametrize("round_up", [False, True])
    def test_infinite_clip_radius_rejected(self, round_up):
        with pytest.raises(ValueError, match="clip_radius must be finite"):
            calibrate_sigma(0.5, math.inf, 10, 0.5, round_up=round_up)


class TestOneStepSensitivity:
    def test_arithmetic(self):
        assert one_step_sensitivity(1.0, 2.0, 0.5, 100) == pytest.approx(0.02)
        assert one_step_sensitivity(0.1, 1.0, 0.75, 500) == pytest.approx(0.0003)

    def test_linear_in_inverse_n(self):
        a = one_step_sensitivity(1.0, 2.0, 0.5, 100)
        b = one_step_sensitivity(1.0, 2.0, 0.5, 1000)
        assert b == pytest.approx(a / 10, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            one_step_sensitivity(0.0, 2.0, 0.5, 100)


class TestEpsDeltaConversion:
    def test_mu_one(self):
        ed = gdp_to_eps_delta(1.0)
        assert ed.epsilon == 1.0
        assert ed.delta == pytest.approx(0.1269367375066439, abs=1e-10)

    def test_against_high_precision_oracle(self):
        for mu in (0.25, 0.5, 1.0, 2.0):
            want = float(
                mpmath.ncdf(-1 + mu / 2) - mpmath.e**mu * mpmath.ncdf(-1 - mu / 2)
            )
            assert gdp_to_eps_delta(mu).delta == pytest.approx(want, abs=1e-10)

    def test_small_mu_limit(self):
        assert gdp_to_eps_delta(1e-6).delta == pytest.approx(0.0, abs=1e-6)

    def test_large_mu_stable(self):
        assert 0.0 <= gdp_to_eps_delta(50.0).delta <= 1.0

    def test_general_eps_curve_decreasing(self):
        mu = 0.8
        deltas = [gdp_delta_at_eps(mu, e) for e in (0.0, 0.4, 0.8, 1.6)]
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))
        assert gdp_delta_at_eps(mu, mu) == gdp_to_eps_delta(mu).delta

    def test_validation(self):
        for mu in (0.0, -0.5, math.nan):
            with pytest.raises(NonPositiveMu, match="mu must be > 0"):
                gdp_to_eps_delta(mu)


class TestEpsDeltaTradeoff:
    def test_no_privacy_loss_diagonal(self):
        ed = EpsDelta(0.0, 0.0)
        assert eps_delta_tradeoff(ed, 0.25) == pytest.approx(0.75)

    def test_both_branches(self):
        ed = EpsDelta(1.0, 0.05)
        want = max(0.0, 1 - math.e * 0.1 - 0.05, math.exp(-1) * 0.85)
        assert eps_delta_tradeoff(ed, 0.1) == pytest.approx(want, rel=1e-12)

    def test_alpha_one_is_zero(self):
        assert eps_delta_tradeoff(EpsDelta(0.7, 0.01), 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(AlphaOutOfRange):
            eps_delta_tradeoff(EpsDelta(1.0, 0.0), -0.2)


class TestTypes:
    def test_eps_delta_validation(self):
        with pytest.raises(ValueError):
            EpsDelta(-0.1, 0.0)
        with pytest.raises(ValueError):
            EpsDelta(1.0, 1.5)

    def test_certificate_accepts_calibrated_sigma(self):
        sigma = calibrate_sigma(0.5, 2, 10, 0.5, round_up=True)
        cert = PrivacyCertificate(
            mu=0.5, sigma=sigma, n_steps=10, clip_radius=2.0, tau_bar=0.5
        )
        assert cert.eps_delta.epsilon == 0.5
        d = cert.as_dict()
        assert d["T"] == 10 and d["B"] == 2.0 and d["sigma"] == 13

    def test_certificate_rejects_insufficient_sigma(self):
        with pytest.raises(ValueError, match="below the calibration bound"):
            PrivacyCertificate(
                mu=0.5, sigma=5.0, n_steps=10, clip_radius=2.0, tau_bar=0.5
            )

    def test_certificate_rejects_nan_sigma(self):
        with pytest.raises(ValueError, match="below the calibration bound"):
            PrivacyCertificate(
                mu=0.5, sigma=math.nan, n_steps=10, clip_radius=2.0, tau_bar=0.5
            )

    def test_certificate_rejects_infinite_sigma(self):
        # meets the bound, but no finite release comes of it
        with pytest.raises(ValueError, match="sigma must be finite, got inf"):
            PrivacyCertificate(
                mu=0.5, sigma=math.inf, n_steps=10, clip_radius=2.0, tau_bar=0.5
            )

    @pytest.mark.parametrize("mu", [0.0, -0.5, math.nan])
    def test_certificate_rejects_nonpositive_mu(self, mu):
        with pytest.raises(NonPositiveMu, match="mu must be > 0"):
            PrivacyCertificate(mu=mu, sigma=20.0, n_steps=10, clip_radius=2.0, tau_bar=0.5)

    def test_certificate_rejects_infinite_mu(self):
        with pytest.raises(NonPositiveMu, match="mu must be finite and > 0, got inf"):
            PrivacyCertificate(mu=math.inf, sigma=20.0, n_steps=10, clip_radius=2.0, tau_bar=0.5)

    def test_certificate_exact_boundary(self):
        sigma = calibrate_sigma(0.9, 2, 10, 0.6)
        PrivacyCertificate(mu=0.9, sigma=sigma, n_steps=10, clip_radius=2.0, tau_bar=0.6)
