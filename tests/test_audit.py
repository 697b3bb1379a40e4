"""Empirical privacy audit of the released last iterate.

Two neighbouring datasets differ in one canary row that pushes every
step's clipped gradient as far apart as the calibration allows.  Many
fixed-step private fits run on each, and the released coefficients are
reduced to one number each by projecting them onto the direction
between the two mean outputs, estimated from the other half of the runs.
If the fit is mu-GDP, that projection is too, so the audit's
``mu_hat = mean gap / pooled standard deviation`` stays below mu up to
sampling error.

The audit gives a lower bound only: it looks at the last iterate with one
canary and one test statistic, while the certificate covers the whole
trajectory against every neighbour, so passing it is necessary, not
sufficient.  The line search is not covered: its step sizes read the
data and sit outside the certificate, which is why the fits here use a
fixed step.
"""

import numpy as np
import pytest

from dpnewsvendor import optimizer
from dpnewsvendor.data import default_spec, generate_synthetic, whitener_from
from dpnewsvendor.model import Problem
from dpnewsvendor.optimizer import HyperParams, default_bandwidth
from dpnewsvendor.privacy import calibrate_sigma

MU = 0.5
RUNS = 1_500  # fits per neighbour
BOOTSTRAPS = 400


def _neighbours(spec):
    """The design's training set with row 0 replaced by the canary row
    ``x = (1, 10, 0, ...)``, once with demand +1e6 and once with -1e6, as
    one stack: ``(2, n, p)`` features and ``(2, n)`` demands.  The
    residual's sign, and so the gradient weight, flips at every step."""
    data = generate_synthetic(spec)
    x = np.array(data.features)
    x[0] = 0.0
    x[0, :2] = (1.0, 10.0)
    d = np.array([data.demands, data.demands])
    d[:, 0] = (1e6, -1e6)
    return np.stack([x, x]), d


def _audit(mode: str, sigma: float, seed: int = 0) -> tuple[float, float]:
    """``mu_hat`` of the last iterate and its bootstrap standard error."""
    spec = default_spec(400, "normal", seed=11)
    problem = Problem.from_quantile(0.5)
    hp = HyperParams(
        bandwidth=default_bandwidth(problem.tau, spec.n, spec.p),
        n_steps=10,
        clip_radius=2.0,
        step_size=2.0,
        mode=mode,
    )
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal((hp.n_steps, 2, spec.p, RUNS))
    stack = (*_neighbours(spec), hp.bandwidth)
    betas = optimizer._lockstep_fits([stack], problem, hp, whitener_from(spec), noise)[-1]
    half = RUNS // 2
    direction = betas[0, :, :half].mean(axis=1) - betas[1, :, :half].mean(axis=1)
    plus, minus = direction @ betas[0, :, half:], direction @ betas[1, :, half:]

    def mu_hat(a, b):
        pooled = np.sqrt(0.5 * (a.var(axis=-1, ddof=1) + b.var(axis=-1, ddof=1)))
        return (a.mean(axis=-1) - b.mean(axis=-1)) / pooled

    picks = rng.integers(0, len(plus), size=(2, BOOTSTRAPS, len(plus)))
    spread = mu_hat(plus[picks[0]], minus[picks[1]]).std(ddof=1)
    return float(mu_hat(plus, minus)), float(spread)


@pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
def test_last_iterate_within_certificate(mode):
    sigma = calibrate_sigma(MU, 2.0, 10, 0.5)
    mu_hat, se = _audit(mode, sigma)
    assert mu_hat <= MU + 3 * se, (mu_hat, se)


@pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
def test_audit_catches_a_quarter_of_the_noise(mode):
    # the audit's power: with sigma / 4 the fit is only 2-GDP, not MU-GDP
    sigma = calibrate_sigma(MU, 2.0, 10, 0.5) / 4
    mu_hat, se = _audit(mode, sigma)
    assert mu_hat > MU + 3 * se, (mu_hat, se)
