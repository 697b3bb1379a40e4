"""Empirical privacy audit of the released last iterate.

Two neighbouring datasets differ in one canary row.  Many private fits
run on each, and the released coefficients are reduced to one number
each by projecting them onto the direction between the two mean
outputs, estimated from the other half of the runs.  If the fit is
mu-GDP, that projection is too, so on the held-out half two statistics
stay below mu up to sampling error: the mean gap over the pooled
standard deviation, and ``sqrt(2) * Phi^-1(AUC)``, since a mu-GDP
release has AUC <= Phi(mu / sqrt(2)) for every test.

Two canaries, with ``x = (1, x_1, 0, ...)``:

* the sign canary, ``x_1 = 10`` and demand +1e6 or -1e6: the residual's
  sign, and so the gradient weight, flips at every step, as far apart
  as the calibration allows;
* the kink canary, ``x_1 = 1000`` and demand 0 or 1e6: with demand 0 the
  row sits on the smoothed kink at the zero start and adds curvature, so
  a line search halves its step there, while with demand 1e6 its loss is
  linear in beta.  A fixed step cannot tell them apart.

The audit gives a lower bound only: it looks at the last iterate with
one canary and two test statistics, while the certificate covers the
whole trajectory against every neighbour, so passing it is necessary,
not sufficient.  The line search that ``dpnv fit --mu`` runs by default
(``--eta0 auto``, raw covariates) reads the data for its step sizes and
is outside the certificate; the kink canary shows it, far above mu.
"""

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import rankdata

from dpnewsvendor import optimizer
from dpnewsvendor.data import default_spec, generate_synthetic, whitener_from
from dpnewsvendor.model import Problem
from dpnewsvendor.optimizer import HyperParams, default_bandwidth
from dpnewsvendor.privacy import calibrate_sigma

MU = 0.5
RUNS = 1_500  # fits per neighbour
BOOTSTRAPS = 400
SIGN_CANARY = (10.0, (1e6, -1e6))  # (x_1, the two neighbours' demands)
KINK_CANARY = (1000.0, (0.0, 1e6))


def _neighbours(spec, canary=SIGN_CANARY):
    """The design's training set with row 0 replaced by the canary row
    ``x = (1, x_1, 0, ...)``, once with each of its two demands, as one
    stack: ``(2, n, p)`` features and ``(2, n)`` demands."""
    x_1, demands = canary
    data = generate_synthetic(spec)
    x = np.array(data.features)
    x[0] = 0.0
    x[0, :2] = (1.0, x_1)
    d = np.array([data.demands, data.demands])
    d[:, 0] = demands
    return np.stack([x, x]), d


def _held_out(mode, sigma, seed=0, canary=SIGN_CANARY, step_size=2.0, runs=RUNS):
    """The projections of the held-out half of each neighbour's last
    iterates, and the generator that drew their noise."""
    spec = default_spec(400, "normal", seed=11)
    problem = Problem.from_quantile(0.5)
    hp = HyperParams(
        bandwidth=default_bandwidth(problem.tau, spec.n, spec.p),
        n_steps=10,
        clip_radius=2.0,
        step_size=step_size,
        mode=mode,
    )
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal((hp.n_steps, 2, spec.p, runs))
    x, d = _neighbours(spec, canary)
    betas = optimizer._lockstep_fits(x, d, problem, hp, whitener_from(spec), noise)[-1]
    half = runs // 2
    direction = betas[0, :, :half].mean(axis=1) - betas[1, :, :half].mean(axis=1)
    return direction @ betas[0, :, half:], direction @ betas[1, :, half:], rng


def _mean_gap(a, b):
    pooled = np.sqrt(0.5 * (a.var(axis=-1, ddof=1) + b.var(axis=-1, ddof=1)))
    return (a.mean(axis=-1) - b.mean(axis=-1)) / pooled


def _auc(a, b):
    """``sqrt(2) * Phi^-1(AUC)``, the AUC being the share of pairs with
    ``a > b``, from the rank sum of ``a``, clamped to ``1 - 1/(2m)`` for
    ``m`` values of ``a``: fully separated samples would give an infinite
    mu_hat and, among bootstrap resamples, a nan standard error.  The clamp
    only lowers mu_hat, so it never helps a power test pass."""
    m, n = a.shape[-1], b.shape[-1]
    ranks = rankdata(np.concatenate([a, b], axis=-1), axis=-1)[..., :m]
    auc = (ranks.sum(axis=-1) - m * (m + 1) / 2) / (m * n)
    return np.sqrt(2.0) * ndtri(np.minimum(auc, 1.0 - 0.5 / m))


def _mu_hat(statistic, plus, minus, rng) -> tuple[float, float]:
    """``statistic`` of the held-out projections and its bootstrap
    standard error."""
    picks = rng.integers(0, len(plus), size=(2, BOOTSTRAPS, len(plus)))
    spread = statistic(plus[picks[0]], minus[picks[1]]).std(ddof=1)
    return float(statistic(plus, minus)), float(spread)


def _audit(mode: str, sigma: float, seed: int = 0) -> tuple[float, float]:
    """``mu_hat`` of the last iterate by the mean gap against the sign
    canary, and its bootstrap standard error."""
    return _mu_hat(_mean_gap, *_held_out(mode, sigma, seed))


def _audits(mode, sigma, **settings) -> dict[str, tuple[float, float]]:
    """``(mu_hat, standard error)`` by each statistic, from one set of fits."""
    plus, minus, rng = _held_out(mode, sigma, **settings)
    return {
        name: _mu_hat(statistic, plus, minus, rng)
        for name, statistic in (("mean gap", _mean_gap), ("AUC", _auc))
    }


def test_auc_of_separated_samples_is_finite():
    # every pair has a > b, and so has every bootstrap resample
    plus, minus = np.arange(100.0) + 1000.0, np.arange(100.0)
    mu_hat, se = _mu_hat(_auc, plus, minus, np.random.default_rng(0))
    assert mu_hat == pytest.approx(np.sqrt(2.0) * ndtri(1.0 - 1.0 / 200))
    assert np.isfinite(mu_hat) and np.isfinite(se)


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


@pytest.mark.parametrize("mode", ["known_sigma_matrix", "raw_covariates"])
def test_fixed_step_within_certificate_against_the_kink_canary(mode):
    sigma = calibrate_sigma(MU, 2.0, 10, 0.5)
    for name, (mu_hat, se) in _audits(mode, sigma, canary=KINK_CANARY).items():
        assert mu_hat <= MU + 3 * se, (name, mu_hat, se)


def test_kink_canary_catches_a_quarter_of_the_noise():
    # raw covariates only: whitened, these fits read mu_hat 0.71-0.86 over
    # 12 noise seeds, too close to MU + 3 se at RUNS fits to pass on each
    sigma = calibrate_sigma(MU, 2.0, 10, 0.5) / 4
    for name, (mu_hat, se) in _audits("raw_covariates", sigma, canary=KINK_CANARY).items():
        assert mu_hat > MU + 3 * se, (name, mu_hat, se)


def test_audit_catches_the_line_search():
    # the steps of dpnv fit --mu at its defaults: the Armijo search from a
    # cap of 4 on raw covariates, with the noise of a MU-GDP fixed step.
    # Its step, and so its noise scale, differs between the neighbours
    sigma = calibrate_sigma(MU, 2.0, 10, 0.5)
    audits = _audits("raw_covariates", sigma, canary=KINK_CANARY, step_size=None, runs=600)
    for name, (mu_hat, se) in audits.items():
        assert mu_hat > MU + 3 * se, (name, mu_hat, se)
