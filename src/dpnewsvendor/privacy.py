"""Gaussian differential privacy calculus.

Trade-off curves, root-sum-square composition, noise calibration for the
noisy gradient descent fit, and conversion between the GDP parameter
``mu`` and classical (epsilon, delta) guarantees.

All arithmetic anchors on the standard normal CDF and its inverse,
``scipy.special.ndtr`` and ``ndtri``.  The test suite cross-checks the
results against an independent arbitrary-precision implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import AlphaOutOfRange, NegativeBudget, NonPositiveMu


@dataclass(frozen=True)
class EpsDelta:
    """A classical (epsilon, delta) differential privacy guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "delta", float(self.delta))


def gdp_tradeoff(mu: float, alpha):
    """Type-II error lower bound of the mu-GDP trade-off curve.

    ``G_mu(alpha) = Phi(Phi^{-1}(1 - alpha) - mu)``: the smallest type-II
    error any test distinguishing neighboring datasets can achieve at
    type-I level ``alpha``.  Convex, continuous and non-increasing in
    ``alpha``; ``mu = 0`` gives the perfect-privacy line ``1 - alpha``.
    """
    if not mu >= 0.0:
        raise NegativeBudget(f"mu must be >= 0, got {mu}")
    a = np.asarray(alpha, dtype=float)
    if np.any((a < 0.0) | (a > 1.0)):
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    out = special.ndtr(special.ndtri(1.0 - a) - mu)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def compose_gdp(mus) -> float:
    """Privacy level of a composition of GDP mechanisms.

    The composition of mechanisms with levels ``mu_1, ..., mu_k`` is
    GDP at the Euclidean norm ``sqrt(mu_1^2 + ... + mu_k^2)``.
    """
    arr = np.asarray(list(mus), dtype=float)
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0.0):
        raise NegativeBudget("all per-step budgets must be >= 0")
    return float(np.sqrt(np.sum(arr * arr)))


def calibrate_sigma(
    mu: float,
    clip_radius: float,
    n_steps: int,
    tau_bar: float,
    round_up: bool = False,
):
    """Smallest noise scale making the T-step fit mu-GDP.

    Returns ``2 * tau_bar * clip_radius * sqrt(n_steps) / mu``.  With
    ``round_up`` the value is ceiled to the next integer, the convention
    used in the experiment harness.  ``clip_radius`` must be finite: no
    noise scale covers unclipped gradients.  ``mu`` must be finite too:
    it would give ``sigma = 0``, a release with no noise.
    """
    if not mu > 0.0:
        raise NonPositiveMu(f"mu must be > 0, got {mu}")
    if not math.isfinite(mu):
        raise NonPositiveMu(f"mu must be finite and > 0, got {mu}")
    if not clip_radius >= 1.0:
        raise ValueError(f"clip_radius must be >= 1, got {clip_radius}")
    if not math.isfinite(clip_radius):
        raise ValueError(f"clip_radius must be finite, got {clip_radius}")
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 0.5 <= tau_bar < 1.0:
        raise ValueError(f"tau_bar must lie in [0.5, 1), got {tau_bar}")
    sigma = 2.0 * tau_bar * clip_radius * math.sqrt(n_steps) / mu
    if round_up:
        return math.ceil(sigma)
    return sigma


def one_step_sensitivity(step_size: float, clip_radius: float, tau_bar: float, n: int) -> float:
    """L2 sensitivity of a single clipped gradient update.

    In the metric of the update's map A, changing one datum moves a
    single update by at most ``2 * tau_bar * clip_radius * step_size / n``.
    """
    for name, v in (
        ("step_size", step_size),
        ("clip_radius", clip_radius),
        ("tau_bar", tau_bar),
        ("n", n),
    ):
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v}")
    return 2.0 * tau_bar * clip_radius * step_size / n


def gdp_delta_at_eps(mu: float, eps: float) -> float:
    """delta(eps) such that mu-GDP implies (eps, delta(eps))-DP.

    ``delta = Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2)``,
    evaluated in log space on the second term for stability.
    """
    if not mu > 0.0:
        raise NonPositiveMu(f"mu must be > 0, got {mu}")
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    first = float(special.ndtr(-eps / mu + mu / 2.0))
    second = math.exp(eps + float(special.log_ndtr(-eps / mu - mu / 2.0)))
    return max(first - second, 0.0)


def gdp_to_eps_delta(mu: float) -> EpsDelta:
    """The (mu, delta(mu)) guarantee equivalent to mu-GDP at eps = mu."""
    return EpsDelta(epsilon=mu, delta=gdp_delta_at_eps(mu, mu))


def eps_delta_tradeoff(ed: EpsDelta, alpha):
    """Piecewise-linear trade-off curve of an (epsilon, delta) guarantee.

    ``f(alpha) = max(0, 1 - e^eps * alpha - delta, e^{-eps} * (1 - alpha - delta))``.
    """
    a = np.asarray(alpha, dtype=float)
    if np.any((a < 0.0) | (a > 1.0)):
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha}")
    e = math.exp(ed.epsilon)
    out = np.maximum(
        0.0, np.maximum(1.0 - e * a - ed.delta, (1.0 - a - ed.delta) / e)
    )
    if np.ndim(alpha) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PrivacyCertificate:
    """Record of the GDP guarantee attached to a fitted policy.

    Construction is rejected unless the stored noise scale actually
    meets the calibration bound for (mu, clip_radius, n_steps, tau_bar).
    """

    mu: float
    sigma: float
    n_steps: int
    clip_radius: float
    tau_bar: float
    eps_delta: EpsDelta = field(init=False)

    def __post_init__(self):
        required = calibrate_sigma(self.mu, self.clip_radius, self.n_steps, self.tau_bar)
        if not self.sigma >= required * (1.0 - 1e-12):
            raise ValueError(
                f"sigma={self.sigma} is below the calibration bound {required} "
                f"for mu={self.mu}"
            )
        if self.sigma == math.inf:
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        object.__setattr__(self, "eps_delta", gdp_to_eps_delta(self.mu))

    def as_dict(self) -> dict:
        """Wire format used by the CLI."""
        return {
            "mu": self.mu,
            "sigma": self.sigma,
            "T": self.n_steps,
            "B": self.clip_radius,
            "tau_bar": self.tau_bar,
            "epsilon": self.eps_delta.epsilon,
            "delta": self.eps_delta.delta,
        }
