"""Shared test oracles and fixtures.

The oracles here are deliberately independent of the library's code
paths: the smoothed-loss oracle integrates the convolution numerically
(splitting at the check-loss kink so adaptive quadrature converges), and
the normal CDF oracle uses arbitrary-precision arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from dpnewsvendor.data import DEFAULT_THETA_STAR, ErrorDist, SyntheticSpec, ar1_covariance

# plain closed-form kernel densities, written out independently of the package
ORACLE_PDFS = {
    "gaussian": lambda v: math.exp(-0.5 * v * v) / math.sqrt(2 * math.pi),
    "laplacian": lambda v: 0.5 * math.exp(-abs(v)),
    "logistic": lambda v: math.exp(-abs(v)) / (1 + math.exp(-abs(v))) ** 2,
    "uniform": lambda v: 0.5 if abs(v) <= 1 else 0.0,
    "epanechnikov": lambda v: 0.75 * (1 - v * v) if abs(v) <= 1 else 0.0,
}

ORACLE_SUPPORT = {
    "gaussian": (-40.0, 40.0),
    "laplacian": (-40.0, 40.0),
    "logistic": (-60.0, 60.0),
    "uniform": (-1.0, 1.0),
    "epanechnikov": (-1.0, 1.0),
}


def rho(tau, u):
    return u * (tau - (1.0 if u < 0 else 0.0))


def smoothed_loss_oracle(kind: str, u: float, tau: float, bandwidth: float) -> float:
    """Brute-force convolution integral of the check loss with the kernel.

    The integrand has a kink at v = u / bandwidth, so the domain is split
    there before handing each piece to adaptive quadrature.
    """
    pdf = ORACLE_PDFS[kind]
    lo, hi = ORACLE_SUPPORT[kind]
    kink = u / bandwidth
    points = [lo, hi]
    if lo < kink < hi:
        points = [lo, kink, hi]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        val, _ = integrate.quad(
            lambda v: rho(tau, u - bandwidth * v) * pdf(v),
            a,
            b,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        total += val
    return total


def gaussian_loss_closed_form(u, tau: float, bandwidth: float):
    """The gaussian smoothed loss's closed form, evaluated at every element
    of ``u`` with no tail rule: ``smoothed_check_loss`` must match it bit
    for bit."""
    t = u / bandwidth
    density = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * t * t)
    return bandwidth * density + u * (ndtr(t) - 0.5) + (tau - 0.5) * u


def kernel_moment_oracle(kind: str, power: int) -> float:
    """Numeric integral of |v|^power times the kernel density."""
    pdf = ORACLE_PDFS[kind]
    lo, hi = ORACLE_SUPPORT[kind]
    val, _ = integrate.quad(
        lambda v: abs(v) ** power * pdf(v), lo, hi, limit=400, epsabs=1e-13
    )
    return val


def normal_cdf_oracle(x: float) -> float:
    """Arbitrary-precision standard normal CDF."""
    return float(mpmath.ncdf(x))


def normal_quantile_oracle(p: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


@pytest.fixture(scope="session")
def default_covariance():
    return ar1_covariance(4, 0.5)


@pytest.fixture(scope="session")
def small_normal_spec(default_covariance):
    return SyntheticSpec(
        theta_star=DEFAULT_THETA_STAR,
        covariance=default_covariance,
        error_dist=ErrorDist.normal(),
        n=500,
        seed=42,
    )


def finite_difference_gradient(f, beta, h=1e-6):
    """Central finite differences of a scalar function of a vector."""
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(len(beta)):
        e = np.zeros_like(beta)
        e[j] = h
        grad[j] = (f(beta + e) - f(beta - e)) / (2 * h)
    return grad
