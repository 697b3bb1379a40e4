"""Newsvendor cost structure, linear policies, and empirical risks.

A linear policy orders ``q(x) = x @ beta`` and is passed around as its
coefficient vector ``beta``.

The newsvendor cost with holding cost ``h`` and lost-sales penalty ``b``
equals ``(b + h)`` times the check loss at level ``tau = b / (b + h)``
applied to the forecast residual ``demand - order``.  The smoothed
variants replace the check loss by its kernel convolution, giving a
twice-differentiable convex objective.

Datasets are immutable and safe to share across workers.  Per-
observation sums (cost, gradient, Hessian) are accumulated through
matrix products with a fixed reduction order, so repeated evaluations
of the same inputs give identical floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DimensionMismatch

__all__ = [
    "Problem",
    "Dataset",
    "smoothed_empirical_cost",
    "smoothed_gradient",
    "smoothed_hessian",
]


@dataclass(frozen=True)
class Problem:
    """Cost parameters and the induced quantile level.

    ``tau = b / (b + h)`` is computed once at construction.  Use
    ``Problem.from_quantile`` to work directly at a quantile level, which
    sets ``b = tau`` and ``h = 1 - tau`` so that ``b + h = 1``.
    """

    b: float
    h: float
    tau: float = field(init=False)

    def __post_init__(self):
        b, h = float(self.b), float(self.h)
        if b < 0 or h < 0:
            raise ValueError(f"costs must be non-negative, got b={b}, h={h}")
        if not 0.0 < b + h < math.inf:
            raise ValueError(f"b + h must be finite and > 0, got {b + h}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "tau", b / (b + h))

    @classmethod
    def from_quantile(cls, tau: float) -> "Problem":
        tau = float(tau)
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        return cls(b=tau, h=1.0 - tau)

    @property
    def total_cost(self) -> float:
        return self.b + self.h

    @property
    def tau_bar(self) -> float:
        """``max(tau, 1 - tau)``, which bounds every gradient weight ``|Kbar - tau|``."""
        return max(self.tau, 1.0 - self.tau)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable demand vector plus feature matrix with intercept column.

    The first feature column must be identically one.  Arrays are copied
    and marked read-only on construction.
    """

    demands: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        d = np.array(self.demands, dtype=float)
        x = np.array(self.features, dtype=float)
        if d.ndim != 1:
            raise ValueError("demands must be a 1-d vector")
        if x.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if len(d) != x.shape[0]:
            raise DimensionMismatch(
                f"{len(d)} demands but {x.shape[0]} feature rows"
            )
        if len(d) < 1:
            raise ValueError("dataset must contain at least one observation")
        if x.shape[1] < 1:
            raise ValueError("feature matrix must have at least one column")
        if not np.all(x[:, 0] == 1.0):
            raise ValueError("first feature column must be identically 1 (intercept)")
        if not (np.isfinite(d).all() and np.isfinite(x).all()):
            raise ValueError("dataset contains non-finite entries")
        d.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "features", x)

    @property
    def n(self) -> int:
        return len(self.demands)

    @property
    def p(self) -> int:
        return self.features.shape[1]


def coefficients(policy) -> np.ndarray:
    """A policy's coefficients as a 1-d float array; ValueError otherwise."""
    beta = np.asarray(policy, dtype=float)
    if beta.ndim != 1:
        raise ValueError("policy coefficients must form a 1-d vector")
    return beta


def _residuals(data: Dataset, policy) -> np.ndarray:
    beta = coefficients(policy)
    if len(beta) != data.p:
        raise DimensionMismatch(
            f"policy has {len(beta)} coefficients but dataset has {data.p} features"
        )
    return data.demands - data.features @ beta


def smoothed_empirical_cost(
    problem: Problem,
    data: Dataset,
    policy,
    kernel: str,
    bandwidth: float,
) -> float:
    """Empirical cost with the check loss replaced by its smoothed form.

    Dominates the plain empirical cost ``evaluation.out_of_sample_cost``
    on the same data and exceeds it by at most
    ``(b + h) * kappa_1 * bandwidth / 2``.
    """
    r = _residuals(data, policy)
    loss = kernels.smoothed_check_loss(kernel, r, problem.tau, bandwidth)
    return problem.total_cost * float(np.mean(loss))


def smoothed_gradient(
    problem: Problem,
    data: Dataset,
    policy,
    kernel: str,
    bandwidth: float,
) -> np.ndarray:
    """Gradient of the smoothed cost scaled by 1 / (b + h).

    Returns ``(1/n) * sum_i (Kbar((x_i @ beta - d_i) / bw) - tau) * x_i``,
    the unclipped, noise-free gradient.
    """
    r = _residuals(data, policy)
    w = kernels.scaled_cdf(kernel, -r, bandwidth) - problem.tau
    return data.features.T @ w / data.n


def smoothed_hessian(
    problem: Problem,
    data: Dataset,
    policy,
    kernel: str,
    bandwidth: float,
) -> np.ndarray:
    """Hessian of the smoothed cost scaled by 1 / (b + h).

    ``(1/n) * sum_i K_bw(d_i - x_i @ beta) * x_i x_i^T``; symmetric
    positive semidefinite because the kernel is non-negative.
    """
    r = _residuals(data, policy)
    w = kernels.scaled_density(kernel, r, bandwidth)
    x = data.features
    return (x * w[:, None]).T @ x / data.n
