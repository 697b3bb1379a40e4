"""Noisy smoothed gradient descent with covariate clipping.

The private fit runs a fixed number ``T`` of gradient steps on the
smoothed newsvendor objective.  Each step clips the per-observation
covariates to an L2 ball of radius ``B`` (bounding the influence of any
single record) and adds isotropic Gaussian noise of scale ``sigma``.
With ``sigma >= 2 * tau_bar * B * sqrt(T) / mu`` the released
coefficients satisfy mu-GDP.

Two update forms are available.  ``known_sigma_matrix`` (the
``HyperParams`` and replication-harness default) whitens the covariates
with the inverse square root of a second-moment matrix before clipping;
the certificate covers it when that matrix is public, such as the
design's ``Sigma``.  ``raw_covariates`` clips the covariates as-is; the
CLI always fits this way, because real data comes with no public
``Sigma``.

Step size policy: a fixed ``step_size`` reproduces the textbook
algorithm.  When ``step_size`` is None the fit picks a step each
iteration by Armijo backtracking of the noise-free smoothed objective
along the clipped update direction, with the search grid expanded up to
``max_step_size``.  The line search reads the data beyond the noised
gradient, so it sits outside the formal privacy accounting; runs that
must match the certificate exactly should fix ``step_size`` by hand.

Fits advance in lockstep.  One step loop, ``_lockstep_fits``, moves a
stack of fits together: R datasets of the same shape, each fitted at M
noise levels, as ``(R, p, M)`` coefficients.  The clip does not depend
on beta, so each dataset's covariates are clipped (and in
``known_sigma_matrix`` mode whitened) once, before the first step.  Each
step then makes one batched residual product, evaluates the kernel once
over all ``(R, n, M)`` residuals, giving one weight per observation and
fit, and makes one batched clipped sum; with the line search, that
weight serves each fit's slope and direction, searched fit by fit.
``fit`` is the stack of one dataset at one level.  numpy hands each
item of a stacked product to BLAS on its own, so a fit's iterates do
not depend on the other datasets of its stack.  A single column goes to
the matrix-vector routine, so ``fit`` rounds as a plain loop of
matrix-vector steps; with M > 1 levels the matrix-matrix products may
round the last bits differently.

One Armijo search, ``backtracking_step_size``, serves both the
line-search fit and the non-private baseline ``smoothed_erm``, a damped
Newton method on the smoothed objective.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels, model
from .data import Whitener
from .errors import (
    DimensionMismatch,
    LineSearchFailed,
    MaxIterExceeded,
    MissingWhitener,
    NonPositiveMu,
)
from .model import Dataset, Problem
from .privacy import PrivacyCertificate

MODES = ("known_sigma_matrix", "raw_covariates")

_MAX_SHRINKS = 60
_ARMIJO_C = 1e-4


def default_bandwidth(tau: float, n: int, p: int) -> float:
    """Rule-of-thumb smoothing bandwidth.

    ``sqrt(tau * (1 - tau)) * ((p + log n) / n) ** (2/5)`` with the
    natural logarithm.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if not n >= 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return math.sqrt(tau * (1.0 - tau)) * ((p + math.log(n)) / n) ** 0.4


@dataclass(frozen=True)
class HyperParams:
    """Knobs of the noisy gradient descent fit.

    ``sigma`` is the per-step noise scale; pick it with
    ``privacy.calibrate_sigma`` to hit a GDP target ``mu``.  ``mu`` is
    optional and only used to request a privacy certificate on the fit
    result.  ``step_size=None`` selects the per-iteration line search
    described in the module docstring.
    """

    bandwidth: float
    n_steps: int
    clip_radius: float = math.inf
    step_size: float | None = None
    mu: float | None = None
    sigma: float = 0.0
    seed: int = 0
    kernel: str = "gaussian"
    mode: str = "known_sigma_matrix"
    max_step_size: float = 4.0

    def __post_init__(self):
        kernels.check_bandwidth(self.bandwidth)
        if not self.n_steps >= 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        if not self.clip_radius >= 1.0:
            raise ValueError(f"clip_radius must be >= 1, got {self.clip_radius}")
        if self.step_size is not None and not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.mu is not None and not self.mu > 0.0:
            raise NonPositiveMu(f"mu must be > 0, got {self.mu}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1.0 <= self.max_step_size < math.inf:
            raise ValueError(f"max_step_size must be finite and >= 1, got {self.max_step_size}")
        kernels.check_kernel(self.kernel)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Output of a fit: final coefficients plus bookkeeping.

    ``trajectory`` (when kept) stacks the T+1 iterates, ending at
    ``beta_final``.
    """

    beta_final: np.ndarray
    trajectory: np.ndarray | None
    certificate: PrivacyCertificate | None


class NoiseSource:
    """Standard normal arrays from a seeded counter-based generator.

    Deterministic given the seed: the Philox bit generator feeds numpy's
    ziggurat normal transform.  One ``(T, p)`` draw is bitwise the same
    as T draws of ``p``.
    """

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


class SecureNoiseSource:
    """Standard normal vectors from the operating system's entropy pool.

    Uses ``random.SystemRandom``; there is no seed, so runs are not
    reproducible.  Intended for deployments where the noise itself must
    be unpredictable.  Draws use ``normalvariate``, not ``gauss``:
    ``gauss`` caches the second Box-Muller value on the shared instance,
    so threads sharing one source could receive the same noise.

    The draws are floating-point Gaussians, not an exact discrete
    sampler, so the guarantee is the idealised one: Jin, McMurtry,
    Rubinstein & Ohrimenko (2022), *Are we there yet? Timing and
    floating-point attacks on differential privacy systems*, IEEE S&P,
    show that the rounding of floating-point Gaussian samplers can let
    an observer of a noised output tell neighbouring inputs apart.  An
    exact sampler (Canonne, Kamath & Steinke 2020) is not provided.
    """

    def __init__(self):
        self._gen = random.SystemRandom()

    def standard_normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        out.flat = [self._gen.normalvariate(0.0, 1.0) for _ in range(out.size)]
        return out


def clip(u: np.ndarray, radius: float) -> np.ndarray:
    """Radial truncation u / max(1, ||u||_2 / radius).

    Preserves direction, is the identity inside the ball, and caps the
    norm at ``radius``.  For a 2-d input each row is clipped.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return u / max(1.0, np.linalg.norm(u) / radius)
    if u.ndim == 2:
        norms = np.linalg.norm(u, axis=1)
        return u / np.maximum(1.0, norms / radius)[:, None]
    raise ValueError("clip expects a vector or a matrix of row vectors")


def _warn_if_flat_kernel(kernel: str, stacklevel: int = 3):
    if kernel == "epanechnikov":
        warnings.warn(
            "the epanechnikov kernel has zero minimum density on [-1, 1]; "
            "curvature-based convergence guarantees do not apply",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _q_value(data: Dataset, problem: Problem, kernel, bandwidth: float, beta) -> float:
    return model.smoothed_empirical_cost(problem, data, beta, kernel, bandwidth) / (
        problem.total_cost
    )


def backtracking_step_size(
    data: Dataset,
    problem: Problem,
    kernel: str,
    bandwidth: float,
    beta: np.ndarray,
    direction: np.ndarray,
    slope: float,
    max_step: float = 1.0,
) -> float:
    """Armijo step size along a descent direction from ``beta``.

    The step eta must satisfy
    ``Q(beta - eta * direction) <= Q(beta) - c * eta * slope`` with
    ``c = 1e-4``, where Q is the smoothed objective scaled by 1/(b+h) and
    ``slope`` is the inner product of its gradient with ``direction``.
    Starting from 1 the step halves until the condition holds; an accepted
    unit step then doubles while the condition holds, up to ``max_step``
    (1 means no growth).  A non-positive slope (stationary point or no
    descent) returns 1.
    """
    if slope <= 0.0:
        return 1.0
    q0 = _q_value(data, problem, kernel, bandwidth, beta)

    def acceptable(eta: float) -> bool:
        return (
            _q_value(data, problem, kernel, bandwidth, beta - eta * direction)
            <= q0 - _ARMIJO_C * eta * slope
        )

    eta = 1.0
    if not acceptable(eta):
        for _ in range(_MAX_SHRINKS):
            eta *= 0.5
            if acceptable(eta):
                return eta
        raise LineSearchFailed(
            f"no acceptable step after {_MAX_SHRINKS} shrinks (last eta={eta:.3g})"
        )
    while 2.0 * eta <= max_step and acceptable(2.0 * eta):
        eta *= 2.0
    return eta


def _clipped_design(
    data: Dataset, hp: HyperParams, whitener: Whitener | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The clipped rows of the update and the map back to coefficients.

    ``known_sigma_matrix`` clips the whitened rows ``S^{-1/2} x_i`` and
    maps sums back with ``S^{-1/2}``; ``raw_covariates`` clips the raw
    ``x_i`` and needs no map (None).  The clip does not depend on beta.
    """
    if hp.mode == "raw_covariates":
        return clip(data.features, hp.clip_radius), None
    if whitener is None:
        raise MissingWhitener("known_sigma_matrix mode requires a whitener")
    return clip(data.features @ whitener.inv_sqrt, hp.clip_radius), whitener.inv_sqrt


def noisy_step(
    beta: np.ndarray,
    data: Dataset,
    problem: Problem,
    hp: HyperParams,
    g: np.ndarray,
    whitener: Whitener | None = None,
) -> np.ndarray:
    """One clipped, noised gradient update from ``beta``.

    In ``known_sigma_matrix`` mode the whitener is required and the
    update is
    ``beta - (eta/n) * S^{-1/2} [ sum_i w_i_coef * clip(S^{-1/2} x_i, B) + sigma * g ]``;
    ``raw_covariates`` mode clips the raw ``x_i`` and drops the
    ``S^{-1/2}`` factors.  ``g`` is the standard normal noise vector for
    this step.
    """
    beta = np.asarray(beta, dtype=float)
    if len(beta) != data.p:
        raise DimensionMismatch(
            f"state has {len(beta)} coefficients but dataset has {data.p} features"
        )
    if hp.step_size is None:
        raise ValueError("noisy_step requires an explicit step_size in HyperParams")
    g = np.asarray(g, dtype=float)
    if g.shape != (data.p,):
        raise DimensionMismatch(f"noise vector must have shape ({data.p},)")

    clipped, back = _clipped_design(data, hp, whitener)
    w = model.gradient_weights(problem, data, beta, hp.kernel, hp.bandwidth)
    summed = clipped.T @ w + hp.sigma * g
    return beta - (hp.step_size / data.n) * (summed if back is None else back @ summed)


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays as one ``(R, ...)`` stack; a view when R = 1, so that a
    single fit on a large dataset copies none of it."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _lockstep_fits(
    data: list[Dataset],
    problem: Problem,
    hp: HyperParams,
    whitener: Whitener | None,
    noise: np.ndarray,
    keep_trajectory: bool = False,
) -> np.ndarray:
    """Run ``hp.n_steps`` noisy updates of a stack of fits from zero.

    ``data`` holds R datasets of one shape and ``noise`` the ``(T, R, p, M)``
    noise already scaled by each fit's sigma: ``noise[t, r, :, m]`` is
    added to the clipped sum of fit ``(r, m)`` at step ``t``.  ``hp``
    gives every other setting; its ``sigma`` and ``seed`` are not read.
    Returns the final ``(R, p, M)`` coefficients, or the ``(T + 1, R, p,
    M)`` iterates with ``keep_trajectory``.
    """
    _warn_if_flat_kernel(hp.kernel, stacklevel=4)
    designs = [_clipped_design(d, hp, whitener) for d in data]
    clipped_t = _stack([rows for rows, _ in designs]).transpose(0, 2, 1)
    back = designs[0][1]
    x = _stack([d.features for d in data])
    demands = _stack([d.demands for d in data])[:, :, None]
    n_sets, n, p = x.shape
    n_levels = noise.shape[-1]
    betas = np.zeros((n_sets, p, n_levels))
    trajectory = [betas]
    for t in range(hp.n_steps):
        residuals = demands - x @ betas
        weights = kernels.scaled_cdf(hp.kernel, -residuals, hp.bandwidth) - problem.tau
        summed = clipped_t @ weights
        eta = hp.step_size
        if eta is None:
            grads = x.transpose(0, 2, 1) @ weights / n
            directions = (summed if back is None else back @ summed) / n
            eta = np.empty((n_sets, 1, n_levels))
            for r, m in np.ndindex(n_sets, n_levels):
                eta[r, 0, m] = backtracking_step_size(
                    data[r],
                    problem,
                    hp.kernel,
                    hp.bandwidth,
                    betas[r, :, m],
                    directions[r, :, m],
                    float(grads[r, :, m] @ directions[r, :, m]),
                    hp.max_step_size,
                )
        summed = summed + noise[t]
        betas = betas - (eta / n) * (summed if back is None else back @ summed)
        if keep_trajectory:
            trajectory.append(betas)
    return np.stack(trajectory) if keep_trajectory else betas


def fit(
    data: Dataset,
    problem: Problem,
    hp: HyperParams,
    whitener: Whitener | None = None,
    keep_trajectory: bool = False,
    noise: NoiseSource | SecureNoiseSource | None = None,
) -> FitResult:
    """Run exactly ``hp.n_steps`` noisy updates from the zero vector.

    The fit is the lockstep stack of one dataset at one noise level.
    Deterministic given ``hp.seed`` (unless a secure noise source is
    supplied).  A privacy certificate is attached when ``hp.mu`` is set
    and ``PrivacyCertificate`` accepts ``hp.sigma`` for the fit's
    (mu, clip_radius, n_steps, tau_bar); otherwise ``certificate`` is
    None.  ``known_sigma_matrix`` mode without a whitener raises
    ``MissingWhitener`` before any step.
    """
    if noise is None:
        noise = NoiseSource(hp.seed)
    g = hp.sigma * noise.standard_normal((hp.n_steps, data.p))
    path = _lockstep_fits(
        [data], problem, hp, whitener, g[:, None, :, None], keep_trajectory
    )
    path = path[..., 0, :, 0]

    certificate = None
    if hp.mu is not None:
        try:
            certificate = PrivacyCertificate(
                mu=hp.mu,
                sigma=hp.sigma,
                n_steps=hp.n_steps,
                clip_radius=hp.clip_radius,
                tau_bar=problem.tau_bar,
            )
        except ValueError:
            pass

    return FitResult(
        beta_final=path[-1] if keep_trajectory else path,
        trajectory=path if keep_trajectory else None,
        certificate=certificate,
    )


def smoothed_erm(
    data: Dataset,
    problem: Problem,
    kernel: str,
    bandwidth: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Non-private minimizer of the smoothed empirical cost.

    Damped Newton from the least-squares fit, run until the gradient norm
    drops to ``tol``.  Each Newton direction ``H^{-1} g`` is damped by
    ``backtracking_step_size`` (the same Armijo search as the line-search
    fit) with unit steps at most.  Where the Hessian is singular or gives
    no acceptable descent step (compact kernels, tiny bandwidths) the
    iteration takes a gradient step instead, searched up to 2^16.  The
    gradient step is taken in the metric of the design's second moment
    ``X'X / n`` (plain gradient descent on whitened features), so neither
    kind of step depends on how the features are scaled.
    """
    _warn_if_flat_kernel(kernel)
    x = data.features
    beta = np.linalg.lstsq(x, data.demands, rcond=None)[0]
    metric = np.linalg.pinv(x.T @ x / data.n, hermitian=True)
    for _ in range(max_iter):
        g = model.smoothed_gradient(problem, data, beta, kernel, bandwidth)
        if np.linalg.norm(g) <= tol:
            return beta
        hessian = model.smoothed_hessian(problem, data, beta, kernel, bandwidth)
        try:
            direction = np.linalg.solve(hessian, g)
            slope = float(g @ direction)
            if not slope > 0.0:
                raise LineSearchFailed("the Newton direction is not a descent direction")
            eta = backtracking_step_size(
                data, problem, kernel, bandwidth, beta, direction, slope
            )
        except (np.linalg.LinAlgError, LineSearchFailed):
            direction = metric @ g
            eta = backtracking_step_size(
                data, problem, kernel, bandwidth, beta, direction, float(g @ direction),
                max_step=2.0**16,
            )
        beta = beta - eta * direction
    raise MaxIterExceeded(
        f"gradient norm still above {tol} after {max_iter} iterations"
    )
