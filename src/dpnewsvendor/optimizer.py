"""Noisy smoothed gradient descent with covariate clipping.

The private fit runs a fixed number ``T`` of gradient steps on the
smoothed newsvendor objective.  Each step clips the per-observation
covariates to an L2 ball of radius ``B`` (bounding the influence of any
single record) and adds isotropic Gaussian noise of scale ``sigma``.
With ``sigma >= 2 * tau_bar * B * sqrt(T) / mu`` the released
coefficients satisfy mu-GDP.

Every update goes through one public ``p x p`` map A: the step clips
the rows ``A' x_i`` and maps the clipped sum back to coefficients with
A, ``beta <- beta - (eta/n) A [sum_i w_i clip(A' x_i, B) + sigma g]``.
``HyperParams.mode`` picks A.  In ``known_sigma_matrix`` mode (the
``HyperParams`` and replication-harness default) A is the inverse
square root of a second-moment matrix, so the rows are whitened before
clipping; the certificate covers it when that matrix is public, such as
the design's ``Sigma``.  In ``raw_covariates`` mode A is the identity,
so the raw covariates are clipped as-is; the CLI always fits this way,
because real data comes with no public ``Sigma``.  Products with the
identity are exact, so this is bitwise the update without A.

Step size policy: a fixed ``step_size`` reproduces the textbook
algorithm.  When ``step_size`` is None the fit picks a step each
iteration by Armijo backtracking of the noise-free smoothed objective
along the clipped update direction, halving from the largest power of
two not above ``max_step_size``.  The search reads the data beyond the
noised gradient, so it sits outside the formal privacy accounting; runs
that must match the certificate exactly should fix ``step_size`` by hand.

Fits advance in lockstep.  One step loop, ``_lockstep_fits``, moves a
batch of fits together: R training sets, each fitted at M noise
levels, as ``(R, p, M)`` coefficients.  The sets come as size stacks,
the ``(R_n, n, p)`` features and ``(R_n, n)`` demands of the sets of one
size n with that size's bandwidth, so a caller can draw its rows
straight into the arrays the steps read.  The clip does not depend on
beta, so each stack's rows ``x A`` are clipped once, before the first
step.  Each step makes one batched residual product per
stack, writes every stack's scaled residuals into one buffer and
evaluates the kernel's CDF once over it, giving one weight per
observation and fit, and makes one batched clipped sum per stack; with
the line search, that weight serves each fit's slope and direction, and
one Armijo search per stack, ``_armijo_steps``, tries the steps of the
whole stack with one kernel call per round.  ``fit`` is the batch of one
dataset at one level, and ``noisy_step`` is one step of that batch.
numpy hands each item of a stacked product to BLAS on its own, and the
CDF is elementwise, so a fit's iterates do not depend on the other
datasets of its batch.  A single column goes to the matrix-vector
routine, so ``fit`` rounds as a plain loop of matrix-vector steps; with
M > 1 levels the matrix-matrix products may round the last bits
differently.

The same search, on the dataset as a stack of one, damps the
non-private baseline ``smoothed_erm``, a regularized Newton method on the
smoothed objective.
"""

from __future__ import annotations

import math
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
_CLIP_ROWS = 4096
_ARMIJO_C = 1e-4
_EPS = np.finfo(float).eps
# smoothed_erm's Hessian shift per unit of gradient norm: proportional to
# ||g|| it keeps Newton's quadratic rate; 1 failed more tiny-bandwidth fits
_NEWTON_SHIFT = 0.1


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
    optional: it requests a privacy certificate, and ``fit`` refuses a
    ``sigma`` that cannot provide it.  ``step_size=None`` selects the
    per-iteration line search described in the module docstring.
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

    ``trajectory`` stacks the T+1 iterates ``(T + 1, p)``, from the zero
    start to ``beta_final``; a certificate covers all of them.
    ``certificate`` is None exactly when the fit asked for no ``mu``.
    """

    beta_final: np.ndarray
    trajectory: np.ndarray
    certificate: PrivacyCertificate | None


class NoiseSource:
    """Standard normal arrays from a seeded counter-based generator.

    Deterministic given the seed: the Philox bit generator feeds numpy's
    ziggurat normal transform.  One ``(T, p)`` draw is bitwise the same
    as T draws of ``p``.  A seed of None seeds Philox from the operating
    system's entropy, so the noise cannot be replayed.  Philox is not a
    cryptographic generator: the noise is as secret as its 128-bit key.

    The draws are floating-point Gaussians, not an exact discrete
    sampler, so the guarantee is the idealised one: Jin, McMurtry,
    Rubinstein & Ohrimenko (2022), *Are we there yet? Timing and
    floating-point attacks on differential privacy systems*, IEEE S&P,
    show that the rounding of floating-point Gaussian samplers can let
    an observer of a noised output tell neighbouring inputs apart.  An
    exact sampler (Canonne, Kamath & Steinke 2020) is not provided.
    """

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)


def clip(u: np.ndarray, radius: float, out: np.ndarray | None = None) -> np.ndarray:
    """Radial truncation u / max(1, ||u||_2 / radius).

    Preserves direction, is the identity inside the ball, and caps the
    norm at ``radius``.  For a 2-d input each row is clipped, in blocks of
    ``_CLIP_ROWS`` rows, so that the norms' temporaries stay small.  As in
    numpy, ``out`` (which may be ``u`` itself) receives the result.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        return np.divide(u, max(1.0, np.linalg.norm(u) / radius), out=out)
    if u.ndim != 2:
        raise ValueError("clip expects a vector or a matrix of row vectors")
    out = np.empty_like(u) if out is None else out
    for start in range(0, len(u), _CLIP_ROWS):
        rows = slice(start, start + _CLIP_ROWS)
        scale = np.linalg.norm(u[rows], axis=1)
        scale /= radius
        np.divide(u[rows], np.maximum(scale, 1.0, out=scale)[:, None], out=out[rows])
    return out


def _warn_if_flat_kernel(kernel: str, stacklevel: int = 3):
    if kernels.constants(kernel).kappa_l == 0.0:
        warnings.warn(
            f"the {kernel} kernel has zero minimum density on [-1, 1]; "
            "curvature-based convergence guarantees do not apply",
            RuntimeWarning,
            stacklevel=stacklevel,
        )


def _scaled_costs(x, demands, problem: Problem, kernel: str, bandwidth: float, betas):
    """Q, the smoothed empirical cost over (b+h), of each fit of a stack:
    ``(R, 1, M)`` from the ``(R, n, p)`` features ``x``, the ``(R, n, 1)``
    demands and the ``(R, p, M)`` coefficients.  Each fit's mean runs along
    its own contiguous row, so a fit rounds as
    ``smoothed_empirical_cost(...) / (b + h)`` on its residuals."""
    loss = kernels.smoothed_check_loss(kernel, demands - x @ betas, problem.tau, bandwidth)
    mean = np.ascontiguousarray(loss.transpose(0, 2, 1)).mean(axis=2)[:, None, :]
    return problem.total_cost * mean / problem.total_cost


def _armijo_steps(objective, slope: np.ndarray, max_step: float) -> np.ndarray:
    """Armijo step sizes for a stack of descent directions.

    ``objective(eta)`` gives Q at ``beta - eta * direction``, for one float
    ``eta``, at every entry of ``slope``, Q's gradient along the entry's
    direction.  A step passes if ``Q(eta) <= Q(0) - 1e-4 eta slope``.  The
    trial starts at the largest power of two not above ``max_step`` and
    halves, down to ``2**-60``, with one objective call a round for the
    whole stack; each entry takes its first pass.  A non-positive slope, or
    a decrease ``1e-4 slope`` within Q's rounding ``eps |Q(0)|``, takes 1.
    Q is convex, so the passing steps form one interval ``[0, eta*]`` and
    halving from 1, then doubling a passing unit step, reaches the same
    step; a passing start, as on almost every private step, saves its log2
    rounds (2 at cap 4), and a step below 1 costs that many rounds more."""
    q0 = objective(0.0)
    eta = np.where((slope <= 0.0) | (_ARMIJO_C * slope <= _EPS * np.abs(q0)), 1.0, 0.0)
    trial = math.ldexp(0.5, math.frexp(max_step)[1])  # exact, unlike 2**floor(log2)
    while not eta.all() and trial >= 0.5**_MAX_SHRINKS:
        passes = objective(trial) <= q0 - _ARMIJO_C * trial * slope
        eta[(eta == 0.0) & passes] = trial  # 0 until a trial passes
        trial *= 0.5
    if not eta.all():
        raise LineSearchFailed(f"no acceptable step after {_MAX_SHRINKS} shrinks")
    return eta


def _feature_map(hp: HyperParams, whitener: Whitener | None, p: int) -> np.ndarray:
    """The update's ``p x p`` map A: the whitener's ``S^{-1/2}`` in
    ``known_sigma_matrix`` mode, which requires one, the identity in
    ``raw_covariates`` mode."""
    if hp.mode == "raw_covariates":
        return np.eye(p)
    if whitener is None:
        raise MissingWhitener("known_sigma_matrix mode requires a whitener")
    return whitener.inv_sqrt


def noisy_step(
    beta: np.ndarray,
    data: Dataset,
    problem: Problem,
    hp: HyperParams,
    g: np.ndarray,
    whitener: Whitener | None = None,
) -> np.ndarray:
    """One clipped, noised gradient update from ``beta``, with step size
    ``hp.step_size``.

    The update is
    ``beta - (eta/n) * A [ sum_i w_i_coef * clip(A' x_i, B) + sigma * g ]``
    with the map A of the module docstring; the whitener is required in
    ``known_sigma_matrix`` mode.  ``g`` is the standard normal noise
    vector for this step.  This is one step of the loop every fit runs:
    the last iterate of its one-step path.
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
    noise = (hp.sigma * g)[None, None, :, None]
    stack = (data.features[None], data.demands[None], hp.bandwidth)
    return _lockstep_fits(
        [stack], problem, hp, whitener, noise, start=beta[None, :, None]
    )[-1][0, :, 0]


class _SizeStack:
    """One size stack of a lockstep batch: the ``(R, n, p)`` features
    ``x``, the ``(R, n, 1)`` demands, the clipped rows ``clip(x A)`` as
    ``(R, p, n)``, and the size's bandwidth.  The clip does not depend on
    beta, so it is made here, once, in place on one stacked product
    ``x A``, which numpy hands to BLAS item by item.
    ``_lockstep_fits`` then places the stack in its batch: its slice
    ``fits`` of the fits, and its ``(R, n, M)`` view ``scaled``, at
    ``elements``, of the residual buffer."""

    def __init__(self, x, d, a: np.ndarray, radius: float, bandwidth: float):
        self.x = x
        self.demands = d[:, :, None]
        clipped = x @ a
        rows = clipped.reshape(-1, clipped.shape[-1])
        clip(rows, radius, out=rows)
        self.clipped_t = clipped.transpose(0, 2, 1)
        self.bandwidth = bandwidth


def _lockstep_fits(
    stacks: list[tuple[np.ndarray, np.ndarray, float]],
    problem: Problem,
    hp: HyperParams,
    whitener: Whitener | None,
    noise: np.ndarray,
    start: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Run noisy updates of a batch of fits, one per step of ``noise``.

    ``stacks`` holds the batch's training rows as size stacks
    ``(x, d, bandwidth)``: the ``(R_n, n, p)`` features and ``(R_n, n)``
    demands of ``R_n`` training sets of one size n, fitted at that
    bandwidth; the R training sets are the stacks' in order.  The rows are
    read, never written or copied.  ``noise`` holds the
    ``(T, R, p, M)`` noise already scaled by each fit's sigma:
    ``noise[t, r, :, m]`` is added to the clipped sum of fit ``(r, m)`` at
    step ``t``, so the fits take T steps.  They start from zero, or from the
    ``(R, p, M)`` coefficients ``start``.  ``hp`` gives every other setting;
    its ``n_steps``, ``sigma`` and ``seed`` are not read.  Returns the path:
    the T+1 ``(R, p, M)`` iterates, from the start to the final
    coefficients ``[-1]``.

    Each step writes every size's ``(x beta - d) / h`` into its slice of one
    buffer and evaluates the kernel's CDF over the whole buffer in one call;
    the products, the clipped sums, the line search and the update are made
    per size, on the shapes a stack of that size alone would have.
    """
    _warn_if_flat_kernel(hp.kernel, stacklevel=4)
    _, _, p, n_levels = noise.shape
    a = _feature_map(hp, whitener, p)
    stacks = [_SizeStack(x, d, a, hp.clip_radius, bandwidth) for x, d, bandwidth in stacks]
    scaled = np.empty(n_levels * sum(stack.demands.size for stack in stacks))
    fits = elements = 0
    for stack in stacks:
        stack.fits = slice(fits, fits + len(stack.x))
        stack.elements = slice(elements, elements + n_levels * stack.demands.size)
        stack.scaled = scaled[stack.elements].reshape(*stack.demands.shape[:2], n_levels)
        fits, elements = stack.fits.stop, stack.elements.stop
    betas = np.zeros((fits, p, n_levels)) if start is None else start
    path = [betas]
    for step_noise in noise:
        for stack in stacks:
            # x beta - d is bitwise -(d - x beta): negation is exact
            np.matmul(stack.x, betas[stack.fits], out=stack.scaled)
            stack.scaled -= stack.demands
            stack.scaled /= stack.bandwidth
        weights = kernels._standard_cdf(hp.kernel, scaled)
        weights -= problem.tau
        stepped = np.empty(betas.shape)
        for stack in stacks:
            x, beta, n = stack.x, betas[stack.fits], stack.x.shape[1]
            w = weights[stack.elements].reshape(stack.scaled.shape)
            summed = stack.clipped_t @ w
            eta = hp.step_size
            if eta is None:
                grads = x.transpose(0, 2, 1) @ w / n
                directions = a @ summed / n
                gt, dt = grads.transpose(0, 2, 1), directions.transpose(0, 2, 1)
                slope = gt[..., None, :] @ dt[..., None]  # a 1-d dot per fit, as g @ d rounds
                eta = _armijo_steps(
                    lambda eta: _scaled_costs(
                        x, stack.demands, problem, hp.kernel, stack.bandwidth,
                        beta - eta * directions,
                    ),
                    slope.reshape(len(x), 1, n_levels),
                    hp.max_step_size,
                )
            update = (eta / n) * (a @ (summed + step_noise[stack.fits]))
            np.subtract(beta, update, out=stepped[stack.fits])
        betas = stepped
        path.append(betas)
    return path


def fit(
    data: Dataset,
    problem: Problem,
    hp: HyperParams,
    whitener: Whitener | None = None,
    noise: NoiseSource | None = None,
) -> FitResult:
    """Run exactly ``hp.n_steps`` noisy updates from the zero vector.

    The fit is the lockstep stack of one dataset at one noise level, and
    it returns its whole path.  The noise comes from ``noise``, or from
    ``NoiseSource(hp.seed)``, so the fit is deterministic given
    ``hp.seed`` unless a source such as ``NoiseSource(None)``, seeded
    from the operating system's entropy, is supplied.  When ``hp.mu`` is
    set the fit first builds its ``PrivacyCertificate`` for (mu, sigma,
    clip_radius, n_steps, tau_bar), so a ``sigma`` the certificate
    refuses raises ValueError before any noise is drawn or step taken;
    without ``mu`` the certificate is None.  ``known_sigma_matrix`` mode without a
    whitener raises ``MissingWhitener`` before any step.
    """
    certificate = None
    if hp.mu is not None:
        certificate = PrivacyCertificate(
            mu=hp.mu,
            sigma=hp.sigma,
            n_steps=hp.n_steps,
            clip_radius=hp.clip_radius,
            tau_bar=problem.tau_bar,
        )
    if noise is None:
        noise = NoiseSource(hp.seed)
    g = hp.sigma * noise.standard_normal((hp.n_steps, data.p))
    stack = (data.features[None], data.demands[None], hp.bandwidth)
    path = np.stack(_lockstep_fits([stack], problem, hp, whitener, g[:, None, :, None]))
    path = path[:, 0, :, 0]
    return FitResult(beta_final=path[-1], trajectory=path, certificate=certificate)


def smoothed_erm(
    data: Dataset,
    problem: Problem,
    kernel: str,
    bandwidth: float,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Non-private minimizer of the smoothed empirical cost.

    Regularized Newton from the least-squares fit, run until the gradient
    norm drops to ``tol``.  Each direction solves ``(H + lam S) d = g``
    with S the design's second moment ``X'X / n`` and
    ``lam = 0.1 sqrt(g' S^+ g)``, and is damped by the line-search fit's
    Armijo search, run on the dataset as a stack of one with unit steps at
    most.  The shift makes the direction a descent direction where the
    Hessian is singular (compact kernels, tiny bandwidths), keeps Newton's
    local quadratic rate (Li, Fukushima, Qi & Yamashita 2004) and,
    measured in S, leaves no step depending on how the features are
    scaled.
    """
    _warn_if_flat_kernel(kernel)
    x = data.features
    beta = np.linalg.lstsq(x, data.demands, rcond=None)[0]
    second_moment = x.T @ x / data.n
    metric = np.linalg.pinv(second_moment, hermitian=True)
    for _ in range(max_iter):
        g = model.smoothed_gradient(problem, data, beta, kernel, bandwidth)
        if np.linalg.norm(g) <= tol:
            return beta
        hessian = model.smoothed_hessian(problem, data, beta, kernel, bandwidth)
        lam = _NEWTON_SHIFT * math.sqrt(g @ metric @ g)
        direction = np.linalg.lstsq(hessian + lam * second_moment, g, rcond=None)[0]
        eta = _armijo_steps(
            lambda eta: _scaled_costs(
                x[None], data.demands[None, :, None], problem, kernel, bandwidth,
                beta[:, None] - eta * direction[:, None],
            ),
            np.full((1, 1, 1), float(g @ direction)),
            1.0,
        )
        beta = beta - eta[0, 0, 0] * direction
    g = model.smoothed_gradient(problem, data, beta, kernel, bandwidth)
    raise MaxIterExceeded(
        f"gradient norm {np.linalg.norm(g):.3g} still above {tol} "
        f"after {max_iter} iterations"
    )
