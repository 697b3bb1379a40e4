"""Smoothing kernels and the convolution-smoothed check loss.

Five classical kernels are supported: ``gaussian``, ``laplacian``,
``logistic``, ``uniform`` and ``epanechnikov``; a kernel is passed
around by that name.  Each comes with its bandwidth-scaled density and
CDF, moment constants, and the smoothed check loss obtained by
convolving the check (pinball) loss at level ``tau`` with the scaled
kernel.  All smoothed losses below are exact closed forms; the test
suite anchors them against a brute-force numerical convolution.

The smoothed loss is a convex upper approximation of the check loss:
for every symmetric non-negative kernel the gap is between 0 and
``kappa_1 * bandwidth / 2`` uniformly in the residual.

Every kernel evaluation is one call of its closed form on the calling
thread, whatever its size.  The module also holds the package's one
thread pool, which the first fork-join starts: ``_fork_join`` is the
one way onto it, for whole units of work only, the lanes of a sweep
(``evaluation._fit_cells``) and the second half of a large
standard-normal draw (``data._fill_normals``).  A fork-join inside a
call of another one, such as a lane's large draw, runs its calls in
turn on that call's thread.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .errors import NonPositiveBandwidth

KERNEL_NAMES = ("gaussian", "laplacian", "logistic", "uniform", "epanechnikov")

_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# True in the calls of a fork-join, whose nested fork-joins run in turn
_forked = contextvars.ContextVar("dpnewsvendor_forked", default=False)


@dataclass(frozen=True)
class KernelConstants:
    """Moment constants of a kernel.

    kappa_u is the peak density value, kappa_1 the first absolute
    moment, kappa_2 the second moment, and kappa_l the minimum of the
    density over [-1, 1].
    """

    kappa_u: float
    kappa_1: float
    kappa_2: float
    kappa_l: float


def check_kernel(name: str) -> str:
    """Return ``name`` if it names a supported kernel, else raise ValueError."""
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; valid kernels: {', '.join(KERNEL_NAMES)}"
        )
    return name


def check_bandwidth(bandwidth: float) -> float:
    """Return ``bandwidth`` as a float if it is finite and > 0, else raise
    NonPositiveBandwidth."""
    bandwidth = float(bandwidth)
    if not 0.0 < bandwidth < math.inf:
        raise NonPositiveBandwidth(f"bandwidth must be finite and > 0, got {bandwidth}")
    return bandwidth


def _gaussian_pdf(u):
    # u * u overflows to inf for |u| > ~1e154, where the density is
    # exactly 0.0, as it already is for |u| > 38.6
    with np.errstate(over="ignore"):
        return _INV_SQRT2PI * np.exp(-0.5 * u * u)


def _laplacian_pdf(u):
    return 0.5 * np.exp(-np.abs(u))


def _logistic_pdf(u):
    # e^{-|u|}/(1+e^{-|u|})^2, stable for large |u|
    a = np.exp(-np.abs(u))
    return a / (1.0 + a) ** 2


def _uniform_pdf(u):
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def _epanechnikov_pdf(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _laplacian_cdf(u):
    return np.where(u < 0, 0.5 * np.exp(np.minimum(u, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(u, 0.0)))


def _uniform_cdf(u):
    return np.clip(0.5 * (u + 1.0), 0.0, 1.0)


def _epanechnikov_cdf(u):
    t = np.clip(u, -1.0, 1.0)
    return 0.25 * (2.0 + 3.0 * t - t**3)


_PDF = {
    "gaussian": _gaussian_pdf,
    "laplacian": _laplacian_pdf,
    "logistic": _logistic_pdf,
    "uniform": _uniform_pdf,
    "epanechnikov": _epanechnikov_pdf,
}

_CDF = {
    "gaussian": ndtr,
    "laplacian": _laplacian_cdf,
    "logistic": expit,
    "uniform": _uniform_cdf,
    "epanechnikov": _epanechnikov_cdf,
}

_CONSTANTS = {
    "gaussian": KernelConstants(
        kappa_u=_INV_SQRT2PI,
        kappa_1=math.sqrt(2.0 / math.pi),
        kappa_2=1.0,
        kappa_l=_INV_SQRT2PI * math.exp(-0.5),
    ),
    "laplacian": KernelConstants(
        kappa_u=0.5,
        kappa_1=1.0,
        kappa_2=2.0,
        kappa_l=0.5 * math.exp(-1.0),
    ),
    "logistic": KernelConstants(
        kappa_u=0.25,
        kappa_1=2.0 * math.log(2.0),
        kappa_2=math.pi**2 / 3.0,
        kappa_l=math.exp(-1.0) / (1.0 + math.exp(-1.0)) ** 2,
    ),
    "uniform": KernelConstants(
        kappa_u=0.5,
        kappa_1=0.5,
        kappa_2=1.0 / 3.0,
        kappa_l=0.5,
    ),
    "epanechnikov": KernelConstants(
        kappa_u=0.75,
        kappa_1=0.375,
        kappa_2=0.2,
        kappa_l=0.0,
    ),
}


def _maybe_scalar(out, u):
    if np.ndim(u) == 0:
        return float(out)
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # the caller runs one call itself; one worker at least, so a
            # fork-join forced on one CPU still runs
            _pool = ThreadPoolExecutor(
                max_workers=max(_usable_cpus() - 1, 1), thread_name_prefix="dpnv-kernels"
            )
        return _pool


def _fork_join(here, *elsewhere) -> list:
    """Call ``here()`` on this thread and each of ``elsewhere`` on the pool,
    each in a copy of the caller's context (so ``np.errstate`` applies
    there too).  Return their results in order once every call has ended;
    then an exception in any of them reaches the caller, ``here``'s first.

    A lone ``here`` runs as a plain call.  A fork-join inside one of the
    calls runs its own calls in turn on its thread: the outer calls
    already hold the pool, and a call on the pool's only worker that
    waited for its own pool would never return.
    """
    if not elsewhere or _forked.get():
        return [call() for call in (here, *elsewhere)]
    contexts = [contextvars.copy_context() for _ in range(1 + len(elsewhere))]
    for context in contexts:
        context.run(_forked.set, True)
    pool = _executor()
    futures = [pool.submit(context.run, call) for context, call in zip(contexts[1:], elsewhere)]
    try:
        result = contexts[0].run(here)
    finally:
        wait(futures)
    return [result, *(future.result() for future in futures)]


def scaled_density(kernel: str, u, bandwidth: float):
    """Density of the kernel rescaled to the given bandwidth."""
    bandwidth = check_bandwidth(bandwidth)
    pdf = _PDF[check_kernel(kernel)]
    u = np.asarray(u, dtype=float)
    return _maybe_scalar(pdf(u / bandwidth) / bandwidth, u)


def scaled_cdf(kernel: str, u, bandwidth: float):
    """CDF of the bandwidth-rescaled kernel."""
    bandwidth = check_bandwidth(bandwidth)
    return _standard_cdf(check_kernel(kernel), np.asarray(u, dtype=float) / bandwidth)


def _standard_cdf(kernel: str, t):
    """The kernel's CDF at the already scaled ``t``, as a new array (a
    float if ``t`` is 0-d)."""
    t = np.asarray(t, dtype=float)
    return _maybe_scalar(_CDF[kernel](t), t)


def constants(kernel: str) -> KernelConstants:
    """Moment constants (kappa_u, kappa_1, kappa_2, kappa_l) of a kernel."""
    return _CONSTANTS[check_kernel(kernel)]


def check_loss(tau: float, u):
    """Check (pinball) loss u * (tau - 1{u < 0})."""
    u = np.asarray(u, dtype=float)
    return _maybe_scalar(_check_loss(tau, u), u)


def _check_loss(tau, u):
    return u * (tau - (u < 0))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def smoothed_check_loss(kernel: str, u, tau: float, bandwidth: float):
    """Check loss at level ``tau`` convolved with the scaled kernel.

    Closed forms per kernel (``t = u / bandwidth``):

    * gaussian:  ``bw * phi(t) + u * (Phi(t) - 1/2) + (tau - 1/2) * u``
    * laplacian: ``check_loss(u) + (bw / 2) * exp(-|t|)``
    * logistic:  ``tau * u + bw * log(1 + exp(-t))``
    * uniform:   ``(tau - 1/2) * u + bw * (t^2 + 1) / 4`` inside the
      support, plain check loss outside
    * epanechnikov: ``(tau - 1/2) * u + (bw / 2) * (3/8 + 3 t^2 / 4 - t^4 / 8)``
      inside the support, plain check loss outside

    The result always dominates the check loss and exceeds it by at most
    ``kappa_1 * bandwidth / 2``.
    """
    bandwidth = check_bandwidth(bandwidth)
    kernel = check_kernel(kernel)
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    u = np.asarray(u, dtype=float)
    return _maybe_scalar(_smoothed_loss(kernel, u, tau, bandwidth), u)


def _smoothed_loss(kernel, u, tau, bandwidth):
    t = u / bandwidth
    if kernel == "gaussian":
        return bandwidth * _gaussian_pdf(t) + u * (ndtr(t) - 0.5) + (tau - 0.5) * u
    if kernel == "laplacian":
        return _check_loss(tau, u) + 0.5 * bandwidth * np.exp(-np.abs(t))
    if kernel == "logistic":
        return tau * u + bandwidth * _softplus(-t)
    tc = np.clip(t, -1.0, 1.0)
    if kernel == "uniform":
        inside = (tau - 0.5) * u + bandwidth * (0.25 * tc * tc + 0.25)
    else:  # epanechnikov
        t2 = tc * tc
        inside = (tau - 0.5) * u + 0.5 * bandwidth * (0.375 + 0.75 * t2 - 0.125 * t2 * t2)
    return np.where(np.abs(t) < 1.0, inside, _check_loss(tau, u))
