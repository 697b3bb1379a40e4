"""Synthetic demand generation, CSV ingestion, whitening, splitting.

The synthetic generator draws standard normals ``z`` and the noise
``eps`` in one place, ``_synthetic_stream``: ``z`` with ``_fill_normals``,
then ``eps`` in chunks of ``_EPS_CHUNK`` rows, each chunk one step of a
generator, so that a consumer can use the first rows while the rest are
drawn.  ``_fill_normals`` draws a ``z`` of at least ``_SPLIT_VALUES``
values on two threads when two CPUs are usable: the second half from a
copy of the stream jumped ahead, joined to the first half where the two
parses of the stream meet.  Drawn in chunks or whole, on one thread or
two, the values are the same.  The features
are ``z`` mapped to ``N(0, covariance)`` by the covariance's Cholesky
factor with an intercept prepended, and ``d = x @ theta_star + eps``.
The noise law is one of three families: standard normal, Student t, and
a two-or-more component Gaussian mixture.  The clairvoyant coefficient
vector for a quantile level ``tau`` is ``theta_star`` with the noise
quantile added to the intercept.
"""

from __future__ import annotations

import copy
import csv
import math
import warnings
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri, stdtr

from . import kernels
from .errors import (
    InvalidCovariance,
    MissingColumn,
    NonNumericCell,
    SingularCovariance,
    SplitTooLarge,
)
from .model import Dataset

DEFAULT_THETA_STAR = (1.5, 1.0, -2.5, -1.5, 3.0)
DIST_NAMES = ("normal", "t3", "mixture")  # the names ErrorDist.from_name takes

_QUANTILE_BRACKET = 1e3
_QUANTILE_XTOL = 1e-10
_QUANTILE_RTOL = 4 * np.finfo(float).eps  # scipy.optimize.bisect's default rtol
_COUNT_CHUNK_BYTES = 1 << 20
_MIXTURE_BLOCK = 4096
# Noise rows per draw call of _noise_chunks: coarse, since every chunk
# boundary can hand the interpreter lock to a thread that waits for it
_EPS_CHUNK = 16 * _MIXTURE_BLOCK
_SEPARATOR_BYTES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# Fewest standard normals that _fill_normals draws on two threads: below
# this the hand-off and the join cost more than the second CPU saves
_SPLIT_VALUES = 1 << 20
# Values drawn from the true stream to find where the jumped copy joins it
_JOIN_PROBES = 16
# Raw draws by which the jumped copy starts before the second half: a copy
# that starts at it can parse a value of the stream away and run ahead
_COPY_LEAD = 8
# Values moved per copy when the jumped half is shifted into place, so
# that an overlapping move needs no temporary larger than this
_SHIFT_CHUNK = 1 << 16


def ar1_covariance(dim: int, rho: float = 0.5) -> np.ndarray:
    """Covariance matrix with entries rho^|j-k|."""
    idx = np.arange(dim)
    return rho ** np.abs(np.subtract.outer(idx, idx)).astype(float)


@dataclass(frozen=True)
class ErrorDist:
    """Law of the observation noise.

    One of ``normal`` (standard), ``student_t`` (with ``df`` degrees of
    freedom), or ``gaussian_mixture`` with component weights, means and
    variances.
    """

    kind: str
    df: float | None = None
    weights: tuple[float, ...] | None = None
    means: tuple[float, ...] | None = None
    variances: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "normal":
            pass
        elif self.kind == "student_t":
            if self.df is None or not self.df > 0:
                raise ValueError("student_t requires df > 0")
        elif self.kind == "gaussian_mixture":
            w = np.asarray(self.weights, dtype=float)
            m = np.asarray(self.means, dtype=float)
            v = np.asarray(self.variances, dtype=float)
            if not (len(w) == len(m) == len(v)) or len(w) == 0:
                raise ValueError("mixture components must have equal nonzero length")
            if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
                raise ValueError("mixture weights must be non-negative and sum to 1")
            if np.any(v <= 0):
                raise ValueError("mixture variances must be positive")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
            object.__setattr__(self, "means", tuple(float(x) for x in m))
            object.__setattr__(self, "variances", tuple(float(x) for x in v))
        else:
            raise ValueError(f"unknown error distribution kind {self.kind!r}")

    @classmethod
    def normal(cls) -> "ErrorDist":
        return cls(kind="normal")

    @classmethod
    def student_t(cls, df: float = 3.0) -> "ErrorDist":
        return cls(kind="student_t", df=float(df))

    @classmethod
    def gaussian_mixture(cls, weights, means, variances) -> "ErrorDist":
        return cls(
            kind="gaussian_mixture",
            weights=tuple(weights),
            means=tuple(means),
            variances=tuple(variances),
        )

    @classmethod
    def from_name(cls, name: str) -> "ErrorDist":
        """The law named by one of ``DIST_NAMES``."""
        if name == "normal":
            return cls.normal()
        if name == "t3":
            return cls.student_t(3.0)
        if name == "mixture":
            return cls.gaussian_mixture((0.9, 0.1), (0.0, 0.0), (1.0, 100.0))
        raise ValueError(f"unknown distribution name {name!r}; valid: {', '.join(DIST_NAMES)}")

    @property
    def label(self) -> str:
        if self.kind == "normal":
            return "normal"
        if self.kind == "student_t":
            df = self.df
            return f"t{int(df)}" if float(df).is_integer() else f"t{df:g}"
        return "mixture"


def error_cdf(dist: ErrorDist, x):
    """CDF of the noise law; closed forms throughout."""
    x = np.asarray(x, dtype=float)
    if dist.kind == "normal":
        out = ndtr(x)
    elif dist.kind == "student_t":
        out = stdtr(dist.df, x)
    else:
        w = np.asarray(dist.weights)
        m = np.asarray(dist.means)
        s = np.sqrt(np.asarray(dist.variances))
        out = np.sum(w * ndtr((x[..., None] - m) / s), axis=-1)
    if out.ndim == 0:
        return float(out)
    return out


def error_quantile(dist: ErrorDist, tau: float) -> float:
    """Quantile of the noise law.

    Normal quantiles are closed form; Student t and mixtures are found
    by bisecting the CDF over [-1e3, 1e3] to 1e-10, step for step as
    ``scipy.optimize.bisect`` does, so the values are its values.
    """
    tau = float(tau)
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if dist.kind == "normal":
        return float(ndtri(tau))
    lo, step = -_QUANTILE_BRACKET, 2 * _QUANTILE_BRACKET
    if not error_cdf(dist, lo) < tau < error_cdf(dist, lo + step):
        raise ValueError(f"the {tau} quantile lies outside +-{_QUANTILE_BRACKET:g}")
    while True:
        step *= 0.5
        mid = lo + step
        gap = error_cdf(dist, mid) - tau
        if gap <= 0:
            lo = mid
        if gap == 0 or step < _QUANTILE_XTOL + _QUANTILE_RTOL * abs(mid):
            return mid


def _chunk_stops(n: int) -> list[int]:
    """The row at which each chunk of ``_noise_chunks`` ends, for ``n`` rows."""
    return [*range(_EPS_CHUNK, n, _EPS_CHUNK), n]


def _noise_chunks(dist: ErrorDist, eps: np.ndarray, rng: np.random.Generator):
    """Fill ``eps`` with the noise law's draws from ``rng``, one chunk of
    rows per step; a generator that yields each chunk's stop row, as
    listed by ``_chunk_stops``.

    Every value consumes the stream in row order, so the chunks give the
    values of one whole call.  A mixture draws the component label of
    every row first, then the normals chunk by chunk: the stream and
    values of ``rng.normal(means[comp], sds[comp])`` with
    ``comp = rng.choice(k, size=n, p=weights)``.  ``choice`` inverts
    uniforms against the weights' CDF, and uniforms drawn block by block
    are the same stream.  The labels take one byte a row, and the per-row
    means and sds exist one block at a time.
    """
    n = len(eps)
    if dist.kind == "gaussian_mixture":
        cdf = np.cumsum(dist.weights)
        cdf /= cdf[-1]
        comp = np.empty(n, dtype=np.min_scalar_type(len(cdf) - 1))
        for start in range(0, n, _MIXTURE_BLOCK):
            stop = min(start + _MIXTURE_BLOCK, n)
            comp[start:stop] = cdf.searchsorted(rng.random(stop - start), side="right")
        means, sds = np.asarray(dist.means), np.sqrt(dist.variances)
    start = 0
    for stop in _chunk_stops(n):
        chunk = eps[start:stop]
        if dist.kind == "student_t":
            chunk[:] = rng.standard_t(dist.df, size=stop - start)
        else:
            rng.standard_normal(out=chunk)
        if dist.kind == "gaussian_mixture":
            for lo in range(start, stop, _MIXTURE_BLOCK):
                block = eps[lo : min(lo + _MIXTURE_BLOCK, stop)]
                labels = comp[lo : lo + len(block)]
                block *= sds[labels]
                block += means[labels]
        yield stop
        start = stop


def _fill_normals(rng: np.random.Generator, out: np.ndarray) -> np.random.Generator:
    """Fill the C-contiguous ``out`` with the values of
    ``rng.standard_normal(out=out)``; return the generator that carries
    the stream on from where that call leaves it.

    numpy's ziggurat sampler takes one raw 64-bit draw per value, and
    more only on a rare rejection.  So with ``k = out.size // 2``, a copy
    of a PCG64 stream advanced by ``_COPY_LEAD`` raw draws fewer than
    ``k`` (O(log k) work) starts a little before the second half of the
    values, and its parse of the raw draws soon falls into step with the
    stream's.  With at least
    ``_SPLIT_VALUES`` values, two usable CPUs and a PCG64 stream, this
    thread draws the first half from ``rng`` while a task on the kernels'
    pool draws the second half from such a copy; ``_join`` finds and
    proves where the copy's values become the stream's.  They move left
    into place, in chunks of ``_SHIFT_CHUNK``, behind the probe values
    that precede the join, and the copy draws the missing tail and is
    returned.  Otherwise, or if no join is proven, the values are drawn
    serially from ``rng``.
    """
    flat = out.reshape(-1)
    n, k = flat.size, flat.size // 2
    if (
        n < _SPLIT_VALUES
        or type(rng.bit_generator) is not np.random.PCG64
        or kernels._usable_cpus() < 2
    ):
        rng.standard_normal(out=out)
        return rng
    start = copy.deepcopy(rng.bit_generator)
    start.advance(max(k - _COPY_LEAD, 0))
    ahead = np.random.Generator(copy.deepcopy(start))
    task = kernels._executor().submit(ahead.standard_normal, out=flat[k:])
    try:
        rng.standard_normal(out=flat[:k])
    finally:
        wait([task])  # the task writes into out: never leave before it ends
    task.result()
    join = _join(rng, start, flat[k:])
    if join is None:
        rng.standard_normal(out=flat[k:])
        return rng
    probes, j = join
    i = len(probes)
    shift = j - i
    for lo in range(k + i, n - shift, _SHIFT_CHUNK):
        hi = min(lo + _SHIFT_CHUNK, n - shift)
        flat[lo:hi] = flat[lo + shift : hi + shift]
    flat[k : k + i] = probes
    ahead.standard_normal(out=flat[n - shift :])
    return ahead


def _join(rng: np.random.Generator, start, half: np.ndarray):
    """Where ``half``, the values of a generator on the bit generator
    ``start``, joins the stream of ``rng``: ``(probes, j)`` such that the
    stream's values are ``probes`` and then ``half[j:]``, or None.

    ``_JOIN_PROBES`` values are drawn from ``rng``.  The first of them
    found in the head of ``half``, probe ``i`` at ``half[j]`` with
    ``j >= i``, is a join once proven: ``rng`` after ``i`` values must
    have the state of ``start`` after ``j``, found by drawing ``half[:j]``
    again in place.  Without a join, ``rng`` is left where it was.
    """
    after = rng.bit_generator.state
    probes = rng.standard_normal(_JOIN_PROBES)
    # the join lies ~2 % of the half in: about one value in 50 takes an
    # extra raw draw
    head = half[: len(half) // 16 + 64]
    for i, probe in enumerate(probes):
        for j in np.flatnonzero(head == probe).tolist():
            if j < i:
                continue
            rng.bit_generator.state = after
            rng.standard_normal(i)
            redraw = np.random.Generator(copy.deepcopy(start))
            redraw.standard_normal(out=half[:j])
            if redraw.bit_generator.state == rng.bit_generator.state:
                return probes[:i], j
    rng.bit_generator.state = after
    return None


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Recipe for a synthetic dataset.

    ``covariance`` governs the non-intercept features, so it has one
    fewer dimension than ``theta_star``.  It is checked, and its
    Cholesky factor ``_chol`` computed, once per recipe; ``_with`` gives
    the recipe at another size and seed without doing either again.
    """

    theta_star: tuple[float, ...]
    covariance: np.ndarray
    error_dist: ErrorDist
    n: int
    seed: int

    def __post_init__(self):
        theta = tuple(float(v) for v in self.theta_star)
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise InvalidCovariance("covariance must be a square matrix")
        if cov.shape[0] != len(theta) - 1:
            raise InvalidCovariance(
                f"covariance is {cov.shape[0]}x{cov.shape[0]} but theta_star has "
                f"{len(theta)} coefficients (needs one intercept + {cov.shape[0]} features)"
            )
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise InvalidCovariance("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise InvalidCovariance("covariance must be positive definite")
        if not self.n >= 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        cov.setflags(write=False)
        chol = np.linalg.cholesky(cov)
        chol.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def p(self) -> int:
        return len(self.theta_star)

    def _with(self, n: int, seed: int) -> "SyntheticSpec":
        """The recipe at another size and seed.  Its covariance is not
        checked again, and the Cholesky factor is shared."""
        if not n >= 1:
            raise ValueError(f"n must be >= 1, got {n}")
        spec = copy.copy(self)
        object.__setattr__(spec, "n", n)
        object.__setattr__(spec, "seed", seed)
        return spec


def default_spec(n: int, dist: str | ErrorDist = "normal", seed: int = 0) -> SyntheticSpec:
    """The stock 5-coefficient design used by the CLI and benchmarks."""
    if isinstance(dist, str):
        dist = ErrorDist.from_name(dist)
    return SyntheticSpec(
        theta_star=DEFAULT_THETA_STAR,
        covariance=ar1_covariance(len(DEFAULT_THETA_STAR) - 1, 0.5),
        error_dist=dist,
        n=n,
        seed=seed,
    )


def _synthetic_stream(spec: SyntheticSpec):
    """The recipe's random stream from ``default_rng(seed)``, to be drawn
    step by step: the standard normals ``z``, one row of ``p - 1`` per
    observation, then the noise ``eps``.

    Returns ``z`` and ``eps``, not yet filled, their chunks' stop rows
    ``_chunk_stops(spec.n)``, and a generator that fills them in stream
    order: its first step draws all of ``z`` and the noise of the first
    chunk, each later step the noise of the next chunk, and each step
    yields its chunk's stop row.  ``z`` is drawn by ``_fill_normals``, on
    two threads if it is large enough, and ``eps`` from the generator
    that it hands on, so the values are those of one generator's calls.
    """
    rng = np.random.default_rng(spec.seed)
    z = np.empty((spec.n, spec.p - 1))
    eps = np.empty(spec.n)

    def draw():
        yield from _noise_chunks(spec.error_dist, eps, _fill_normals(rng, z))

    return z, eps, _chunk_stops(spec.n), draw()


def _synthetic_draws(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """The recipe's random stream drawn whole: ``z`` and ``eps`` of
    ``_synthetic_stream``.

    ``generate_synthetic`` builds the rows from this draw, and
    ``evaluation.out_of_sample_cost`` scores a recipe straight from it.
    """
    z, eps, _, stream = _synthetic_stream(spec)
    for _ in stream:
        pass
    return z, eps


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset from the recipe; deterministic given the seed.

    Features are ``x = (1, z @ chol.T)``, with ``chol`` the Cholesky
    factor of the covariance, and demands ``d = x @ theta_star + eps``,
    from the draw of ``_synthetic_draws``.
    """
    z, eps = _synthetic_draws(spec)
    x = np.empty((spec.n, spec.p))
    x[:, 0] = 1.0
    x[:, 1:] = z @ spec._chol.T
    return Dataset(demands=x @ np.asarray(spec.theta_star) + eps, features=x)


def true_beta_star(spec: SyntheticSpec, tau: float) -> np.ndarray:
    """Clairvoyant optimal coefficients at quantile level tau.

    Equals ``theta_star`` with the noise quantile added to the intercept
    coordinate only.
    """
    beta = np.array(spec.theta_star, dtype=float)
    beta[0] += error_quantile(spec.error_dist, tau)
    return beta


def load_csv(path, demand_column: str) -> Dataset:
    """Load a UTF-8 CSV (byte-order mark optional) with a header row into a Dataset.

    The demand column is removed from the features, an intercept column
    is prepended, and remaining columns keep their file order.  Every
    row must have exactly one cell per header column, and every cell
    must parse as a finite number.

    The file is read in two passes.  The first reads the header with
    ``csv.reader`` and streams the remaining lines through
    ``np.loadtxt``'s C parser; the second counts the file's lines in
    binary chunks.  The table is kept only if ``loadtxt`` parsed one row
    of ``len(header)`` finite values from every line after the header.
    Any other file, including every malformed one, is read again by
    ``_scan_csv``, so results and errors are those of the row scanner.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = [h.strip() for h in next(csv.reader(fh), [])]
        if demand_column not in header:
            # the scanner raises the empty-file or missing-column error
            return _scan_csv(path, demand_column)
        with warnings.catch_warnings():
            # loadtxt warns instead of raising on a header-only file
            warnings.simplefilter("error", UserWarning)
            try:
                table = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, ndmin=2, dtype=float
                )
            except (ValueError, UserWarning):
                return _scan_csv(path, demand_column)
    # loadtxt skips blank lines, which the scanner rejects; one row for
    # every line after the header rules them out
    lines = _count_lines(path)
    if lines is None or table.shape != (lines - 1, len(header)) or not np.isfinite(table).all():
        return _scan_csv(path, demand_column)
    d_idx = header.index(demand_column)
    features = np.empty_like(table)
    features[:, 0] = 1.0
    features[:, 1 : d_idx + 1] = table[:, :d_idx]
    features[:, d_idx + 1 :] = table[:, d_idx + 1 :]
    return Dataset(demands=table[:, d_idx], features=features)


def _count_lines(path) -> int | None:
    """Lines of the file as a text handle with ``newline=""`` splits it.

    ``\\n``, ``\\r\\n`` and a lone ``\\r`` each end a line, and a last line
    without an ending counts too.  None if the file holds one of the
    bytes 0x1c-0x1f: ``loadtxt`` strips them around a number as
    whitespace, ``float`` rejects them.
    """
    lines = 0
    last = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_COUNT_CHUNK_BYTES):
            if any(sep in chunk for sep in _SEPARATOR_BYTES):
                return None
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # most files have none: skip the two-byte search
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1
            last = chunk[-1:]
    if last not in (b"", b"\n", b"\r"):
        lines += 1
    return lines


def _scan_csv(path, demand_column: str) -> Dataset:
    """Reference reader behind ``load_csv``: a ``csv.reader`` loop that
    parses every cell with ``float``.

    It defines the accepted format and every error ``load_csv`` raises.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if demand_column not in header:
            raise MissingColumn(
                f"column {demand_column!r} not found in {path} (columns: {header})"
            )
        d_idx = header.index(demand_column)
        demands = []
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for name, cell in zip(header, row):
                try:
                    v = float(cell)
                except ValueError:
                    raise NonNumericCell(i, name, cell) from None
                if not math.isfinite(v):
                    raise NonNumericCell(i, name, cell)
                parsed.append(v)
            demands.append(parsed[d_idx])
            rows.append([v for j, v in enumerate(parsed) if j != d_idx])
    n = len(demands)
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    features = np.column_stack([np.ones(n), np.asarray(rows, dtype=float)])
    return Dataset(demands=np.asarray(demands), features=features)


@dataclass(frozen=True, eq=False)
class Whitener:
    """Second-moment matrix with its inverse square root."""

    sigma_matrix: np.ndarray
    inv_sqrt: np.ndarray

    def __post_init__(self):
        for name in ("sigma_matrix", "inv_sqrt"):
            m = np.array(getattr(self, name), dtype=float)
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def p(self) -> int:
        return self.sigma_matrix.shape[0]


def _whitener_from_matrix(sigma: np.ndarray) -> Whitener:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidCovariance("second-moment matrix must be square")
    sigma = 0.5 * (sigma + sigma.T)
    evals, vecs = np.linalg.eigh(sigma)
    if evals.min() <= 1e-10 * evals.max():
        raise SingularCovariance(
            f"second-moment matrix is numerically singular (eigenvalues {evals})"
        )
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.T
    return Whitener(sigma_matrix=sigma, inv_sqrt=inv_sqrt)


def whitener_from(source) -> Whitener:
    """Build a whitener from a SyntheticSpec or a second-moment matrix.

    A SyntheticSpec yields the exact second moment of its features
    (block diagonal: 1 for the intercept, the feature covariance for the
    rest).  A Dataset is refused: its ``X'X / n`` is computed from the
    rows, so a fit whitened with it is not covered by its certificate.
    """
    if isinstance(source, Dataset):
        raise TypeError("whitener_from takes a SyntheticSpec or a matrix, not a Dataset")
    if isinstance(source, SyntheticSpec):
        p = source.p
        sigma = np.zeros((p, p))
        sigma[0, 0] = 1.0
        sigma[1:, 1:] = source.covariance
        return _whitener_from_matrix(sigma)
    return _whitener_from_matrix(np.asarray(source, dtype=float))


def train_test_split(data: Dataset, n_train: int, seed) -> tuple[Dataset, Dataset]:
    """Uniform random partition without replacement; seed-deterministic."""
    if not 1 <= n_train < data.n:
        raise SplitTooLarge(
            f"n_train must be in [1, {data.n - 1}], got {n_train}"
        )
    perm = np.random.default_rng(seed).permutation(data.n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(demands=data.demands[tr], features=data.features[tr]),
        Dataset(demands=data.demands[te], features=data.features[te]),
    )

