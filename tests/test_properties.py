"""Property tests: clipping, the smoothed-loss sandwich, one-step
sensitivity, ERM convergence, the CSV reader's two parsers and the
replication harness's seeding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpnewsvendor import data as datamod
from dpnewsvendor.data import (
    DEFAULT_THETA_STAR,
    DIST_NAMES,
    ErrorDist,
    ar1_covariance,
    load_csv,
    whitener_from,
)
from dpnewsvendor.evaluation import ReplicationConfig, estimation_error, run_replications
from dpnewsvendor.kernels import KERNEL_NAMES, check_loss, constants, smoothed_check_loss
from dpnewsvendor.model import Dataset, Problem, smoothed_gradient
from dpnewsvendor.optimizer import HyperParams, clip, noisy_step, smoothed_erm

vectors = arrays(
    np.float64,
    st.integers(1, 6),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
radii = st.floats(1e-3, 1e3)


@settings(deadline=None, max_examples=200)
@given(u=vectors, radius=radii)
def test_clip_caps_norm_and_is_idempotent(u, radius):
    v = clip(u, radius)
    assert np.linalg.norm(v) <= radius * (1 + 1e-12)
    np.testing.assert_allclose(clip(v, radius), v, rtol=1e-12, atol=0.0)


@settings(deadline=None, max_examples=200)
@given(u=vectors, radius=radii)
def test_clip_keeps_direction(u, radius):
    v = clip(u, radius)
    norm_u = np.linalg.norm(u)
    if norm_u <= radius:
        np.testing.assert_array_equal(v, u)
    else:
        # v is u scaled by a positive factor, up to rounding
        assert np.linalg.norm(v * (norm_u / np.linalg.norm(v)) - u) <= 1e-12 * norm_u


@settings(deadline=None, max_examples=300)
@given(
    kernel=st.sampled_from(KERNEL_NAMES),
    tau=st.floats(0.01, 0.99),
    bandwidth=st.floats(1e-3, 10.0),
    u=arrays(np.float64, st.integers(1, 20), elements=st.floats(-1e3, 1e3)),
)
def test_smoothed_loss_sandwich(kernel, tau, bandwidth, u):
    # residuals anywhere up to +-1e3, plus a grid across the smoothing window
    u = np.concatenate([u, bandwidth * np.linspace(-3.0, 3.0, 25)])
    plain = check_loss(tau, u)
    smooth = smoothed_check_loss(kernel, u, tau, bandwidth)
    gap = 0.5 * constants(kernel).kappa_1 * bandwidth
    slack = 16 * np.finfo(float).eps * (np.abs(u) + bandwidth)
    assert np.all(plain <= smooth + slack)
    assert np.all(smooth <= plain + gap + slack)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 200),
    p=st.integers(1, 4),
    kernel=st.sampled_from(["gaussian", "logistic"]),
    tau=st.floats(0.05, 0.95),
    bandwidth=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_smoothed_erm_reaches_tolerance(n, p, kernel, tau, bandwidth, seed):
    rng = np.random.default_rng(seed)
    features = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    demands = features @ rng.normal(size=p) + rng.standard_t(3, size=n)
    data = Dataset(demands=demands, features=features)
    problem = Problem.from_quantile(tau)
    tol = 1e-8
    beta = smoothed_erm(data, problem, kernel, bandwidth, tol=tol)
    assert np.linalg.norm(smoothed_gradient(problem, data, beta, kernel, bandwidth)) <= tol


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(2, 60),
    p=st.integers(1, 5),
    tau=st.floats(0.02, 0.98),
    radius=st.floats(1.0, 20.0),
    eta=st.floats(0.01, 5.0),
    mode=st.sampled_from(["known_sigma_matrix", "raw_covariates"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_step_sensitivity_on_neighbouring_datasets(n, p, tau, radius, eta, mode, seed):
    rng = np.random.default_rng(seed)
    features = np.column_stack([np.ones(n), rng.normal(scale=3.0, size=(n, p - 1))])
    demands = features @ rng.normal(size=p) + rng.standard_t(3, size=n)
    data = Dataset(demands=demands, features=features)
    i = rng.integers(n)
    demands[i] = rng.normal(scale=10.0)
    features[i, 1:] = rng.normal(scale=10.0, size=p - 1)
    neighbour = Dataset(demands=demands, features=features)
    if mode == "known_sigma_matrix":
        a = rng.normal(size=(p, p))
        whitener = whitener_from(np.eye(p) + a @ a.T / p)
    else:
        whitener = None
    hp = HyperParams(
        bandwidth=0.3, n_steps=1, clip_radius=radius, step_size=eta, sigma=5.0,
        mode=mode,
    )
    problem = Problem.from_quantile(tau)
    beta = rng.normal(size=p)
    g = rng.standard_normal(p)
    out_a = noisy_step(beta, data, problem, hp, g, whitener)
    out_b = noisy_step(beta, neighbour, problem, hp, g, whitener)
    # estimation_error is the Euclidean norm without a whitener, the
    # Sigma-norm with one
    dist = estimation_error(out_a, out_b, whitener)
    bound = 2 * max(tau, 1 - tau) * radius * eta / n
    assert dist <= bound * (1 + 1e-9) + 1e-12 * (1 + np.linalg.norm(out_a))


def _outcome(reader, path):
    """Arrays as bytes, or the exception's type and message."""
    try:
        ds = reader(path, "demand")
    except ValueError as exc:
        return type(exc), str(exc)
    return ds.demands.tobytes(), ds.features.tobytes()


_FORMATS = (repr, "{:g}".format, "{:.3e}".format, lambda v: str(int(v)))


@st.composite
def csv_tables(draw):
    """A well-formed CSV text: header, 1-200 rows of finite numbers
    written in several forms, some quoted or padded, LF or CRLF."""
    width = draw(st.integers(1, 6))
    names = [f"z{j}" for j in range(1, width)]
    names.insert(draw(st.integers(0, width - 1)), "demand")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    cell = st.builds(
        lambda v, fmt, pad, quote: quote + " " * pad[0] + fmt(v) + " " * pad[1] + quote,
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
        | st.integers(-(10**6), 10**6).map(float),
        st.sampled_from(_FORMATS),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from(["", "", '"']),
    )
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=200))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


@settings(deadline=None, max_examples=100)
@given(text=csv_tables())
def test_load_csv_equals_scanner_on_well_formed_tables(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = load_csv(path, "demand")
    slow = datamod._scan_csv(path, "demand")
    assert fast.demands.tobytes() == slow.demands.tobytes()
    assert fast.features.tobytes() == slow.features.tobytes()


# pieces on which the two parsers can disagree: blank lines, lone CRs,
# quotes, separators loadtxt strips as whitespace, non-finite numbers
_PIECES = ["1", "2.5", "-0", "1e999", "nan", "1_0", " ", '"', ",", "\n", "\r\n", "\r", "#", "\x1c"]


@settings(deadline=None, max_examples=300)
@given(
    header=st.sampled_from(["demand", "demand,z1", "z1,demand"]),
    body=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
)
def test_load_csv_matches_scanner_on_any_text(tmp_path_factory, header, body):
    path = tmp_path_factory.mktemp("csv") / "text.csv"
    path.write_bytes(f"{header}\n{body}".encode("utf-8"))
    assert _outcome(load_csv, path) == _outcome(datamod._scan_csv, path)


@settings(deadline=None, max_examples=50)
@given(
    base_seed=st.integers(0, 2**63 - 1),
    # crosses the 4096-row blocks of the evaluation pass
    eval_n=st.integers(1, 9000),
    dist=st.sampled_from(DIST_NAMES),
)
def test_replication_rows_ignore_jobs_and_later_replications(base_seed, eval_n, dist):
    config = ReplicationConfig(
        problem=Problem.from_quantile(0.5),
        error_dist=ErrorDist.from_name(dist),
        n=40,
        theta_star=DEFAULT_THETA_STAR,
        covariance=ar1_covariance(len(DEFAULT_THETA_STAR) - 1, 0.5),
        mu_grid=(None, 0.5),
        eval_n=eval_n,
        base_seed=base_seed,
    )
    rows = run_replications(config, R=2).rows
    assert run_replications(config, R=2, jobs=2).rows == rows
    assert run_replications(config, R=1).rows == rows[: len(config.mu_grid)]
