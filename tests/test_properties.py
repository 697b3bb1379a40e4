"""Property tests: clipping invariants and ERM convergence on random data."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpnewsvendor.model import Dataset, Problem, smoothed_gradient
from dpnewsvendor.optimizer import clip, smoothed_erm

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


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(20, 200),
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
