"""Property tests of what the replication harness promises however its
replications are batched, laned and threaded.

Each test drives ``sweep``, ``run_replications`` or ``optimizer.fit`` over
small random sweeps: sizes, R, privacy levels with or without the
non-private one, a fixed step or the line search.  The seams are the
constants that shape the work (``evaluation._STACK_ROWS`` and
``_LANE_ELEMENTS``, ``data._SPLIT_VALUES`` and ``_EPS_CHUNK``), the usable
CPUs, a failing ``optimizer.smoothed_erm`` and the generators numpy hands
out.  What the harness did is read off the lockstep's CDF, which each noisy
step of a batch calls once, on the batch's thread, with its
``(replications, n, levels)`` residuals.  The examples are derandomized,
so every run checks the same sweeps.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpnewsvendor import data, evaluation, kernels, optimizer
from dpnewsvendor.data import (
    DEFAULT_THETA_STAR, ErrorDist, ar1_covariance, default_spec, generate_synthetic,
)
from dpnewsvendor.errors import MaxIterExceeded
from dpnewsvendor.evaluation import ReplicationConfig, derive_seed, run_replications, sweep
from dpnewsvendor.model import Problem
from dpnewsvendor.optimizer import HyperParams, default_bandwidth


class DrawFailed(Exception):
    pass


def _settings(examples: int):
    return settings(deadline=None, max_examples=examples, derandomize=True, database=None)


# one size of 50 rows at one private level, the base of the pinned examples
_SMALL = ReplicationConfig(
    problem=Problem.from_quantile(0.5), error_dist=ErrorDist.normal(), n=50,
    theta_star=DEFAULT_THETA_STAR, covariance=ar1_covariance(len(DEFAULT_THETA_STAR) - 1, 0.5),
    mu_grid=(0.5,), n_steps=2, eval_n=500, base_seed=1,
)


@st.composite
def sweeps(draw, private=(0, 3), nonprivate=None):
    """``(config, ns, R)`` of a small sweep.  ``private`` bounds the number
    of private levels; ``nonprivate`` forces the non-private level in or
    out."""
    levels = draw(st.lists(st.sampled_from((2.0, 0.9, 0.5, 0.3)), min_size=private[0],
                           max_size=private[1], unique=True))
    if nonprivate is None:
        nonprivate = not levels or draw(st.booleans())
    ns = draw(st.lists(st.sampled_from((20, 30, 50, 80)), min_size=1, max_size=3, unique=True))
    config = replace(
        _SMALL,
        problem=Problem.from_quantile(draw(st.sampled_from((0.5, 0.7)))),
        error_dist=ErrorDist.from_name(draw(st.sampled_from(("normal", "t3", "mixture")))),
        n=ns[0],
        mu_grid=(None,) * nonprivate + tuple(levels),
        n_steps=draw(st.integers(1, 4)),
        step_size=draw(st.sampled_from((None, 0.7))),
        mode=draw(st.sampled_from(("known_sigma_matrix", "raw_covariates"))),
        # up to four blocks of the cost pass
        eval_n=draw(st.integers(1, 4 * evaluation._BLOCK_ROWS)),
        base_seed=draw(st.integers(0, 2**63 - 1)),
    )
    return config, tuple(ns), draw(st.integers(1, 5))


def _record_steps(mp) -> tuple[list, set]:
    """Record ``(thread, replications, n)`` for each lockstep step, and the
    names of the threads alive at a step that were not alive before."""
    steps, started, cdf = [], set(), kernels._standard_cdf
    before = set(threading.enumerate())

    def recorded(kernel, t):
        if np.ndim(t) == 3:  # the ERM's gradients are 1-d
            steps.append((threading.get_ident(), *np.shape(t)[:2]))
            started.update(th.name for th in threading.enumerate() if th not in before)
        return cdf(kernel, t)

    mp.setattr(kernels, "_standard_cdf", recorded)
    return steps, started


def _batches(steps, n_steps: int) -> dict[int, list[tuple[int, int]]]:
    """``(replications, n)`` of each batch, per thread: a thread fits its
    batches in turn, each in ``n_steps`` steps of one CDF call."""
    calls: dict[int, list] = {}
    for thread, reps, n in steps:
        calls.setdefault(thread, []).append((reps, n))
    batches = {}
    for thread, shapes in calls.items():
        assert len(shapes) % n_steps == 0, shapes
        runs = [shapes[i : i + n_steps] for i in range(0, len(shapes), n_steps)]
        assert all(len(set(run)) == 1 for run in runs), shapes
        batches[thread] = [run[0] for run in runs]
    return batches


def _lanes(config, ns, R, lane_elements, cpus) -> int:
    """Lanes of a sweep: one per ``lane_elements`` elements (rows times
    private levels), at most one per usable CPU, at least one."""
    levels = sum(mu is not None for mu in config.mu_grid)
    return max(1, min(R * sum(ns) * levels // lane_elements, cpus))


def _patch(mp, stack_rows=None, lane_elements=None, split_values=None, cpus=None):
    for module, name, value in (
        (evaluation, "_STACK_ROWS", stack_rows),
        (evaluation, "_LANE_ELEMENTS", lane_elements),
        (data, "_SPLIT_VALUES", split_values),
    ):
        if value is not None:
            mp.setattr(module, name, value)
    if cpus is not None:
        mp.setattr(kernels, "_usable_cpus", lambda: cpus)


@_settings(8)
# a copy of this evaluation stream that started exactly at its half would
# miss the join, and the stream would draw the second half again
@example(case=(replace(_SMALL, eval_n=37, base_seed=1009), (50,), 2), stack_rows=400,
         lane_elements=3000, split_values=64, cpus=2, jobs=1)
# two lanes of two replications
@example(case=(_SMALL, (50,), 4), stack_rows=400, lane_elements=1, split_values=64, cpus=2,
         jobs=1)
# z of 2^20 values, the real threshold
@example(case=(replace(_SMALL, eval_n=1 << 18), (50,), 2), stack_rows=400, lane_elements=3000,
         split_values=data._SPLIT_VALUES, cpus=2, jobs=1)
@given(
    case=sweeps(), stack_rows=st.integers(1, 400), lane_elements=st.integers(1, 3000),
    split_values=st.integers(64, 40_000), cpus=st.integers(1, 4), jobs=st.integers(1, 8),
)
def test_rows_ignore_batches_lanes_split_draws_cpus_and_jobs(
    case, stack_rows, lane_elements, split_values, cpus, jobs
):
    # the reference: one run per size on one CPU, at the default batches,
    # whose single lane fits one batch per size and draws serially
    config, ns, R = case
    eval_seed, drawn, default_rng = derive_seed(config.base_seed, 0, 0), [], np.random.default_rng

    class Counted(np.random.Generator):
        def standard_normal(self, *args, out=None, **kwargs):
            drawn.append(0 if out is None else out.size)
            return super().standard_normal(*args, out=out, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, cpus=1)
        rows = sum((run_replications(replace(config, n=n), R).rows for n in ns), ())
        _patch(mp, stack_rows, lane_elements, split_values, cpus)
        mp.setattr(np.random, "default_rng",
                   lambda seed: Counted(np.random.PCG64(seed)) if seed == eval_seed
                   else default_rng(seed))
        assert sweep(config, ns, R, jobs=jobs).rows == rows
    z_size = config.eval_n * (len(config.theta_star) - 1)
    if cpus > 1 and z_size >= split_values:
        # a split draw: the evaluation stream draws the first half of its
        # normals, and a copy of it the rest and the noise
        assert sum(drawn) == z_size // 2


@_settings(8)
# 64 blocks of the cost pass: one ERM ends long before they are drawn, so
# the main thread takes the first ones; 61 ERMs end long after, and the
# helper has taken them all from the back
@example(case=(replace(_SMALL, mu_grid=(None,), eval_n=1 << 18, base_seed=0), (80,), 1),
         more=60, lane_elements=3000, cpus=1)
@given(case=sweeps(), more=st.integers(1, 4), lane_elements=st.integers(1, 3000),
       cpus=st.integers(1, 4))
def test_rows_are_prefix_stable_in_R(case, more, lane_elements, cpus):
    config, ns, R = case
    with pytest.MonkeyPatch.context() as mp:
        _patch(mp, lane_elements=lane_elements, cpus=cpus)
        rows = sweep(config, ns, R + more).rows
        assert sweep(config, ns, R).rows == tuple(row for row in rows if row.rep_id <= R)


@_settings(12)
# every replication a batch of its own
@example(case=(replace(_SMALL, mu_grid=(None, 0.5)), (50,), 3), pick=(0, 1), stack_rows=1,
         lane_elements=3000, cpus=1)
@given(
    case=sweeps(private=(1, 2), nonprivate=True),
    pick=st.tuples(st.integers(0, 2), st.integers(0, 4)),
    stack_rows=st.integers(1, 400), lane_elements=st.integers(1, 3000), cpus=st.integers(1, 4),
)
def test_a_failing_replication_is_named_and_fitted_alone_at_most_once(
    case, pick, stack_rows, lane_elements, cpus
):
    config, ns, R = case
    bad_n, bad_rep = ns[pick[0] % len(ns)], 1 + pick[1] % R
    seed = derive_seed(config.base_seed, bad_rep, 0)
    bad = generate_synthetic(default_spec(bad_n, config.error_dist, seed=seed)).demands
    erm, lone = optimizer.smoothed_erm, []

    with pytest.MonkeyPatch.context() as mp:
        steps, _ = _record_steps(mp)

        def failing_erm(train, *args, **kwargs):
            if np.array_equal(train.demands, bad):
                # the batch that fitted it took the last step on this thread
                thread = threading.get_ident()
                lone.append([reps for t, reps, _ in steps if t == thread][-1] == 1)
                raise MaxIterExceeded("stuck")
            return erm(train, *args, **kwargs)

        mp.setattr(optimizer, "smoothed_erm", failing_erm)
        _patch(mp, stack_rows, lane_elements, cpus=cpus)
        with pytest.raises(evaluation.ReplicationError) as failure:
            sweep(config, ns, R)
    assert failure.value.rep_id == bad_rep
    assert isinstance(failure.value.__cause__, MaxIterExceeded)
    # once in its batch, and once more alone only if the batch held others
    assert lone in ([True], [False, True]), lone


@_settings(12)
# two lanes of two replications, each lane's share one replication's rows
@example(case=(_SMALL, (50,), 4), room=1, lane_elements=1, cpus=2)
@given(case=sweeps(private=(1, 3)), room=st.integers(1, 5), lane_elements=st.integers(1, 3000),
       cpus=st.integers(1, 4))
def test_batches_in_flight_hold_at_most_the_stack_rows(case, room, lane_elements, cpus):
    # a limit that leaves each lane room for ``room`` replications of the
    # largest size: a larger replication would be a batch of its own
    config, ns, R = case
    stack_rows = cpus * room * max(ns)
    with pytest.MonkeyPatch.context() as mp:
        steps, _ = _record_steps(mp)
        _patch(mp, stack_rows, lane_elements, cpus=cpus)
        sweep(config, ns, R)
    batches = _batches(steps, config.n_steps)
    # a thread fits one batch at a time, so no more rows are in flight
    # than the largest batch of each thread together
    assert sum(max(reps * n for reps, n in fits) for fits in batches.values()) <= stack_rows


@_settings(8)
# 200 elements: one lane's worth at 150 each, whatever ``jobs`` says; two
# lanes of two replications at 1 each; one lane on one CPU
@example(case=(_SMALL, (50,), 4), lane_elements=150, cpus=2, jobs=3, fit_n=200)
@example(case=(_SMALL, (50,), 4), lane_elements=1, cpus=2, jobs=1, fit_n=200)
@example(case=(_SMALL, (50,), 4), lane_elements=1, cpus=1, jobs=1, fit_n=200)
@given(
    case=sweeps(private=(1, 3)), lane_elements=st.integers(1, 3000), cpus=st.integers(1, 4),
    jobs=st.integers(1, 8), fit_n=st.sampled_from((200, 70_000)),
)
def test_only_the_named_threads_start_and_the_lanes_follow_the_sweep(
    case, lane_elements, cpus, jobs, fit_n
):
    config, ns, R = case
    lanes = _lanes(config, ns, R, lane_elements, cpus)
    caller = threading.get_ident()
    with pytest.MonkeyPatch.context() as mp:
        steps, started = _record_steps(mp)
        _patch(mp, lane_elements=lane_elements, cpus=cpus)
        sweep(config, ns, R, jobs=jobs)
        # only the evaluation helper and fork-join workers run beside the fits
        assert any(name.startswith("dpnv-evaluation") for name in started)
        assert all(name.startswith(("dpnv-evaluation", "dpnv-kernels")) for name in started)
        fitters = {thread for thread, _, _ in steps}
        assert caller in fitters and len(fitters) <= lanes
        rows = R * sum(ns)
        if max(ns) * lanes <= rows:
            # every lane holds a replication, the first on this thread,
            # with rows within half a replication of its share
            assert len(fitters) >= min(lanes, 2)
            fitted = sum(reps * n for thread, reps, n in steps if thread == caller)
            assert abs(fitted / config.n_steps - rows / lanes) <= max(ns) / 2

        # a single fit, however large, runs on the calling thread alone
        train = generate_synthetic(default_spec(fit_n, seed=config.base_seed))
        hp = HyperParams(
            bandwidth=default_bandwidth(0.5, fit_n, train.p), n_steps=2, clip_radius=2.0,
            step_size=config.step_size, sigma=1.0, mode="raw_covariates",
        )
        before, steps[:] = set(threading.enumerate()), []
        optimizer.fit(train, Problem.from_quantile(0.5), hp)
        assert set(threading.enumerate()) == before
        assert {thread for thread, _, _ in steps} == {caller}


@_settings(10)
# the worker's half of z ends long after the helper's half has failed
@example(case=(replace(_SMALL, eval_n=2_000), (50,), 2), where="helper", call=0,
         lane_elements=3000, cpus=2, slow_worker=True)
@given(
    case=sweeps(private=(1, 3)), where=st.sampled_from(("helper", "worker")),
    call=st.integers(0, 3), lane_elements=st.integers(1, 3000), cpus=st.integers(2, 4),
    slow_worker=st.just(False),
)
def test_an_error_on_the_pool_or_the_helper_reaches_the_caller(
    case, where, call, lane_elements, cpus, slow_worker
):
    # the evaluation set's z is split between the helper and a fork-join
    # worker, and its noise drawn in chunks of 500 rows; the helper's
    # ``call``-th draw fails, or the worker's half of z.  A fit that fails
    # in a lane on a worker is the failing replication's test
    config, ns, R = case
    config = replace(config, error_dist=ErrorDist.normal(), eval_n=max(config.eval_n, 2_000))
    z_size = config.eval_n * (len(config.theta_star) - 1)
    helper_calls, running = [], []

    class Failing(np.random.Generator):
        def standard_normal(self, *args, out=None, **kwargs):
            thread = threading.current_thread().name
            # only the evaluation set is drawn on the helper, and no lane's
            # draw has the size of the worker's half of z
            on_helper = thread.startswith("dpnv-evaluation") and out is not None
            worker_half = thread.startswith("dpnv-kernels") and getattr(out, "size", 0) == (
                z_size - z_size // 2
            )
            if on_helper:
                helper_calls.append(out.size)
            if where == "helper" and on_helper and len(helper_calls) > call or (
                where == "worker" and worker_half
            ):
                raise DrawFailed
            running.append(self)
            try:
                if worker_half and slow_worker:
                    time.sleep(0.05)
                return super().standard_normal(*args, out=out, **kwargs)
            finally:
                running.remove(self)

    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: Failing(np.random.PCG64(seed)))
        mp.setattr(np.random, "Generator", Failing)  # the split draw's copy of the stream
        mp.setattr(data, "_EPS_CHUNK", 500)
        _patch(mp, lane_elements=lane_elements, split_values=z_size, cpus=cpus)
        with pytest.raises(DrawFailed):
            sweep(config, ns, R)
    # no draw writes into the sweep's arrays once it has failed, and the
    # helper and the workers are joined
    assert running == []
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
@pytest.mark.parametrize(
    "case, lane_elements, split_values, error",
    [
        # two lanes of two replications, the second on a worker, where
        # replication 3's training draw fails
        ((_SMALL, (50,), 4), 1, None, evaluation.ReplicationError),
        # one lane; the helper's z of 2,000 * 4 values, the one draw at the
        # threshold, is split with a worker, whose half fails
        ((replace(_SMALL, eval_n=2_000), (50,), 2), 3000, 8_000, DrawFailed),
    ],
    ids=["two-lanes", "split-draw"],
)
def test_no_worker_outlives_a_sweep(case, lane_elements, split_values, error, fails):
    config, ns, R = case
    workers = set()

    class FailingOnAWorker(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            thread = threading.current_thread()
            if thread.name.startswith("dpnv-kernels"):
                workers.add(thread)
                if fails:
                    raise DrawFailed
            return super().standard_normal(*args, **kwargs)

    before = set(threading.enumerate())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", lambda seed: FailingOnAWorker(np.random.PCG64(seed)))
        mp.setattr(np.random, "Generator", FailingOnAWorker)  # the split draw's copy
        _patch(mp, lane_elements=lane_elements, split_values=split_values, cpus=2)
        if fails:
            with pytest.raises(error):
                sweep(config, ns, R)
        else:
            sweep(config, ns, R)
    assert workers and not any(worker.is_alive() for worker in workers)
    assert set(threading.enumerate()) == before


@_settings(12)
# one lane of one size: one batch
@example(case=(_SMALL, (50,), 4), lane_elements=1, cpus=1)
@given(case=sweeps(private=(1, 3)), lane_elements=st.integers(1, 3000), cpus=st.integers(1, 4))
def test_a_batch_takes_one_cdf_call_a_step_and_a_lane_one_batch_a_size(
    case, lane_elements, cpus
):
    config, ns, R = case
    with pytest.MonkeyPatch.context() as mp:
        steps, _ = _record_steps(mp)
        _patch(mp, lane_elements=lane_elements, cpus=cpus)
        sweep(config, ns, R)
    batches = [batch for fits in _batches(steps, config.n_steps).values() for batch in fits]
    # each replication of each size is fitted in exactly one batch
    assert {n: sum(reps for reps, m in batches if m == n) for n in ns} == dict.fromkeys(ns, R)
    # under the default limit a lane holds one batch of each of its sizes,
    # and consecutive lanes share at most one size
    assert len(batches) <= len(ns) + _lanes(config, ns, R, lane_elements, cpus) - 1
