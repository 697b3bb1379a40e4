"""Tests of the benchmark's tracer: tracing must not change what the
program computes, must put every patched name back, and must survive
names that no longer exist."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

from dpnewsvendor import data, evaluation, model  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CsvFit, _cell, _row_outputs  # noqa: E402


class SmallCsvFit(CsvFit):
    train_rows = 3_000
    test_rows = 500


def _replications():
    config = _cell(mu_grid=(None, 0.5), step_size=None, n=150, eval_n=5_000, base_seed=3)
    return _row_outputs(evaluation.run_replications(config, 2, jobs=1))


def _traced(tracer, fn, *args):
    tracer.install()
    try:
        return tracer.unit(fn, *args)
    finally:
        tracer.uninstall()


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    session = SmallCsvFit()
    session.prepare(tmp_path, [0])
    tracer = Tracer()

    assert _traced(tracer, _replications) == _replications()
    assert _traced(tracer, session.run, 0) == session.run(0)

    layers = tracer.summary()
    for name in ("evaluation.out_of_sample_cost", "optimizer.smoothed_erm", "data.load_csv"):
        assert layers[name]["calls"] > 0, name
    assert layers["cli.main"]["calls"] == 4 and layers["cli.main"]["work"] == 0
    assert layers["data.load_csv"]["work"] == 2 * 3_000 + 2 * 500


def test_every_binding_is_patched_and_restored():
    original = data.generate_synthetic
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluation.generate_synthetic is data.generate_synthetic
        assert data.generate_synthetic is not original
        assert model.smoothed_gradient.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert data.generate_synthetic is original
    assert evaluation.generate_synthetic is original


def test_self_time_excludes_child_spans():
    dataset = data.generate_synthetic(data.default_spec(2_000, seed=1))
    problem = model.Problem.from_quantile(0.5)
    tracer = Tracer()
    # looked up at call time, so that the installed wrapper is the one called
    _traced(tracer, lambda: model.smoothed_gradient(problem, dataset, [0.0] * 5, "gaussian", 0.3))

    layers = tracer.summary()
    grad, cdf, unit = (
        layers[k] for k in ("model.smoothed_gradient", "kernels.scaled_cdf", "bench.unit")
    )
    assert grad["calls"] == cdf["calls"] == 1
    assert grad["inside"] == {"kernels.scaled_cdf": 1}
    assert cdf["work"] == 2_000
    assert grad["self_s"] == pytest.approx(grad["busy_s"] - cdf["busy_s"])
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(unit["busy_s"])


def test_absent_names_are_reported_not_fatal():
    tracer = Tracer({"optimizer.no_such_function": None, "no_such_module.f": None, "optimizer.fit": None})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["optimizer.no_such_function", "no_such_module.f"]
    assert tracer.summary()["optimizer.no_such_function"]["calls"] == 0
