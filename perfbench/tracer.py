"""Span tracer that times calls into the package's public functions.

The tracer lives in the benchmark, not in the program: ``install`` swaps
each traced function for a timing wrapper in every ``dpnewsvendor``
module namespace that binds it (``from .data import generate_synthetic``
binds it in ``evaluation`` and in the package root, ``model.smoothed_gradient``
is reached as a module attribute, ``optimizer.noisy_step`` is a module
global), and ``uninstall`` puts the originals back.  A traced name that a
refactor removed is reported in ``absent`` instead of failing the run.

Spans (name, start, end, parent, work) are kept in flat in-memory arrays
and written out with ``save`` at the end.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "dpnewsvendor"

UNIT = "bench.unit"


def _dataset_rows(args, kwargs, out):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "features") and hasattr(value, "n"):
            return int(value.n)
    return 0


def _result_rows(args, kwargs, out):
    return int(out.n)


def _result_size(args, kwargs, out):
    return int(np.size(out))


def _nonzero_exit(args, kwargs, out):
    return int(out != 0)


# Traced functions, "<module>.<function>" relative to the package, with
# the work each call did: rows, elements, or (for cli.main) a failed exit.
TARGETS = {
    "evaluation.out_of_sample_cost": _dataset_rows,
    "data.generate_synthetic": _result_rows,
    "data.load_csv": _result_rows,
    "optimizer.smoothed_erm": None,
    "optimizer.fit": None,
    "optimizer.noisy_step": None,
    "model.smoothed_gradient": None,
    "model.smoothed_hessian": None,
    "model.smoothed_empirical_cost": None,
    "kernels.scaled_cdf": _result_size,
    "kernels.smoothed_check_loss": _result_size,
    "privacy.calibrate_sigma": None,
    "cli.main": _nonzero_exit,
}


class Tracer:
    """Collects spans for the functions in ``targets`` while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = dict(targets)
        self.names = [UNIT, *self.targets]
        self.absent: list[str] = []
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._name = array("i")
        self._parent = array("q")
        self._t0 = array("d")
        self._t1 = array("d")
        self._work = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _call(self, name_id: int, fn, args, kwargs, work):
        idx = len(self._t0)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._t1.append(0.0)
        self._work.append(0)
        self._stack.append(idx)
        self._t0.append(time.perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self._t1[idx] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            try:
                self._work[idx] = work(args, kwargs, out)
            except (AttributeError, TypeError, ValueError):
                pass
        return out

    def _wrap(self, name: str, fn, work):
        name_id = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name_id, fn, args, kwargs, work)

        return traced

    def unit(self, fn, *args, **kwargs):
        """Call ``fn`` inside one root span that groups a unit of work."""
        return self._call(self._ids[UNIT], fn, args, kwargs, None)

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        absent = []
        for name, work in self.targets.items():
            module_name, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                absent.append(name)
                continue
            wrapper = self._wrap(name, fn, work)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    setattr(m, key, wrapper)
                    self._patched.append((m, key, fn))
        self.absent = absent

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "end": np.frombuffer(self._t1, dtype=np.float64).copy(),
            "work": np.frombuffer(self._work, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy and self seconds, work, and the
        number of calls of each other name made inside it."""
        s = self.spans()
        name, parent = s["name"], s["parent"]
        dur = s["end"] - s["start"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        out = {}
        for i, label in enumerate(self.names):
            mine = name == i
            nested = np.bincount(name[_inside(name, parent, i)], minlength=len(self.names))
            out[label] = {
                "calls": int(mine.sum()),
                "busy_s": float(dur[mine].sum()),
                "self_s": float(self_time[mine].sum()),
                "work": int(s["work"][mine].sum()),
                "inside": {self.names[j]: int(c) for j, c in enumerate(nested) if c},
            }
        return out


def _inside(name: np.ndarray, parent: np.ndarray, name_id: int) -> np.ndarray:
    """Mask of spans that have an ancestor span named ``name_id``."""
    inside = np.zeros(len(name), dtype=bool)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    while True:
        step = has_parent & ((name[safe_parent] == name_id) | inside[safe_parent])
        if np.array_equal(step, inside):
            return inside
        inside = step
