"""Span tracing of rcreg's public functions, installed from outside the package.

Each public function is wrapped under the name its caller looks it up by:
``rcreg.estimate`` imports ``v_transform_rows`` by name, so the wrapper goes
on ``rcreg.estimate.v_transform_rows``; ``rcreg.cli`` and ``rcreg.simulate``
get their own wrappers around ``ols``, ``lambda_path`` and so on.  A span
is named after the module that defines the function (``halfvec.min_eigenvalue``)
whatever namespace the call came through.

Spans are kept in memory in flat arrays (name code, start, end, parent
index) and written out once, when the traced process ends.  The parent
process loads them back with :class:`Spans`.  Nothing under ``src/`` is
changed; the wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

import numpy as np

# Caller module -> public names it looks up at call time.
WRAPPED = {
    "rcreg.cli": (
        "ols", "build_second_stage", "lambda_max", "lambda_path", "fit_moments",
        "monte_carlo",
    ),
    "rcreg.simulate": (
        "dgp_sample", "run_replication", "tune_lambda", "ols", "build_second_stage",
        "lambda_max", "lambda_path", "fit_moments", "min_eigenvalue",
    ),
    "rcreg.estimate": (
        "v_transform_rows", "min_eigenvalue", "numeric_rank", "ols",
        "build_second_stage", "adaptive_lasso",
    ),
    "rcreg.identify": (
        "check_identified", "partial_id_bounds", "classify_randomness",
        "min_eigenvalue", "numeric_rank", "v_transform_rows",
    ),
}

# Functions whose second argument is a design matrix they read in full.
_READS_DESIGN = {"estimate.ols", "estimate.lambda_max", "estimate.lambda_path",
                 "estimate.adaptive_lasso"}
_SOLVERS = {"estimate.lambda_path", "estimate.adaptive_lasso"}
_OBSERVED = _READS_DESIGN | {"halfvec.v_transform_rows"}


class Tracer:
    """Records one span per wrapped call plus counters read from arguments and results.

    ``design_cols`` is the column count d = p(p+1)/2 of the second-stage
    design; a call whose design argument (or, for ``v_transform_rows``,
    result) has d columns counts as one pass over the n x d design.
    """

    def __init__(self, design_cols: int | None = None):
        self.design_cols = design_cols
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts = {
            "estimate.design_passes": 0,
            "estimate.design_bytes_computed": 0,
            "estimate.lambda_path.sweeps": 0,
            "estimate.adaptive_lasso.sweeps": 0,
            "estimate.solutions": 0,
            "estimate.nonconverged": 0,
            "simulate.pool_workers": 0,
        }

    def wrap(self, fn, name: str):
        code = self._codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        codes, starts, ends, parents, stack = (
            self.code, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter_ns
        observe = self._observe if name in _OBSERVED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(name, args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a span of its own, e.g. the benchmark's call into ``cli.main``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def _observe(self, name, args, kwargs, result):
        if name == "halfvec.v_transform_rows":
            design = result
        else:
            design = args[1] if len(args) > 1 else kwargs.get("X")
        shape = np.shape(design)
        if self.design_cols is not None and len(shape) == 2 and shape[1] == self.design_cols:
            self.counts["estimate.design_passes"] += 1
            self.counts["estimate.design_bytes_computed"] += shape[0] * shape[1] * 8
        if name in _SOLVERS:
            sols = result if isinstance(result, list) else [result]
            self.counts[name + ".sweeps"] += sum(s.iterations for s in sols)
            self.counts["estimate.solutions"] += len(sols)
            self.counts["estimate.nonconverged"] += sum(not s.converged for s in sols)

    def install(self) -> None:
        """Replace every name in :data:`WRAPPED` by a traced wrapper."""
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                short = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(fn, f"{short}.{fn.__name__}"))
        simulate = importlib.import_module("rcreg.simulate")
        counts = self.counts

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                counts["simulate.pool_workers"] = max(
                    counts["simulate.pool_workers"], int(max_workers or 0)
                )
                super().__init__(max_workers, *args, **kwargs)

        simulate.ProcessPoolExecutor = CountingPool

    def dump(self, path: str) -> None:
        """Write spans (``.npz``) and names/counters (``.json`` beside it)."""
        np.savez(
            path + ".npz",
            code=np.frombuffer(self.code, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": self.counts}, fh)


class Spans:
    """Spans of one traced process, loaded back for aggregation."""

    def __init__(self, path: str):
        with np.load(path + ".npz") as z:
            self.code, start, end, self.parent = z["code"], z["start"], z["end"], z["parent"]
        with open(path + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        self.names = meta["names"]
        self.counts = meta["counts"]
        self.dur = (end - start).astype(float) / 1e9
        nested = self.parent >= 0
        child = np.bincount(
            self.parent[nested], weights=self.dur[nested], minlength=self.dur.size
        )
        # Calls are single-threaded and nested, so children never overlap and
        # the time they cover is the sum of their durations.
        self.self_s = self.dur - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.code.size, dtype=bool)
        return self.code == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def self_time(self, name: str) -> float:
        return float(self.self_s[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self._mask(name)]

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of ``name`` made directly from a ``parent`` span."""
        if parent not in self.names:
            return 0
        inner = np.flatnonzero(self._mask(name) & (self.parent >= 0))
        return int(np.count_nonzero(
            self.code[self.parent[inner]] == self.names.index(parent)
        ))
