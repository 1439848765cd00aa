#!/usr/bin/env python3
"""Benchmark of the rcreg library and command line.

Run it from the root of a checkout (``src/rcreg`` must be there):

    python3 perfbench/run.py --workload fit_csv --seed 7 --seconds 25 --trace 0

Workloads (BENCHMARK.json records why each one exists):

``study_serial``     ``rcreg simulate`` with ``"lambda": "auto"``, n = 10^4,
                     p = 10, uniform_interval covariates, 8 tuning pilots and
                     16 replications (the 1:2 ratio of acceptance criterion
                     6), ``RCREG_THREADS=1``.
``fit_csv``          ``rcreg fit --auto --path-csv`` on a 2*10^5-row, p = 10 CSV.
``identify_bounds``  batches of ``check_identified`` (identified 3-point
                     supports and supports with a binary coordinate),
                     ``partial_id_bounds`` and ``classify_randomness``.

Every load is a closed loop with one caller: the next operation is issued
only after the previous one has returned.  Every input (the simulation
config, the CSV, the supports and blocks) is generated from ``--seed``
before the timed region; the program receives only the generated files.
Each operation runs in a fresh interpreter, so its wall time and peak RSS
are what a user of the CLI pays.  BLAS thread variables are left as the
caller's environment has them; only ``RCREG_THREADS`` is set, per workload.

Every operation's output is checked (see the ``check`` methods); a nonzero
exit, a failed check or a failed replication counts as a failed operation.

``identify_bounds`` times are scaled to a speed reference timed between its
batches (``refspeed.py``); README.md says why and which times.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py`` and README.md).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the program
could not be found or imported, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import refspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("study_serial", "fit_csv", "identify_bounds")

# ``tiny`` exists for the smoke test only.
SCALES = {
    "full": {
        "study_n": 10_000, "study_p": 10, "pilots": 8, "reps": 16,
        "csv_n": 200_000, "csv_p": 10,
        # identify_bounds batch: supports per coordinate count q; per p and
        # Var(B1) class, (blocks given to partial_id_bounds, of which also
        # to classify_randomness).  partial_id_bounds makes two thirds of the
        # calls, so op_us_p50 sits inside its latency range.  A batch has
        # 1068 distinct inputs, so that more than ten distinct calls lie
        # beyond its p99 and the tail does not hang on a few drawn blocks.
        "ident_q": range(1, 10), "ident_per_q": 12,
        "binary_q": range(1, 6), "binary_per_q": 24,
        "block_p": range(2, 7),
        "blocks_per_p": {"FORCED_POSITIVE": (72, 12), "INTERVAL": (54, 6), "FORCED_ZERO": (18, 6)},
    },
    "tiny": {
        "study_n": 1_000, "study_p": 5, "pilots": 2, "reps": 4,
        "csv_n": 2_000, "csv_p": 5,
        "ident_q": range(1, 3), "ident_per_q": 1,
        "binary_q": range(1, 3), "binary_per_q": 1,
        "block_p": range(2, 4),
        "blocks_per_p": {"FORCED_POSITIVE": (1, 1), "INTERVAL": (1, 1), "FORCED_ZERO": (1, 1)},
    },
}

SETUP_IMPORTS = 5  # before the measured loop, and as many again after it
OP_TIMEOUT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RCREG_THREADS")


class SetupError(Exception):
    """The program under test cannot be found or imported."""


@dataclass
class OpResult:
    wall: float
    rss_mb: float
    ok: bool
    note: str = ""
    spans: tracing.Spans | None = None
    failed_checks: int = 0
    result: dict | None = None  # identify worker output


# --------------------------------------------------------------------------
# processes


def child_env(**overrides: str | None) -> dict:
    """The caller's environment with ``src`` on PYTHONPATH; None unsets a variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_proc(cmd: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run ``cmd`` to completion; return (wall s, peak RSS MB, exit code).

    The child gets its own process group, which is killed after
    ``OP_TIMEOUT_S`` and again once the child has exited, so no descendant
    (such as a pool worker) outlives the operation.  Peak RSS is the largest
    of the child and its waited-for descendants.
    """
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def closed_loop(op, seconds: float, min_ops: int = 1) -> list[OpResult]:
    """Issue ``op(0)``, ``op(1)``, ... back to back for about ``seconds``.

    Once ``min_ops`` have run, no operation is started that the last one's
    duration predicts would end past the deadline.
    """
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        results.append(op(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_ops and elapsed + results[-1].wall > seconds:
            return results


def check_program(env: dict) -> None:
    """Fail unless ``import rcreg`` resolves to this checkout's ``src``."""
    probe = subprocess.run(
        [sys.executable, "-c", "import rcreg; print(rcreg.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    found = probe.stdout.strip()
    if probe.returncode != 0 or not found or not Path(found).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(
            f"cannot import rcreg from {SRC}: {probe.stderr.strip().splitlines()[-1:] or found}"
        )


def measure_setup(env: dict, log: Path) -> list[float]:
    """Wall times of fresh interpreters running ``import rcreg``."""
    walls = []
    for _ in range(SETUP_IMPORTS):
        wall, _, rc = run_proc([sys.executable, "-c", "import rcreg"], env, log)
        if rc != 0:
            raise SetupError(f"import rcreg exited with code {rc}")
        walls.append(wall)
    return walls


def run_environment(workload: str, seed: int, scale: str) -> dict:
    """What a result set depends on besides the code: recorded, never set."""
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    ) if shutil.which("git") else None
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "git_sha": sha.stdout.strip() if sha and sha.returncode == 0 else "unknown",
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Shared plumbing: a scratch directory, a log and a counter of operations."""

    def __init__(self, work: Path, seed: int, size: dict):
        self.work, self.seed, self.size = work, seed, size
        self.log = work / "children.log"
        self.count = 0
        self.reference: dict[int, bytes] = {}

    def _next(self) -> tuple[Path, Path]:
        """Output stem and span-file stem of the next operation."""
        self.count += 1
        return self.work / f"op{self.count}", self.work / f"op{self.count}-spans"

    def _same_as_first(self, blob: bytes, key: int = 0) -> bool:
        """Is ``blob`` byte-identical to the first output for input ``key``?"""
        return blob == self.reference.setdefault(key, blob)

    def _cli(self, argv: list[str], env: dict, traced: bool, spans: Path) -> OpResult:
        if traced:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--spans", str(spans),
                   "--design-cols", str(self.design_cols), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "rcreg", *argv]
        wall, rss, rc = run_proc(cmd, env, self.log)
        res = OpResult(wall, rss, rc == 0, "" if rc == 0 else f"exit code {rc}")
        if traced and rc == 0:
            res.spans = tracing.Spans(str(spans))
        return res


class Study(Workload):
    """``rcreg simulate`` with a tuned penalty on generated configs.

    Operation k of the run with seed s simulates with study seed
    ``s * 1000 + k``.  The cost of a study depends on its seed (the tuning
    grid comes from the first pilot's data and sets every path's work), by
    about 10% between seeds, so a run measures many studies rather than
    one study many times.
    """

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        p = size["study_p"]
        self.design_cols = p * (p + 1) // 2
        self.datasets = size["pilots"] + size["reps"]

    def _config(self, k: int) -> Path:
        path = self.work / f"sim{k}.json"
        if not path.exists():
            path.write_text(json.dumps({
                "n": self.size["study_n"], "p": self.size["study_p"],
                "covariate_law": "uniform_interval", "lambda": "auto",
                "replications": self.size["reps"],
                "pilot_replications": self.size["pilots"], "seed": self.seed * 1000 + k,
            }))
        return path

    def op(self, k: int, serial: bool = True, traced: bool = False) -> OpResult:
        out, spans = self._next()
        env = child_env(RCREG_THREADS="1" if serial else None)
        res = self._cli(["simulate", "--config", str(self._config(k)), "--out", str(out)],
                        env, traced, spans)
        if res.ok:
            res.ok, res.note = self.check(out, k)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def check(self, out: Path, k: int) -> tuple[bool, str]:
        summary = (out / "summary.json").read_bytes()
        table = (out / "replications.csv").read_bytes()
        s = json.loads(summary)
        reps = self.size["reps"]
        if s["failures"] != 0:
            return False, f"{s['failures']} failed replications"
        if s["tuning_fallback"]:
            return False, "penalty tuning fell back to the grid midpoint"
        if s["replications"] != reps or sum(s["fp_histogram"].values()) != reps:
            return False, "replication counts do not add up"
        if len(table.splitlines()) != reps + 1:
            return False, "replications.csv has the wrong number of rows"
        if not self._same_as_first(summary + table, k):
            return False, "output differs from the first run of this config (determinism contract)"
        return True, ""


class FitCsv(Workload):
    """``rcreg fit --auto --path-csv`` on a generated CSV."""

    GRID = 50  # rows of the path CSV the CLI writes

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        import rcreg

        n, p = size["csv_n"], size["csv_p"]
        self.design_cols = p * (p + 1) // 2
        cfg = rcreg.SimConfig(n=n, p=p, seed=seed)
        data = rcreg.dgp_sample(cfg, 0)
        self.mu = rcreg.true_moments(cfg)[0]
        # Six standard errors of the OLS slopes under this DGP (Var(Y|x) <= ~43).
        self.mu_tol = 6.0 * math.sqrt(130.0 / n)
        self.rows = n
        self.csv = work / "data.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write("y," + ",".join(f"w{j}" for j in range(1, p)) + "\n")
            np.savetxt(fh, np.column_stack([data.Y, data.X[:, 1:]]), fmt="%.17g", delimiter=",")

    def op(self, _k: int = 0, traced: bool = False) -> OpResult:
        base, spans = self._next()
        fit, path = base.with_suffix(".json"), base.with_suffix(".csv")
        res = self._cli(["fit", "--data", str(self.csv), "--auto", "--path-csv", str(path),
                         "--out", str(fit)], child_env(), traced, spans)
        if res.ok:
            res.ok, res.note = self.check(fit, path)
        for f in (fit, path):
            f.unlink(missing_ok=True)
        return res

    def check(self, fit: Path, path: Path) -> tuple[bool, str]:
        blob, table = fit.read_bytes(), path.read_bytes()
        payload = json.loads(blob)
        mu_hat = np.array(payload["mu_hat"])
        if mu_hat.shape != self.mu.shape or np.max(np.abs(mu_hat - self.mu)) > self.mu_tol:
            return False, f"mu_hat {mu_hat} is not within {self.mu_tol:.3g} of {self.mu}"
        rows = [line.split(",") for line in table.decode().splitlines()]
        if len(rows) != self.GRID + 1 or any(len(r) != 3 + self.design_cols for r in rows):
            return False, "path CSV does not have one row per grid point"
        if payload["lambda_used"] not in {float(r[0]) for r in rows[1:]}:
            return False, "the BIC-selected penalty is not a point of the path"
        if not self._same_as_first(blob + table):
            return False, "output differs from the first operation's"
        return True, ""


class IdentifyBounds(Workload):
    """Batches of identification and partial-identification calls.

    One operation is a fresh worker process running batches back to back for
    ``PROCESS_S`` seconds.  A run starts several such processes, so that no
    single process's memory layout or start-up sets a whole run's speed.
    """

    PROCESS_S = 6.0
    GRID_CHECKS = 8  # blocks per run re-checked by a grid scan

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.rng = np.random.default_rng(seed)
        self.inputs, self.expect = self._generate()
        self.calls_per_batch = len(self.inputs["calls"])
        self.inputs_path = work / "identify.json"
        self.inputs_path.write_text(json.dumps(self.inputs))
        self.grid_checked = False

    def _points(self, k: int) -> list[float]:
        """k distinct support points at least 0.2 apart."""
        return np.cumsum([self.rng.uniform(-2.0, 0.0), *self.rng.uniform(0.2, 1.0, k - 1)]).tolist()

    def _generate(self):
        rng, size = self.rng, self.size
        supports, blocks, expect_s, expect_b = [], [], [], []
        for q in size["ident_q"]:
            for _ in range(size["ident_per_q"]):
                supports.append([self._points(3) for _ in range(q)])
                expect_s.append(())
        for q in size["binary_q"]:
            for _ in range(size["binary_per_q"]):
                spec = [self._points(3) for _ in range(q)]
                j = int(rng.integers(q))
                spec[j] = self._points(2)
                supports.append(spec)
                expect_s.append((j + 1,))
        calls = [["check_identified", i] for i in range(len(supports))]
        for p in size["block_p"]:
            for kind, (n_bounds, n_classify) in size["blocks_per_p"].items():
                for k in range(n_bounds):
                    calls.append(["partial_id_bounds", len(blocks)])
                    if k < n_classify:
                        calls.append(["classify_randomness", len(blocks)])
                    blocks.append(self._block(p, kind))
                    expect_b.append(kind)
        order = rng.permutation(len(calls))
        return ({"supports": supports, "blocks": blocks, "calls": [calls[i] for i in order]},
                {"supports": expect_s, "blocks": expect_b})

    def _block(self, p: int, kind: str) -> dict:
        """Identified blocks of a (B0, B1, B2') covariance whose Var(B1) class is ``kind``.

        FORCED_POSITIVE: a random PD covariance with |Var(B0+B1) - Var(B0)| >= 0.05.
        INTERVAL: B1 uncorrelated with B2 and Var(B0 + B1) = Var(B0), and a
        (B0, B2) block whose smallest eigenvalue is at least 1e-3.  A nearly
        singular block makes FORCED_ZERO the right answer within the
        program's tolerance (one draw gave Var(B0) = 2.8e-12).
        FORCED_ZERO: as INTERVAL but with a singular (B0, B2) block whose kernel
        loads on B0.
        """
        rng, q = self.rng, p - 1
        if kind == "FORCED_POSITIVE":
            while True:
                A = rng.normal(size=(p, p + 2))
                S = A @ A.T / (p + 2)
                keep = [0, *range(2, p)]
                v01 = S[0, 0] + S[1, 1] + 2.0 * S[0, 1]
                if abs(v01 - S[0, 0]) >= 0.05 and (p == 2 or np.max(np.abs(S[1, 2:])) > 0.05):
                    return {"cov_b0_b2": S[np.ix_(keep, keep)].tolist(),
                            "cov_b1_b2": S[1, 2:].tolist(), "var_b0_plus_b1": float(v01)}
        rank = q if kind == "INTERVAL" else q - 1
        while True:
            B = rng.normal(size=(q, rank))
            C = B @ B.T / max(rank, 1)
            if kind == "INTERVAL":
                if np.linalg.eigvalsh(C)[0] >= 1e-3:
                    break
            elif q == 1 or abs(np.linalg.svd(B.T)[2][-1][0]) > 0.1:
                # Kernel of C is spanned by the null space of B'; it loads on B0.
                break
        C = (C + C.T) / 2.0
        return {"cov_b0_b2": C.tolist(), "cov_b1_b2": [0.0] * (q - 1),
                "var_b0_plus_b1": float(C[0, 0])}

    def op(self, _k: int = 0, traced: bool = False) -> OpResult:
        base, spans = self._next()
        out = base.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "worker.py"), "identify", "--inputs",
               str(self.inputs_path), "--seconds", repr(self.PROCESS_S), "--out", str(out)]
        if traced:
            cmd += ["--spans", str(spans)]
        wall, rss, rc = run_proc(cmd, child_env(), self.log)
        if rc != 0:
            return OpResult(wall, rss, False, f"exit code {rc}", failed_checks=1)
        res = OpResult(wall, rss, True, spans=tracing.Spans(str(spans)) if traced else None,
                       result=json.loads(out.read_text()))
        res.failed_checks, res.note = self.check(res.result)
        res.ok = res.failed_checks == 0
        return res

    def check(self, result: dict) -> tuple[int, str]:
        """Failed calls, mismatching batches and wrong outputs, with the first reason."""
        import rcreg

        failed = result["failed_calls"] + result["mismatches"] * self.calls_per_batch
        notes = list(result["errors"][:1])
        if result["mismatches"]:
            notes.append(f"{result['mismatches']} batches differ from the first")
        bounds = {}
        for (name, i), out in zip(self.inputs["calls"], result["outputs"]):
            if out is None:
                continue
            if name == "check_identified":
                deficient = self.expect["supports"][i]
                q = len(self.inputs["supports"][i])
                full = (q + 1) * (q + 2) // 2
                identified, rank, full_dim, got = out
                good = (identified == (not deficient) and tuple(got) == deficient
                        and full_dim == full and (rank == full) == identified)
            elif name == "partial_id_bounds":
                bounds[i] = out
                if self.expect["blocks"][i] == "FORCED_ZERO":
                    # Feasibility is judged at min eigenvalue >= -tol, so the
                    # upper end may sit O(tol / k0^2) above zero and read INTERVAL.
                    good = out[0] == 0.0 and out[1] <= 1e-6
                else:
                    good = out[2] == self.expect["blocks"][i]
            else:
                good = out == self.expect["blocks"][i]
            if not good:
                failed += 1
                notes.append(f"{name} on input {i} returned {out}")
        checked = [] if self.grid_checked else self.rng.choice(
            sorted(bounds), size=min(self.GRID_CHECKS, len(bounds)), replace=False)
        self.grid_checked = True
        for i in checked:
            b = self.inputs["blocks"][i]
            blocks = rcreg.PartialIdBlocks(
                cov_b0_b2=np.array(b["cov_b0_b2"]), cov_b1_b2=np.array(b["cov_b1_b2"]),
                var_b0_plus_b1=b["var_b0_plus_b1"],
            )
            lo, hi, _ = bounds[i]
            scan = grid_scan(blocks)
            step = scan[2]
            if scan[0] is None or abs(scan[0] - lo) > 2 * step or abs(scan[1] - hi) > 2 * step:
                failed += 1
                notes.append(f"bounds {lo}, {hi} of block {i} disagree with a grid scan {scan}")
        return failed, "; ".join(notes[:3])


def grid_scan(blocks, points: int = 2000, tol: float = 1e-9):
    """Feasible Var(B1) interval by brute force: PSD test at each grid point.

    Returns (first feasible s, last feasible s, step); both endpoints None if
    no grid point is feasible.
    """
    import rcreg

    v0 = blocks.cov_b0_b2[0, 0]
    s_hi = (math.sqrt(max(v0, 0.0)) + math.sqrt(blocks.var_b0_plus_b1)) ** 2 + 1.0
    grid = np.linspace(0.0, s_hi, points)
    feasible = [s for s in grid
                if rcreg.min_eigenvalue(rcreg.assemble_covariance(blocks, float(s))) >= -tol]
    step = float(grid[1] - grid[0])
    if not feasible:
        return None, None, step
    return float(feasible[0]), float(feasible[-1]), step


# --------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(walls: list[float], rss: list[float], units: float,
               op_p50: float, op_p90: float) -> dict:
    """End-to-end metrics but ``setup_s``, which :func:`main` measures around the run.

    ``op_p50`` and ``op_p90`` are per-call latencies in seconds.  For
    ``identify_bounds``, all three are scaled to the speed reference (see
    :func:`run_identify`).
    """
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s"),
        "throughput": (units / wall, "units/s"),
        "op_us_p50": (op_p50 * 1e6, "us"),
        "op_us_p90": (op_p90 * 1e6, "us"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def layer_metrics(spans: list[tracing.Spans], ops: int, overhead_s: float, *,
                  pool: tracing.Spans | None = None, pilots: int = 0,
                  speedup: float = 0.0) -> dict:
    """Per-layer metrics, per operation, from the spans of ``ops`` traced operations.

    A layer the workload never calls reads 0.  ``pool`` holds the spans of
    one traced operation with the default worker pool; only parent-side time
    is visible there (spans recorded in pool workers stay in the workers), so
    the self time of ``monte_carlo`` and ``tune_lambda`` is pool start-up,
    dispatch and waiting.
    """
    def calls(name):
        return sum(s.calls(name) for s in spans) / ops

    def self_s(name):
        return sum(s.self_time(name) for s in spans) / ops

    def count(key):
        return sum(s.counts[key] for s in spans)

    def durations(name):
        return np.concatenate([s.durations(name) for s in spans])

    solutions = count("estimate.solutions")
    pib_calls = sum(s.calls("identify.partial_id_bounds") for s in spans)
    eig_in_pib = sum(s.calls_under("halfvec.min_eigenvalue", "identify.partial_id_bounds")
                     for s in spans)
    m = {
        "trace.overhead_s": (overhead_s, "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "simulate.pilot_ms": (
            1e3 * durations("simulate.tune_lambda").sum() / (pilots * ops) if pilots else 0.0, "ms"),
        "simulate.dgp_sample.calls": (calls("simulate.dgp_sample"), "count"),
        "simulate.dgp_sample.self_s": (self_s("simulate.dgp_sample"), "s"),
        "simulate.run_replication.ms_p50": (
            1e3 * percentile(durations("simulate.run_replication"), 50), "ms"),
        "simulate.run_replication.ms_p90": (
            1e3 * percentile(durations("simulate.run_replication"), 90), "ms"),
        "simulate.monte_carlo.self_s": (pool.self_time("simulate.monte_carlo") if pool else 0.0, "s"),
        "simulate.tune_lambda.self_s": (pool.self_time("simulate.tune_lambda") if pool else 0.0, "s"),
        "simulate.pool_workers": (pool.counts["simulate.pool_workers"] if pool else 0, "count"),
        "simulate.pool_speedup": (speedup, "ratio"),
    }
    for name in ("estimate.lambda_path", "estimate.adaptive_lasso"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.sweeps"] = (count(f"{name}.sweeps") / ops, "count")
    for name in ("estimate.ols", "estimate.lambda_max"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["estimate.build_second_stage.self_s"] = (self_s("estimate.build_second_stage"), "s")
    m["halfvec.v_transform_rows.calls"] = (calls("halfvec.v_transform_rows"), "count")
    m["halfvec.v_transform_rows.self_s"] = (self_s("halfvec.v_transform_rows"), "s")
    m["estimate.design_passes"] = (count("estimate.design_passes") / ops, "count")
    m["estimate.design_bytes_computed"] = (count("estimate.design_bytes_computed") / ops, "bytes")
    m["estimate.nonconverged"] = (count("estimate.nonconverged") / ops, "count")
    m["estimate.converged_ratio"] = (
        1.0 - count("estimate.nonconverged") / solutions if solutions else 1.0, "ratio")
    for name in ("check_identified", "partial_id_bounds", "classify_randomness"):
        m[f"identify.{name}.us_p50"] = (1e6 * percentile(durations(f"identify.{name}"), 50), "us")
    m["identify.partial_id_bounds.eig_per_call"] = (
        eig_in_pib / pib_calls if pib_calls else 0.0, "count")
    for name in ("halfvec.min_eigenvalue", "halfvec.numeric_rank"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    return m


# --------------------------------------------------------------------------
# runs


@dataclass
class Outcome:
    attempted: int
    failed: int
    notes: list[str]
    metrics: dict | None
    samples: int = 0  # latencies behind op_us_p50 / op_us_p90
    raw: dict | None = None  # unscaled identify_bounds times, printed but not in the result


def _outcome(ops: list[OpResult], metrics: dict | None, samples: int = 0) -> Outcome:
    bad = [o.note for o in ops if not o.ok]
    return Outcome(len(ops), len(bad), bad, metrics if not bad else None, samples)


def run_study(work, seed, size, seconds, trace) -> Outcome:
    study = Study(work, seed, size)
    if not trace:
        ops = closed_loop(study.op, seconds)
        walls = [o.wall for o in ops]
        metrics = end_to_end(walls, [o.rss_mb for o in ops], study.datasets,
                             percentile(walls, 50), percentile(walls, 90))
        # Untimed: the default worker pool must reproduce the serial bytes.
        return _outcome(ops + [study.op(0, serial=False)], metrics, len(ops))
    plain = closed_loop(study.op, seconds / 3)
    pool_plain = study.op(0, serial=False)
    traced = closed_loop(lambda k: study.op(k, traced=True), seconds / 3)
    pool_traced = study.op(0, serial=False, traced=True)
    ops = plain + [pool_plain] + traced + [pool_traced]
    if not all(o.ok for o in ops):
        return _outcome(ops, None)
    # Overhead pairs each traced study with the untraced run of the same config.
    pairs = list(zip(traced, plain))
    return _outcome(ops, layer_metrics(
        [o.spans for o in traced], len(traced),
        statistics.median(t.wall - u.wall for t, u in pairs),
        pool=pool_traced.spans, pilots=size["pilots"], speedup=plain[0].wall / pool_plain.wall,
    ))


def run_fit(work, seed, size, seconds, trace) -> Outcome:
    fit = FitCsv(work, seed, size)
    if not trace:
        ops = closed_loop(fit.op, seconds, min_ops=2)
        walls = [o.wall for o in ops]
        metrics = end_to_end(walls, [o.rss_mb for o in ops], fit.rows,
                             percentile(walls, 50), percentile(walls, 90))
        return _outcome(ops, metrics, len(ops))
    plain = closed_loop(fit.op, seconds / 3)
    traced = closed_loop(lambda k: fit.op(k, traced=True), seconds * 2 / 3)
    ops = plain + traced
    if not all(o.ok for o in ops):
        return _outcome(ops, None)
    overhead = statistics.median(o.wall for o in traced) - statistics.median(o.wall for o in plain)
    return _outcome(ops, layer_metrics([o.spans for o in traced], len(traced), overhead))


def identify_batches(ops: list[OpResult], per_call: int):
    """(raw time, speed factor, raw call times) of each batch the workers ran.

    The factor scales a time to the speed reference; it comes from the two
    reference times the worker took on either side of the batch.
    """
    for o in ops:
        r, ref = o.result, o.result["ref_s"]
        calls = np.asarray(r["latency_ns"]) / 1e9
        for i, batch in enumerate(r["batch_s"]):
            yield batch, refspeed.factor(ref[i], ref[i + 1]), calls[i * per_call:(i + 1) * per_call]


def run_identify(work, seed, size, seconds, trace) -> Outcome:
    """Attempted and failed count library calls; wall_s is the median batch.

    Per-call percentiles are taken within each batch, and the run reports
    their median over its batches: one slow stretch of a run then moves one
    batch, not the tail of the whole run.  Times are scaled to the speed
    reference.  The raw medians, and the raw p99 per call, are printed as
    ``raw`` lines; p99 is not a result metric (README.md says why).
    """
    ident = IdentifyBounds(work, seed, size)
    per_call = ident.calls_per_batch
    if not trace:
        phases = [closed_loop(ident.op, seconds)]
    else:
        phases = [closed_loop(ident.op, seconds / 3),
                  closed_loop(lambda k: ident.op(k, traced=True), seconds * 2 / 3)]
    ops = [o for phase in phases for o in phase]
    attempted = sum(len(o.result["latency_ns"]) for o in ops if o.result)
    failed = sum(o.failed_checks for o in ops)
    notes = [o.note for o in ops if not o.ok]
    if notes:
        return Outcome(max(attempted, failed), failed, notes, None)

    if trace:
        plain, traced = ([b * f for b, f, _ in identify_batches(phase, per_call)]
                         for phase in phases)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = layer_metrics([o.spans for o in phases[1]], len(traced), overhead)
        return Outcome(attempted, failed, notes, metrics)
    batches = list(identify_batches(ops, per_call))

    def op_pct(q, scaled=True):
        return statistics.median(percentile(c, q) * (f if scaled else 1.0) for _, f, c in batches)

    metrics = end_to_end([b * f for b, f, _ in batches], [o.rss_mb for o in ops], per_call,
                         op_pct(50), op_pct(90))
    raw = {"wall_s": (statistics.median(b for b, _, _ in batches), "s"),
           "op_us_p50": (1e6 * op_pct(50, scaled=False), "us"),
           "op_us_p99": (1e6 * op_pct(99, scaled=False), "us"),
           "reference_s": (statistics.median(x for o in ops for x in o.result["ref_s"]), "s")}
    return Outcome(attempted, failed, notes, metrics, attempted, raw)


RUNNERS = {"study_serial": run_study, "fit_csv": run_fit, "identify_bounds": run_identify}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    env = child_env()
    try:
        check_program(env)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(run_environment(args.workload, args.seed, args.scale)))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up is timed before and after the run, so its median spans the
        # same stretch of machine load as the operations.
        setup = [] if args.trace else measure_setup(env, work / "setup.log")
        outcome = RUNNERS[args.workload](
            work, args.seed, SCALES[args.scale], args.seconds, bool(args.trace)
        )
        if not args.trace and outcome.metrics is not None:
            setup += measure_setup(env, work / "setup.log")
            outcome.metrics = {"setup_s": (statistics.median(setup), "s"), **outcome.metrics}
        if outcome.notes:
            print("failures: " + " | ".join(sorted(set(outcome.notes))[:5]), file=sys.stderr)
            log = work / "children.log"
            if log.exists():
                sys.stderr.write(log.read_text()[-2000:])
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted, failed, metrics = outcome.attempted, outcome.failed, outcome.metrics or {}
    print(f"summary workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g} "
          f"latency_samples={outcome.samples}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in (outcome.raw or {}).items():
        print(f"raw {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and outcome.metrics is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
