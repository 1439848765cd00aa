"""Seedable Monte Carlo study of sign recovery for the covariance entries.

The data generating process draws the first four coefficients from a
multivariate normal with a fixed dense 4 x 4 covariance block, sets the
fifth coefficient to a constant and the rest to zero, so the nonzero
pattern of the half-vectorized covariance matrix has size 8 for every
p >= 5.  Covariates are i.i.d. uniform, either on the interval [-1, 1] or
on the three points {-1, 0, 1}.

Reproducibility contract: every replication derives its generator from
(seed, stream, rep_index) via ``numpy.random.SeedSequence`` spawn keys, so
results are independent of execution order and worker count.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DomainError, RcregError, is_number, number_array, whole_number
# Unused names here are kept for perfbench/tracing.py, which wraps them.
from .estimate import (  # noqa: F401
    PSD_TOL,
    Dataset,
    SecondStage,
    build_second_stage,
    fit_moments,
    lambda_max,
    lambda_path,
    ols,
)
from .halfvec import min_eigenvalue, unvec_half, vec_half

__all__ = [
    "CovariateLaw",
    "SimConfig",
    "RepResult",
    "SimReport",
    "TuneResult",
    "DEFAULT_MU1",
    "DEFAULT_SIGMA1",
    "DEFAULT_B4",
    "true_moments",
    "dgp_sample",
    "run_replication",
    "tune_lambda",
    "monte_carlo",
]


class CovariateLaw(str, Enum):
    UNIFORM_INTERVAL = "uniform_interval"
    UNIFORM_THREE_POINT = "uniform_three_point"


DEFAULT_MU1 = (40.0, 15.0, 0.0, -10.0)
DEFAULT_SIGMA1 = (
    (10.0, 15.65, -5.20, 0.0),
    (15.65, 50.0, 0.0, 12.65),
    (-5.20, 0.0, 30.0, -12.25),
    (0.0, 12.65, -12.25, 20.0),
)
DEFAULT_B4 = 20.0

# Largest replications and pilot_replications: every replication's result is held in
# memory, and the job list is built whole before the first job runs.
MAX_REPLICATIONS = 10**6

# Tuning pilots draw from a different stream domain than the main study.
_STREAM_MAIN = 0
_STREAM_PILOT = 1


@dataclass
class SimConfig:
    """Study configuration; ``lam=None`` requests automatic tuning."""

    n: int
    p: int = 6
    covariate_law: CovariateLaw = CovariateLaw.UNIFORM_INTERVAL
    mu1: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_MU1))
    sigma1: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_SIGMA1))
    b4: float = DEFAULT_B4
    lam: float | None = None
    replications: int = 200
    seed: int = 0
    pilot_replications: int = 100
    grid_size: int = 50

    def __post_init__(self):
        for name in ("n", "p", "replications", "seed", "pilot_replications", "grid_size"):
            setattr(self, name, whole_number(getattr(self, name), f"{name} must be an integer"))
        self.covariate_law = CovariateLaw(self.covariate_law)
        self.mu1 = number_array(self.mu1, "mu1 entries must be finite reals").reshape(-1)
        self.sigma1 = number_array(self.sigma1, "sigma1 entries must be finite reals")
        if self.mu1.shape[0] != 4 or self.sigma1.shape != (4, 4):
            raise DomainError("mu1 must have length 4 and sigma1 shape (4, 4)")
        if self.p < 5:
            raise DomainError(f"p must be at least 5, got {self.p}")
        if self.n < 1 or self.replications < 1 or self.pilot_replications < 1:
            raise DomainError("n, replications and pilot_replications must be >= 1")
        for name, count in (("replications", self.replications),
                            ("pilot_replications", self.pilot_replications)):
            if count > MAX_REPLICATIONS:
                raise DomainError(f"{name} must be at most {MAX_REPLICATIONS}, got {count}")
        if self.grid_size < 1:
            raise DomainError(f"grid_size must be >= 1, got {self.grid_size}")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")
        if not is_number(self.b4):
            raise DomainError(f"b4 must be a finite real, got {self.b4!r}")
        if self.lam is not None and not (is_number(self.lam) and self.lam >= 0):
            raise DomainError(f"lam must be finite and nonnegative, got {self.lam!r}")
        _psd_factor(self.sigma1)  # fail fast on an invalid covariance block


@dataclass(frozen=True)
class RepResult:
    """Per-replication selection outcome."""

    fp: int
    fn: int
    sign_ok: bool
    superset_ok: bool
    block_psd: bool


@dataclass
class SimReport:
    sign_recovery_rate: float
    fp_histogram: dict[int, int]
    fn_histogram: dict[int, int]
    lambda_used: float
    replications: int
    failures: int
    per_rep: list[RepResult]
    tuning_fallback: bool = False


@dataclass
class TuneResult:
    lam: float
    fallback: bool
    grid: np.ndarray
    hits: np.ndarray


def _psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor L with L L' = sigma; accepts semidefinite blocks."""
    sigma = np.asarray(sigma, dtype=float)
    if np.max(np.abs(sigma - sigma.T), initial=0.0) > 0.0:
        raise DomainError("sigma1 must be symmetric")
    w, V = np.linalg.eigh(sigma)
    if w[0] < -1e-10 * max(1.0, float(w[-1])):
        raise DomainError(
            f"sigma1 is not positive semidefinite (min eigenvalue {w[0]:.3e})"
        )
    return V * np.sqrt(np.clip(w, 0.0, None))


def true_moments(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """True mean vector and half-vectorized covariance of the coefficients."""
    mu = np.zeros(cfg.p)
    mu[:4] = cfg.mu1
    mu[4] = cfg.b4
    Sigma = np.zeros((cfg.p, cfg.p))
    Sigma[:4, :4] = (cfg.sigma1 + cfg.sigma1.T) / 2.0
    return mu, vec_half(Sigma)


def _rep_rngs(seed: int, stream: int, index: int):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index))
    coef_ss, cov_ss = ss.spawn(2)
    return np.random.default_rng(coef_ss), np.random.default_rng(cov_ss)


def dgp_sample(
    cfg: SimConfig,
    rep_index: int,
    *,
    stream: int = _STREAM_MAIN,
    return_coefficients: bool = False,
):
    """One synthetic dataset; deterministic in (cfg.seed, stream, rep_index)."""
    coef_rng, cov_rng = _rep_rngs(cfg.seed, stream, rep_index)
    L = _psd_factor(cfg.sigma1)
    A = np.zeros((cfg.n, cfg.p))
    A[:, :4] = cfg.mu1 + coef_rng.standard_normal((cfg.n, 4)) @ L.T
    A[:, 4] = cfg.b4
    if cfg.covariate_law is CovariateLaw.UNIFORM_INTERVAL:
        W = cov_rng.uniform(-1.0, 1.0, size=(cfg.n, cfg.p - 1))
    else:
        W = cov_rng.integers(0, 3, size=(cfg.n, cfg.p - 1)).astype(float) - 1.0
    X = np.concatenate([np.ones((cfg.n, 1)), W], axis=1)
    data = Dataset(X=X, Y=np.einsum("ij,ij->i", X, A))
    if return_coefficients:
        return data, A
    return data


def run_replication(cfg: SimConfig, rep_index: int) -> RepResult:
    """Fit one replication and score its selection against the truth.

    False positives and negatives are counted over penalized coordinates
    only; sign recovery compares every coordinate.  ``block_psd`` checks the
    reconstructed covariance restricted to the truly random coefficients.
    """
    if cfg.lam is None:
        raise DomainError("cfg.lam is unset; tune first or provide a value")
    data = dgp_sample(cfg, rep_index)
    fit = fit_moments(data, cfg.lam)
    _, sigma_star = true_moments(cfg)
    est_sign = np.sign(fit.solution.beta).astype(int)
    true_sign = np.sign(sigma_star).astype(int)
    penalized = fit.stage.penalize_mask
    est_nz = fit.solution.beta != 0.0
    true_nz = sigma_star != 0.0
    fp = int(np.count_nonzero(penalized & est_nz & ~true_nz))
    fn = int(np.count_nonzero(penalized & ~est_nz & true_nz))
    block = np.flatnonzero(np.any(unvec_half(sigma_star, cfg.p) != 0.0, axis=1))
    block_psd = True
    if block.size:
        sub = fit.Sigma_hat[np.ix_(block, block)]
        block_psd = bool(min_eigenvalue(sub) >= -PSD_TOL)
    return RepResult(
        fp=fp,
        fn=fn,
        sign_ok=bool(np.array_equal(est_sign, true_sign)),
        superset_ok=bool(np.all(est_nz[true_nz])),
        block_psd=block_psd,
    )


def _path_hits(stage: SecondStage, grid, target: int) -> np.ndarray:
    """1 at each grid level whose solution converged with ``target`` penalized nonzeros."""
    sols = stage.path(grid)
    mask = stage.penalize_mask
    return np.array([s.converged and np.count_nonzero(s.beta[mask]) == target for s in sols],
                    dtype=int)


def _pilot_hits(args) -> np.ndarray:
    cfg, index, grid, target = args
    stage = SecondStage.from_data(dgp_sample(cfg, index, stream=_STREAM_PILOT))
    return _path_hits(stage, grid, target)


def tune_lambda(cfg: SimConfig) -> TuneResult:
    """Pick the penalty whose active-set size most often matches the truth.

    The grid is log-spaced over [1e-4 * lmax, lmax], with lmax computed on
    the first pilot dataset as the level that zeroes every penalized
    coordinate.  For each pilot dataset the grid points whose exact solution
    converged with the correct number of penalized nonzeros are tallied; ties break
    toward the larger penalty.  If no grid point ever hits the target the
    grid midpoint is returned with ``fallback=True``.  Pilots after the
    first run in parallel under the determinism contract of :func:`monte_carlo`.
    """
    first = SecondStage.from_data(dgp_sample(cfg, 0, stream=_STREAM_PILOT))
    target = int(np.count_nonzero(true_moments(cfg)[1][first.penalize_mask]))
    lmax = first.lambda_max()
    if lmax <= 0.0:
        return TuneResult(lam=0.0, fallback=True, grid=np.zeros(1), hits=np.zeros(1, int))
    grid = np.geomspace(lmax, lmax * 1e-4, cfg.grid_size)
    jobs = [(cfg, i, grid, target) for i in range(1, cfg.pilot_replications)]
    rows = [_path_hits(first, grid, target)] + _run_jobs(_pilot_hits, jobs)
    hits = np.sum(rows, axis=0)
    if hits.max() == 0:
        return TuneResult(
            lam=float(grid[cfg.grid_size // 2]), fallback=True, grid=grid, hits=hits
        )
    return TuneResult(lam=float(grid[int(np.argmax(hits))]), fallback=False, grid=grid, hits=hits)


def _mc_worker(args) -> RepResult | None:
    cfg, rep_index = args
    try:
        return run_replication(cfg, rep_index)
    except RcregError:
        return None


def _worker_count() -> int:
    """The RCREG_THREADS environment variable, else the CPU count."""
    env = os.environ.get("RCREG_THREADS", "").strip()
    if env and not (env.isdecimal() and int(env) > 0):
        raise DomainError(f"RCREG_THREADS must be a positive integer, got {env!r}")
    return int(env) if env else (os.cpu_count() or 1)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(n: int) -> int:
    """Set numpy's bundled OpenBLAS to ``n`` threads and return its former count; 0, setting
    nothing, if the user set one of ``_BLAS_THREAD_VARS`` or numpy carries no such library."""
    if any(os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARS):
        return 0
    import ctypes
    import glob

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                       "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        before = get()
        put(n)
        return before
    return 0


def _run_jobs(fn, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, in order, on a pool of up to ``_worker_count()``
    workers, one per job at most: the one place a pool is sized.  With one, in this process."""
    workers = max(1, min(_worker_count(), len(jobs)))
    if workers == 1:
        return [fn(job) for job in jobs]
    from multiprocessing import get_context

    chunk, module = max(1, len(jobs) // (4 * workers)), sys.modules[__name__]
    # Workers forked while this process runs one BLAS thread keep that count, so w workers
    # run w BLAS threads, not w times the CPU count; set in each worker, the count would
    # restart OpenBLAS's threads there (a fifth slower CSV parse).  Fork is named so that a
    # newer Python's default cannot change it: workers start with numpy loaded and see this
    # process's modules as they are.
    before = _blas_threads(1)
    try:
        with module.ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            return list(pool.map(fn, jobs, chunksize=chunk))
    except module.BrokenProcessPool:
        raise RcregError("a worker process died, perhaps for want of memory; "
                         "RCREG_THREADS=1 runs the work in this process") from None
    finally:
        if before:
            _blas_threads(before)


def __getattr__(name: str):
    """``ProcessPoolExecutor`` and ``BrokenProcessPool``, loaded only once a pool starts."""
    if name in ("ProcessPoolExecutor", "BrokenProcessPool"):
        from concurrent.futures import process
        return getattr(process, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def monte_carlo(cfg: SimConfig) -> SimReport:
    """Aggregate ``cfg.replications`` replications into a selection report.

    Replications and tuning pilots run on ``RCREG_THREADS`` worker processes,
    else one per CPU.  Results are bit-identical for any worker count because each replication owns its
    RNG stream and aggregation follows replication order.  Failed
    replications are counted, not fatal.
    """
    fallback = False
    lam = cfg.lam
    if lam is None:
        tuned = tune_lambda(cfg)
        lam, fallback = tuned.lam, tuned.fallback
    rcfg = replace(cfg, lam=lam)
    jobs = [(rcfg, i) for i in range(cfg.replications)]
    results = _run_jobs(_mc_worker, jobs)
    completed = [r for r in results if r is not None]
    failures = len(results) - len(completed)
    fp_hist: dict[int, int] = {}
    fn_hist: dict[int, int] = {}
    recovered = 0
    for r in completed:
        fp_hist[r.fp] = fp_hist.get(r.fp, 0) + 1
        fn_hist[r.fn] = fn_hist.get(r.fn, 0) + 1
        recovered += r.sign_ok
    rate = recovered / len(completed) if completed else 0.0
    return SimReport(
        sign_recovery_rate=rate,
        fp_histogram=dict(sorted(fp_hist.items())),
        fn_histogram=dict(sorted(fn_hist.items())),
        lambda_used=float(lam),
        replications=cfg.replications,
        failures=failures,
        per_rep=completed,
        tuning_fallback=fallback,
    )
