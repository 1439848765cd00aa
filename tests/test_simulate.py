"""Monte Carlo harness: DGP law, determinism, tuning, selection trends."""

import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from rcreg import estimate, simulate
from rcreg import (
    DEFAULT_B4,
    DEFAULT_MU1,
    DEFAULT_SIGMA1,
    CovariateLaw,
    DomainError,
    SecondStage,
    SimConfig,
    dgp_sample,
    half_dim,
    monte_carlo,
    run_replication,
    true_moments,
    tune_lambda,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _openblas(verb):
    """numpy's bundled OpenBLAS ``scipy_openblas_{verb}_num_threads64_``, or None."""
    import ctypes
    import glob

    for path in glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so"):
        fn = getattr(ctypes.CDLL(path), f"scipy_openblas_{verb}_num_threads64_")
        fn.argtypes, fn.restype = ([], ctypes.c_int) if verb == "get" else ([ctypes.c_int], None)
        return fn
    return None


def _blas_threads(_job):
    return _openblas("get")()


_TREND_CACHE: dict = {}


def tuned_recovery_rate(p, n, seed=91, replications=200, pilots=100):
    """Sign-recovery rate at a tuned penalty, memoized across tests."""
    key = (p, n, seed, replications, pilots)
    if key not in _TREND_CACHE:
        cfg = SimConfig(
            n=n, p=p, seed=seed, lam=None, replications=replications,
            pilot_replications=pilots,
        )
        tuned = tune_lambda(cfg)
        report = monte_carlo(dataclasses.replace(cfg, lam=tuned.lam))
        _TREND_CACHE[key] = report
    return _TREND_CACHE[key]


class TestConfig:
    def test_default_correlations(self):
        cfg = SimConfig(n=100)
        S = cfg.sigma1
        sd = np.sqrt(np.diagonal(S))
        corr = S / np.outer(sd, sd)
        assert corr[0, 1] == pytest.approx(0.7, abs=1e-3)
        assert corr[0, 2] == pytest.approx(-0.3, abs=1e-3)
        assert corr[1, 3] == pytest.approx(0.4, abs=1e-3)
        assert corr[2, 3] == pytest.approx(-0.5, abs=1e-3)
        assert corr[0, 3] == corr[1, 2] == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            SimConfig(n=100, p=4)
        with pytest.raises(DomainError):
            SimConfig(n=100, seed=-1)
        with pytest.raises(DomainError):
            SimConfig(n=100, sigma1=np.diag([1.0, 1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("name", ["replications", "pilot_replications"])
    def test_replication_counts_are_bounded(self, name):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"at most {simulate.MAX_REPLICATIONS}"):
            SimConfig(n=100, **{name: 1e15})
        assert time.perf_counter() - start < 1.0
        assert getattr(SimConfig(n=100, **{name: simulate.MAX_REPLICATIONS}), name) == 10**6

    @pytest.mark.parametrize("p", [5, 6, 10])
    def test_support_size_always_eight(self, p):
        _, sigma_star = true_moments(SimConfig(n=100, p=p))
        assert np.count_nonzero(sigma_star) == 8


class TestDgp:
    def test_bitwise_reproducible(self):
        cfg = SimConfig(n=500, p=5, seed=3)
        a = dgp_sample(cfg, 7)
        b = dgp_sample(cfg, 7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_replications_differ_and_streams_separate(self):
        cfg = SimConfig(n=100, p=5, seed=3)
        main = dgp_sample(cfg, 0)
        other = dgp_sample(cfg, 1)
        pilot = dgp_sample(cfg, 0, stream=1)
        assert not np.array_equal(main.Y, other.Y)
        assert not np.array_equal(main.Y, pilot.Y)

    def test_degenerate_block_gives_deterministic_response(self):
        cfg = SimConfig(n=200, p=5, seed=5, sigma1=np.zeros((4, 4)))
        data = dgp_sample(cfg, 0)
        mu_star, _ = true_moments(cfg)
        assert np.max(np.abs(data.Y - data.X @ mu_star)) <= 1e-12

    def test_three_point_law_support(self):
        cfg = SimConfig(
            n=2000, p=6, seed=6, covariate_law=CovariateLaw.UNIFORM_THREE_POINT
        )
        data = dgp_sample(cfg, 0)
        assert set(np.unique(data.X[:, 1:])) == {-1.0, 0.0, 1.0}

    def test_coefficient_block_law_of_large_numbers(self):
        cfg = SimConfig(n=1_000_000, p=6, seed=8)
        _, A = dgp_sample(cfg, 0, return_coefficients=True)
        emp = np.cov(A[:, :4], rowvar=False)
        rel = np.linalg.norm(emp - cfg.sigma1) / np.linalg.norm(cfg.sigma1)
        assert rel <= 0.02
        assert np.array_equal(A[:, 4], np.full(cfg.n, 20.0))
        assert np.array_equal(A[:, 5], np.zeros(cfg.n))


class TestReplication:
    def test_huge_lambda_misses_whole_penalized_support(self):
        cfg = SimConfig(n=2000, p=6, seed=9, lam=1e9)
        res = run_replication(cfg, 0)
        assert res.fn == 7  # support size 8 minus the unpenalized coordinate
        assert res.fp == 0
        assert not res.sign_ok

    def test_zero_lambda_selects_everything(self):
        cfg = SimConfig(n=2000, p=6, seed=10, lam=0.0)
        res = run_replication(cfg, 0)
        assert res.fp == half_dim(6) - 8  # every true zero comes out nonzero
        assert res.fn == 0
        assert res.superset_ok

    def test_sign_recovery_implies_clean_counts(self):
        cfg = SimConfig(n=10000, p=6, seed=11, lam=15.0)
        for i in range(10):
            res = run_replication(cfg, i)
            if res.sign_ok:
                assert res.fp == 0 and res.fn == 0 and res.superset_ok
            if res.fn == 0:
                assert res.superset_ok

    def test_unset_lambda_rejected(self):
        cfg = SimConfig(n=2000, p=6, seed=12, lam=None)
        with pytest.raises(DomainError):
            run_replication(cfg, 0)


class TestTuneLambda:
    def test_deterministic_coefficients_pick_the_plateau_centre(self):
        # Every pilot hits at the top level and two at the next: m = P = 3, so levels with
        # at least 3 - 1 hits are near-max, and the centre of [0, 1] rounds to 1.
        cfg = SimConfig(n=1500, p=5, seed=14, sigma1=np.zeros((4, 4)), pilot_replications=3)
        tuned = tune_lambda(cfg)
        assert not tuned.fallback
        assert tuned.hits[:3].tolist() == [3, 2, 0] and not tuned.hits[3:].any()
        assert tuned.lam == tuned.grid[1]

    def test_no_hit_picks_the_grid_midpoint(self, monkeypatch):
        # A walk allowed no breakpoint converges only at lambda_max, where nothing is active.
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 0)
        cfg = SimConfig(n=1500, p=5, seed=13, pilot_replications=3)
        tuned = tune_lambda(cfg)
        stage = SecondStage.from_data(dgp_sample(cfg, 0, stream=simulate._STREAM_PILOT))
        lmax = stage.lambda_max()
        assert tuned.fallback and not tuned.hits.any()
        assert tuned.lam == np.geomspace(lmax, lmax * 1e-4, 50)[25]

    def test_first_pilot_drawn_once(self, monkeypatch):
        calls = []
        draw = simulate.dgp_sample

        def counted(cfg, index, **kwargs):
            calls.append((kwargs.get("stream"), index))
            return draw(cfg, index, **kwargs)

        monkeypatch.setattr(simulate, "dgp_sample", counted)
        cfg = SimConfig(n=1500, p=5, seed=13, pilot_replications=3)
        monkeypatch.setenv("RCREG_THREADS", "1")
        serial = tune_lambda(cfg)
        assert sorted(calls) == [(simulate._STREAM_PILOT, i) for i in range(3)]
        monkeypatch.setenv("RCREG_THREADS", "2")
        assert np.array_equal(serial.hits, tune_lambda(cfg).hits)

    def test_nonconverged_levels_are_not_hits(self, monkeypatch):
        # The walk stops after 7 breakpoints; later levels get the last breakpoint's solution.
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 7)
        cfg = SimConfig(n=2000, p=6, seed=3)
        stage = SecondStage.from_data(dgp_sample(cfg, 0, stream=simulate._STREAM_PILOT))
        target = int(np.count_nonzero(true_moments(cfg)[1][stage.penalize_mask]))
        grid = stage.grid()
        stuck = [not s.converged for s in stage.path(grid)]
        hits = simulate._path_hits(stage, grid, target)
        assert any(stuck)
        assert not np.any(hits[stuck])

    def test_three_point_tunes_larger_than_interval(self):
        """Stochastic trend over 5 paired tuning runs."""
        lams = {law: [] for law in CovariateLaw}
        for seed in range(5):
            for law in CovariateLaw:
                cfg = SimConfig(
                    n=4000, p=6, seed=100 + seed, covariate_law=law,
                    pilot_replications=25,
                )
                lams[law].append(tune_lambda(cfg).lam)
        assert np.mean(lams[CovariateLaw.UNIFORM_THREE_POINT]) >= np.mean(
            lams[CovariateLaw.UNIFORM_INTERVAL]
        )


class TestMonteCarlo:
    def test_single_replication_reduces_to_triple(self):
        cfg = SimConfig(n=1200, p=5, seed=15, lam=8.0, replications=1)
        report = monte_carlo(cfg)
        assert report.replications == 1 and len(report.per_rep) == 1
        only = report.per_rep[0]
        assert report.sign_recovery_rate == float(only.sign_ok)
        assert report.fp_histogram == {only.fp: 1}
        assert report.fn_histogram == {only.fn: 1}

    def test_identical_seeds_identical_reports(self, monkeypatch):
        cfg = SimConfig(n=800, p=5, seed=16, lam=10.0, replications=6)
        monkeypatch.setenv("RCREG_THREADS", "1")
        a = monte_carlo(cfg)
        monkeypatch.setenv("RCREG_THREADS", "2")
        b = monte_carlo(cfg)
        assert a == b

    def test_replication_failures_counted_not_fatal(self, monkeypatch):
        # n below p(p+1)/2 makes every second-stage fit rank deficient
        cfg = SimConfig(n=12, p=5, seed=19, lam=1.0, replications=4)
        monkeypatch.setenv("RCREG_THREADS", "1")
        report = monte_carlo(cfg)
        assert report.failures == 4
        assert report.per_rep == [] and report.sign_recovery_rate == 0.0

    def test_single_worker_tunes_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("RCREG_THREADS=1 must not start a process pool")

        monkeypatch.setenv("RCREG_THREADS", "1")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
        cfg = SimConfig(n=800, p=5, seed=18, lam=None, replications=2, pilot_replications=3)
        report = monte_carlo(cfg)
        assert report.replications == 2 and report.lambda_used > 0.0

    def test_serial_run_imports_no_pool_machinery(self, tmp_path):
        """``RCREG_THREADS=1 rcreg simulate`` loads neither the process pool nor
        multiprocessing; ``-X importtime`` lists every module the run imported."""
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n": 600, "p": 5, "lambda": "auto", "replications": 2,
                                   "pilot_replications": 2, "seed": 3}))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rcreg", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, RCREG_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"rcreg.simulate", "numpy"} <= imported
        assert not imported & {"concurrent.futures.process", "multiprocessing"}

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_variable_rejected(self, monkeypatch, value):
        monkeypatch.setenv("RCREG_THREADS", value)
        with pytest.raises(DomainError, match="RCREG_THREADS"):
            simulate._run_jobs(abs, [-1, -2])

    @pytest.mark.parametrize("value", ["", "  ", " 3 "])
    def test_thread_variable_or_cpu_count_sizes_the_pool(self, monkeypatch, value):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, *, mp_context):
                sizes.append(max_workers)
                assert mp_context.get_start_method() == "fork"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setenv("RCREG_THREADS", value)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
        assert simulate._run_jobs(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
        assert sizes == [3 if value.strip() else 2]

    @pytest.mark.parametrize("user_value", [None, "2"])
    def test_pool_workers_run_one_blas_thread_unless_the_user_set_one(self, monkeypatch,
                                                                      user_value):
        """The caller runs two OpenBLAS threads; its workers run one, or, when
        OPENBLAS_NUM_THREADS is set, what the caller runs.  The caller keeps its count."""
        if _openblas("get") is None:
            pytest.skip("numpy carries no bundled OpenBLAS")
        for name in simulate._BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        if user_value is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_value)
        monkeypatch.setenv("RCREG_THREADS", "2")
        before = _openblas("get")()
        _openblas("set")(2)
        try:
            counts = simulate._run_jobs(_blas_threads, [0, 1, 2, 3])
            assert _openblas("get")() == 2
        finally:
            _openblas("set")(before)
        assert counts == [1 if user_value is None else 2] * 4

    def test_nonconverged_replications_counted_as_failures(self, monkeypatch):
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 1)
        cfg = SimConfig(n=600, p=5, seed=20, lam=0.0, replications=3)
        monkeypatch.setenv("RCREG_THREADS", "1")
        report = monte_carlo(cfg)
        assert report.failures == 3 and report.per_rep == []

    def test_failures_do_not_depend_on_units(self, monkeypatch):
        cfg = SimConfig(n=5000, p=6, seed=3, replications=4, pilot_replications=4,
                        mu1=1e3 * np.array(DEFAULT_MU1), b4=1e3 * DEFAULT_B4,
                        sigma1=1e6 * np.array(DEFAULT_SIGMA1))
        monkeypatch.setenv("RCREG_THREADS", "1")
        assert monte_carlo(cfg).failures == 0

    def test_histogram_mass_and_rate_definition(self):
        cfg = SimConfig(n=1500, p=5, seed=17, lam=12.0, replications=12)
        report = monte_carlo(cfg)
        assert sum(report.fp_histogram.values()) == report.replications - report.failures
        assert sum(report.fn_histogram.values()) == report.replications - report.failures
        manual = np.mean([r.sign_ok for r in report.per_rep])
        assert report.sign_recovery_rate == manual
        support_rate = np.mean([r.fp == 0 and r.fn == 0 for r in report.per_rep])
        assert report.sign_recovery_rate <= support_rate


class TestTrends:
    @pytest.mark.parametrize("p", [6, 10])
    def test_recovery_improves_with_n(self, p):
        rates = [
            tuned_recovery_rate(p, n).sign_recovery_rate for n in (2000, 5000, 10000)
        ]
        assert rates[1] >= rates[0] - 0.03
        assert rates[2] >= rates[1] - 0.03

    def test_recovery_degrades_with_p(self):
        r6 = tuned_recovery_rate(6, 5000).sign_recovery_rate
        r20 = tuned_recovery_rate(20, 5000).sign_recovery_rate
        assert r20 <= r6 + 0.03

    def test_init_estimator_root_n_rate(self):
        """RMSE of the second-stage initial estimator shrinks like 1/sqrt(n)."""
        cfg4 = {"p": 6, "seed": 18}
        out = {}
        for n in (1000, 4000):
            errs = []
            cfg = SimConfig(n=n, lam=0.0, **cfg4)
            _, sigma_star = true_moments(cfg)
            for i in range(300):
                data = dgp_sample(cfg, i)
                errs.append(np.sum((SecondStage.from_data(data).init - sigma_star) ** 2))
            out[n] = float(np.sqrt(np.mean(errs)))
        ratio = out[4000] / out[1000]
        assert 0.4 <= ratio <= 0.65
