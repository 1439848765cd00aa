"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Criterion 6(iii) is known to fall short at desk scale; its
assertion message carries the quantitative reason.
"""

import dataclasses
import os
import subprocess
import sys
import time

import numpy as np

from dgp_helpers import MU1, SIGMA1_HALFVEC, SUPPORT4, draw_dataset
from test_partial_id import grid_scan, random_blocks

import rcreg
from rcreg import (
    InfeasibleError,
    SimConfig,
    SupportSpec,
    adaptive_lasso,
    check_identified,
    fit_moments,
    half_dim,
    kkt_residual,
    mixed_moments_single_regressor,
    monte_carlo,
    ols,
    partial_id_bounds,
    sandwich,
    tune_lambda,
    witness_check,
)
from rcreg.estimate import KKT_TOL


class Criterion:
    """Times a criterion body, then prints one PASS/FAIL line."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[{status}] criterion {self.number}: {self.description} "
            f"({elapsed:.1f}s, budget {self.budget:.0f}s)"
        )
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its runtime budget: "
            f"{elapsed:.1f}s >= {self.budget:.0f}s"
        )
        return False


def test_criterion_1_quadratic_form_identity():
    with Criterion(1, "v(x) . halfvec(M) == x'Mx, 10^4 random draws, p <= 10", 1.0):
        rng = np.random.default_rng(101)
        total = 0
        for p in range(1, 11):
            N = 1000
            x = rng.uniform(-10, 10, (N, p))
            A = rng.uniform(-10, 10, (N, p, p))
            M = (A + np.transpose(A, (0, 2, 1))) / 2
            i, j = np.triu_indices(p, k=1)
            vecM = np.concatenate(
                [np.diagonal(M, axis1=1, axis2=2), M[:, i, j]], axis=1
            )
            vx = rcreg.v_transform_rows(x)
            lhs = np.einsum("nd,nd->n", vx, vecM)
            rhs = np.einsum("ni,nij,nj->n", x, M, x)
            scale = np.maximum(1.0, np.einsum("nd,nd->n", np.abs(vx), np.abs(vecM)))
            assert np.max(np.abs(lhs - rhs) / scale) <= 1e-12
            total += N
        assert total == 10_000


def test_criterion_2_identification_ranks():
    with Criterion(2, "witness sets reach full rank; binary coordinates never do", 5.0):
        for p in range(2, 9):
            spec = SupportSpec(((-1.0, 0.0, 1.0),) * (p - 1))
            W = np.array(check_identified(spec).witness_points)
            S = rcreg.v_transform_rows(np.column_stack([np.ones(len(W)), W]))
            svals = np.linalg.svd(S, compute_uv=False)
            full = half_dim(p)
            assert S.shape == (full, full)
            assert svals[-1] > 1e-10 * svals[0]
        rng = np.random.default_rng(202)
        for p in range(2, 6):
            q = p - 1
            supports = []
            for _ in range(q):
                k = int(rng.integers(2, 4))
                supports.append(
                    tuple(np.sort(rng.choice(np.arange(-10, 11), size=k, replace=False) / 2.0))
                )
            supports[int(rng.integers(0, q))] = (0.0, 1.0)
            rep = check_identified(SupportSpec(tuple(supports)))
            assert rep.achieved_rank < rep.full_dim


def test_criterion_3_partial_id_oracle_equivalence():
    with Criterion(3, "PSD-completion bounds match a step-1e-4 grid scan", 10.0):
        rng = np.random.default_rng(303)
        checked = 0
        for trial in range(100):
            blocks = random_blocks(rng, p=2 + trial % 5)
            try:
                b = partial_id_bounds(blocks)
            except InfeasibleError:
                assert grid_scan(blocks) is None
                continue
            lo, hi = grid_scan(blocks)
            assert abs(b.lower - lo) <= 2e-4
            assert abs(b.upper - hi) <= 2e-4
            checked += 1
        assert checked >= 60  # the generator rarely produces infeasible blocks
        for v0 in (0.5, 1.0, 2.5):
            blocks = rcreg.PartialIdBlocks(
                cov_b0_b2=np.array([[v0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=v0
            )
            b = partial_id_bounds(blocks)
            assert abs(b.lower - 0.0) <= 1e-6
            assert abs(b.upper - 4.0 * v0) <= 1e-6


def test_criterion_4_lasso_correctness():
    with Criterion(4, "solver: OLS limit, soft-threshold form, KKT, witness", 10.0):
        rng = np.random.default_rng(404)
        # (a) zero penalty equals OLS
        for seed in range(5):
            r = np.random.default_rng(seed)
            X = np.concatenate([np.ones((150, 1)), r.normal(size=(150, 5))], axis=1)
            Y = X @ r.uniform(-2, 2, 6) + r.normal(size=150)
            sol = adaptive_lasso(Y, X, 0.0, np.ones(6))
            assert np.max(np.abs(sol.beta - ols(Y, X))) <= 1e-7
        # (b) orthonormal designs give exact soft-thresholding
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            Q, _ = np.linalg.qr(r.normal(size=(300, 6)))
            X = Q * np.sqrt(300)
            Y = X @ r.uniform(-2, 2, 6) + r.normal(size=300)
            init = r.uniform(0.4, 2.0, 6)
            lam = float(r.uniform(0.05, 0.6))
            sol = adaptive_lasso(Y, X, lam, init)
            b_ols = ols(Y, X)
            expect = np.sign(b_ols) * np.maximum(np.abs(b_ols) - lam / np.abs(init), 0)
            assert np.max(np.abs(sol.beta - expect)) <= 1e-8
        # (c) independent KKT verifier at 10 * tol
        for seed in range(10):
            r = np.random.default_rng(200 + seed)
            X = np.concatenate([np.ones((120, 1)), r.normal(size=(120, 6))], axis=1)
            Y = X @ r.uniform(-2, 2, 7) + r.normal(size=120)
            init = r.uniform(-2, 2, 7)
            mask = r.random(7) < 0.8
            lam = float(r.uniform(0, 0.8))
            sol = adaptive_lasso(Y, X, lam, init, mask)
            assert sol.converged
            assert kkt_residual(Y, X, sol.beta, lam, init, mask) <= 10 * KKT_TOL
        # (d) certified witnesses agree with the solver (mismatch raises inside)
        certified = 0
        for seed in range(30):
            r = np.random.default_rng(300 + seed)
            X = np.concatenate([np.ones((150, 1)), r.normal(size=(150, 7))], axis=1)
            beta = np.zeros(8)
            S = np.sort(r.choice(8, size=3, replace=False))
            beta[S] = r.choice([-1.0, 1.0], 3) * r.uniform(1.0, 3.0, 3)
            Y = X @ beta + 0.25 * r.normal(size=150)
            init = beta + 0.05 * r.normal(size=8)
            init[init == 0.0] = 0.03
            rep = witness_check(X, Y, S, 0.05, init=init, beta_star=beta)
            if rep.condition1 and rep.sign_match:
                certified += 1
                assert np.array_equal(np.sort(rep.solution.active_set), S)
                assert np.max(np.abs(rep.solution.beta[S] - rep.beta_tilde)) <= 1e-6
        assert certified >= 10


def test_criterion_5_mixed_moment_identification():
    with Criterion(5, "Vandermonde moment solve matches atom enumeration", 1.0):
        rng = np.random.default_rng(505)
        for _ in range(200):
            order = int(rng.integers(1, 4))
            n_atoms = int(rng.integers(1, 4))
            atoms = rng.integers(-4, 5, (n_atoms, 2)).astype(float)
            probs = rng.dirichlet(np.ones(n_atoms))
            support = np.sort(
                rng.choice(np.arange(-6, 7), size=order + 1, replace=False)
            ) / 2.0
            cond = np.array(
                [
                    sum(pr * (b0 + w * b1) ** order for (b0, b1), pr in zip(atoms, probs))
                    for w in support
                ]
            )
            got = mixed_moments_single_regressor(support, cond, order)
            want = np.array(
                [
                    sum(pr * b0 ** (order - k) * b1**k for (b0, b1), pr in zip(atoms, probs))
                    for k in range(order + 1)
                ]
            )
            assert np.max(np.abs(got - want)) <= 1e-9


def test_criterion_6_desk_scale_sign_recovery_study():
    with Criterion(6, "desk-scale selection study: trend, supersets, PSD blocks", 600.0):
        reports = {}
        for n in (2000, 10000):
            cfg = SimConfig(
                n=n, p=6, seed=2024, lam=None, replications=200, pilot_replications=100
            )
            tuned = tune_lambda(cfg)
            reports[n] = monte_carlo(dataclasses.replace(cfg, lam=tuned.lam))
        r_small, r_large = (
            reports[2000].sign_recovery_rate,
            reports[10000].sign_recovery_rate,
        )
        # (i) recovery improves with sample size (3-point slack)
        assert r_large > r_small - 0.03, f"rate n=1e4 {r_large} vs n=2e3 {r_small}"
        # (ii) zero false negatives means a superset of the true support, exactly
        for rep in (reports[2000], reports[10000]):
            fn0 = sum(1 for r in rep.per_rep if r.fn == 0)
            superset = sum(1 for r in rep.per_rep if r.superset_ok)
            assert fn0 == superset
        # (iii) PSD of the reconstructed block among sign-recovery successes
        ok = [r for r in reports[10000].per_rep if r.sign_ok]
        psd_frac = sum(r.block_psd for r in ok) / len(ok)
        assert psd_frac >= 0.98, (
            f"PSD-among-recoveries is {psd_frac:.1%} (n=10^4, 200 replications), "
            "short of the required 98%.  The same study reads 100.0% at n=4*10^4, "
            "so the guarantee does take hold at desk scale; what is left at "
            "n=10^4 is the unweighted second stage, which ignores that the "
            "squared residuals' variance grows with x (ROADMAP item 3a)"
        )


def test_criterion_7_root_n_consistency_rates():
    with Criterion(7, "RMSE at 4n over RMSE at n lies in [0.4, 0.65]", 180.0):
        out = {}
        for n in (1000, 4000):
            sig_errs, mu_errs = [], []
            for i in range(300):
                data = draw_dataset(n, seed=500 + i)
                stage = rcreg.SecondStage.from_data(data)
                sig_errs.append(np.sum((stage.init - SIGMA1_HALFVEC) ** 2))
                mu_errs.append(np.sum((stage.mu_hat - MU1) ** 2))
            out[n] = (
                float(np.sqrt(np.mean(sig_errs))),
                float(np.sqrt(np.mean(mu_errs))),
            )
        sig_ratio = out[4000][0] / out[1000][0]
        mu_ratio = out[4000][1] / out[1000][1]
        assert 0.4 <= sig_ratio <= 0.65, f"sigma-init RMSE ratio {sig_ratio:.3f}"
        assert 0.4 <= mu_ratio <= 0.65, f"mu RMSE ratio {mu_ratio:.3f}"


def test_criterion_8_sandwich_variance_agreement():
    with Criterion(8, "empirical variance of selected entries matches sandwich", 300.0):
        n, lam = 10_000, 2.0
        # lam sits in the valid corridor: small enough to keep the limit law
        # visible, large enough to recover the support in most replications
        devs, avars = [], []
        for i in range(500):
            data = draw_dataset(n, seed=1000 + i)
            fit = fit_moments(data, lam)
            sigma_hat = fit.solution.beta
            if np.array_equal(np.sign(sigma_hat), np.sign(SIGMA1_HALFVEC)):
                devs.append(np.sqrt(n) * (sigma_hat[SUPPORT4] - SIGMA1_HALFVEC[SUPPORT4]))
                avars.append(np.diagonal(sandwich(data, fit).avar_s))
        assert len(devs) >= 300
        empirical = np.asarray(devs).var(axis=0, ddof=1)
        estimated = np.mean(avars, axis=0)
        ratio = empirical / estimated
        assert np.max(np.abs(ratio - 1.0)) <= 0.25, f"variance ratios {np.round(ratio, 3)}"


def test_criterion_9_simulate_determinism(tmp_path):
    with Criterion(9, "byte-identical simulate output across thread counts", 60.0):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(
            '{"n": 600, "p": 5, "lambda": 15.0, "replications": 8, "seed": 31}'
        )
        outputs = {}
        for threads in ("1", "4"):
            out_dir = tmp_path / f"run{threads}"
            env = dict(os.environ, RCREG_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "rcreg", "simulate",
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[threads] = (
                (out_dir / "summary.json").read_bytes(),
                (out_dir / "replications.csv").read_bytes(),
            )
        assert outputs["1"] == outputs["4"]
