"""Weighted-l1 solver: closed forms, exact paths, KKT certificates, witnesses."""

from dataclasses import replace

import numpy as np
import pytest

from rcreg import (
    DomainError,
    SecondStage,
    SimConfig,
    SingularGramError,
    adaptive_lasso,
    dgp_sample,
    fit_moments,
    kkt_residual,
    lambda_max,
    lambda_path,
    ols,
    tune_lambda,
    witness_check,
)
from rcreg import estimate
from rcreg.estimate import KKT_TOL


def random_regression(seed, n=200, p=6, noise=0.5, sparse=False):
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.ones((n, 1)), rng.normal(size=(n, p - 1))], axis=1)
    beta = rng.uniform(-3, 3, p)
    if sparse:
        beta[rng.random(p) < 0.5] = 0.0
    Y = X @ beta + noise * rng.normal(size=n)
    return X, Y, beta


def orthonormal_design(seed, n=400, p=6):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, p)))
    return Q * np.sqrt(n)  # X'X / n == I exactly up to round-off


class TestSolverBasics:
    def test_zero_penalty_equals_ols(self):
        X, Y, _ = random_regression(0)
        sol = adaptive_lasso(Y, X, 0.0, np.ones(X.shape[1]))
        assert sol.converged
        assert np.max(np.abs(sol.beta - ols(Y, X))) <= 1e-7

    def test_orthonormal_soft_threshold(self):
        rng = np.random.default_rng(3)
        X = orthonormal_design(3)
        beta = np.array([2.0, -1.0, 0.0, 0.5, 0.0, 3.0])
        Y = X @ beta + rng.normal(size=X.shape[0])
        init = rng.uniform(0.4, 2.5, X.shape[1])
        lam = 0.4
        sol = adaptive_lasso(Y, X, lam, init)
        b_ols = ols(Y, X)
        expect = np.sign(b_ols) * np.maximum(np.abs(b_ols) - lam / np.abs(init), 0.0)
        assert np.max(np.abs(sol.beta - expect)) <= 1e-8

    def test_large_lambda_kills_penalized(self):
        rng = np.random.default_rng(4)
        X = orthonormal_design(4)
        Y = X @ np.array([1.0, 2.0, -1.0, 0.0, 0.5, 0.0]) + rng.normal(size=X.shape[0])
        init = rng.uniform(0.5, 2.0, X.shape[1])
        lam = float(np.max(np.abs(init * (X.T @ Y) / X.shape[0])))
        sol = adaptive_lasso(Y, X, lam, init)
        assert np.array_equal(sol.beta, np.zeros(X.shape[1]))

    def test_unpenalized_coordinate_solves_normal_equation(self):
        X, Y, _ = random_regression(5)
        mask = np.ones(X.shape[1], dtype=bool)
        mask[0] = False
        sol = adaptive_lasso(Y, X, 0.8, np.ones(X.shape[1]), mask)
        grad0 = 2.0 / X.shape[0] * (X[:, 0] @ (X @ sol.beta - Y))
        assert abs(grad0) <= KKT_TOL

    def test_zero_init_coordinate_fixed_at_zero(self):
        X, Y, _ = random_regression(6)
        init = np.ones(X.shape[1])
        init[2] = 0.0
        sol = adaptive_lasso(Y, X, 0.01, init)
        assert sol.beta[2] == 0.0
        assert 2 not in sol.active_set

    def test_max_iter_returns_best_iterate(self, monkeypatch):
        X, Y, _ = random_regression(7)
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 1)
        sol = adaptive_lasso(Y, X, 0.0, np.ones(X.shape[1]))
        assert not sol.converged
        assert np.all(np.isfinite(sol.beta))

    def test_negative_lambda_rejected(self):
        X, Y, _ = random_regression(8)
        with pytest.raises(DomainError):
            adaptive_lasso(Y, X, -1.0, np.ones(X.shape[1]))

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, lam):
        X, Y, _ = random_regression(8)
        with pytest.raises(DomainError, match="finite"):
            adaptive_lasso(Y, X, lam, np.ones(X.shape[1]))


class TestKKT:
    @pytest.mark.parametrize("seed", range(8))
    def test_independent_verifier(self, seed):
        rng = np.random.default_rng(seed)
        X, Y, _ = random_regression(seed, n=150, p=7, sparse=True)
        init = rng.uniform(-2, 2, X.shape[1])
        if seed % 2:
            init[rng.integers(0, X.shape[1])] = 0.0
        mask = rng.random(X.shape[1]) < 0.8
        lam = float(rng.uniform(0, 1))
        sol = adaptive_lasso(Y, X, lam, init, mask)
        assert sol.converged
        assert sol.kkt_residual <= KKT_TOL
        assert kkt_residual(Y, X, sol.beta, lam, init, mask) <= 10 * KKT_TOL

    def test_scaling_identity(self):
        """Scaling (Y, init, lam) -> (cY, c init, c^2 lam) scales the solution by c."""
        X, Y, _ = random_regression(11)
        rng = np.random.default_rng(11)
        init = rng.uniform(0.5, 2.0, X.shape[1])
        lam, c = 0.3, 3.5
        base = adaptive_lasso(Y, X, lam, init)
        scaled = adaptive_lasso(c * Y, X, c * c * lam, c * init)
        assert np.max(np.abs(scaled.beta - c * base.beta)) <= 1e-6 * max(1.0, c)

    def test_ols_homogeneity(self):
        X, Y, _ = random_regression(12)
        c = 2.25
        b1 = adaptive_lasso(Y, X, 0.0, np.ones(X.shape[1]))
        b2 = adaptive_lasso(c * Y, X, 0.0, np.ones(X.shape[1]))
        assert np.max(np.abs(b2.beta - c * b1.beta)) <= 1e-7 * c


class TestLambdaPath:
    def test_endpoints(self):
        X, Y, _ = random_regression(20)
        init = np.full(X.shape[1], 1.5)
        lmax = lambda_max(Y, X, init)
        sols = lambda_path(Y, X, [2 * lmax, 0.0], init)
        assert np.array_equal(sols[0].beta, np.zeros(X.shape[1]))
        assert np.max(np.abs(sols[-1].beta - ols(Y, X))) <= 1e-7

    def test_active_sets_grow_on_orthonormal_designs(self):
        rng = np.random.default_rng(21)
        X = orthonormal_design(21)
        Y = X @ np.array([3.0, -2.0, 1.0, 0.3, 0.0, 0.0]) + rng.normal(size=X.shape[0])
        init = rng.uniform(0.5, 2.0, X.shape[1])
        lmax = lambda_max(Y, X, init)
        grid = np.geomspace(lmax, lmax * 1e-3, 12)
        sols = lambda_path(Y, X, grid, init)
        sizes = [s.active_set.size for s in sols]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_warm_equals_cold(self):
        X, Y, _ = random_regression(22, sparse=True)
        rng = np.random.default_rng(22)
        init = rng.uniform(0.5, 2.0, X.shape[1])
        grid = np.geomspace(1.0, 1e-3, 8)
        warm = lambda_path(Y, X, grid, init)
        for lam, ws in zip(grid, warm):
            cold = adaptive_lasso(Y, X, float(lam), init)
            assert np.max(np.abs(cold.beta - ws.beta)) <= 1e-6

    def test_ascending_grid_rejected(self):
        X, Y, _ = random_regression(23)
        with pytest.raises(DomainError):
            lambda_path(Y, X, [0.1, 1.0], np.ones(X.shape[1]))

    @pytest.mark.parametrize("grid", [[np.inf, 1.0, 0.1], [1.0, 0.1, np.nan]])
    def test_non_finite_grid_rejected(self, grid):
        X, Y, _ = random_regression(23)
        with pytest.raises(DomainError, match="finite"):
            lambda_path(Y, X, grid, np.ones(X.shape[1]))


class TestExactPath:
    @pytest.mark.parametrize("seed", range(12))
    def test_path_points_are_kkt_solutions_and_match_single_solves(self, seed):
        """Unpenalized, zero- and negative-init coordinates; every third design orthonormal."""
        rng = np.random.default_rng(seed + 300)
        n, p = 150, 7
        if seed % 3 == 2:
            X = orthonormal_design(seed + 300, n=n, p=p)
            Y = X @ rng.uniform(-2, 2, p) + rng.normal(size=n)
        else:
            X, Y, _ = random_regression(seed + 300, n=n, p=p, sparse=True)
        init = rng.uniform(-2, 2, p)
        mask = rng.random(p) < 0.7
        mask[1] = True
        if seed % 2:
            init[rng.integers(2, p)] = 0.0
        lmax = lambda_max(Y, X, init, mask)
        grid = np.concatenate([[2.0 * lmax], np.geomspace(lmax, 1e-4 * lmax, 20), [0.0]])
        sols = lambda_path(Y, X, grid, init, mask)
        assert sum(s.iterations for s in sols) >= 1
        for lam, sol in zip(grid, sols):
            assert sol.converged and sol.lam == lam
            assert kkt_residual(Y, X, sol.beta, float(lam), init, mask) <= 10 * KKT_TOL
            single = adaptive_lasso(Y, X, float(lam), init, mask)
            assert np.max(np.abs(single.beta - sol.beta)) <= 1e-10
        assert np.all(sols[0].beta[mask] == 0.0) and np.all(sols[1].beta[mask] == 0.0)

    def test_orthonormal_path_soft_thresholds(self):
        rng = np.random.default_rng(40)
        X = orthonormal_design(40)
        Y = X @ np.array([2.0, -1.0, 0.0, 0.5, 0.0, 3.0]) + rng.normal(size=X.shape[0])
        init = rng.uniform(-2.5, 2.5, X.shape[1])
        b_ols = ols(Y, X)
        grid = np.geomspace(lambda_max(Y, X, init), 1e-3, 25)
        sols = lambda_path(Y, X, grid, init)
        for lam, sol in zip(grid, sols):
            expect = np.sign(b_ols) * np.maximum(np.abs(b_ols) - lam / np.abs(init), 0.0)
            assert np.max(np.abs(sol.beta - expect)) <= 1e-10

    def test_rank_deficient_design_raises_singular_gram(self):
        X, Y, _ = random_regression(41)
        X = np.concatenate([X, X[:, [2]]], axis=1)
        init = np.ones(X.shape[1])
        with pytest.raises(SingularGramError):
            adaptive_lasso(Y, X, 0.0, init)
        with pytest.raises(SingularGramError):
            lambda_path(Y, X, [1.0, 0.0], init)

    def test_max_iter_bounds_breakpoints_of_the_walk(self, monkeypatch):
        X, Y, _ = random_regression(42)
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 2)
        sols = lambda_path(Y, X, [1e6, 0.0, 0.0], np.ones(X.shape[1]))
        assert sols[0].converged and sols[0].iterations == 0
        assert [s.converged for s in sols[1:]] == [False, False]
        assert sols[1].iterations == 2 and sols[2].iterations == 0
        assert np.array_equal(sols[1].beta, sols[2].beta)


def test_fortran_ordered_design_gives_the_same_path():
    """Same active sets; the layouts' Gram products may differ in the last bits."""
    X, Y, beta = random_regression(43, n=300, p=8, sparse=True)
    init = ols(Y, X)
    grid = np.geomspace(lambda_max(Y, X, init), 1e-3, 20)
    c_path = lambda_path(Y, np.ascontiguousarray(X), grid, init)
    f_path = lambda_path(Y, np.asfortranarray(X), grid, init)
    for c, f in zip(c_path, f_path):
        assert c.converged and f.converged
        assert np.array_equal(c.active_set, f.active_set)
        assert np.max(np.abs(c.beta - f.beta)) <= 1e-12 * np.max(np.abs(c.beta), initial=1.0)


def _cross_check_instance(seed):
    """Gaussian, three-point, orthonormal or badly scaled design (by ``seed % 4``), with
    unpenalized, zero-init and negative-init coordinates under a random mask."""
    rng = np.random.default_rng(seed + 500)
    n, p = 120, int(rng.integers(4, 11))
    if seed % 4 == 2:
        X = orthonormal_design(seed + 500, n=n, p=p)
    else:
        W = rng.normal(size=(n, p - 1))
        if seed % 4 == 1:
            W = rng.integers(-1, 2, size=(n, p - 1)).astype(float)
        elif seed % 4 == 3:
            W *= 10.0 ** rng.uniform(-3.0, 3.0, p - 1)
        X = np.concatenate([np.ones((n, 1)), W], axis=1)
    beta = rng.uniform(-2, 2, p) * (rng.random(p) < 0.6)
    Y = X @ beta + rng.normal(size=n)
    init = rng.uniform(-2, 2, p) * (rng.random(p) < 0.9)
    return X, Y, init, rng.random(p) < 0.8


def _refactoring_at_every_breakpoint(monkeypatch, sizes):
    """Make the walk re-read every segment with ``inv(G_AA)`` formed from ``G[A, A]`` anew,
    recording each segment's active-set size in ``sizes``."""
    kept = estimate._segments

    def from_scratch(*args):
        segments = kept(*args)
        next(segments)
        while True:
            seg = segments.send(True)
            sizes.append(seg.active.size)
            while (yield seg):  # the walk's own refactor: this segment is already fresh
                pass
            next(segments)

    monkeypatch.setattr(estimate, "_segments", from_scratch)


def _refusing_refactors(monkeypatch):
    """Make the walk fail if it asks to refactor, so its levels come from the updates alone."""
    kept = estimate._segments

    def updates_only(*args):
        segments = kept(*args)
        seg = next(segments)
        while True:
            if (yield seg):
                raise AssertionError("the kept inverse drifted past the KKT tolerance")
            seg = next(segments)

    monkeypatch.setattr(estimate, "_segments", updates_only)


class TestKeptInverse:
    INSTANCES = 80

    def test_path_matches_a_fresh_factor_at_every_breakpoint(self, monkeypatch):
        leaves = 0
        for seed in range(self.INSTANCES):
            X, Y, init, mask = _cross_check_instance(seed)
            top = max(lambda_max(Y, X, init, mask), 1e-8)
            grid = np.concatenate([np.geomspace(top, 1e-4 * top, 40), [0.0]])
            with monkeypatch.context() as m:
                _refusing_refactors(m)
                path = lambda_path(Y, X, grid, init, mask)
            sizes = []
            with monkeypatch.context() as m:
                _refactoring_at_every_breakpoint(m, sizes)
                reference = lambda_path(Y, X, grid, init, mask)
            leaves += int(np.count_nonzero(np.diff(sizes) < 0))
            # beta in units of unit-RMS columns: the weighted problem is equivariant to
            # column scale, so a badly scaled design's small columns carry no extra weight
            root = np.sqrt(np.mean(X * X, axis=0))
            for ours, ref in zip(path, reference):
                assert ours.converged and ref.converged
                assert np.array_equal(ours.active_set, ref.active_set)
                scaled = ref.beta * root
                assert (np.max(np.abs(ours.beta * root - scaled))
                        <= 1e-10 * np.max(np.abs(scaled), initial=0.0))
        assert leaves >= 1  # the downdate ran

    def test_drifted_level_is_read_again_after_a_refactor(self, monkeypatch):
        """Segments arrive with 1e-6 relative drift unless the walk asks for a refactor."""
        X, Y, _ = random_regression(45, sparse=True)
        init = ols(Y, X)
        grid = np.geomspace(lambda_max(Y, X, init), 1e-3, 20)
        clean = lambda_path(Y, X, grid, init)
        kept, refactors = estimate._segments, []

        def drifting(*args):
            segments = kept(*args)
            seg = next(segments)
            while True:
                if (yield replace(seg, alpha=seg.alpha * (1.0 + 1e-6))):
                    refactors.append(seg.lo)
                    seg = segments.send(True)
                    while (yield seg):
                        pass
                seg = next(segments)

        monkeypatch.setattr(estimate, "_segments", drifting)
        for ours, theirs in zip(lambda_path(Y, X, grid, init), clean):
            assert ours.converged and ours.kkt_residual <= KKT_TOL
            assert np.array_equal(ours.active_set, theirs.active_set)
            assert np.max(np.abs(ours.beta - theirs.beta)) <= 1e-12 * np.max(np.abs(theirs.beta))
        assert refactors

    def test_near_collinear_column_raises_up_front(self):
        X, Y, _ = random_regression(44)
        z = np.random.default_rng(44).normal(size=X.shape[0])
        X = np.concatenate([X, X[:, [2]] + 1e-9 * z[:, None]], axis=1)
        init = np.ones(X.shape[1])
        with pytest.raises(SingularGramError):
            lambda_max(Y, X, init)
        with pytest.raises(SingularGramError):
            adaptive_lasso(Y, X, 1e6, init)  # every penalized coordinate is zero there
        with pytest.raises(SingularGramError):
            lambda_path(Y, X, [1e6, 1.0], init)

    def test_one_rank_test_per_walk(self, monkeypatch):
        stage = SecondStage.from_data(dgp_sample(SimConfig(n=5000, p=20, seed=91), 0))
        lmax = stage.lambda_max()
        calls = []
        rank = estimate.numeric_rank
        monkeypatch.setattr(estimate, "numeric_rank", lambda *a: calls.append(1) or rank(*a))
        sols = stage.path(np.geomspace(lmax, 1e-4 * lmax, 50))
        assert sum(s.iterations for s in sols) >= 100
        assert len(calls) <= 1


def _counting_rank_tests(monkeypatch) -> list:
    """Record every rank test (``numeric_rank``, the one SVD) the solver module makes."""
    calls, rank = [], estimate.numeric_rank
    monkeypatch.setattr(estimate, "numeric_rank", lambda *a: calls.append(a[0].shape) or rank(*a))
    return calls


class TestRankTestPlacement:
    """A stage's walks rely on its least squares fits' tests; raw calls test the free Gram."""

    def test_a_stage_and_its_walks_make_two_rank_tests(self, monkeypatch):
        calls = _counting_rank_tests(monkeypatch)
        stage = SecondStage.from_data(dgp_sample(SimConfig(n=2000, p=10, seed=5), 0))
        lmax = stage.lambda_max()
        sols = stage.path(np.geomspace(lmax, 1e-4 * lmax, 50))
        assert sum(s.iterations for s in sols) >= 20
        assert calls == [(10, 10), (55, 55)]  # stage one's design, stage two's design

    def test_tuning_and_fits_test_only_their_stages(self, monkeypatch):
        calls = _counting_rank_tests(monkeypatch)
        cfg = SimConfig(n=2000, p=6, seed=7, pilot_replications=3, grid_size=10)
        monkeypatch.setenv("RCREG_THREADS", "1")
        tune_lambda(cfg)
        assert calls == [(6, 6), (21, 21)] * 3
        calls.clear()
        fit_moments(dgp_sample(cfg, 0), 1.0)
        assert calls == [(6, 6), (21, 21)]

    def test_raw_calls_test_the_free_coordinates_once(self, monkeypatch):
        X, Y, _ = random_regression(46)
        init = ols(Y, X)
        calls = _counting_rank_tests(monkeypatch)
        lambda_max(Y, X, init)
        adaptive_lasso(Y, X, 0.5, init)
        lambda_path(Y, X, [2.0, 0.5], init)
        assert calls == [(6, 6)] * 3

    def test_singular_only_where_excluded_is_accepted(self):
        X, Y, _ = random_regression(47)
        X = np.concatenate([X, X[:, [2]]], axis=1)  # a duplicate column
        init = np.ones(X.shape[1])
        init[-1] = 0.0  # excluded: fixed at zero, never activated
        top = lambda_max(Y, X, init)
        assert top > 0.0
        for sol in [adaptive_lasso(Y, X, 0.1, init), *lambda_path(Y, X, [top, 0.1, 0.0], init)]:
            assert sol.converged and sol.beta[-1] == 0.0
        init = np.ones(X.shape[1])  # the duplicate may now activate
        for call in (lambda: lambda_max(Y, X, init), lambda: adaptive_lasso(Y, X, 0.1, init),
                     lambda: lambda_path(Y, X, [top, 0.1], init)):
            with pytest.raises(SingularGramError):
                call()


class TestWitness:
    def test_noiseless_zero_lambda_exact(self):
        # strict dual feasibility is vacuous at lam=0; the closed form is exact
        X, Y, beta = _supported_instance(30, lam_scale=0.0)
        S = np.flatnonzero(beta)
        rep = witness_check(X, Y, S, 0.0, init=_good_init(beta), beta_star=beta)
        assert rep.sign_match
        assert np.max(np.abs(rep.beta_tilde - beta[S])) <= 1e-10

    def test_noiseless_small_lambda_correction(self):
        X, Y, beta = _supported_instance(31, lam_scale=0.0)
        S = np.flatnonzero(beta)
        lam = 1e-6
        rep = witness_check(X, Y, S, lam, init=_good_init(beta), beta_star=beta)
        assert rep.condition1 and rep.sign_match
        n = X.shape[0]
        Gs = X[:, S].T @ X[:, S] / n
        expect = beta[S] - np.linalg.solve(
            Gs, lam * np.sign(beta[S]) / np.abs(beta[S])
        )
        assert np.max(np.abs(rep.beta_tilde - expect)) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_certificate_matches_solver(self, seed):
        """Whenever both conditions hold the solver recovers S exactly."""
        rng = np.random.default_rng(seed + 100)
        n, p = 120, 8
        X = np.concatenate([np.ones((n, 1)), rng.normal(size=(n, p - 1))], axis=1)
        beta = np.zeros(p)
        S = rng.choice(p, size=3, replace=False)
        beta[S] = rng.choice([-1.0, 1.0], 3) * rng.uniform(1.0, 3.0, 3)
        Y = X @ beta + 0.3 * rng.normal(size=n)
        init = beta + rng.normal(size=p) * 0.05
        init[init == 0.0] = 0.02
        rep = witness_check(X, Y, np.sort(S), 0.05, init=init, beta_star=beta)
        if rep.condition1 and rep.sign_match:
            assert rep.solution is not None
            assert np.array_equal(np.sort(rep.solution.active_set), np.sort(S))

    def test_residual_mode_runs(self):
        X, Y, beta = _supported_instance(32, lam_scale=0.0, noise=0.2)
        S = np.flatnonzero(beta)
        rep = witness_check(X, Y, S, 0.01, init=_good_init(beta))
        assert rep.beta_tilde.shape == (S.size,)

    def test_zero_init_on_support_rejected(self):
        X, Y, beta = _supported_instance(33, lam_scale=0.0)
        S = np.flatnonzero(beta)
        bad = _good_init(beta)
        bad[S[0]] = 0.0
        with pytest.raises(DomainError):
            witness_check(X, Y, S, 0.01, init=bad, beta_star=beta)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_the_noise_vector_reference(self, seed, noise):
        """The Gram-form certificate against :func:`reference_witness`: beta_tilde to 1e-10
        relative, each verdict wherever its margin clears 1e-9 (condition 1: |rhs - |lhs||;
        sign match: min |beta_tilde|), and a certified solution is the solver's to the bit."""
        X, Y, beta = _supported_instance(40 + seed, noise=noise)
        S = np.flatnonzero(beta)
        init = _good_init(beta) * (1.0 + 0.1 * np.random.default_rng(seed).normal(size=beta.size))
        certified = set()
        for beta_star in (beta, None):
            for lam in (0.0, 1e-4, 0.01, 0.05, 0.2, 1.0, 5.0):
                rep = witness_check(X, Y, S, lam, init, beta_star=beta_star)
                ref_tilde, ref_cond, ref_sign, margin = reference_witness(
                    X, Y, S, lam, init, beta_star)
                assert np.max(np.abs(rep.beta_tilde - ref_tilde)) <= 1e-10 * np.max(
                    np.abs(ref_tilde))
                if abs(margin) > 1e-9:
                    assert rep.condition1 == ref_cond, (lam, beta_star is None)
                if np.min(np.abs(ref_tilde)) > 1e-9:
                    assert rep.sign_match == ref_sign, (lam, beta_star is None)
                certified.add(rep.solution is not None)
                if rep.solution is not None:
                    sol = adaptive_lasso(Y, X, lam, init)
                    assert np.array_equal(rep.solution.beta, sol.beta)
                    assert np.array_equal(rep.solution.active_set, sol.active_set)
                    assert (rep.solution.kkt_residual, rep.solution.iterations,
                            rep.solution.converged, rep.solution.lam) == (
                        sol.kkt_residual, sol.iterations, sol.converged, sol.lam)
        assert certified == {True, False}

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_lambda_rejected(self, lam):
        X, Y, beta = _supported_instance(34, lam_scale=0.0)
        S = np.flatnonzero(beta)
        with pytest.raises(DomainError):
            witness_check(X, Y, S, lam, init=_good_init(beta), beta_star=beta)


def reference_witness(X, Y, S, lam, init, beta_star=None):
    """``witness_check``'s certificate as it read when it formed the Gram over S by hand
    from the noise ``eps`` and its projection: ``(beta_tilde, condition1, sign_match,
    margin)``, margin ``min(rhs - |lhs|)`` of condition 1.  No coordinate is excluded."""
    n = X.shape[0]
    Sc = np.setdiff1d(np.arange(X.shape[1]), S)
    scale = np.abs(init)
    Xs = X[:, S]
    Gs = Xs.T @ Xs
    target = np.linalg.solve(Gs, Xs.T @ Y) if beta_star is None else beta_star[S]
    eps = Y - Xs @ target
    signs = np.sign(target)
    weighted_signs = lam * signs / scale[S]
    correction = np.linalg.solve(Gs / n, (Xs.T @ eps) / n - weighted_signs)
    beta_tilde = target + correction
    proj_eps = eps - Xs @ np.linalg.solve(Gs, Xs.T @ eps)
    lhs = X[:, Sc].T @ Xs @ np.linalg.solve(Gs, weighted_signs) + (X[:, Sc].T @ proj_eps) / n
    rhs = lam / scale[Sc]
    sign_match = bool(np.all(np.sign(beta_tilde) == signs) and np.all(signs != 0.0))
    return beta_tilde, bool(np.all(np.abs(lhs) < rhs)), sign_match, float(np.min(rhs - np.abs(lhs)))


def _supported_instance(seed, lam_scale=0.0, noise=0.0, n=150, p=6):
    rng = np.random.default_rng(seed)
    X = np.concatenate([np.ones((n, 1)), rng.normal(size=(n, p - 1))], axis=1)
    beta = np.zeros(p)
    beta[[0, 2, 4]] = [1.5, -2.0, 0.75]
    Y = X @ beta + (noise * rng.normal(size=n) if noise else 0.0)
    return X, Y, beta


def _good_init(beta):
    init = beta.copy()
    init[init == 0.0] = 0.05
    return init
