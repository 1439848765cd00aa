"""Two-stage pipeline: OLS, second-stage design, moment fits, sandwich pieces."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dgp_helpers import (
    MU1,
    SIGMA1,
    centered_product_covariance,
    draw_dataset,
    gaussian_product_moment_matrices,
    mkl_from_raw_moments,
)
from rcreg import (
    ConvergenceError,
    Dataset,
    DimensionError,
    DomainError,
    LassoSolution,
    MomentFit,
    SecondStage,
    SimConfig,
    SingularDesignError,
    SingularGramError,
    adaptive_lasso,
    build_second_stage,
    dgp_sample,
    fit_moments,
    half_dim,
    halfvec_indices,
    kkt_residual,
    lambda_max,
    lambda_path,
    min_eigenvalue,
    ols,
    sandwich,
    unvec_half,
    v_transform_rows,
    vec_half,
    witness_check,
)
from rcreg import estimate


def _counting_grams(monkeypatch) -> list:
    """Record the shape of every Gram form the estimate module makes from data."""
    shapes, gram = [], estimate._gram

    def counted(blocks):
        form = gram(blocks)
        shapes.append(form[0].shape)
        return form

    monkeypatch.setattr(estimate, "_gram", counted)
    return shapes


class TestOls:
    def test_interpolation(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([np.ones((50, 1)), rng.normal(size=(50, 3))], axis=1)
        c = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.max(np.abs(ols(X @ c, X) - c)) <= 1e-10

    def test_square_system_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 4)) + np.eye(4)
        Y = rng.normal(size=4)
        assert ols(Y, X) == pytest.approx(np.linalg.solve(X, Y), abs=1e-9)

    def test_matches_qr_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 5))
        Y = rng.normal(size=300)
        Q, R = np.linalg.qr(X)
        qr_solution = np.linalg.solve(R, Q.T @ Y)
        assert np.max(np.abs(ols(Y, X) - qr_solution)) <= 1e-9

    @staticmethod
    def _design(cond, seed, n=300, p=6):
        """Design with singular values spread geometrically from 1 to 1/cond."""
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(n, p)))
        V, _ = np.linalg.qr(rng.normal(size=(p, p)))
        return (U * np.geomspace(1.0, 1.0 / cond, p)) @ V.T, rng

    @pytest.mark.parametrize("cond", [*np.geomspace(1e4, 1e6, 7), 1e7])
    def test_ols_and_the_path_share_one_verdict(self, cond):
        """Both accept exactly when the design with unit column norms has cond < 1e5; the
        sweep crosses that boundary and ends at singular values geomspace(1, 1e-7)."""
        for seed in range(5):
            X, rng = self._design(cond, seed)
            inside = np.linalg.cond(X / np.linalg.norm(X, axis=0)) < 1e5
            Y = rng.normal(size=X.shape[0])
            verdicts = []
            for solve in (lambda: ols(Y, X),
                          lambda: lambda_path(Y, X, [0.0], np.ones(6))):
                try:
                    solve()
                    verdicts.append(True)
                except (SingularDesignError, SingularGramError):
                    verdicts.append(False)
            assert verdicts == [inside, inside], (cond, seed)

    @pytest.mark.parametrize("seed", range(5))
    def test_just_inside_the_gram_guard_matches_qr_oracle(self, seed):
        X, rng = self._design(9.9e3, seed)
        w = np.linalg.eigvalsh(X.T @ X)
        assert 1e-8 < w[0] / w[-1] < 1.1e-8
        Y = X @ rng.uniform(-3.0, 3.0, X.shape[1]) + 1e-4 * rng.normal(size=X.shape[0])
        Q, R = np.linalg.qr(X)
        assert np.max(np.abs(ols(Y, X) - np.linalg.solve(R, Q.T @ Y))) <= 1e-9

    @pytest.mark.parametrize("cond,singular", [(9e4, False), (1e11, True)])
    def test_rank_rule_unchanged_past_the_guard(self, cond, singular):
        """Just inside the rank rule's cond(X) ~ 1e5 the solve matches a QR oracle;
        far past it the design is refused."""
        X, rng = self._design(cond, 4)
        Y = X @ rng.uniform(-3.0, 3.0, X.shape[1]) + 1e-4 * rng.normal(size=X.shape[0])
        if singular:
            with pytest.raises(SingularDesignError):
                ols(Y, X)
        else:
            Q, R = np.linalg.qr(X)
            oracle = np.linalg.solve(R, Q.T @ Y)
            assert np.max(np.abs(ols(Y, X) - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(20, 2)), rng.normal(size=20)
        Y[3] = bad
        with pytest.raises(DomainError, match="least squares needs finite X and Y"):
            ols(Y, X)
        X[4, 1], Y[3] = np.nan, 0.0
        with pytest.raises(DomainError, match="least squares needs finite X and Y"):
            ols(Y, X)

    @pytest.mark.parametrize("entry", ["ols", "lambda_path", "lambda_max", "adaptive_lasso",
                                       "witness_check", "kkt_residual"])
    def test_infinities_rejected_before_any_product(self, entry):
        """+inf and -inf in one column: the error comes alone, with no numpy warning."""
        X, Y, init = np.ones((5, 2)), np.ones(5), np.ones(2)
        X[1, 1], X[3, 1] = np.inf, -np.inf
        call = {
            "ols": lambda: ols(Y, X),
            "lambda_path": lambda: lambda_path(Y, X, [1.0], init),
            "lambda_max": lambda: lambda_max(Y, X, init),
            "adaptive_lasso": lambda: adaptive_lasso(Y, X, 1.0, init),
            "witness_check": lambda: witness_check(X, Y, [0, 1], 1.0, init),
            "kkt_residual": lambda: kkt_residual(Y, X, np.zeros(2), 1.0, init),
        }[entry]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="least squares needs finite X and Y"):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kkt_residual_refuses_non_finite_beta(self, bad):
        X, Y = np.random.default_rng(7).normal(size=(8, 2)), np.ones(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="needs a finite beta"):
                kkt_residual(Y, X, [bad, 0.0], 1.0, np.ones(2))

    @pytest.mark.parametrize("entry", ["kkt_residual", "witness_check_1d", "witness_check_rows",
                                       "witness_check_past_p", "witness_check_negative",
                                       "witness_check_huge", "ols_no_rows", "kkt_residual_no_rows"])
    def test_mismatched_shapes_are_dimension_errors(self, entry):
        X, Y, init = np.random.default_rng(6).normal(size=(8, 3)), np.ones(8), np.ones(3)
        call = {
            "kkt_residual": lambda: kkt_residual(Y, X, np.zeros(2), 1.0, init),
            "witness_check_1d": lambda: witness_check(X[:, 1], Y, [0], 1.0, init[:1]),
            "witness_check_rows": lambda: witness_check(X, Y[:7], [0, 1], 1.0, init),
            "witness_check_past_p": lambda: witness_check(X, Y, [0, 3], 1.0, init),
            "witness_check_negative": lambda: witness_check(X, Y, [-1], 1.0, init),
            "witness_check_huge": lambda: witness_check(X, Y, [10**30], 1.0, init),
            "ols_no_rows": lambda: ols(Y[:0], X[:0]),
            "kkt_residual_no_rows": lambda: kkt_residual(Y[:0], X[:0], np.zeros(3), 1.0, init),
        }[entry]
        with pytest.raises(DimensionError):
            call()

    @pytest.mark.parametrize("S", [[0.7, 1.2], [0.0, np.nan], [0, 2, 0], [1.0, 1.0], ["a"]])
    def test_bad_support_indices_are_domain_errors(self, S):
        """Refused before any solve: no truncation to [0, 1], no "singular" for a repeat."""
        X, Y = np.random.default_rng(6).normal(size=(30, 3)), np.ones(30)
        with pytest.raises(DomainError, match=re.escape(f"distinct whole column indices, got {S}")):
            witness_check(X, Y, S, 1.0, np.ones(3))

    @pytest.mark.parametrize("S", [[True, 2], np.array([True, False]), [np.True_, 1]],
                             ids=["list", "bool-array", "numpy-bool"])
    def test_bools_are_not_column_indices(self, S):
        X, Y = np.random.default_rng(6).normal(size=(30, 3)), np.ones(30)
        with pytest.raises(DomainError, match="distinct whole column indices, got "):
            witness_check(X, Y, S, 0.1, np.ones(3))

    @pytest.mark.parametrize("lam, certified", [(1e6, True), (1e-6, False)])
    def test_empty_support_certified_only_where_every_coordinate_is_zero(self, lam, certified):
        X, Y = np.random.default_rng(6).normal(size=(30, 3)), np.ones(30)
        rep = witness_check(X, Y, [], lam, np.ones(3))
        assert rep.condition1 == certified and rep.beta_tilde.size == 0
        assert (rep.solution is not None) == certified
        assert not certified or not np.any(rep.solution.beta)

    @pytest.mark.parametrize("name", ["init", "penalize_mask", "beta_star", "mu_hat", "beta"])
    def test_wrong_lengths_are_named(self, name):
        data = draw_dataset(30, seed=6)
        X, Y, init = data.X, data.Y, np.ones(data.p)
        call = {
            "init": lambda: lambda_path(Y, X, [1.0], init[1:]),
            "penalize_mask": lambda: adaptive_lasso(Y, X, 1.0, init, [True] * (data.p + 1)),
            "beta_star": lambda: witness_check(X, Y, [0], 1.0, init, init[1:]),
            "mu_hat": lambda: build_second_stage(data, np.zeros(data.p + 1)),
            "beta": lambda: kkt_residual(Y, X, init[1:], 1.0, init),
        }[name]
        k = data.p + (1 if name in ("penalize_mask", "mu_hat") else -1)
        with pytest.raises(DimensionError, match=f"^{name} must have length {data.p}, got {k}$"):
            call()

    def test_rank_deficient_rejected(self):
        X = np.ones((10, 2))
        with pytest.raises(SingularDesignError):
            ols(np.arange(10.0), X)

    def test_overflowing_cross_products_named(self):
        """Finite X whose Gram (or, for the KKT residual, X beta) overflows: the error
        says so, with no numpy warning."""
        X = np.ones((6, 2))
        X[:, 1] = np.arange(6) * 1e200
        for call in (lambda: ols(np.ones(6), X),
                     lambda: witness_check(X, np.ones(6), [0, 1], 1.0, np.ones(2)),
                     lambda: kkt_residual(np.ones(3), np.ones((3, 1)) * 1e200, [1e200], 1.0,
                                          np.ones(1))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="finite, but their cross products overflow"):
                    call()

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_witness_check_makes_one_gram_form(self, monkeypatch, lam):
        """Certified (small lam) or not (large lam), one call forms the Gram once."""
        rng = np.random.default_rng(8)
        X = np.concatenate([np.ones((60, 1)), rng.normal(size=(60, 3))], axis=1)
        beta = np.array([1.0, 0.0, -2.0, 0.0])
        Y = X @ beta + 0.01 * rng.normal(size=60)
        shapes = _counting_grams(monkeypatch)
        rep = witness_check(X, Y, [0, 2], lam, np.where(beta != 0.0, beta, 0.05), beta)
        assert (rep.solution is not None) == (lam < 1.0)
        assert shapes == [(4, 4)]


class TestSecondStage:
    def test_perfect_fit_gives_zero_targets(self):
        rng = np.random.default_rng(3)
        X = np.concatenate([np.ones((40, 1)), rng.normal(size=(40, 2))], axis=1)
        mu = np.array([2.0, 1.0, -1.0])
        data = Dataset(X=X, Y=X @ mu)
        stage = build_second_stage(data, mu)
        assert np.max(stage.ysig) <= 1e-20

    def test_single_observation_arithmetic(self):
        # one row x = (1, 2), y = 5, mu = (1, 1): residual 2, squared 4
        X = np.array([[1.0, 2.0], [1.0, 0.0]])
        data = Dataset(X=X, Y=np.array([5.0, 1.0]))
        stage = build_second_stage(data, np.array([1.0, 1.0]))
        assert stage.ysig[0] == pytest.approx(4.0)
        assert np.array_equal(stage.xsig[0], [1.0, 4.0, 4.0])

    def test_quadratic_form_identity_rowwise(self):
        rng = np.random.default_rng(4)
        data = draw_dataset(60, seed=5)
        stage = build_second_stage(data, np.zeros(data.p))
        A = rng.normal(size=(data.p, data.p))
        M = (A + A.T) / 2
        lhs = stage.xsig @ vec_half(M)
        rhs = np.einsum("ij,jk,ik->i", data.X, M, data.X)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    def test_mu_length_checked(self):
        data = draw_dataset(30, seed=6)
        with pytest.raises(DimensionError):
            build_second_stage(data, np.zeros(data.p + 1))

    @pytest.mark.parametrize("penalize", [False, True])
    def test_stored_gram_gives_the_design_functions_bits(self, penalize):
        data = draw_dataset(400, seed=7)
        stage = SecondStage.from_data(data, penalize)
        xsig = build_second_stage(data, stage.mu_hat).xsig
        lmax = stage.lambda_max()
        assert lmax == lambda_max(stage.ysig, xsig, stage.init, stage.penalize_mask)
        assert np.array_equal(stage.init, ols(stage.ysig, xsig))
        grid = np.geomspace(lmax, 1e-4 * lmax, 12)
        direct = lambda_path(stage.ysig, xsig, grid, stage.init, stage.penalize_mask)
        for ours, theirs in zip(stage.path(grid), direct):
            assert np.array_equal(ours.beta, theirs.beta)
            assert ours.kkt_residual == theirs.kkt_residual
        fit = stage.moment_fit(stage.path([grid[5]])[0])
        solo = adaptive_lasso(stage.ysig, xsig, grid[5], stage.init, stage.penalize_mask)
        assert np.array_equal(fit.solution.beta, solo.beta)

    def test_one_block_stage_is_the_whole_design_bits(self):
        n = estimate._BLOCK_ROWS
        data = dgp_sample(SimConfig(n=n, p=6, seed=13), 0)
        stage = SecondStage.from_data(data)
        whole = build_second_stage(data, stage.mu_hat)
        G, b, _ = estimate._gram(estimate._data_blocks(whole.ysig, whole.xsig))
        assert np.array_equal(stage.ysig, whole.ysig)
        assert np.array_equal(stage.G, G) and np.array_equal(stage.b, b)
        assert np.array_equal(stage.init, ols(whole.ysig, whole.xsig))

    @pytest.mark.parametrize("n", [estimate._BLOCK_ROWS + 1, 3 * estimate._BLOCK_ROWS + 5])
    def test_blocked_stage_matches_the_whole_design(self, n):
        data = dgp_sample(SimConfig(n=n, p=6, seed=13), 0)
        stage = SecondStage.from_data(data)
        whole = build_second_stage(data, stage.mu_hat)
        G, b, _ = estimate._gram(estimate._data_blocks(whole.ysig, whole.xsig))
        init = ols(whole.ysig, whole.xsig)
        for ours, theirs in [(stage.G, G), (stage.b, b), (stage.init, init)]:
            assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))
        lmax = stage.lambda_max()
        grid = np.geomspace(lmax, 1e-4 * lmax, 50)
        direct = lambda_path(whole.ysig, whole.xsig, grid, init, stage.penalize_mask)
        assert ([s.active_set.tolist() for s in stage.path(grid)]
                == [s.active_set.tolist() for s in direct])

    def test_blocked_stage_in_large_units_matches_the_whole_design_lstsq(self):
        """w1 in units 100 times smaller: the raw Gram's eigenvalue ratio falls below 1e-8,
        and the stage still solves from its row blocks."""
        raw = dgp_sample(SimConfig(n=200_000, p=6, seed=14), 0)
        data = Dataset.from_covariates(raw.X[:, 1:] * np.array([100.0, 1, 1, 1, 1]), raw.Y)
        tracemalloc.start()
        try:
            stage = SecondStage.from_data(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.n * half_dim(data.p) * 8 / 4
        w = np.linalg.eigvalsh(stage.G)
        assert w[0] <= 1e-8 * w[-1]
        whole = build_second_stage(data, stage.mu_hat)
        oracle = np.linalg.lstsq(whole.xsig, whole.ysig, rcond=None)[0]
        assert np.max(np.abs(stage.init - oracle)) <= 1e-10 * np.max(np.abs(oracle))

    def test_overflowing_sum_of_row_blocks_named(self):
        """Each row block's Gram is finite and their sum overflows: no numpy warning."""
        rng = np.random.default_rng(16)
        X = np.ones((estimate._BLOCK_ROWS + 100, 3))
        X[:, 1:] = rng.normal(size=(X.shape[0], 2))
        X[5, 2] = X[-5, 2] = 1.1e77  # one row in each block; 1.1e77 ** 4 is about 1.5e308
        data = Dataset(X=X, Y=rng.normal(size=X.shape[0]))
        with pytest.raises(DomainError, match="finite, but their cross products overflow"):
            SecondStage.from_data(data)

    def test_blocked_stage_makes_each_gram_form_once(self, monkeypatch):
        """One p x p form for stage one and one d x d form over all row blocks for stage two."""
        shapes = _counting_grams(monkeypatch)
        SecondStage.from_data(dgp_sample(SimConfig(n=estimate._BLOCK_ROWS + 1, p=6, seed=17), 0))
        assert shapes == [(6, 6), (21, 21)]

    def test_stage_holds_a_fraction_of_the_design(self):
        data = dgp_sample(SimConfig(n=200_000, p=10, seed=15), 0)
        tracemalloc.start()
        try:
            SecondStage.from_data(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.n * half_dim(data.p) * 8 / 4


class TestFitMoments:
    def test_deterministic_coefficients_select_nothing(self):
        rng = np.random.default_rng(7)
        n = 300
        W = rng.uniform(-1, 1, (n, 3))
        a = np.array([3.0, 1.0, 0.0, -2.0])
        X = np.concatenate([np.ones((n, 1)), W], axis=1)
        data = Dataset(X=X, Y=X @ a)
        fit = fit_moments(data, 1e-6)
        penalized = np.ones(half_dim(data.p), dtype=bool)
        penalized[0] = False
        assert np.array_equal(fit.solution.beta[penalized], np.zeros(penalized.sum()))
        assert np.max(np.abs(fit.stage.mu_hat - a)) <= 1e-8
        assert fit.psd

    def test_zero_lambda_equals_second_stage_ols(self):
        data = draw_dataset(2500, seed=8)
        fit = fit_moments(data, 0.0)
        stage = build_second_stage(data, fit.stage.mu_hat)
        direct = ols(stage.ysig, stage.xsig)
        assert np.max(np.abs(fit.solution.beta - direct)) <= 1e-6
        assert np.array_equal(fit.stage.init, direct)

    def test_reconstruction_consistency(self):
        data = draw_dataset(3000, seed=9)
        fit = fit_moments(data, 2.0)
        assert np.array_equal(vec_half(fit.Sigma_hat), fit.solution.beta)
        assert fit.psd == (min_eigenvalue(fit.Sigma_hat) >= -1e-9)
        assert fit.solution.lam == 2.0

    def test_nonconvergence_raises(self, monkeypatch):
        data = draw_dataset(2500, seed=8)
        monkeypatch.setattr(estimate, "MAX_BREAKPOINTS", 1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            fit_moments(data, 0.0)

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_every_path_level_converges_in_other_units(self, scale):
        data = dgp_sample(SimConfig(n=5000, p=6, seed=1), 0)
        stage = SecondStage.from_data(Dataset(X=data.X, Y=scale * data.Y))
        lmax = stage.lambda_max()
        sols = stage.path(np.geomspace(lmax, 1e-4 * lmax, 50))
        assert [s.converged for s in sols] == [True] * 50

    def test_covariate_units_change_only_the_units(self):
        """w1 in units 1, 100, 300 and 1000 times smaller: the same active set, a sandwich,
        and initial estimates that carry the column's factor."""
        raw = dgp_sample(SimConfig(n=20_000, p=6, seed=2), 0)
        fits = {}
        for s in [1.0, 100.0, 300.0, 1000.0]:
            data = Dataset.from_covariates(raw.X[:, 1:] * np.array([s, 1, 1, 1, 1]), raw.Y)
            fits[s] = fit_moments(data, 0.0)
            sandwich(data, fits[s])
            carried = np.array([s ** ((k == 1) + (l == 1)) for k, l in halfvec_indices(6)])
            assert np.array_equal(fits[s].solution.active_set, fits[1.0].solution.active_set)
            assert fits[s].stage.init * carried == pytest.approx(fits[1.0].stage.init, rel=1e-9)

    def test_short_sample_rejected(self):
        rng = np.random.default_rng(10)
        W = rng.uniform(-1, 1, (8, 3))
        X = np.concatenate([np.ones((8, 1)), W], axis=1)
        data = Dataset(X=X, Y=rng.normal(size=8))
        with pytest.raises(SingularDesignError):
            fit_moments(data, 1.0)  # n = 8 < p(p+1)/2 = 10


def _select_means(data, lam):
    """Adaptive-lasso selection of the means from an OLS start, intercept unpenalized."""
    return adaptive_lasso(data.Y, data.X, lam, ols(data.Y, data.X), np.arange(data.p) > 0)


class TestSelectMeans:
    def test_noiseless_support_recovery(self):
        rng = np.random.default_rng(11)
        n, p = 200, 6
        X = np.concatenate([np.ones((n, 1)), rng.normal(size=(n, p - 1))], axis=1)
        mu = np.array([4.0, 0.0, -3.0, 0.0, 2.0, 0.0])
        sol = _select_means(Dataset(X=X, Y=X @ mu), 1e-4)
        assert np.array_equal(sol.active_set, np.flatnonzero(mu))
        assert np.max(np.abs(sol.beta - mu)) <= 1e-4

    def test_zero_lambda_is_ols(self):
        data = draw_dataset(500, seed=12)
        sol = _select_means(data, 0.0)
        assert np.max(np.abs(sol.beta - ols(data.Y, data.X))) <= 1e-7

    def test_study_scale_support_recovery(self):
        """Means (40, 15, 0, -10, 20, 0, ...) at p=10, n=5000: support found."""
        mu10 = np.concatenate([MU1, [20.0], np.zeros(5)])
        cov10 = np.zeros((10, 10))
        cov10[:4, :4] = SIGMA1
        cov10 += 1e-12 * np.eye(10)  # keep the factorization happy
        support = np.flatnonzero(mu10)
        hits = 0
        for i in range(200):
            data = draw_dataset(5000, seed=1_000 + i, mu=mu10, cov=cov10, n_covariates=9)
            sol = _select_means(data, 0.2)
            hits += np.array_equal(sol.active_set, support)
        assert hits >= 190  # 95% of 200


class TestSandwich:
    def test_deterministic_coefficients_middle_matrix_vanishes(self):
        rng = np.random.default_rng(13)
        n = 400
        W = rng.uniform(-1, 1, (n, 2))
        X = np.concatenate([np.ones((n, 1)), W], axis=1)
        a = np.array([1.0, 2.0, -1.0])
        data = Dataset(X=X, Y=X @ a)
        fit = fit_moments(data, 1e-8)
        est = sandwich(data, fit)
        assert np.max(np.abs(est.b_hat)) <= 1e-16

    def test_gram_matches_three_point_enumeration(self):
        """Empirical Gram of v(X) against the exact 9-point enumeration, p=3."""
        data = draw_dataset(100_000, seed=14, mu=np.zeros(3), cov=np.eye(3),
                            n_covariates=2, law="three_point")
        c_hat = fit_moments(data, 0.0).stage.G
        exact = np.zeros_like(c_hat)
        for combo in itertools.product([-1.0, 0.0, 1.0], repeat=2):
            vx = v_transform_rows([[1.0, *combo]])[0]
            exact += np.outer(vx, vx) / 9.0
        rel = np.linalg.norm(c_hat - exact) / np.linalg.norm(exact)
        assert rel <= 0.05

    def test_middle_matrix_matches_enumeration_oracle(self):
        """Plug-in middle matrix against the exact heteroscedasticity profile."""
        mu = np.array([2.0, -1.0, 0.5])
        Sg = np.array([[2.0, 0.6, -0.3], [0.6, 1.5, 0.2], [-0.3, 0.2, 1.0]])
        d = half_dim(3)
        pairs = halfvec_indices(3)
        psi = np.zeros((d, d))
        for K, (k, l) in enumerate(pairs):
            for L, (u, v) in enumerate(pairs):
                psi[K, L] = Sg[k, u] * Sg[l, v] + Sg[k, v] * Sg[l, u]
        b_exact = np.zeros((d, d))
        c_exact = np.zeros((d, d))
        for combo in itertools.product([-1.0, 0.0, 1.0], repeat=2):
            vx = v_transform_rows([[1.0, *combo]])[0]
            b_exact += (vx @ psi @ vx) * np.outer(vx, vx) / 9.0
            c_exact += np.outer(vx, vx) / 9.0
        data = draw_dataset(200_000, seed=3, mu=mu, cov=Sg, n_covariates=2,
                            law="three_point")
        fit = fit_moments(data, 0.0)
        est = sandwich(data, fit)
        assert np.linalg.norm(est.b_hat - b_exact) / np.linalg.norm(b_exact) <= 0.10
        assert np.linalg.norm(fit.stage.G - c_exact) / np.linalg.norm(c_exact) <= 0.01

    @staticmethod
    def _on_the_whole_design(data, fit):
        """``c_hat`` and ``b_hat`` formed from the whole n x d design at once."""
        whole = build_second_stage(data, fit.stage.mu_hat)
        xsig, n = whole.xsig, data.n
        c_hat = (xsig.T @ xsig) / n
        omega = (whole.ysig - xsig @ fit.solution.beta) ** 2
        b_hat = (xsig * omega[:, None]).T @ xsig / n
        return (c_hat + c_hat.T) / 2.0, (b_hat + b_hat.T) / 2.0

    @pytest.mark.parametrize("n", [estimate._BLOCK_ROWS, 2 * estimate._BLOCK_ROWS + 3])
    def test_row_blocks_give_the_whole_design_sums(self, n):
        data = dgp_sample(SimConfig(n=n, p=5, seed=16), 0)
        fit = fit_moments(data, 0.5)
        est = sandwich(data, fit)
        c_hat, b_hat = self._on_the_whole_design(data, fit)
        if n <= estimate._BLOCK_ROWS:
            assert np.array_equal(fit.stage.G, c_hat) and np.array_equal(est.b_hat, b_hat)
        for ours, theirs in [(fit.stage.G, c_hat), (est.b_hat, b_hat)]:
            assert np.max(np.abs(ours - theirs)) <= 1e-12 * np.max(np.abs(theirs))

    def test_sandwich_holds_a_fraction_of_the_design(self):
        data = dgp_sample(SimConfig(n=200_000, p=10, seed=15), 0)
        fit = fit_moments(data, 0.5)
        tracemalloc.start()
        try:
            sandwich(data, fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.n * half_dim(data.p) * 8 / 4

    def test_symmetry_and_psd(self):
        data = draw_dataset(4000, seed=15)
        fit = fit_moments(data, 1.0)
        est = sandwich(data, fit)
        assert np.array_equal(fit.stage.G, fit.stage.G.T)
        assert np.array_equal(est.b_hat, est.b_hat.T)
        assert min_eigenvalue(fit.stage.G) >= -1e-9
        assert min_eigenvalue(est.b_hat) >= -1e-9
        assert est.avar_s.shape == (est.active_set.size, est.active_set.size)

    def test_singular_gram_rejected(self):
        # binary covariate makes the w^2 and w columns of v(X) collinear
        rng = np.random.default_rng(16)
        n = 60
        W = rng.integers(0, 2, size=(n, 1)).astype(float)
        X = np.concatenate([np.ones((n, 1)), W], axis=1)
        data = Dataset(X=X, Y=rng.normal(size=n))
        d = half_dim(2)
        beta = np.array([1.0, 0.5, 0.5])
        whole = build_second_stage(data, np.zeros(2))
        G, b, _ = estimate._gram(estimate._data_blocks(whole.ysig, whole.xsig))
        stage = SecondStage(mu_hat=np.zeros(2), ysig=whole.ysig, init=np.ones(d),
                            penalize_mask=np.ones(d, dtype=bool), G=G, b=b)
        fake = MomentFit(
            stage=stage,
            solution=LassoSolution(
                beta=beta, active_set=np.arange(d), kkt_residual=0.0,
                iterations=1, converged=True, lam=0.0,
            ),
            Sigma_hat=unvec_half(beta, 2),
            psd=True,
        )
        with pytest.raises(SingularGramError):
            sandwich(data, fake)

    @pytest.mark.parametrize("n, p", [(399, 4), (400, 3)])
    def test_data_other_than_the_fits_rejected(self, n, p):
        data = draw_dataset(400, seed=17)
        fit = fit_moments(data, 1.0)
        with pytest.raises(DimensionError, match="the fit was made on n=400, p=4"):
            sandwich(Dataset(X=data.X[:n, :p], Y=data.Y[:n]), fit)

    def test_another_draw_of_the_same_shape_rejected(self):
        fit = fit_moments(draw_dataset(400, seed=17), 1.0)
        with pytest.raises(DomainError, match="the fit was made on"):
            sandwich(draw_dataset(400, seed=18), fit)


class TestMomentIdentityOracle:
    def test_gaussian_law(self):
        kappa1, kappa2, K1, K2 = gaussian_product_moment_matrices(MU1, SIGMA1)
        for (k, l) in halfvec_indices(4):
            via_identity = mkl_from_raw_moments(MU1, kappa1, kappa2, K1, K2, k, l)
            direct = centered_product_covariance(MU1, SIGMA1, k, l)
            assert np.max(np.abs(via_identity - direct)) <= 1e-9 * max(
                1.0, np.max(np.abs(direct))
            )

    def test_discrete_law(self):
        """The raw-moment combination equals the centered definition exactly."""
        rng = np.random.default_rng(17)
        atoms = rng.integers(-3, 4, size=(5, 3)).astype(float)
        probs = rng.dirichlet(np.ones(5))
        mu = probs @ atoms
        p = 3

        def ev(f):
            return sum(pr * f(a) for a, pr in zip(atoms, probs))

        kappa1 = np.array(
            [[ev(lambda a: a[k] * a[u]) - mu[k] * mu[u] for u in range(p)] for k in range(p)]
        )
        pairs = halfvec_indices(p)
        kappa2 = {
            (k, l): np.array(
                [ev(lambda a: a[k] * a[l] * a[u]) - ev(lambda a: a[k] * a[l]) * mu[u] for u in range(p)]
            )
            for (k, l) in pairs
        }
        K1 = {
            k: np.array(
                [
                    [ev(lambda a: a[k] * a[u] * a[v]) - mu[k] * ev(lambda a: a[u] * a[v]) for v in range(p)]
                    for u in range(p)
                ]
            )
            for k in range(p)
        }
        K2 = {
            (k, l): np.array(
                [
                    [
                        ev(lambda a: a[k] * a[l] * a[u] * a[v])
                        - ev(lambda a: a[k] * a[l]) * ev(lambda a: a[u] * a[v])
                        for v in range(p)
                    ]
                    for u in range(p)
                ]
            )
            for (k, l) in pairs
        }
        for (k, l) in pairs:
            direct = np.array(
                [
                    [
                        ev(
                            lambda a: (a[k] - mu[k]) * (a[l] - mu[l]) * (a[u] - mu[u]) * (a[v] - mu[v])
                        )
                        - ev(lambda a: (a[k] - mu[k]) * (a[l] - mu[l]))
                        * ev(lambda a: (a[u] - mu[u]) * (a[v] - mu[v]))
                        for v in range(p)
                    ]
                    for u in range(p)
                ]
            )
            via_identity = mkl_from_raw_moments(mu, kappa1, kappa2, K1, K2, k, l)
            assert np.max(np.abs(via_identity - direct)) <= 1e-9 * max(
                1.0, np.max(np.abs(direct))
            )


class TestDatasetValidation:
    def test_intercept_column_required(self):
        with pytest.raises(DomainError):
            Dataset(X=np.array([[2.0, 1.0], [1.0, 0.0]]), Y=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.ones((3, 2))
        X[:, 1] = [0.5, 1.5, 2.0]
        with pytest.raises(DomainError, match="finite"):
            Dataset(X=X, Y=np.array([1.0, bad, 0.0]))
        X[2, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            Dataset(X=X, Y=np.zeros(3))

    def test_no_columns_is_no_intercept(self):
        with pytest.raises(DomainError, match="first column of X must be identically one"):
            Dataset(X=np.ones((3, 0)), Y=np.zeros(3))

    def test_solvers_rule_finite_before_shape(self):
        """Non-finite data are named before a shape fault, as by every solver entry."""
        with pytest.raises(DomainError, match="least squares needs finite X and Y"):
            Dataset(X=np.array([1.0, np.nan]), Y=np.zeros(3))
        with pytest.raises(DimensionError, match="incompatible shapes"):
            Dataset(X=np.ones((3, 2)), Y=np.zeros(2))

    def test_n_at_least_p(self):
        with pytest.raises(DimensionError):
            Dataset(X=np.ones((1, 2)), Y=np.zeros(1))

    def test_from_covariates(self):
        d = Dataset.from_covariates(np.array([[1.0], [2.0], [0.5]]), np.zeros(3))
        assert np.array_equal(d.X[:, 0], np.ones(3))
        assert (d.n, d.p) == (3, 2)
