"""Sharp Var(B1) bounds over PSD completions, against a dense grid oracle."""

import dataclasses
import math

import numpy as np
import pytest

from rcreg import (
    Classification,
    DimensionError,
    DomainError,
    InfeasibleError,
    PartialIdBlocks,
    assemble_covariance,
    classify_randomness,
    min_eigenvalue,
    partial_id_bounds,
)


def grid_scan(blocks, tol=1e-9, step=1e-4, hi=None):
    """Feasible-interval endpoints by brute-force scan of the smallest eigenvalue."""
    v0 = blocks.cov_b0_b2[0, 0]
    if hi is None:
        hi = (np.sqrt(max(v0, 0.0)) + np.sqrt(blocks.var_b0_plus_b1)) ** 2 + 2 * step
    s = np.arange(0.0, hi, step)
    base = assemble_covariance(blocks, 0.0)
    mats = np.broadcast_to(base, (s.size, *base.shape)).copy()
    mats[:, 1, 1] = s
    mats[:, 0, 1] -= s / 2.0
    mats[:, 1, 0] -= s / 2.0
    mins = np.linalg.eigvalsh(mats)[:, 0]
    feasible = s[mins >= -tol]
    if feasible.size == 0:
        return None
    return float(feasible[0]), float(feasible[-1])


def random_blocks(rng, p, scale=0.6):
    """Random consistent blocks with O(1) variances."""
    q = p - 1
    A = rng.normal(size=(q, q + 1))
    C = A @ A.T / (q + 1)
    dd = np.sqrt(np.diagonal(C))
    C = scale * C / np.outer(dd, dd)
    s_b1 = rng.uniform(0.0, 1.2) * scale
    cross = rng.uniform(-0.3, 0.3, size=q - 1) * np.sqrt(np.diagonal(C)[1:] * s_b1)
    v01 = C[0, 0] + s_b1 + 2.0 * rng.uniform(-0.8, 0.8) * np.sqrt(C[0, 0] * s_b1)
    return PartialIdBlocks(
        cov_b0_b2=C, cov_b1_b2=cross, var_b0_plus_b1=max(v01, 0.0)
    )


def class_blocks(rng, p, kind):
    """Blocks whose Var(B1) class is ``kind``, drawn as the identify_bounds benchmark draws them.

    FORCED_POSITIVE: a random PD covariance with |Var(B0 + B1) - Var(B0)| >= 0.05.
    INTERVAL: B1 uncorrelated with B2, Var(B0 + B1) = Var(B0), and a (B0, B2)
    block with smallest eigenvalue >= 1e-3.  FORCED_ZERO: as INTERVAL but with
    a singular (B0, B2) block whose kernel loads on B0.
    """
    q = p - 1
    if kind is Classification.FORCED_POSITIVE:
        while True:
            A = rng.normal(size=(p, p + 2))
            S = A @ A.T / (p + 2)
            keep = [0, *range(2, p)]
            v01 = S[0, 0] + S[1, 1] + 2.0 * S[0, 1]
            if abs(v01 - S[0, 0]) >= 0.05 and (p == 2 or np.max(np.abs(S[1, 2:])) > 0.05):
                return PartialIdBlocks(
                    cov_b0_b2=S[np.ix_(keep, keep)], cov_b1_b2=S[1, 2:], var_b0_plus_b1=v01
                )
    rank = q if kind is Classification.INTERVAL else q - 1
    while True:
        B = rng.normal(size=(q, rank))
        C = B @ B.T / max(rank, 1)
        if kind is Classification.INTERVAL:
            if np.linalg.eigvalsh(C)[0] >= 1e-3:
                break
        elif q == 1 or abs(np.linalg.svd(B.T)[2][-1][0]) > 0.1:
            break
    C = (C + C.T) / 2.0
    return PartialIdBlocks(cov_b0_b2=C, cov_b1_b2=np.zeros(q - 1), var_b0_plus_b1=C[0, 0])


def rotate_b2(F, seed):
    """F with its B2 coordinates rotated by a random orthogonal matrix (B0 fixed)."""
    q = F.shape[0]
    Q = np.eye(q)
    Q[1:, 1:] = np.linalg.qr(np.random.default_rng(seed).normal(size=(q - 1, q - 1)))[0]
    return Q @ F @ Q.T, Q


def assert_matches_grid(blocks, b):
    oracle = grid_scan(blocks)
    assert oracle is not None
    assert b.lower == pytest.approx(oracle[0], abs=2e-4)
    assert b.upper == pytest.approx(oracle[1], abs=2e-4)


class TestAnalyticCases:
    def test_p2_unit_variances(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=1.0
        )
        b = partial_id_bounds(blocks)
        assert b.lower == 0.0
        assert b.upper == pytest.approx(4.0, abs=1e-6)
        assert b.classification is Classification.INTERVAL
        oracle = grid_scan(blocks, hi=10.0)
        assert b.lower == pytest.approx(oracle[0], abs=2e-4)
        assert b.upper == pytest.approx(oracle[1], abs=2e-4)

    @pytest.mark.parametrize("v0", [0.25, 1.0, 3.7])
    def test_p2_upper_is_four_lambda_min(self, v0):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[v0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=v0
        )
        b = partial_id_bounds(blocks)
        assert b.upper == pytest.approx(4.0 * v0, abs=1e-6)

    def test_nonzero_cross_covariance_forces_positive(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.eye(2), cov_b1_b2=np.array([0.5]), var_b0_plus_b1=1.0
        )
        b = partial_id_bounds(blocks)
        assert b.lower > 0.0
        assert b.classification is Classification.FORCED_POSITIVE
        # Cov(B1, B2) = 0.5 with unit variances: feasible interval is 2 -/+ sqrt(3)
        assert b.lower == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-6)
        assert b.upper == pytest.approx(2.0 + np.sqrt(3.0), abs=1e-6)

    def test_degenerate_kernel_forces_zero(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0, 1.0], [1.0, 1.0]]),
            cov_b1_b2=np.array([0.0]),
            var_b0_plus_b1=1.0,
        )
        b = partial_id_bounds(blocks)
        assert (b.lower, b.upper) == (0.0, 0.0)
        assert b.classification is Classification.FORCED_ZERO

    def test_infeasible_blocks(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.eye(2), cov_b1_b2=np.array([10.0]), var_b0_plus_b1=1.0
        )
        with pytest.raises(InfeasibleError):
            partial_id_bounds(blocks)


class TestRandomizedOracle:
    def test_grid_agreement(self):
        rng = np.random.default_rng(2024)
        for trial in range(15):
            blocks = random_blocks(rng, p=2 + trial % 5)
            try:
                b = partial_id_bounds(blocks)
            except InfeasibleError:
                assert grid_scan(blocks) is None
                continue
            oracle = grid_scan(blocks)
            assert oracle is not None
            assert b.lower == pytest.approx(oracle[0], abs=2e-4)
            assert b.upper == pytest.approx(oracle[1], abs=2e-4)

    def test_endpoints_feasible_and_sharp(self):
        rng = np.random.default_rng(7)
        tol = 1e-9
        for trial in range(20):
            blocks = random_blocks(rng, p=2 + trial % 5)
            try:
                b = partial_id_bounds(blocks, tol=tol)
            except InfeasibleError:
                continue
            for s in (b.lower, b.upper):
                assert min_eigenvalue(assemble_covariance(blocks, s)) >= -10 * tol
            if b.classification is not Classification.FORCED_ZERO:
                assert min_eigenvalue(assemble_covariance(blocks, b.upper + 0.01)) < 0


class TestPointSets:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_var_of_sum_zero_pins_var_b0(self, p):
        # Var(B0 + B1) = 0 forces B1 = -B0: a zero discriminant, which
        # rounding can push just below 0.
        rng = np.random.default_rng(p)
        for _ in range(40):
            F = random_blocks(rng, p, scale=rng.uniform(0.1, 10.0)).cov_b0_b2
            blocks = PartialIdBlocks(cov_b0_b2=F, cov_b1_b2=-F[0, 1:], var_b0_plus_b1=0.0)
            b = partial_id_bounds(blocks)
            assert b.lower == pytest.approx(F[0, 0], rel=1e-6)
            assert b.upper == pytest.approx(F[0, 0], rel=1e-6)
            assert b.classification is Classification.FORCED_POSITIVE


class TestSingularF:
    """Kernel branches of the closed form, each against the grid oracle."""

    # (B0, B2) = z (1, 2): kernel (2, -1)/sqrt(5) loads on B0 and pins
    # Var(B1) = var_b0_plus_b1 - 1 - cov_b1_b2.
    F_RANK1 = np.array([[1.0, 2.0], [2.0, 4.0]])

    @pytest.mark.parametrize("beta, sigma2", [(0.5, 0.3), (-0.4, 0.2), (0.0, 0.7)])
    def test_kernel_on_b0_pins_a_point(self, beta, sigma2):
        # B1 = beta z + e with Var(e) = sigma2, so Var(B1) = beta^2 + sigma2.
        s_true = beta**2 + sigma2
        blocks = PartialIdBlocks(
            cov_b0_b2=self.F_RANK1, cov_b1_b2=np.array([2.0 * beta]),
            var_b0_plus_b1=1.0 + 2.0 * beta + s_true,
        )
        b = partial_id_bounds(blocks)
        assert b.lower == b.upper == pytest.approx(s_true, abs=1e-12)
        assert b.classification is Classification.FORCED_POSITIVE
        assert_matches_grid(blocks, b)

    @pytest.mark.parametrize("F", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((1, 1))])
    def test_kernel_on_b0_pins_zero(self, F):
        blocks = PartialIdBlocks(
            cov_b0_b2=F, cov_b1_b2=np.zeros(F.shape[0] - 1), var_b0_plus_b1=F[0, 0]
        )
        b = partial_id_bounds(blocks)
        assert (b.lower, b.upper) == (0.0, 0.0)
        assert b.classification is Classification.FORCED_ZERO
        assert_matches_grid(blocks, b)

    @pytest.mark.parametrize("delta", [-1e-12, 1e-12])
    def test_pinned_value_within_tol_of_zero_is_exactly_zero(self, delta):
        blocks = PartialIdBlocks(
            cov_b0_b2=self.F_RANK1, cov_b1_b2=np.zeros(1), var_b0_plus_b1=1.0 + delta
        )
        b = partial_id_bounds(blocks)
        assert (b.lower, b.upper, b.classification) == (0.0, 0.0, Classification.FORCED_ZERO)
        assert_matches_grid(blocks, b)

    def test_degenerate_b0_pins_var_of_sum(self):
        # Var(B0) = 0, so Var(B1) = Var(B0 + B1).
        blocks = PartialIdBlocks(
            cov_b0_b2=np.zeros((1, 1)), cov_b1_b2=np.zeros(0), var_b0_plus_b1=1.5
        )
        b = partial_id_bounds(blocks)
        assert b.lower == b.upper == 1.5
        assert_matches_grid(blocks, b)

    @pytest.mark.parametrize(
        "F, cross, v01",
        [
            # pinned s = 1 - 1 - 0.5 < 0
            (np.array([[1.0, 2.0], [2.0, 4.0]]), [0.5], 1.0),
            # pinned s = 0.5, but Cov(B1, z)^2 = 1 > 0.5: q(s) < 0
            (np.array([[1.0, 2.0], [2.0, 4.0]]), [2.0], 3.5),
            # (B0, B2) = z (1, 1, 1): two kernel vectors pin different values
            (np.ones((3, 3)), [0.2, 0.4], 2.0),
        ],
    )
    def test_kernel_on_b0_inconsistent(self, F, cross, v01):
        blocks = PartialIdBlocks(
            cov_b0_b2=F, cov_b1_b2=np.array(cross), var_b0_plus_b1=v01
        )
        with pytest.raises(InfeasibleError, match="PSD completion"):
            partial_id_bounds(blocks)
        assert grid_scan(blocks) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_off_b0_with_cross_covariance_infeasible(self, seed):
        # Var of a B2 combination is 0 but its covariance with B1 is not.
        F, Q = rotate_b2(np.diag([1.0, 0.8, 0.0]), seed)
        cross = (Q @ np.array([0.0, 0.1, 0.3]))[1:]
        blocks = PartialIdBlocks(cov_b0_b2=F, cov_b1_b2=cross, var_b0_plus_b1=1.4)
        with pytest.raises(InfeasibleError, match="PSD completion"):
            partial_id_bounds(blocks)
        with pytest.raises(InfeasibleError, match="PSD completion"):
            classify_randomness(blocks)
        assert grid_scan(blocks) is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_off_b0_leaves_the_range_quadratic(self, seed):
        F, Q = rotate_b2(np.diag([1.0, 0.8, 0.0]), seed)
        cross = (Q @ np.array([0.0, 0.3, 0.0]))[1:]
        blocks = PartialIdBlocks(cov_b0_b2=F, cov_b1_b2=cross, var_b0_plus_b1=1.7)
        b = partial_id_bounds(blocks)
        assert b.classification is Classification.FORCED_POSITIVE
        assert b.lower < b.upper
        assert_matches_grid(blocks, b)
        assert classify_randomness(blocks) is Classification.FORCED_POSITIVE

    @pytest.mark.parametrize("lam_min, point", [(5e-9, False), (3e-9, False), (5e-10, True)])
    def test_near_singular_f_either_side_of_the_cut(self, lam_min, point):
        # Smallest eigenvector loads 0.6 on B0; at the default tol the cut is 1e-9.
        k = np.array([0.6, 0.8, 0.0])
        V = np.linalg.qr(np.column_stack([k, [0.0, 0.0, 1.0], [1.0, 0.3, 0.2]]))[0]
        F = V @ np.diag([lam_min, 1.2, 0.7]) @ V.T
        F = (F + F.T) / 2.0
        s_true, x = 0.8, np.array([0.2, -0.1, 0.3])
        u_true = F @ x  # Cov(B1; B0, B2) at Var(B1) = s_true, inside range(F)
        blocks = PartialIdBlocks(
            cov_b0_b2=F, cov_b1_b2=u_true[1:],
            var_b0_plus_b1=F[0, 0] + s_true + 2.0 * u_true[0],
        )
        b = partial_id_bounds(blocks)
        assert (b.lower == b.upper) is point
        assert b.lower <= s_true + 1e-9 and b.upper >= s_true - 1e-9
        assert b.classification is Classification.FORCED_POSITIVE
        assert_matches_grid(blocks, b)


class TestClassification:
    def test_unequal_variances(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=2.0
        )
        assert classify_randomness(blocks) is Classification.FORCED_POSITIVE

    def test_full_rank_equal_variances(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0, 0.2], [0.2, 1.0]]),
            cov_b1_b2=np.array([0.0]),
            var_b0_plus_b1=1.0,
        )
        assert classify_randomness(blocks) is Classification.INTERVAL
        assert partial_id_bounds(blocks).upper > 0.0

    def test_degenerate_case(self):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            cov_b1_b2=np.array([0.0]),
            var_b0_plus_b1=1.0,
        )
        assert classify_randomness(blocks) is Classification.FORCED_ZERO


class TestOneClassification:
    """classify_randomness returns the class of partial_id_bounds."""

    @pytest.mark.parametrize("where, gap", [
        *[("var", d) for d in (2e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 3e-4)],
        ("cross", 2e-9), ("cross", 1e-6),
    ])
    def test_margin_blocks(self, where, gap):
        # Var(B0 + B1) - Var(B0) or Cov(B1, B2) exceeds tol, yet the lower bound on
        # Var(B1) stays below 10 * tol until the variance gap reaches 3e-4.
        if where == "var":
            blocks = PartialIdBlocks(np.array([[1.0]]), np.zeros(0), 1.0 + gap)
        else:
            blocks = PartialIdBlocks(np.eye(2), np.array([gap]), 1.0)
        kind = Classification.FORCED_POSITIVE if gap >= 3e-4 else Classification.INTERVAL
        assert classify_randomness(blocks) is partial_id_bounds(blocks).classification
        assert classify_randomness(blocks) is kind

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", list(Classification))
    def test_agree_on_benchmark_style_blocks(self, p, kind):
        rng = np.random.default_rng(100 * p + list(Classification).index(kind))
        for _ in range(12):
            blocks = class_blocks(rng, p, kind)
            b = partial_id_bounds(blocks)
            assert b.classification is kind
            assert classify_randomness(blocks) is kind
            if kind is Classification.FORCED_ZERO:
                assert (b.lower, b.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        blocks = PartialIdBlocks(
            cov_b0_b2=np.array([[1.0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=1.0
        )
        with pytest.raises(DomainError, match="tol"):
            partial_id_bounds(blocks, tol=tol)
        with pytest.raises(DomainError, match="tol"):
            classify_randomness(blocks, tol=tol)


class TestBlockValidation:
    def test_non_psd_rejected(self):
        with pytest.raises(DomainError):
            PartialIdBlocks(
                cov_b0_b2=np.array([[1.0, 2.0], [2.0, 1.0]]),
                cov_b1_b2=np.array([0.0]),
                var_b0_plus_b1=1.0,
            )

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            PartialIdBlocks(
                cov_b0_b2=np.array([[1.0]]), cov_b1_b2=np.zeros(0), var_b0_plus_b1=-0.1
            )

    def test_cross_length_mismatch(self):
        with pytest.raises(DimensionError):
            PartialIdBlocks(
                cov_b0_b2=np.eye(2), cov_b1_b2=np.zeros(3), var_b0_plus_b1=1.0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["cov_b0_b2", "cov_b1_b2", "var_b0_plus_b1"])
    def test_non_finite_value_names_the_field(self, field, bad):
        kwargs = {
            "cov_b0_b2": np.array([[1.0, 0.2], [0.2, 1.0]]),
            "cov_b1_b2": np.array([0.1]),
            "var_b0_plus_b1": 1.4,
        }
        if field == "var_b0_plus_b1":
            kwargs[field] = bad
        else:
            kwargs[field] = kwargs[field].copy()
            kwargs[field].flat[-1] = bad
        with pytest.raises(DomainError, match=field):
            PartialIdBlocks(**kwargs)


class TestPsdRule:
    """cov_b0_b2 is refused below -1e-10 * max(1, max_ij |C_ij|), whatever its units."""

    @pytest.mark.parametrize("k", range(7))
    def test_rank_deficient_block_accepted_at_every_scale(self, k):
        B = np.random.default_rng(8).normal(size=(4, 2))
        C = 10.0**k * (B @ B.T)
        blocks = PartialIdBlocks(C, np.zeros(3), C[0, 0])
        assert classify_randomness(blocks) is Classification.FORCED_ZERO

    @pytest.mark.parametrize("k", range(7))
    def test_negative_eigenvalue_refused_at_every_scale(self, k):
        v = np.linalg.qr(np.random.default_rng(9).normal(size=(4, 1)))[0][:, 0]
        C = 10.0**k * (np.eye(4) - (1.0 + 1e-3) * np.outer(v, v))  # min eigenvalue -1e-3 * 10^k
        with pytest.raises(DomainError, match="positive semidefinite"):
            PartialIdBlocks(C, np.zeros(3), 1.0)

    @pytest.mark.parametrize("lam_min, accepted", [(-5e-11, True), (-2e-10, False)])
    def test_unit_scale_blocks_keep_the_absolute_cut(self, lam_min, accepted):
        C = np.diag([1.0, lam_min])
        if accepted:
            PartialIdBlocks(C, [0.0], 1.0)
        else:
            with pytest.raises(DomainError, match="positive semidefinite"):
                PartialIdBlocks(C, [0.0], 1.0)


def _no_lapack(monkeypatch):
    """Make every LAPACK-backed numpy.linalg function raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "solve", "lstsq", "inv", "pinv",
                 "cholesky", "qr", "det", "slogdet", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, refuse)


class TestStoredDecomposition:
    """A record decomposes cov_b0_b2 once; the bounds read that decomposition."""

    @pytest.mark.parametrize("kind", list(Classification))
    def test_one_eigh_per_record_none_per_call(self, monkeypatch, kind):
        blocks_in = class_blocks(np.random.default_rng(26), 4, kind)
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        blocks = PartialIdBlocks(blocks_in.cov_b0_b2, blocks_in.cov_b1_b2,
                                 blocks_in.var_b0_plus_b1)
        assert len(calls) == 1
        _no_lapack(monkeypatch)
        bounds = [partial_id_bounds(blocks, tol) for tol in (1e-9, 1e-6, 1e-3)]
        assert classify_randomness(blocks) is bounds[0].classification is kind

    @pytest.mark.parametrize("name", ["cov_b0_b2", "cov_b1_b2", "eigenvalues", "eigenvectors"])
    def test_stored_arrays_are_read_only(self, name):
        blocks = class_blocks(np.random.default_rng(3), 4, Classification.INTERVAL)
        a = {"cov_b0_b2": blocks.cov_b0_b2, "cov_b1_b2": blocks.cov_b1_b2,
             "eigenvalues": blocks.eig[0], "eigenvectors": blocks.eig[1]}[name]
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0

    def test_caller_arrays_stay_writable(self):
        C, r = np.eye(2), np.array([0.1])
        PartialIdBlocks(C, r, 1.0)
        C[0, 0], r[0] = 2.0, 0.2

    def test_replace_decomposes_the_new_record(self):
        rng = np.random.default_rng(7)
        for kind in Classification:
            blocks = class_blocks(rng, 3, kind)
            v = blocks.var_b0_plus_b1
            for changes in ({"var_b0_plus_b1": v + 0.3}, {"var_b0_plus_b1": 2.0 * v},
                            {"cov_b0_b2": 2.0 * blocks.cov_b0_b2, "var_b0_plus_b1": 2.0 * v}):
                fields = {"cov_b0_b2": blocks.cov_b0_b2.copy(),
                          "cov_b1_b2": blocks.cov_b1_b2.copy(), "var_b0_plus_b1": v, **changes}
                bounds = []
                for record in (dataclasses.replace(blocks, **changes), PartialIdBlocks(**fields)):
                    try:
                        bounds.append(partial_id_bounds(record))
                    except InfeasibleError as exc:
                        bounds.append(str(exc))
                assert bounds[0] == bounds[1]
