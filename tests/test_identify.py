"""Support-based identifiability: design ranks, witness points, mixed moments."""

import itertools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcreg import identify
from rcreg import (
    Classification,
    DimensionError,
    DomainError,
    PartialIdBlocks,
    SupportSpec,
    assemble_covariance,
    check_identified,
    half_dim,
    min_eigenvalue,
    mixed_moments_single_regressor,
    numeric_rank,
    partial_id_bounds,
    v_transform_rows,
)


def _design(points):
    """Rows v((1, w')) over the covariate points ``w``, in input order."""
    W = np.asarray(points, dtype=float).reshape(len(points), -1)
    return v_transform_rows(np.column_stack([np.ones(len(points)), W]))


class TestBuildDesign:
    def test_three_point_rows_and_rank(self):
        S = v_transform_rows([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(S, [[1, 1, -2], [1, 0, 0], [1, 1, 2]])
        assert numeric_rank(S) == 3

    def test_binary_regressor_rank_deficient(self):
        S = v_transform_rows([[1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(S, [[1, 0, 0], [1, 1, 2]])
        assert numeric_rank(S) == 2

    def test_intercept_only(self):
        S = v_transform_rows([[1.0]])
        assert np.array_equal(S, [[1.0]])
        assert numeric_rank(S) == 1


class TestCartesianPoints:
    @pytest.mark.parametrize(
        "supports, p",
        [
            ((((-1.0, 0.0, 1.0)),), 2),
            (((0.0, 1.0, 2.0), (0.0, 1.0, 2.0)), 3),
            ((((-1.0, 0.0, 1.0)),) * 4, 5),
        ],
    )
    def test_full_rank(self, supports, p):
        spec = SupportSpec(tuple(tuple(s) for s in supports))
        pts = check_identified(spec).witness_points
        assert len(pts) == half_dim(p)
        assert len({tuple(w) for w in pts}) == len(pts)
        prod = set(itertools.product(*spec.supports))
        assert all(tuple(w) in prod for w in pts)
        assert numeric_rank(_design(pts)) == half_dim(p)

    def test_deficient_support_returns_rank_many_witness(self):
        spec = SupportSpec(((0.0, 1.0, 2.0), (0.0, 1.0), (3.0, 4.0)))
        rep = check_identified(spec)
        pts = rep.witness_points
        assert pts == (
            (1.0, 0.0, 3.0), (0.0, 1.0, 3.0), (0.0, 0.0, 4.0),  # second levels
            (0.0, 0.0, 3.0),  # base
            (1.0, 1.0, 3.0), (1.0, 0.0, 4.0), (0.0, 1.0, 4.0),  # pairs
            (2.0, 0.0, 3.0),  # third level, coordinate 1 only
        )
        assert rep.achieved_rank == len(pts) == 8 < rep.full_dim == 10
        assert rep.deficient_coordinates == (2, 3)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_full_rank_random_levels(self, q, seed):
        rng = np.random.default_rng(seed)
        supports = tuple(
            tuple(np.sort(rng.choice(np.arange(-40, 41), size=3, replace=False) / 4.0))
            for _ in range(q)
        )
        spec = SupportSpec(supports)
        S = _design(check_identified(spec).witness_points)
        assert numeric_rank(S) == half_dim(q + 1)


class TestCheckIdentified:
    def test_binary_single_regressor(self):
        rep = check_identified(SupportSpec(((0.0, 1.0),)))
        assert not rep.identified
        assert rep.achieved_rank == 2
        assert rep.full_dim == 3
        assert rep.deficient_coordinates == (1,)

    def test_binary_second_coordinate(self):
        rep = check_identified(SupportSpec(((0.0, 1.0, 2.0), (0.0, 1.0))))
        assert not rep.identified
        assert rep.deficient_coordinates == (2,)
        assert rep.achieved_rank < rep.full_dim

    def test_three_points_everywhere(self):
        rep = check_identified(SupportSpec(((0.0, 1.0, 2.0), (-1.0, 0.0, 1.0))))
        assert rep.identified
        assert rep.achieved_rank == rep.full_dim == 6

    def test_intercept_only_identified(self):
        rep = check_identified(SupportSpec(()))
        assert rep.identified and rep.full_dim == 1

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_witness_rank_is_the_full_product_rank(self, q, seed):
        """The witness reaches the rank of the design over every product point."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=q)
        spec = SupportSpec(
            tuple(tuple(rng.choice(np.arange(-20, 21), size=k, replace=False) / 2.0) for k in sizes)
        )
        rep = check_identified(spec)
        product = numeric_rank(_design(list(itertools.product(*spec.supports))))
        m2 = sum(len(pts) >= 2 for pts in spec.supports)
        m3 = sum(len(pts) >= 3 for pts in spec.supports)
        assert rep.achieved_rank == len(rep.witness_points) == product
        assert product == 1 + m2 + m3 + m2 * (m2 - 1) // 2

    @pytest.mark.parametrize("offset", [0.0, 2020.0, 1e6])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4, 1e6, 1e200])
    def test_verdict_does_not_depend_on_the_units(self, scale, offset):
        """An affine map of a coordinate changes neither the rank nor the verdict."""
        three = tuple(offset + scale * v for v in (-1.0, 0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_identified(SupportSpec((three, (0.0, 1.0, 2.0), three)))
            binary = check_identified(SupportSpec((three, (offset, offset + scale))))
        assert rep.identified and rep.achieved_rank == rep.full_dim == 10
        assert {w[0] for w in rep.witness_points} == set(three)
        assert not binary.identified and binary.deficient_coordinates == (2,)
        assert (binary.achieved_rank, binary.full_dim) == (5, 6)

    @pytest.mark.parametrize("supports, rank, full_dim, deficient, points", [
        (((0.0, 1e-11, 1.0, 2.0),), 3, 3, (), ((1.0,), (0.0,), (2.0,))),
        (((0.0, 1e-5, 1.0),) * 2, 6, 6, (), None),
        (((0.0, 3.2e-4, 1.0),) * 9, 55, 55, (), None),
        (((0.0, 1e-11, 1.0),), 2, 3, (1,), ((1.0,), (0.0,))),
        (((0.0, 1e-11, 1.0, 2.0), (0.0, 1.0)), 5, 6, (2,),
         ((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (1.0, 1.0), (2.0, 0.0))),
        (((0.0, 0.5, 0.5 + 6e-11, 1.0),), 3, 3, (), ((0.5,), (0.0,), (1.0,))),
        (((0.0, 5e-324, 1e-323),), 3, 3, (), ((5e-324,), (0.0,), (1e-323,))),
    ])
    def test_close_levels_count_as_one(self, supports, rank, full_dim, deficient, points):
        """Levels within rank_tol of the spread merge; separated ones count, however close."""
        rep = check_identified(SupportSpec(supports))
        assert (rep.achieved_rank, rep.full_dim, rep.deficient_coordinates) == (
            rank, full_dim, deficient)
        assert rep.identified == (rank == full_dim) and len(rep.witness_points) == rank
        assert points is None or rep.witness_points == points

    def test_spread_beyond_the_float_range(self):
        """max - min overflows a float; the halved gaps still count every level."""
        rep = check_identified(SupportSpec(((-1.7e308, 0.0, 1.7e308), (-1e308, 1e308))))
        assert (rep.achieved_rank, rep.full_dim, rep.deficient_coordinates) == (5, 6, (2,))

    def test_calls_no_lapack(self, monkeypatch):
        """The verdict is a count: no SVD, rank call or transformed design."""
        def refuse(*args, **kwargs):
            raise AssertionError("check_identified formed or ranked a matrix")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(identify, "numeric_rank", refuse)
        monkeypatch.setattr(identify, "v_transform_rows", refuse)
        rep = check_identified(SupportSpec(((-1.0, 0.0, 1.0),) * 30))
        assert rep.identified and rep.achieved_rank == rep.full_dim == 496
        assert len(rep.witness_points) == 496
        rep = check_identified(SupportSpec(((0.0, 1.0),) * 20))
        assert (rep.achieved_rank, rep.full_dim, len(rep.witness_points)) == (211, 231, 211)

    def test_twenty_binary_coordinates(self):
        rep = check_identified(SupportSpec(((0.0, 1.0),) * 20))
        assert (rep.achieved_rank, rep.full_dim) == (211, 231)
        assert len(rep.witness_points) == 211
        assert rep.deficient_coordinates == tuple(range(1, 21))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    @pytest.mark.parametrize("supports", [((0.0, 1.0, 2.0),), ((0.0, 1.0), (0.0, 1.0, 2.0))])
    def test_rank_tol_must_be_finite_and_positive(self, supports, tol):
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            check_identified(SupportSpec(supports), rank_tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_support_point_names_the_coordinate(self, bad):
        with pytest.raises(DomainError, match="coordinate 2 has a non-finite support point"):
            SupportSpec(((0.0, 1.0, 2.0), (0.0, bad, 2.0)))

    @pytest.mark.parametrize("bad", [(True, 0.0, 2.0), (0.0, "1", 2.0), 1.0, None,
                                     ((0.0,), 1.0, 2.0), (0.0, np.bool_(True), 2.0)])
    def test_coordinate_of_non_numbers_named(self, bad):
        """A bool is not read as 0 or 1, nor a string as its number; a coordinate
        that is not a sequence is no bare ``TypeError``."""
        with pytest.raises(DomainError, match="coordinate 2 must be a sequence of numbers"):
            SupportSpec(((0.0, 1.0, 2.0), bad))

    def test_report_consistency(self):
        rep = check_identified(SupportSpec(((0.0, 1.0), (0.0, 1.0, 2.0))))
        assert rep.identified == (rep.achieved_rank == rep.full_dim)
        assert len(rep.witness_points) == rep.achieved_rank == 5

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_binary_coordinate_never_full_rank(self, q, seed):
        """A binary coordinate loses at least one rank."""
        rng = np.random.default_rng(seed)
        supports = []
        for _ in range(q):
            k = int(rng.integers(2, 4))
            supports.append(
                tuple(np.sort(rng.choice(np.arange(-20, 21), size=k, replace=False) / 2.0))
            )
        j = int(rng.integers(0, q))
        supports[j] = supports[j][:2]
        rep = check_identified(SupportSpec(tuple(supports)))
        assert rep.achieved_rank <= rep.full_dim - 1
        assert not rep.identified


def _binary_blocks(s1, s2):
    """p=2 blocks: B0 with standard deviation s1, B0 + B1 with standard deviation s2."""
    return PartialIdBlocks([[s1 * s1]], [], s2 * s2)


def _correlation(s1, s2, u):
    """Correlation of (B0, B1) in the completion where B1 has standard deviation u."""
    M = assemble_covariance(_binary_blocks(s1, s2), u * u)
    return M[0, 1] / np.sqrt(M[0, 0] * M[1, 1])


class TestBinaryInterval:
    """Var(B1) lies in [(s1 - s2)^2, (s1 + s2)^2] when the regressor is binary."""

    def test_examples(self):
        b = partial_id_bounds(_binary_blocks(3.0, 5.0))
        assert (b.lower, b.upper) == (4.0, 64.0)
        assert b.classification is Classification.FORCED_POSITIVE
        b = partial_id_bounds(_binary_blocks(1.0, 1.0))
        assert (b.lower, b.upper) == (0.0, 4.0)
        assert b.classification is Classification.INTERVAL
        b = partial_id_bounds(_binary_blocks(0.0, 0.0))
        assert (b.lower, b.upper) == (0.0, 0.0)
        assert b.classification is Classification.FORCED_ZERO

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            PartialIdBlocks([[-1.0]], [], 4.0)


class TestCorrelationForVariance:
    def test_interval_boundaries(self):
        assert _correlation(1.0, 2.0, 1.0) == pytest.approx(1.0)
        assert _correlation(1.0, 2.0, 3.0) == pytest.approx(-1.0)

    def test_max_correlation_when_s1_dominates(self):
        s1, s2 = 2.0, 1.0
        u_star = np.sqrt(s1**2 - s2**2)
        rho_star = _correlation(s1, s2, u_star)
        assert rho_star == pytest.approx(-np.sqrt(3) / 2, abs=1e-12)
        # numeric maximization over admissible u confirms this is the peak
        grid = np.linspace(s1 - s2 + 1e-9, s1 + s2, 20001)
        rhos = [_correlation(s1, s2, u) for u in grid]
        assert max(rhos) <= rho_star + 1e-6
        assert rho_star <= -np.sqrt(s1**2 - s2**2) / s1 + 1e-12

    def test_outside_interval_not_psd(self):
        for u in (0.5, 3.5):
            assert min_eigenvalue(assemble_covariance(_binary_blocks(1.0, 2.0), u * u)) < 0.0

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_in_unit_interval(self, s1, s2, frac):
        lo, hi = abs(s1 - s2), s1 + s2
        u = lo + frac * (hi - lo)
        M = assemble_covariance(_binary_blocks(s1, s2), u * u)
        scale = np.max(np.abs(M))
        assert min_eigenvalue(M) >= -1e-14 * scale
        # |rho| <= 1 up to rounding of M's entries
        assert abs(M[0, 1]) <= np.sqrt(M[0, 0] * M[1, 1]) + 1e-14 * scale
        if M[1, 1] == 0.0:  # B1 degenerate: no correlation
            return
        rho = _correlation(s1, s2, u)
        if s1 >= s2:
            assert rho <= -np.sqrt(s1**2 - s2**2) / s1 + 1e-12

    @pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf, -1.0, 10**400, True, "1", [1.0]])
    def test_non_finite_or_negative_variance_refused(self, s):
        with pytest.raises(DomainError, match="s must be a finite nonnegative number"):
            assemble_covariance(_binary_blocks(1.0, 2.0), s)


def _brute_force_mixed_moments(atoms, probs, order):
    """Enumeration oracle: E[B0^(n-k) B1^k] for a finite (B0, B1) law."""
    out = np.zeros(order + 1)
    for (b0, b1), pr in zip(atoms, probs):
        for k in range(order + 1):
            out[k] += pr * b0 ** (order - k) * b1**k
    return out


def _conditional_moments(atoms, probs, support, order):
    return np.array(
        [
            sum(pr * (b0 + w * b1) ** order for (b0, b1), pr in zip(atoms, probs))
            for w in support
        ]
    )


class TestMixedMoments:
    def test_first_order(self):
        m = mixed_moments_single_regressor([0.0, 1.0], [1.0, 3.0], 1)
        assert m == pytest.approx([1.0, 2.0])

    def test_deterministic_unit_coefficients(self):
        support = [-1.0, 0.0, 1.0]
        cond = [(1.0 + w) ** 2 for w in support]
        m = mixed_moments_single_regressor(support, cond, 2)
        assert m == pytest.approx([1.0, 1.0, 1.0])

    def test_sign_coin_intercept(self):
        # B0 fair on {-1, +1}, B1 identically 0: E[Y^2 | W=w] = 1.
        m = mixed_moments_single_regressor([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], 2)
        assert m == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)

    def test_duplicate_support_rejected(self):
        with pytest.raises(DomainError):
            mixed_moments_single_regressor([0.0, 0.0, 1.0], [1.0, 1.0, 2.0], 2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mixed_moments_single_regressor([0.0, 1.0], [1.0, 2.0, 3.0], 1)

    @pytest.mark.parametrize(
        "support, cond, match",
        [
            ([0.0, np.nan], [1.0, 3.0], "must be finite"),
            ([-np.inf, 1.0], [1.0, 3.0], "must be finite"),
            ([0.0, 1.0], [np.nan, 3.0], "must be finite"),
            ([0.0, 1.0], [1.0, np.inf], "must be finite"),
            ([0.0, 1e200, 2e200], [1.0, 2.0, 3.0], "too close or too large"),
            ([0.0, 1.0], [1e308, -1e308], "too close or too large"),
        ],
    )
    def test_non_finite_or_overflowing_entries_refused(self, support, cond, match):
        with pytest.raises(DomainError, match=match):
            mixed_moments_single_regressor(support, cond, len(support) - 1)

    @pytest.mark.parametrize("order", [2.7, True, np.True_, -1, np.nan, np.inf, "2"])
    def test_order_must_be_a_nonnegative_whole_number(self, order):
        with pytest.raises(DomainError, match="order must be a nonnegative whole number"):
            mixed_moments_single_regressor([-1.0, 0.0, 1.0], [0.0, 1.0, 4.0], order)

    def test_whole_float_and_numpy_orders_accepted(self):
        want = mixed_moments_single_regressor([-1.0, 0.0, 1.0], [0.0, 1.0, 4.0], 2)
        for order in (2.0, np.int64(2), np.float64(2.0)):
            got = mixed_moments_single_regressor([-1.0, 0.0, 1.0], [0.0, 1.0, 4.0], order)
            assert np.array_equal(got, want)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_brute_force_oracle_equivalence(self, order, n_atoms, seed):
        rng = np.random.default_rng(seed)
        atoms = [(float(a), float(b)) for a, b in rng.integers(-4, 5, (n_atoms, 2))]
        probs = rng.dirichlet(np.ones(n_atoms))
        support = np.sort(rng.choice(np.arange(-6, 7), size=order + 1, replace=False)) / 2.0
        cond = _conditional_moments(atoms, probs, support, order)
        got = mixed_moments_single_regressor(support, cond, order)
        want = _brute_force_mixed_moments(atoms, probs, order)
        assert got == pytest.approx(want, abs=1e-9)


def test_identification_alone_loads_neither_estimation_nor_multiprocessing():
    probe = (
        "import sys, rcreg; "
        "rcreg.partial_id_bounds(rcreg.PartialIdBlocks(cov_b0_b2=[[1.0]], var_b0_plus_b1=1.0)); "
        "print(sorted(m for m in ('rcreg.estimate', 'rcreg.simulate', 'multiprocessing') "
        "if m in sys.modules)); "
        "print(rcreg.SimConfig is __import__('rcreg.simulate').simulate.SimConfig)"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
