"""Half-vectorization, quadratic-form transform, rank and eigen utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcreg import (
    DimensionError,
    DomainError,
    half_dim,
    halfvec_indices,
    min_eigenvalue,
    numeric_rank,
    unvec_half,
    v_transform_rows,
    vec_half,
)


def test_vec_half_identity_2x2():
    assert np.array_equal(vec_half(np.eye(2)), [1.0, 1.0, 0.0])


def test_vec_half_ordering_2x2():
    assert np.array_equal(vec_half(np.array([[1.0, 2.0], [2.0, 3.0]])), [1.0, 3.0, 2.0])


def test_vec_half_ordering_3x3():
    a, b, c = 4.0, 5.0, 6.0
    d1, d2, d3 = 1.0, 2.0, 3.0
    M = np.array([[d1, a, b], [a, d2, c], [b, c, d3]])
    assert np.array_equal(vec_half(M), [d1, d2, d3, a, b, c])


def test_unvec_half_examples():
    assert np.array_equal(unvec_half([1.0, 1.0, 0.0], 2), np.eye(2))
    assert np.array_equal(
        unvec_half([1.0, 3.0, 2.0], 2), np.array([[1.0, 2.0], [2.0, 3.0]])
    )


def test_round_trip_exact_5x5():
    rng = np.random.default_rng(0)
    A = rng.uniform(-10, 10, (5, 5))
    M = A + A.T
    assert np.array_equal(unvec_half(vec_half(M), 5), M)


def _v_row(x):
    """Reference transform of one point: its squares, then twice its cross products."""
    return np.concatenate([x * x, 2.0 * np.outer(x, x)[np.triu_indices(x.size, k=1)]])


def test_v_transform_examples():
    rows = v_transform_rows([[1.0, 2.0, 0.0], [1.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
    assert np.array_equal(rows, [[1, 4, 0, 4, 0, 0], [1, 0, 0, 0, 0, 0], [1, 1, 0, -2, 0, 0]])
    assert np.array_equal(v_transform_rows([[1.0, -1.0]]), [[1.0, 1.0, -2.0]])


def test_v_transform_rows_matches_single():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 4))
    rows = v_transform_rows(X)
    for i in range(7):
        assert np.array_equal(rows[i], _v_row(X[i]))


@pytest.mark.parametrize("shape,law", [
    ((9, 1), "normal"), ((1, 6), "normal"), ((1, 1), "normal"), ((40, 7), "normal"),
    ((60, 10), "three_point"),
])
def test_v_transform_rows_is_row_by_row_bit_for_bit(shape, law):
    rng = np.random.default_rng(sum(shape))
    if law == "normal":
        X = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
    else:
        X = rng.choice([-1.0, 0.0, 1.0], size=shape)
    rows = v_transform_rows(X)
    assert rows.shape == (shape[0], half_dim(shape[1])) and rows.flags.f_contiguous
    for i in range(shape[0]):
        assert np.array_equal(rows[i], _v_row(X[i]))


def test_min_eigenvalue_examples():
    assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert min_eigenvalue(np.diag([2.0, -1.0])) == pytest.approx(-1.0, abs=1e-12)
    assert min_eigenvalue(np.array([[1.0, -1.0], [-1.0, 1.0]])) == pytest.approx(
        0.0, abs=1e-12
    )


def test_numeric_rank_examples():
    assert numeric_rank(np.eye(4)) == 4
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.ones((2, 2))) == 1


def test_numeric_rank_scale_invariance():
    M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert numeric_rank(M) == numeric_rank(M * 1e8) == 1


def test_halfvec_indices_map():
    for p in range(1, 7):
        pairs = halfvec_indices(p)
        assert len(pairs) == half_dim(p)
        rng = np.random.default_rng(p)
        A = rng.normal(size=(p, p))
        M = A + A.T
        s = vec_half(M)
        for pos, (i, j) in enumerate(pairs):
            assert s[pos] == M[i, j]


def test_dimension_errors():
    with pytest.raises(DimensionError):
        vec_half(np.ones((2, 3)))
    with pytest.raises(DomainError):
        vec_half(np.array([[1.0, 2.0], [2.1, 3.0]]))
    with pytest.raises(DimensionError):
        unvec_half([1.0, 2.0], 2)
    with pytest.raises(DimensionError):
        v_transform_rows(np.ones((2, 0)))


@pytest.mark.parametrize("X", [[["1", "2"]], [[True, 2]], [[np.nan, 1.0]]])
def test_v_transform_rows_reads_numbers_only(X):
    with pytest.raises(DomainError, match="^X must hold finite numbers only, got "):
        v_transform_rows(X)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_quadratic_form_identity(p, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, p)
    A = rng.uniform(-10, 10, (p, p))
    M = (A + A.T) / 2
    vx = v_transform_rows(x[None])[0]
    lhs = float(vx @ vec_half(M))
    rhs = float(x @ M @ x)
    scale = max(1.0, float(np.abs(vx) @ np.abs(vec_half(M))))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_bijection(p, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-5, 5, (p, p))
    M = A + A.T
    assert np.array_equal(unvec_half(vec_half(M), p), M)
    s = rng.uniform(-5, 5, half_dim(p))
    assert np.array_equal(vec_half(unvec_half(s, p)), s)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_v_rows_rank_bounded(p, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, (m, p))
    assert numeric_rank(v_transform_rows(X)) <= half_dim(p)
