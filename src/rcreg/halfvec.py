"""Half-vectorization of symmetric matrices and the quadratic-form transform.

A symmetric p x p matrix M is stored as the length p(p+1)/2 vector

    (M_11, ..., M_pp, M_12, ..., M_1p, M_23, ..., M_2p, ..., M_{p-1,p}),

diagonal first, then the upper off-diagonal entries in row-major order.
The companion transform ``v_transform`` maps a point x to the row vector
satisfying v(x) . halfvec(M) == x' M x, which turns quadratic forms into
linear functions of the stored entries.  Every other module indexes
variances as the first p entries and covariances after; ``halfvec_indices``
is the authoritative index map.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "half_dim",
    "halfvec_indices",
    "vec_half",
    "unvec_half",
    "v_transform",
    "v_transform_rows",
    "min_eigenvalue",
    "numeric_rank",
]


def half_dim(p: int) -> int:
    """Length p(p+1)/2 of the half-vectorization of a p x p matrix."""
    if p < 1:
        raise DimensionError(f"matrix dimension must be >= 1, got {p}")
    return p * (p + 1) // 2


def halfvec_indices(p: int) -> list[tuple[int, int]]:
    """Index map from half-vector position to 0-based matrix entry (i, j).

    Positions 0..p-1 are the diagonal (i, i); the remaining positions are
    the strict upper triangle in row-major order.
    """
    half_dim(p)
    pairs = [(i, i) for i in range(p)]
    rows, cols = np.triu_indices(p, k=1)
    pairs.extend(zip(rows.tolist(), cols.tolist()))
    return pairs


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return M


def vec_half(M) -> np.ndarray:
    """Half-vectorize a symmetric matrix: diagonal, then upper triangle row-major.

    Parameters
    ----------
    M : array_like, shape (p, p)
        Symmetric matrix.  Symmetry is checked exactly; callers are expected
        to construct symmetric inputs rather than rely on rounding.
    """
    M = _as_square(M)
    if not np.array_equal(M, M.T):
        raise DomainError("matrix is not symmetric")
    p = M.shape[0]
    return np.concatenate([np.diagonal(M), M[np.triu_indices(p, k=1)]])


def unvec_half(s, p: int) -> np.ndarray:
    """Rebuild the symmetric p x p matrix with half-vectorization ``s``.

    Exact inverse of :func:`vec_half`.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] != half_dim(p):
        raise DimensionError(
            f"half-vector for p={p} must have length {half_dim(p)}, got shape {s.shape}"
        )
    M = np.zeros((p, p))
    M[np.diag_indices(p)] = s[:p]
    iu = np.triu_indices(p, k=1)
    M[iu] = s[p:]
    M[(iu[1], iu[0])] = s[p:]
    return M


def v_transform(x) -> np.ndarray:
    """Map x to (x_1^2, ..., x_p^2, 2 x_1 x_2, ..., 2 x_{p-1} x_p).

    The output satisfies ``v_transform(x) @ vec_half(M) == x @ M @ x`` for
    every symmetric M.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionError(f"expected a nonempty vector, got shape {x.shape}")
    outer = np.outer(x, x)
    iu = np.triu_indices(x.shape[0], k=1)
    return np.concatenate([x * x, 2.0 * outer[iu]])


def v_transform_rows(X) -> np.ndarray:
    """Row-wise :func:`v_transform` of an n x p matrix, returned as n x p(p+1)/2.

    The columns are written in one pass, so the result is Fortran-ordered.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise DimensionError(f"expected an n x p matrix with p >= 1, got shape {X.shape}")
    p = X.shape[1]
    cols = np.ascontiguousarray(X.T)
    out = np.empty((half_dim(p), X.shape[0]))
    np.multiply(cols, cols, out=out[:p])
    k = p
    for i in range(p - 1):
        np.multiply(2.0 * cols[i], cols[i + 1:], out=out[k:k + p - 1 - i])
        k += p - 1 - i
    return out.T


def min_eigenvalue(M) -> float:
    """Smallest eigenvalue of a symmetric matrix (symmetric solver, real output)."""
    M = _as_square(M)
    if M.shape[0] == 1:
        return float(M[0, 0])
    return float(np.linalg.eigvalsh(M)[0])


def numeric_rank(M) -> int:
    """Number of singular values exceeding 1e-10 times the largest one.

    The relative threshold makes the rank invariant under rescaling of M.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    svals = np.linalg.svd(M if M.ndim > 1 else M.reshape(1, -1), compute_uv=False)
    return int(np.count_nonzero(svals > 1e-10 * svals[0])) if svals[0] else 0
