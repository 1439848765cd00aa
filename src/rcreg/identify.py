"""Identifiability of coefficient moments from the covariate support.

Whether the mean vector and covariance matrix of the random coefficients
can be recovered from first and second conditional moments of the response
is a property of the support geometry alone: three distinct points per
covariate suffice, two break it.  This module decides that question,
constructs witnessing point sets, and, for the broken (binary regressor)
case, computes the sharp interval of coefficient variances consistent with
everything that is still identified.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InfeasibleError,
    is_number,
    is_real,
    number_array,
    whole_number,
)
# min_eigenvalue, numeric_rank, v_transform_rows: kept for perfbench/tracing.py to wrap.
from .halfvec import half_dim, min_eigenvalue, numeric_rank, v_transform_rows  # noqa: F401

__all__ = [
    "SupportSpec",
    "IdentReport",
    "PartialIdBlocks",
    "VarianceBounds",
    "Classification",
    "check_identified",
    "mixed_moments_single_regressor",
    "assemble_covariance",
    "partial_id_bounds",
    "classify_randomness",
]


@dataclass(frozen=True)
class SupportSpec:
    """Finite per-covariate support sets (intercept excluded).

    ``supports[j]`` is a sequence of the distinct values covariate j+1 can take,
    each a number (:mod:`rcreg.errors`); the sets are normalized to
    sorted tuples of floats.  An empty ``supports`` describes the intercept-only
    model.
    """

    supports: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not np.iterable(self.supports):
            raise DomainError(f"supports must be a sequence of support sets, got {self.supports!r}")
        normalized = []
        for j, pts in enumerate(self.supports):
            pts = tuple(pts) if np.iterable(pts) else ("not a sequence",)
            if not all(map(is_real, pts)):
                raise DomainError(f"coordinate {j + 1} must be a sequence of numbers")
            if len(pts) == 0:
                raise DomainError(f"coordinate {j + 1} has an empty support")
            if not all(map(is_number, pts)):
                raise DomainError(f"coordinate {j + 1} has a non-finite support point")
            pts = tuple(sorted(map(float, pts)))
            if len(set(pts)) != len(pts):
                raise DomainError(f"coordinate {j + 1} has duplicated support points")
            normalized.append(pts)
        object.__setattr__(self, "supports", tuple(normalized))

    @property
    def p(self) -> int:
        """Number of coefficients including the intercept."""
        return len(self.supports) + 1


@dataclass(frozen=True)
class IdentReport:
    """Outcome of an identifiability check.

    ``identified`` holds exactly when ``achieved_rank == full_dim``, that is
    when ``deficient_coordinates`` (1-based covariate indices keeping fewer
    than three levels, see :func:`check_identified`) is empty.  ``witness_points``
    lie in the product of the supports, in the spec's units, and their design
    (``v_transform_rows`` of the points, each with a leading 1) has the rank of
    the whole support: one point per rank, ``achieved_rank`` in all, so p(p+1)/2
    exactly when every coordinate keeps three levels.  They are built from the
    levels each coordinate keeps (see ``_witness``).
    """

    full_dim: int
    achieved_rank: int
    identified: bool
    witness_points: tuple[tuple[float, ...], ...]
    deficient_coordinates: tuple[int, ...]


class Classification(str, Enum):
    FORCED_ZERO = "FORCED_ZERO"
    FORCED_POSITIVE = "FORCED_POSITIVE"
    INTERVAL = "INTERVAL"


@dataclass(frozen=True)
class VarianceBounds:
    """Sharp lower/upper bounds on a coefficient's variance (:func:`partial_id_bounds`)."""

    lower: float
    upper: float
    classification: Classification


@dataclass(frozen=True)
class PartialIdBlocks:
    """Identified covariance pieces when one regressor is binary.

    With coefficients ordered (B0, B1, B2') and B1 attached to the binary
    regressor, the data pin down ``cov_b0_b2`` = Cov((B0, B2')'), the
    cross-covariances ``cov_b1_b2`` = Cov(B1; B2), and ``var_b0_plus_b1``
    = Var(B0 + B1); Var(B1) itself is free.

    ``cov_b0_b2`` is symmetrized and refused when its smallest eigenvalue is below
    -1e-10 * max(1, max_ij |C_ij|), a cut free of units.  ``eig`` keeps its ``np.linalg.eigh``
    (eigenvalues ascending; eigenvectors column-major), which a 1 x 1 block gets without
    LAPACK as (C[0], [[1.0]]); it and both covariances are read-only.
    """

    cov_b0_b2: np.ndarray
    cov_b1_b2: np.ndarray = field(default_factory=lambda: np.zeros(0))
    var_b0_plus_b1: float = 0.0
    eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C, r, v = (number_array(getattr(self, name), f"{name} must hold finite numbers only")
                   for name in ("cov_b0_b2", "cov_b1_b2", "var_b0_plus_b1"))
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
            raise DimensionError(f"cov_b0_b2 must be square, got shape {C.shape}")
        scale = max(1.0, float(np.max(np.abs(C))) if C.size else 1.0)
        if np.max(np.abs(C - C.T)) > 1e-12 * scale:
            raise DomainError("cov_b0_b2 is not symmetric")
        C = (C + C.T) / 2.0
        lam, V = (C[0], np.ones((1, 1))) if C.shape[0] == 1 else np.linalg.eigh(C)
        V = np.asfortranarray(V)
        if lam[0] < -1e-10 * scale:
            raise DomainError(
                f"cov_b0_b2 is not positive semidefinite (min eigenvalue {lam[0]:.3e})"
            )
        if r.size != C.shape[0] - 1:
            raise DimensionError(
                f"cov_b1_b2 must have length {C.shape[0] - 1}, got {r.size}"
            )
        if v.ndim or v < 0:
            raise DomainError(f"var_b0_plus_b1 must be a nonnegative number, got {v}")
        r = r.flatten()
        for a in (C, r, lam, V):
            a.flags.writeable = False
        object.__setattr__(self, "cov_b0_b2", C)
        object.__setattr__(self, "cov_b1_b2", r)
        object.__setattr__(self, "var_b0_plus_b1", float(v))
        object.__setattr__(self, "eig", (lam, V))

    @property
    def p(self) -> int:
        """Total number of coefficients (B0, B1 and the B2 block)."""
        return self.cov_b0_b2.shape[0] + 1


def _witness(levels) -> tuple[tuple[float, ...], ...]:
    """Witness points over the sorted levels a_j < b_j < c_j each coordinate keeps.

    One point per coordinate at its second level, the base point (all first
    levels), one point per coordinate pair at their second levels, and one
    point per coordinate at its third level, skipping every point that needs a
    level its coordinate lacks.
    """
    two = [(j, pts) for j, pts in enumerate(levels) if len(pts) >= 2]
    base = [pts[0] for pts in levels]
    points = []
    for j, pts in two:
        points.append(w := base.copy())
        w[j] = pts[1]
    points.append(base)
    for i, (j, a) in enumerate(two):
        for k, b in two[i + 1:]:
            points.append(w := base.copy())
            w[j], w[k] = a[1], b[1]
    for j, pts in two:
        if len(pts) >= 3:
            points.append(w := base.copy())
            w[j] = pts[2]
    return tuple(map(tuple, points))


def check_tol(tol: float) -> None:
    """Raise :class:`DomainError` unless ``tol`` is a positive number."""
    if not (0.0 < tol < math.inf if type(tol) is float else is_number(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")


def check_identified(spec: SupportSpec, *, rank_tol: float = 1e-10) -> IdentReport:
    """Decide identifiability of the coefficient covariance from the support.

    Each coordinate keeps its sorted levels from the first on, each more than
    ``rank_tol`` times the coordinate's spread (max - min) above the last one
    kept, at most three; closer levels count as one.  On a product grid the
    monomials w^a with |a| <= 2 and a_j < |S_j| span the quadratic forms
    (tensor-product interpolation), so the design over the product of the kept
    levels, and over its ``witness_points`` (:class:`IdentReport`), has rank
    1 + m2 + m3 + m2(m2-1)/2, with m2 (m3) the coordinates keeping at least two
    (three) levels.  No matrix is formed, and units do not sway the count.

    Raises
    ------
    DomainError
        Unless ``rank_tol`` is finite and positive.
    """
    check_tol(rank_tol)
    kept = []
    for pts in spec.supports:
        h = 1.0 if math.isfinite(pts[-1] - pts[0]) else 0.5  # halving a subnormal rounds
        gap = rank_tol * (pts[-1] * h - pts[0] * h)
        kept.append(levels := [pts[0]])
        for v in pts[1:]:
            if len(levels) < 3 and v * h - levels[-1] * h > gap:
                levels.append(v)
    counts = list(map(len, kept))
    m2, m3 = len(counts) - counts.count(1), counts.count(3)
    rank, full_dim = 1 + m2 + m3 + m2 * (m2 - 1) // 2, half_dim(spec.p)
    deficient = tuple(j + 1 for j, k in enumerate(counts) if k < 3)
    return IdentReport(full_dim, rank, rank == full_dim, _witness(kept), deficient)


def mixed_moments_single_regressor(support, cond_moments, order: int) -> np.ndarray:
    """Mixed coefficient moments of one order from conditional response moments.

    In the single-regressor model Y = B0 + w B1, the conditional moment
    E[Y^n | W = w] equals sum_k C(n, k) w^k E[B0^(n-k) B1^k].  Given the
    values of that moment at ``order + 1`` distinct support points, the
    binomial-weighted Vandermonde system is solved for the vector
    (E[B0^n], E[B0^(n-1) B1], ..., E[B1^n]).  Raises :class:`DomainError`
    for a non-finite entry or an ``order`` that is not a nonnegative whole number.
    """
    n = whole_number(order, "order must be a nonnegative whole number")
    if n < 0:
        raise DomainError(f"order must be a nonnegative whole number, got {order!r}")
    w, c = (number_array(x, "support points and conditional moments must be finite numbers")
            .reshape(-1) for x in (support, cond_moments))
    if w.shape[0] != n + 1 or c.shape[0] != n + 1:
        raise DimensionError(
            f"need {n + 1} support points and conditional moments, "
            f"got {w.shape[0]} and {c.shape[0]}"
        )
    if len(set(w.tolist())) != w.shape[0]:
        raise DomainError("duplicated support points make the system singular")
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite m or residual
        V = np.array([[math.comb(n, k) * w_j**k for k in range(n + 1)] for w_j in w])
        m = np.linalg.solve(V, c)
        resid = float(np.linalg.norm(V @ m - c))
        bound = 1e-8 * max(1.0, float(np.linalg.norm(c)))
    if not (resid <= bound and np.all(np.isfinite(m))):  # False for NaN too
        raise DomainError(
            f"support points too close or too large to resolve order-{n} moments "
            f"(residual {resid:.3e})"
        )
    return m


def assemble_covariance(blocks: PartialIdBlocks, s: float) -> np.ndarray:
    """Full coefficient covariance matrix at candidate value s = Var(B1).

    Var(B0 + B1) pins Cov(B0, B1) = (var_b0_plus_b1 - Var(B0) - s) / 2, so
    the matrix is affine in s; it is a valid completion exactly when it is
    positive semidefinite.  Raises :class:`DomainError` unless ``s`` is finite
    and nonnegative.
    """
    if not (is_number(s) and s >= 0.0):
        raise DomainError(f"s must be a finite nonnegative number, got {s!r}")
    p = blocks.p
    v0 = blocks.cov_b0_b2[0, 0]
    M = np.zeros((p, p))
    M[0, 0] = v0
    M[1, 1] = s
    M[0, 1] = M[1, 0] = (blocks.var_b0_plus_b1 - v0 - s) / 2.0
    if p > 2:
        M[0, 2:] = M[2:, 0] = blocks.cov_b0_b2[0, 1:]
        M[1, 2:] = M[2:, 1] = blocks.cov_b1_b2
        M[2:, 2:] = blocks.cov_b0_b2[1:, 1:]
    return M


def partial_id_bounds(blocks: PartialIdBlocks, tol: float = 1e-9) -> VarianceBounds:
    """Sharp bounds on Var(B1) over all PSD completions of the blocks, in closed form.

    Ordered (B1; B0, B2'), the completion at Var(B1) = s is [[s, u(s)'], [u(s), F]]
    with F = ``cov_b0_b2``, u(s) = u0 - (s/2) e1 and u0 = ((``var_b0_plus_b1`` -
    F_00) / 2, ``cov_b1_b2``).  It is PSD exactly when u(s) lies in the range of F
    and q(s) = s - u(s)'F+u(s) >= 0 (the Schur-complement test for one free
    diagonal entry; Horn & Johnson, *Matrix Analysis*, 7.7).  From the
    eigendecomposition of F that the record holds (``blocks.eig``), whose kernel
    holds the eigenvalues <= max(tol, 1e-12 * max(1, lambda_max)):

    * a kernel vector k adds the linear condition k'u(s) = 0, which pins s when
      k loads on B0 and otherwise asks k'u0 = 0;
    * on the range of F, q(s) = -(h_1/4) s^2 + (1 + g_1) s - u0'g with h = F+e1
      and g = F+u0.  Its roots are the bounds: real exactly when a completion
      exists, and nonnegative because q(s) <= s.

    Conditions count as met within 10 * tol * max(1, max_i |u0_i|, s).  An upper
    bound below 10 * tol gives FORCED_ZERO with bounds exactly (0, 0), a lower
    bound above it FORCED_POSITIVE.

    Raises
    ------
    InfeasibleError
        If no s >= 0 admits a PSD completion.
    DomainError
        Unless ``tol`` is finite and positive.
    """
    check_tol(tol)
    u = [(blocks.var_b0_plus_b1 - blocks.cov_b0_b2.item(0)) / 2.0, *blocks.cov_b1_b2.tolist()]
    u0, umax, slack = np.array(u), max(map(abs, u)), 10.0 * tol
    lam, V = blocks.eig
    lams = lam.tolist()
    # lam ascends: V's first k columns span the kernel.  V is column-major, so both column
    # slices are too, and the products' last digits are those of Fortran order.
    k = bisect.bisect_right(lams, max(tol, 1e-12 * max(1.0, lams[-1])))
    w, r = (V[0, :k], u0 @ V[:, :k]) if k else ((), ())  # k'u(s) = r - (s/2) w, per kernel vector
    loads = k > 0 and max(map(abs, w.tolist())) > 1e-8
    c, a, lam = V[0, k:], u0 @ V[:, k:], lam[k:]  # e1 and u0 in the range eigenbasis
    a_lam = a / lam
    h1, g1, ug = float(c @ (c / lam)), float(c @ a_lam), float(a @ a_lam)
    s = 2.0 * float(w @ r) / float(w @ w) if loads else 0.0
    s = 0.0 if abs(s) < slack else s
    allow = slack * max(1.0, umax, s)
    b = 1.0 + g1
    disc = b * b - h1 * ug  # h1 times the maximum of q
    if s < 0.0 or any(abs(x - s / 2.0 * y) > allow for x, y in zip(r, w)) or (
        s * b - h1 * s * s / 4.0 - ug < -allow if loads
        else disc < -h1 * slack * max(1.0, umax, 2.0 * b / h1)
    ):
        raise InfeasibleError("no value of Var(B1) admits a PSD completion of the given blocks")
    if loads:
        lo = hi = s
    else:
        t = -0.5 * (b + math.copysign(math.sqrt(max(disc, 0.0)), b))
        lo, hi = sorted((-4.0 * t / h1, -ug / t)) if t else (0.0, 0.0)
    if hi < slack:
        return VarianceBounds(0.0, 0.0, Classification.FORCED_ZERO)
    lower = lo if lo > 0.0 else 0.0
    cls = Classification.FORCED_POSITIVE if lower > slack else Classification.INTERVAL
    return VarianceBounds(lower, hi, cls)


def classify_randomness(blocks: PartialIdBlocks, tol: float = 1e-9) -> Classification:
    """Is B1 necessarily random, necessarily degenerate, or undecided?

    The class of :func:`partial_id_bounds` (``partial_id_bounds(blocks,
    tol).classification``), read off the sharp interval for Var(B1); raises
    where that does.
    """
    return partial_id_bounds(blocks, tol).classification
