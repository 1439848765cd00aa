"""``check_identified`` and ``partial_id_bounds`` against array-per-point and
boolean-mask reference forms of the same arithmetic: results must have equal
``repr``, or both calls must raise the same error."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rcreg import (
    Classification,
    IdentReport,
    InfeasibleError,
    PartialIdBlocks,
    RcregError,
    SupportSpec,
    VarianceBounds,
    check_identified,
    classify_randomness,
    half_dim,
    partial_id_bounds,
    v_transform_rows,
)
from rcreg.halfvec import check_tol


def reference_numeric_rank(M, tol: float = 1e-10) -> int:
    """Singular values above ``tol`` times the largest, counted on arrays."""
    check_tol(tol)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


def reference_cartesian_identifying_points(spec: SupportSpec) -> list[np.ndarray]:
    """The witness points, one numpy array per point."""
    two = [j for j, pts in enumerate(spec.supports) if len(pts) >= 2]
    base = np.array([pts[0] for pts in spec.supports])
    points = []
    for j in two:
        w = base.copy()
        w[j] = spec.supports[j][1]
        points.append(w)
    points.append(base.copy())
    for i, j in enumerate(two):
        for k in two[i + 1:]:
            w = base.copy()
            w[j] = spec.supports[j][1]
            w[k] = spec.supports[k][1]
            points.append(w)
    for j in two:
        if len(spec.supports[j]) >= 3:
            w = base.copy()
            w[j] = spec.supports[j][2]
            points.append(w)
    return points


def reference_check_identified(spec: SupportSpec, *, rank_tol: float = 1e-10) -> IdentReport:
    """The witness stacked into one array, mapped to [-1, 1] by its column ranges."""
    full_dim = half_dim(spec.p)
    deficient = tuple(j + 1 for j, pts in enumerate(spec.supports) if len(pts) < 3)
    points = reference_cartesian_identifying_points(spec)
    W = np.array(points)
    lo, hi = W.min(axis=0) / 2.0, W.max(axis=0) / 2.0  # halved: hi - lo may overflow
    X = np.ones((W.shape[0], W.shape[1] + 1))
    X[:, 1:] = (W - (lo + hi)) / np.where(hi > lo, hi - lo, 1.0)
    rank = reference_numeric_rank(v_transform_rows(X), rank_tol)
    return IdentReport(
        full_dim=full_dim,
        achieved_rank=rank,
        identified=rank == full_dim,
        witness_points=tuple(tuple(w.tolist()) for w in points),
        deficient_coordinates=deficient,
    )


def reference_partial_id_bounds(blocks: PartialIdBlocks, tol: float = 1e-9) -> VarianceBounds:
    """The closed form with the kernel split off by boolean masks."""
    check_tol(tol)
    F = blocks.cov_b0_b2
    u0 = np.concatenate(([(blocks.var_b0_plus_b1 - F[0, 0]) / 2.0], blocks.cov_b1_b2))
    lam, V = np.linalg.eigh(F)
    zero = lam <= max(tol, 1e-12 * max(1.0, float(lam[-1])))
    loads = bool(zero.any()) and float(np.max(np.abs(V[0, zero]))) > 1e-8
    lam, V, kernel = lam[~zero], V[:, ~zero], V[:, zero]
    c, a = V[0], u0 @ V  # e1 and u0 in the range eigenbasis
    h1, g1, ug = float(c @ (c / lam)), float(c @ (a / lam)), float(a @ (a / lam))
    slack, umax = 10.0 * tol, float(np.max(np.abs(u0)))
    w, r = kernel[0], u0 @ kernel  # k'u(s) = r - (s/2) w, one entry per kernel vector
    s = 2.0 * float(w @ r) / float(w @ w) if loads else 0.0
    s = 0.0 if abs(s) < slack else s
    allow = slack * max(1.0, umax, s)
    b = 1.0 + g1
    disc = b * b - h1 * ug  # h1 times the maximum of q
    if s < 0.0 or np.any(np.abs(r - s / 2.0 * w) > allow) or (
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


def outcome(fn, *args, **kwargs) -> str:
    try:
        return repr(fn(*args, **kwargs))
    except RcregError as exc:
        return f"{type(exc).__name__}: {exc}"


MODES = ("covariance", "uncorrelated", "perturbed")


def draw_blocks(rng, p: int, mode: str, rank: int, scale: float) -> PartialIdBlocks | None:
    """Blocks of a (B0, B1, B2') covariance of the given rank, or None if refused.

    ``covariance``: the pieces of one PSD covariance (FORCED_POSITIVE, or a point
    pinned by a kernel that loads on B0).  ``uncorrelated``: B1 uncorrelated with
    B2 and Var(B0 + B1) = Var(B0), so the class is INTERVAL or, with a kernel on
    B0, FORCED_ZERO.  ``perturbed``: a covariance's pieces with noise from 1e-12
    to 1e-1 added, most of them infeasible.
    """
    if mode == "uncorrelated":
        B = rng.normal(size=(p - 1, min(rank, p - 1)))
        C = scale * (B @ B.T)
        blocks = (C, np.zeros(p - 2), C[0, 0])
    else:
        B = rng.normal(size=(p, rank))
        S = scale * (B @ B.T)
        keep = [0, *range(2, p)]
        cross, v01 = S[1, 2:], S[0, 0] + S[1, 1] + 2.0 * S[0, 1]
        if mode == "perturbed":
            noise = scale * 10.0 ** -rng.uniform(1.0, 12.0)
            cross, v01 = cross + noise * rng.normal(size=p - 2), v01 + noise * rng.normal()
        blocks = (S[np.ix_(keep, keep)], cross, max(v01, 0.0))
    try:
        return PartialIdBlocks(*blocks)
    except RcregError:  # rounding left the drawn block a little indefinite
        return None


def assert_same_bounds(blocks, tol) -> str:
    """Compare both entry points with the reference; returns the reference's class."""
    expected = outcome(reference_partial_id_bounds, blocks, tol)
    assert outcome(partial_id_bounds, blocks, tol) == expected
    cls = outcome(lambda: reference_partial_id_bounds(blocks, tol).classification)
    assert outcome(classify_randomness, blocks, tol) == cls
    return cls.split(":")[0]


@given(
    st.integers(min_value=2, max_value=7),
    st.sampled_from(MODES),
    st.integers(min_value=0, max_value=7),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.sampled_from([1e-9, 1e-6, 1e-12]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_partial_id_bounds_matches_the_mask_form(p, mode, rank, scale, tol, seed):
    blocks = draw_blocks(np.random.default_rng(seed), p, mode, min(rank, p), scale)
    assume(blocks is not None)
    assert_same_bounds(blocks, tol)


def test_every_class_and_infeasible_block_matches_the_mask_form():
    """A fixed sweep of 3,000 blocks, p = 2..7, reaching every outcome."""
    rng = np.random.default_rng(2017)
    seen = set()
    for i in range(3000):
        p = 2 + i % 6
        blocks = draw_blocks(rng, p, MODES[i % 3], int(rng.integers(0, p + 1)), 1.0)
        if blocks is not None:
            seen.add(assert_same_bounds(blocks, 1e-9))
    assert seen == {
        "<Classification.FORCED_POSITIVE", "<Classification.INTERVAL",
        "<Classification.FORCED_ZERO", "InfeasibleError",
    }


levels = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-20, max_value=20).map(lambda v: v / 4.0),
    st.sampled_from([1e200, -1e200, 1e-11, 2020.0]),
)


@given(
    st.lists(st.lists(levels, min_size=1, max_size=4, unique=True), max_size=6),
    st.sampled_from([1e-10, 1e-6, 0.0]),
)
@example(((0.0, 1e-11, 1.0, 2.0), (0.0, 1.0)), 1e-10)
@example((), 1e-10)
@example(((-1e200, 0.0, 1e200), (0.0, 1.0), (-1e200, 1e200)), 1e-10)
@settings(max_examples=300, deadline=None)
def test_check_identified_matches_the_array_form(supports, rank_tol):
    spec = SupportSpec(tuple(tuple(pts) for pts in supports))
    expected = outcome(reference_check_identified, spec, rank_tol=rank_tol)
    assert outcome(check_identified, spec, rank_tol=rank_tol) == expected
