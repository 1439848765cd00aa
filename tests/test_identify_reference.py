"""``partial_id_bounds`` against a boolean-mask reference form of the same
arithmetic (results must have equal ``repr``, or both calls must raise the same
error), and ``check_identified``'s count against exact ranks over the rationals."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rcreg import (
    Classification,
    DomainError,
    InfeasibleError,
    PartialIdBlocks,
    RcregError,
    SupportSpec,
    VarianceBounds,
    check_identified,
    classify_randomness,
    half_dim,
    partial_id_bounds,
)
from rcreg.halfvec import check_tol


def exact_rank(rows) -> int:
    """Rank by Gaussian elimination over ``Fraction``s, which hold floats exactly."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_design(points) -> list[list[Fraction]]:
    """Rows x_i x_j (i <= j) of x = (1, w'): ``build_design_S`` up to column scaling."""
    xs = [(Fraction(1), *map(Fraction, w)) for w in points]
    return [[x[i] * x[j] for i in range(len(x)) for j in range(i, len(x))] for x in xs]


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
def test_check_identified_rank_is_the_exact_rank(supports, rank_tol):
    """The counted rank is the exact rank of the witness design and, for small
    products, of the design over the whole product of the kept levels."""
    spec = SupportSpec(tuple(tuple(pts) for pts in supports))
    if rank_tol == 0.0:
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            check_identified(spec, rank_tol=rank_tol)
        return
    rep = check_identified(spec, rank_tol=rank_tol)
    assert rep.full_dim == half_dim(spec.p)
    assert len(rep.witness_points) == rep.achieved_rank == exact_rank(exact_design(rep.witness_points))
    assert rep.identified == (rep.achieved_rank == rep.full_dim) == (rep.deficient_coordinates == ())
    assert all(w[j] in pts for w in rep.witness_points for j, pts in enumerate(spec.supports))
    kept = [sorted({w[j] for w in rep.witness_points}) for j in range(len(spec.supports))]
    assert all(k[0] == pts[0] and len(k) <= 3 for k, pts in zip(kept, spec.supports))
    assert rep.deficient_coordinates == tuple(j + 1 for j, k in enumerate(kept) if len(k) < 3)
    if math.prod(map(len, kept)) <= 64:
        product = exact_design(itertools.product(*kept))
        assert exact_rank(product) == rep.achieved_rank
