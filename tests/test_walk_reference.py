"""The exact-path walk against a reference form of the same arithmetic.

The reference below is the walk as it read before its hot loop was trimmed:
it gathers the coordinates outside the active set and the rows ``G[A]`` at
every segment, masks every event with ``np.where`` under ``np.errstate``, and
makes its own rank test.  Each ``LassoSolution`` of ``lambda_path`` and of a
stage's ``path`` must equal the reference's field for field, ``beta`` to the
byte, and ``lambda_max`` must be the reference's first breakpoint.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcreg import (
    DimensionError,
    DomainError,
    LassoSolution,
    SecondStage,
    SimConfig,
    SingularGramError,
    dgp_sample,
    estimate,
    lambda_max,
    lambda_path,
)
from rcreg.estimate import KKT_TOL, _levels, _penalty, _unit_diagonal


def reference_violations(grad, beta, thr, optimized):
    weighted = np.where(beta != 0.0, np.abs(grad + 2.0 * thr * np.sign(beta)),
                        np.maximum(0.0, np.abs(grad) - 2.0 * thr))
    return np.where(optimized, np.where(thr > 0.0, weighted, np.abs(grad)), 0.0)


@dataclasses.dataclass(frozen=True)
class ReferenceSegment:
    lo: float
    active: np.ndarray
    sign: np.ndarray
    inactive: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    e: np.ndarray

    def reaches(self, lam: float, scale) -> bool:
        if lam >= self.lo:
            return True
        k = self.inactive
        return bool(
            np.all(self.sign * (self.alpha - lam * self.gamma) >= 0.0)
            and np.all(np.abs(self.a[k] + lam * self.e[k]) <= lam / scale[k])
        )


def reference_segments(G, b, scale, excluded):
    w = 1.0 / scale
    penalized = ~excluded & (w > 0.0)
    free = np.flatnonzero(~excluded)
    _unit_diagonal(G[np.ix_(free, free)], SingularGramError,
                   "Gram matrix over the coordinates the path may activate")
    A = np.flatnonzero(~excluded & ~penalized)
    Ginv = np.linalg.inv(G[np.ix_(A, A)])
    sign = np.zeros(b.shape[0])
    hi = np.inf
    joined, left, left_side = -1, -1, 0.0
    while True:
        out = np.flatnonzero(penalized & (sign == 0.0))
        coef = Ginv @ np.array([b[A], w[A] * sign[A]]).T
        alpha, gamma = coef.T
        a, e = coef.T @ G[A]
        a = b - a
        ak, ek, wk = a[out], e[out], w[out]
        with np.errstate(divide="ignore", invalid="ignore"):
            rejoin = np.where(out == left, left_side, 0.0)
            up = np.where((wk - ek > 0.0) & (rejoin <= 0.0), ak / (wk - ek), -np.inf)
            down = np.where((wk + ek > 0.0) & (rejoin >= 0.0), -ak / (wk + ek), -np.inf)
            heading = penalized[A] & (sign[A] * gamma < 0.0) & (A != joined)
            leave = np.where(heading, alpha / gamma, -np.inf)
        join = np.maximum(up, down)
        lam_in, lam_out = join.max(initial=-np.inf), leave.max(initial=-np.inf)
        lo = min(max(lam_in, lam_out, 0.0), hi)
        if (yield ReferenceSegment(lo, A, sign[A], out, alpha, gamma, a, e)):
            Ginv = np.linalg.inv(G[np.ix_(A, A)])
            continue
        if lo <= 0.0:
            return
        if lam_in >= lam_out:
            i = int(np.argmax(join))
            k = out[i]
            v = Ginv @ G[A, k]
            u = np.append(-v, 1.0)
            Ginv, old = np.outer(u, u / (G[k, k] - G[k, A] @ v)), Ginv
            Ginv[:-1, :-1] += old
            A = np.append(A, k)
            sign[k] = 1.0 if up[i] >= down[i] else -1.0
            joined, left, left_side = k, -1, 0.0
        else:
            j = int(np.argmax(leave))
            k, c = A[j], np.delete(Ginv[j], j)
            Ginv = np.delete(np.delete(Ginv, j, 0), j, 1) - np.outer(c, c / Ginv[j, j])
            A = np.delete(A, j)
            joined, left, left_side = -1, k, sign[k]
            sign[k] = 0.0
        hi = lo


def reference_walk(G, b, init, penalize_mask, grid, segments_of=reference_segments):
    scale, excluded = _penalty(init, penalize_mask, G.shape[0])
    grid = _levels(grid)
    if grid.size == 0:
        raise DimensionError("lambda grid must be nonempty")
    if np.any(np.diff(grid) > 0):
        raise DomainError("lambda grid must be sorted in descending order")
    tol = KKT_TOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    segments = segments_of(G, b, scale, excluded)
    seg = next(segments)
    budget = estimate.MAX_BREAKPOINTS
    solutions = []
    for lam in grid:
        lam = float(lam)
        steps, refactored = 0, False
        while True:
            while not (reached := seg.reaches(lam, scale)) and steps < budget:
                seg = next(segments)
                steps += 1
            beta = np.zeros_like(b)
            beta[seg.active] = seg.alpha - (lam if reached else seg.lo) * seg.gamma
            grad = 2.0 * (G @ beta - b)
            kkt = float(reference_violations(grad, beta, lam / scale, ~excluded).max(initial=0.0))
            if refactored or not reached or kkt <= tol:
                break
            seg, refactored = segments.send(True), True
        budget -= steps
        solutions.append(LassoSolution(
            beta=beta, active_set=np.flatnonzero(beta != 0.0), kkt_residual=kkt,
            iterations=steps, converged=reached and kkt <= tol, lam=lam,
        ))
    return solutions


def drifting(segments_of):
    """``segments_of`` with every segment's ``alpha`` off by 1e-6 relative until the
    walk asks for a refactor (``send(True)``), which then yields the true segment."""
    def segments(*args):
        inner = segments_of(*args)
        seg = next(inner)
        while True:
            if (yield dataclasses.replace(seg, alpha=seg.alpha * (1.0 + 1e-6))):
                seg = inner.send(True)
                while (yield seg):
                    pass
            seg = next(inner)
    return segments


def fields(sol: LassoSolution):
    return (sol.beta.dtype, sol.beta.tobytes(), sol.active_set.tolist(), repr(sol.kkt_residual),
            sol.iterations, sol.converged, repr(sol.lam))


def breakpoints(G, b, init, penalize_mask, cap=500):
    """``(lo, active-set size)`` of the reference's segments, at most ``cap`` of them."""
    segments = reference_segments(G, b, *_penalty(init, penalize_mask, G.shape[0]))
    return [(seg.lo, seg.active.size) for seg, _ in zip(segments, range(cap))]


def instance(seed: int, n: int, p: int, rho: float, zero_frac: float, free_frac: float):
    """Equicorrelated columns (correlation rho) and a sparse signal of mixed signs, so
    that coordinates join and then leave; initial estimates with some exact zeros and
    a mask with some unpenalized coordinates."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, p))
    X = np.sqrt(1.0 - rho) * Z + np.sqrt(rho) * rng.normal(size=(n, 1))
    X[:, 0] = 1.0
    beta = rng.uniform(-2.0, 2.0, p) * (rng.random(p) < 0.6)
    Y = X @ beta + rng.normal(size=n)
    init = rng.uniform(-2.0, 2.0, p) * (rng.random(p) >= zero_frac)
    mask = rng.random(p) >= free_frac
    return X, Y, init, mask


def grid_with_breakpoints(G, b, init, mask, rng, size: int):
    """A descending grid of log-spaced levels and of levels exactly at breakpoints."""
    bps = np.array([lo for lo, _ in breakpoints(G, b, init, mask)])
    top = max(float(bps[0]), 1e-8)
    on = rng.choice(bps, size=min(size, bps.size), replace=False)
    return np.sort(np.concatenate([np.geomspace(top, 1e-4 * top, size), on, [0.0]]))[::-1]


def assert_walks_agree(X, Y, init, mask, grid, segments_of=reference_segments):
    G, b, _ = estimate._gram(estimate._data_blocks(Y, X))
    try:
        ref = reference_walk(G, b, init, mask, grid, segments_of)
    except SingularGramError:
        with pytest.raises(SingularGramError):
            lambda_path(Y, X, grid, init, mask)
        return
    ours = lambda_path(Y, X, grid, init, mask)
    assert [fields(s) for s in ours] == [fields(s) for s in ref]
    first = next(reference_segments(G, b, *_penalty(init, mask, G.shape[0]))).lo
    assert repr(lambda_max(Y, X, init, mask)) == repr(float(first))


def tied_instance(seed: int):
    """A Gram form whose second coordinate lies on its threshold all along the path in
    exact arithmetic (w1 = r w0, b1 = r b0): round-off decides its events, and after it
    leaves, only the walk's guard stops it rejoining on its old side at once."""
    rng = np.random.default_rng(seed)
    r, w0, b0 = rng.uniform(0.05, 0.9), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    G = np.array([[1.0, r], [r, 1.0]])
    b = np.array([b0, r * b0 * (1.0 + rng.choice([0.0, 1e-15, -1e-15]))])
    return G, b, np.array([1.0 / w0, 1.0 / (r * w0)])


designs = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 60),
    p=st.integers(2, 8),
    rho=st.sampled_from([0.0, 0.5, 0.8, 0.95]),
    zero_frac=st.sampled_from([0.0, 0.0, 0.3]),
    free_frac=st.sampled_from([0.0, 0.2, 0.5]),
    size=st.integers(1, 12),
)


class TestWalkReference:
    @settings(max_examples=120, deadline=None)
    @given(**designs)
    @example(seed=7, n=40, p=8, rho=0.95, zero_frac=0.3, free_frac=0.2, size=12)
    def test_every_solution_field_matches(self, seed, n, p, rho, zero_frac, free_frac, size):
        X, Y, init, mask = instance(seed, n, p, rho, zero_frac, free_frac)
        G, b, _ = estimate._gram(estimate._data_blocks(Y, X))
        try:
            grid = grid_with_breakpoints(G, b, init, mask, np.random.default_rng(seed), size)
        except SingularGramError:
            grid = [1.0, 0.0]
        assert_walks_agree(X, Y, init, mask, grid)

    @settings(max_examples=40, deadline=None)
    @given(budget=st.integers(1, 6), **designs)
    def test_breakpoint_budget(self, budget, seed, n, p, rho, zero_frac, free_frac, size):
        """A walk cut short by ``MAX_BREAKPOINTS`` gives the same unconverged levels."""
        X, Y, init, mask = instance(seed, n, p, rho, zero_frac, free_frac)
        G, b, _ = estimate._gram(estimate._data_blocks(Y, X))
        try:
            grid = grid_with_breakpoints(G, b, init, mask, np.random.default_rng(seed), size)
        except SingularGramError:
            return
        with pytest.MonkeyPatch.context() as m:
            m.setattr(estimate, "MAX_BREAKPOINTS", budget)
            assert_walks_agree(X, Y, init, mask, grid)

    @settings(max_examples=40, deadline=None)
    @given(**designs)
    def test_refactored_levels(self, seed, n, p, rho, zero_frac, free_frac, size):
        """Drifted segments make the walk refactor (``send(True)``) and read levels again."""
        X, Y, init, mask = instance(seed, n, p, rho, zero_frac, free_frac)
        G, b, _ = estimate._gram(estimate._data_blocks(Y, X))
        try:
            grid = grid_with_breakpoints(G, b, init, mask, np.random.default_rng(seed), size)
        except SingularGramError:
            return
        with pytest.MonkeyPatch.context() as m:
            m.setattr(estimate, "_segments", drifting(estimate._segments))
            assert_walks_agree(X, Y, init, mask, grid, drifting(reference_segments))

    def test_designs_make_coordinates_leave(self):
        """The design family above takes the downdate, and the fields still match there."""
        leaves = 0
        for seed in range(30):
            X, Y, init, mask = instance(seed, 40, 8, 0.95, 0.3, 0.2)
            G, b, _ = estimate._gram(estimate._data_blocks(Y, X))
            sizes = [size for _, size in breakpoints(G, b, init, mask)]
            leaves += int(np.count_nonzero(np.diff(sizes) < 0))
            grid = grid_with_breakpoints(G, b, init, mask, np.random.default_rng(seed), 12)
            assert_walks_agree(X, Y, init, mask, grid)
        assert leaves >= 5

    def test_tied_events(self):
        """Walks where a coordinate leaves and could rejoin at once, on its old side."""
        for seed in range(600):
            G, b, init = tied_instance(seed)
            top = estimate._lambda_max(G, b, init, None)
            grid = np.geomspace(top, 1e-4 * top, 20)
            ref = reference_walk(G, b, init, None, grid)
            assert [fields(s) for s in estimate._walk(G, b, init, None, grid)] == [
                fields(s) for s in ref], seed

    @pytest.mark.parametrize("seed", [1, 2])
    def test_stage_paths_match(self, seed):
        """A second stage's walk, which makes no rank test of its own, matches too."""
        stage = SecondStage.from_data(dgp_sample(SimConfig(n=2000, p=6, seed=seed), 0))
        lmax = stage.lambda_max()
        grid = np.geomspace(lmax, 1e-4 * lmax, 50)
        ref = reference_walk(stage.G, stage.b, stage.init, stage.penalize_mask, grid)
        assert [fields(s) for s in stage.path(grid)] == [fields(s) for s in ref]
        first = next(reference_segments(stage.G, stage.b,
                                        *_penalty(stage.init, stage.penalize_mask, stage.G.shape[0])))
        assert repr(lmax) == repr(float(first.lo))
