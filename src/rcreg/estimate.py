"""Two-stage moment estimation with adaptive-LASSO selection.

Stage one regresses the response on the covariates by ordinary least
squares.  Stage two regresses the squared residuals on the transformed
design ``v_transform_rows(X)``: their conditional mean is linear in the
half-vectorized coefficient covariance matrix, so a weighted-l1 fit selects
which variances and covariances are nonzero.  Weights come from an initial
least squares estimate (coordinates with weight 1/|initial|), the objective
being

    (1/n) ||y - X b||^2 + 2 * lam * sum_k |b_k| / |init_k| .

Coordinates whose initial estimate is exactly zero are excluded from the
optimization and fixed at zero; unpenalized coordinates (the intercept
variance by default) ignore their initial estimate entirely.

Stage two of a dataset is one :class:`SecondStage`, built once by
``SecondStage.from_data``; fits at one level and paths share it.  Its
n x p(p+1)/2 design is formed ``_BLOCK_ROWS`` rows at a time, never whole.
Every Gram matrix is judged by one rank rule, :func:`_unit_diagonal`.

The solver follows the exact piecewise-linear solution path in Gram form
(X'X/n, X'y/n): one walk serves a whole grid of levels, and a single level
is the same walk stopped early; it updates the inverse of the active Gram
block as coordinates join and leave, after one up-front rank test.  A level
has converged when the walk reached it and its Gram KKT residual is at most
``KKT_TOL * max(1, max|X'y/n|)``, after refactoring that inverse if need be.
The residual is measured in the units of X'y/n, so the rule gives the same
verdict whatever the response's units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    SingularDesignError,
    SingularGramError,
    WitnessContradictionError,
)
from .halfvec import half_dim, min_eigenvalue, numeric_rank, unvec_half, v_transform_rows

__all__ = [
    "Dataset",
    "SecondStageDesign",
    "SecondStage",
    "AdaLassoConfig",
    "LassoSolution",
    "MomentFit",
    "SandwichEstimate",
    "WitnessReport",
    "ols",
    "build_second_stage",
    "adaptive_lasso",
    "kkt_residual",
    "lambda_max",
    "lambda_path",
    "witness_check",
    "fit_moments",
    "select_means",
    "sandwich",
]

PSD_TOL = 1e-9
# Converged: Gram KKT residual <= KKT_TOL * max(1, max|X'y/n|) (module docstring).
KKT_TOL = 1e-8
# Most breakpoints one walk passes: a guard against a path that cycles.
MAX_BREAKPOINTS = 100_000
# Rows of the second-stage design formed at a time: 7.2 MB of floats at p=10.
_BLOCK_ROWS = 16384


@dataclass(frozen=True)
class Dataset:
    """n observations of (Y, X) where X carries a leading intercept column."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float).reshape(-1)
        if X.ndim != 2:
            raise DimensionError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries"
            )
        if X.shape[0] < X.shape[1]:
            raise DimensionError(f"need n >= p, got n={X.shape[0]}, p={X.shape[1]}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DomainError("X and Y must be finite (no NaN or infinity)")
        if not np.all(X[:, 0] == 1.0):
            raise DomainError("first column of X must be identically one")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @classmethod
    def from_covariates(cls, W, Y) -> "Dataset":
        """Build a dataset from raw covariates, prepending the intercept column."""
        W = np.asarray(W, dtype=float)
        if W.ndim != 2:
            raise DimensionError(f"W must be 2-D, got shape {W.shape}")
        X = np.concatenate([np.ones((W.shape[0], 1)), W], axis=1)
        return cls(X=X, Y=Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SecondStageDesign:
    """Squared first-stage residuals and the quadratic-form design."""

    ysig: np.ndarray
    xsig: np.ndarray


@dataclass
class AdaLassoConfig:
    """Weighted-l1 solver configuration.

    ``penalize_mask`` entries set to False mark unpenalized coordinates;
    None penalizes everything.
    """

    lam: float
    init: np.ndarray
    penalize_mask: np.ndarray | None = None


@dataclass
class LassoSolution:
    """Solver output; ``iterations`` counts breakpoints passed since the previous level."""

    beta: np.ndarray
    active_set: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool
    lam: float


@dataclass
class MomentFit:
    """Estimated moments: means ``stage.mu_hat``, covariance entries ``solution.beta``."""

    stage: SecondStage
    solution: LassoSolution
    Sigma_hat: np.ndarray
    psd: bool


@dataclass
class SandwichEstimate:
    """Plug-in pieces of the selected coordinates' asymptotic covariance."""

    b_hat: np.ndarray
    avar_s: np.ndarray
    active_set: np.ndarray


@dataclass
class WitnessReport:
    """Closed-form support certificate for one (lam, init, S) instance."""

    condition1: bool
    sign_match: bool
    beta_tilde: np.ndarray
    solution: LassoSolution | None = None


def ols(Y, X) -> np.ndarray:
    """Least squares coefficients; X and Y must be finite, X of full column rank.

    Full rank: ``X'X`` scaled to unit diagonal has no singular value at or
    below 1e-10 of its largest, that is a column-scaled cond(X) under about
    1e5.  The solve uses that scaled Gram plus one step of iterative refinement.
    """
    return _ols(*_cross(*_finite(Y, X), "least squares"))


def _finite(Y, X):
    """A caller's ``(Y, X)`` as float arrays, refused before any product unless all finite."""
    Y, X = np.asarray(Y, dtype=float).reshape(-1), np.asarray(X, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise DomainError("least squares needs finite X and Y")
    return Y, X


def _cross(Y, X, use: str = "the lasso solver"):
    """``(X'X, X'Y, n, rows)`` of float arrays, ``rows()`` giving ``(X, Y)`` as one row
    block: the one place an n-row Gram is formed."""
    if X.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionError(f"incompatible shapes X {X.shape}, Y {Y.shape} for {use}")
    with np.errstate(over="ignore", invalid="ignore"):  # finite data can overflow: _gram says so
        return X.T @ X, X.T @ Y, X.shape[0], lambda: [(X, Y)]


def _unit_diagonal(G, error, what: str):
    """``(root, G / outer(root, root))``, ``root = sqrt(diag G)``; raises ``error`` unless
    that has full :func:`numeric_rank`.  Unit column norms bring cond(X) within sqrt(d)
    of its best column scaling (van der Sluis 1969), and make the rule unit-free."""
    root = np.sqrt(np.diagonal(G))
    if np.all(root > 0.0):
        scaled = G / np.outer(root, root)
        if numeric_rank(scaled) == G.shape[0]:
            return root, scaled
    raise error(f"{what} is numerically singular")


def _ols(G, c, n, rows) -> np.ndarray:
    """:func:`ols` from ``G = X'X``, ``c = X'Y`` of the n rows ``rows()`` gives as ``(X, Y)``
    blocks; the refinement reads a block at a time."""
    G, b = _gram(G, c, n)
    root, scaled = _unit_diagonal(G, SingularDesignError, f"design with shape {(n, G.shape[0])}")
    beta = np.linalg.solve(scaled, b / root) / root
    r = reduce(np.add, (X.T @ (Y - X @ beta) for X, Y in rows())) / n
    return beta + np.linalg.solve(scaled, r / root) / root


def build_second_stage(data: Dataset, mu_hat) -> SecondStageDesign:
    """Squared residuals and row-wise transformed design for stage two."""
    return SecondStageDesign(ysig=_squared_residuals(data, mu_hat), xsig=v_transform_rows(data.X))


def _squared_residuals(data: Dataset, mu_hat) -> np.ndarray:
    """Squared first-stage residuals at ``mu_hat``, which must have length p."""
    mu_hat = np.asarray(mu_hat, dtype=float).reshape(-1)
    if mu_hat.shape[0] != data.p:
        raise DimensionError(f"mu_hat must have length {data.p}, got {mu_hat.shape[0]}")
    resid = data.Y - data.X @ mu_hat
    return resid * resid


def _design_blocks(X, ysig):
    """``rows()`` giving ``(v_transform_rows(X), ysig)`` in ``_BLOCK_ROWS``-row blocks,
    formed anew on each call unless there is just one."""
    if X.shape[0] <= _BLOCK_ROWS:
        block = [(v_transform_rows(X), ysig)]
        return lambda: block
    blocks = [slice(s, s + _BLOCK_ROWS) for s in range(0, X.shape[0], _BLOCK_ROWS)]
    return lambda: ((v_transform_rows(X[r]), ysig[r]) for r in blocks)


@dataclass(frozen=True)
class SecondStage:
    """Stage two of one dataset: first-stage fit ``mu_hat``, squared residuals
    ``ysig`` on ``v_transform_rows(X)`` (formed in row blocks, not kept), their
    least squares fit ``init`` (weights 1/|init|), ``penalize_mask`` and their
    Gram form ``G``, ``b``, read by the solver methods.  The intercept variance
    (position 0) is unpenalized unless requested: the intercept coefficient soaks
    up any additive error term, so shrinking its variance to zero is rarely wanted.
    """

    mu_hat: np.ndarray
    ysig: np.ndarray
    init: np.ndarray
    penalize_mask: np.ndarray
    G: np.ndarray
    b: np.ndarray

    @classmethod
    def from_data(cls, data: Dataset, penalize_intercept_variance: bool = False) -> "SecondStage":
        d = half_dim(data.p)
        if data.n < d:
            raise SingularDesignError(
                f"second stage needs n >= p(p+1)/2 = {d} observations, got {data.n}; "
                "no pseudo-inverse fallback is provided, collect more data or drop "
                "covariates"
            )
        mu_hat = ols(data.Y, data.X)
        ysig = _squared_residuals(data, mu_hat)
        rows = _design_blocks(data.X, ysig)
        with np.errstate(over="ignore", invalid="ignore"):
            G, c = (reduce(np.add, t) for t in zip(*(_cross(Y, X)[:2] for X, Y in rows())))
        mask = np.ones(d, dtype=bool)
        mask[0] = penalize_intercept_variance
        cross = G, c, data.n, rows
        return cls(mu_hat, ysig, _ols(*cross), mask, *_gram(*cross))

    def lambda_max(self) -> float:
        """:func:`lambda_max` of this stage."""
        return _lambda_max(self.G, self.b, self.init, self.penalize_mask)

    def path(self, grid) -> list[LassoSolution]:
        """:func:`lambda_path` of this stage."""
        return _walk(self.G, self.b, self.init, self.penalize_mask, grid)

    def moment_fit(self, sol: LassoSolution) -> MomentFit:
        """Moments from a solution; :class:`ConvergenceError` unless it converged."""
        if not sol.converged:
            raise ConvergenceError(f"adaptive lasso did not converge at lambda={sol.lam:.6g} after "
                                   f"{sol.iterations} breakpoints (KKT residual {sol.kkt_residual:.3g})")
        Sigma_hat = unvec_half(sol.beta, self.mu_hat.shape[0])
        return MomentFit(self, sol, Sigma_hat, bool(min_eigenvalue(Sigma_hat) >= -PSD_TOL))


def _levels(grid) -> np.ndarray:
    """``grid`` as a float array of penalty levels, each finite and nonnegative."""
    grid = np.asarray(grid, dtype=float).reshape(-1)
    bad = grid[~(np.isfinite(grid) & (grid >= 0.0))]
    if bad.size:
        raise DomainError(f"lambda must be finite and nonnegative, got {bad[0]}")
    return grid


def _penalty(init, penalize_mask, d: int):
    """``(scale, excluded)``; coordinate k's threshold at level lam is ``lam / scale[k]``.

    ``scale`` is |init| where penalized and infinite where not; excluded
    coordinates (penalized, zero initial estimate) are fixed at zero.
    """
    init = np.asarray(init, dtype=float).reshape(-1)
    if init.shape[0] != d:
        raise DimensionError(f"init must have length {d}, got {init.shape[0]}")
    if penalize_mask is None:
        penalized = np.ones(d, dtype=bool)
    else:
        penalized = np.asarray(penalize_mask, dtype=bool).reshape(-1)
        if penalized.shape[0] != d:
            raise DimensionError(
                f"penalize_mask must have length {d}, got {penalized.shape[0]}"
            )
    excluded = penalized & (init == 0.0)
    weighted = penalized & ~excluded
    scale = np.full(d, np.inf)
    scale[weighted] = np.abs(init[weighted])
    return scale, excluded


def _gram(G, c, n, *_rows):
    """Validated Gram form ``(X'X/n, X'Y/n)`` of the least squares loss, from :func:`_cross`."""
    G, b = G / n, c / n
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
        raise DomainError("the data are finite, but their cross products overflow; "
                          "rescale the covariates")
    return G, b


def _violations(grad, beta, thr, optimized):
    """Per-coordinate stationarity violation; ``grad`` is 2/n X'(Xb - y)."""
    weighted = np.where(beta != 0.0, np.abs(grad + 2.0 * thr * np.sign(beta)),
                        np.maximum(0.0, np.abs(grad) - 2.0 * thr))
    return np.where(optimized, np.where(thr > 0.0, weighted, np.abs(grad)), 0.0)


def kkt_residual(Y, X, beta, cfg: AdaLassoConfig) -> float:
    """Stationarity residual recomputed from the raw data.

    Independent of the solver's internal Gram bookkeeping; a converged
    solution satisfies ``kkt_residual <= KKT_TOL * max(1, max|X'Y/n|)`` up
    to round-off.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    lam, = _levels([cfg.lam])
    scale, excluded = _penalty(cfg.init, cfg.penalize_mask, X.shape[1])
    grad = (2.0 / X.shape[0]) * (X.T @ (X @ beta - Y))
    return float(_violations(grad, beta, lam / scale, ~excluded).max(initial=0.0))


@dataclass(frozen=True)
class _Segment:
    """Stretch of the exact path, down to ``lo``, with a fixed active set.

    There ``beta[active] = alpha - lam * gamma``, other coordinates are zero
    and the correlation ``b - G beta`` is ``a + lam * e``.
    """

    lo: float
    active: np.ndarray
    sign: np.ndarray
    inactive: np.ndarray  # penalized coordinates outside the active set
    alpha: np.ndarray
    gamma: np.ndarray
    a: np.ndarray
    e: np.ndarray

    def reaches(self, lam: float, scale) -> bool:
        """Whether this segment holds the solution at ``lam``.

        True down to ``lo``, and wherever the KKT conditions hold exactly
        (active signs kept, no inactive correlation above its threshold), so
        a level within round-off of ``lo`` keeps its exact zeros.
        """
        if lam >= self.lo:
            return True
        k = self.inactive
        return bool(
            np.all(self.sign * (self.alpha - lam * self.gamma) >= 0.0)
            and np.all(np.abs(self.a[k] + lam * self.e[k]) <= lam / scale[k])
        )


def _segments(G, b, scale, excluded):
    """Segments of the exact path from lam = inf down to 0; ``send(True)``
    refactors the active-set inverse and yields the current segment again.

    Homotopy of Osborne, Presnell and Turlach (2000), the lasso variant of
    LARS (Efron et al. 2004), in weighted form.  With active set A and signs
    s fixed, ``G_AA beta_A = b_A - lam w_A s_A`` (w = 1/scale) makes beta_A
    linear in lam.  The next breakpoint is the largest lower lam at which an
    inactive correlation reaches ``lam w_k`` (k joins) or an active
    penalized coordinate reaches zero (k leaves).  A coordinate that just
    joined cannot leave, nor one that just left rejoin on the same side,
    within the next segment: that event sits at the segment's top.

    ``inv(G_AA)`` is kept, A in join order: a joining coordinate borders it
    (pivot ``g_kk - g_kA G_AA^-1 g_Ak``), a leaving one is downdated out.
    The scale-free rank test runs once, on the Gram over the coordinates not
    excluded: by eigenvalue interlacing every G_AA on the path passes it too.
    """
    w = 1.0 / scale
    penalized = ~excluded & (w > 0.0)
    free = np.flatnonzero(~excluded)
    _unit_diagonal(G[np.ix_(free, free)], SingularGramError,
                   "Gram matrix over the coordinates the path may activate")
    A = np.flatnonzero(~excluded & ~penalized)  # unpenalized coordinates never leave
    Ginv = np.linalg.inv(G[np.ix_(A, A)])
    sign = np.zeros(b.shape[0])
    hi = np.inf
    joined, left, left_side = -1, -1, 0.0
    while True:
        out = np.flatnonzero(penalized & (sign == 0.0))
        coef = Ginv @ np.array([b[A], w[A] * sign[A]]).T
        alpha, gamma = coef.T
        a, e = coef.T @ G[A]  # G[A] is G[:, A] transposed: G is symmetric
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
        if (yield _Segment(lo, A, sign[A], out, alpha, gamma, a, e)):
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


def _walk(G, b, init, penalize_mask, grid) -> list[LassoSolution]:
    """Solutions at the descending levels ``grid`` from one walk down the path
    of the Gram form ``(G, b)``, with weights from ``init`` and ``penalize_mask``.

    A level is read off the first segment that reaches it; it has converged
    when its KKT residual is at most ``KKT_TOL * max(1, max|b|)``.  A level
    above that is read once more after refactoring the kept inverse from
    ``G_AA``, in case round-off has built up in the updates.  After
    ``MAX_BREAKPOINTS`` breakpoints the walk stops; later levels get the
    exact solution at the last breakpoint, with ``converged=False``.
    """
    scale, excluded = _penalty(init, penalize_mask, G.shape[0])
    grid = _levels(grid)
    if grid.size == 0:
        raise DimensionError("lambda grid must be nonempty")
    if np.any(np.diff(grid) > 0):
        raise DomainError("lambda grid must be sorted in descending order")
    tol = KKT_TOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    segments = _segments(G, b, scale, excluded)
    seg = next(segments)
    budget = MAX_BREAKPOINTS
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
            kkt = float(_violations(grad, beta, lam / scale, ~excluded).max(initial=0.0))
            if refactored or not reached or kkt <= tol:
                break
            seg, refactored = segments.send(True), True
        budget -= steps
        solutions.append(LassoSolution(
            beta=beta, active_set=np.flatnonzero(beta != 0.0), kkt_residual=kkt,
            iterations=steps, converged=reached and kkt <= tol, lam=lam,
        ))
    return solutions


def adaptive_lasso(Y, X, cfg: AdaLassoConfig) -> LassoSolution:
    """Weighted-l1 least squares at one penalty level, by the exact path.

    Minimizes (1/n)||Y - X b||^2 + 2 lam sum_k |b_k| / |cfg.init_k| over the
    coordinates not excluded by a zero initial estimate, walking the path
    of :func:`lambda_path` from the top down to ``cfg.lam``.  Passing
    ``MAX_BREAKPOINTS`` breakpoints first returns the exact solution at the
    last one with ``converged=False`` rather than raising; a numerically
    singular active Gram raises :class:`SingularGramError`.
    """
    return _walk(*_gram(*_cross(*_finite(Y, X))), cfg.init, cfg.penalize_mask, [cfg.lam])[0]


def lambda_max(Y, X, init, penalize_mask=None) -> float:
    """Smallest penalty level at which every penalized coordinate is zero.

    It is the first breakpoint of the exact path, computed by the same code,
    so a :func:`lambda_path` grid that starts at it gives exact zeros there.
    """
    return _lambda_max(*_gram(*_cross(*_finite(Y, X))), init, penalize_mask)


def _lambda_max(G, b, init, penalize_mask) -> float:
    return float(next(_segments(G, b, *_penalty(init, penalize_mask, G.shape[0]))).lo)


def lambda_path(Y, X, cfg: AdaLassoConfig, grid) -> list[LassoSolution]:
    """Exact solutions along a descending grid of penalty levels.

    One walk down the exact path serves the whole grid; ``cfg.lam`` is
    not read.
    """
    return _walk(*_gram(*_cross(*_finite(Y, X))), cfg.init, cfg.penalize_mask, grid)


def witness_check(X, Y, S, lam, init, beta_star=None, agreement_tol=1e-6) -> WitnessReport:
    """Certify exact support recovery of the weighted-l1 solution on S.

    Evaluates the closed-form candidate restricted to S together with the
    strict dual feasibility condition on the complement.  In simulation
    mode (``beta_star`` given, supported on S) the noise is Y - X beta_star
    and signs come from the truth; otherwise both are taken from the
    restricted least squares fit.  When the certificate holds, the solver is
    run and must agree with the closed form within ``agreement_tol``.

    Raises
    ------
    WitnessContradictionError
        If the certificate holds but the solver solution differs; this
        indicates a solver defect.
    """
    Y, X = _finite(Y, X)
    n, p = X.shape
    S = np.asarray(S, dtype=int).reshape(-1)
    if S.size > n:
        raise DimensionError(f"|S|={S.size} exceeds the sample size {n}")
    lam, = _levels([lam])
    scale, excluded = _penalty(init, None, p)
    if np.any(excluded[S]):
        raise DomainError("initial estimate vanishes on the candidate support")
    mask = np.zeros(p, dtype=bool)
    mask[S] = True
    Sc = np.flatnonzero(~mask)
    Xs = X[:, S]
    Gs = Xs.T @ Xs
    _unit_diagonal(Gs, SingularDesignError, "design restricted to S")
    if beta_star is not None:
        beta_star = np.asarray(beta_star, dtype=float).reshape(-1)
        if beta_star.shape[0] != p:
            raise DimensionError(
                f"beta_star must have length {p}, got {beta_star.shape[0]}"
            )
        if np.any(beta_star[Sc] != 0.0):
            raise DomainError("beta_star must be supported on S")
        if np.any(beta_star[S] == 0.0):
            raise DomainError("beta_star must be nonzero on S")
        target = beta_star[S]
        eps = Y - Xs @ target
    else:
        target = np.linalg.solve(Gs, Xs.T @ Y)
        eps = Y - Xs @ target
    signs = np.sign(target)

    weighted_signs = lam * signs / scale[S]
    correction = np.linalg.solve(Gs / n, (Xs.T @ eps) / n - weighted_signs)
    beta_tilde = target + correction

    proj_eps = eps - Xs @ np.linalg.solve(Gs, Xs.T @ eps)
    lhs = X[:, Sc].T @ Xs @ np.linalg.solve(Gs, weighted_signs) + (X[:, Sc].T @ proj_eps) / n
    rhs = np.where(excluded[Sc], np.inf, lam / scale[Sc])
    condition1 = bool(np.all(np.abs(lhs) < rhs))
    sign_match = bool(np.all(np.sign(beta_tilde) == signs) and np.all(signs != 0.0))

    solution = None
    if condition1 and sign_match:
        solution = adaptive_lasso(Y, X, AdaLassoConfig(lam=lam, init=init))
        off_support_zero = bool(np.all(solution.beta[Sc] == 0.0))
        agrees = bool(np.max(np.abs(solution.beta[S] - beta_tilde)) <= agreement_tol)
        if not (off_support_zero and agrees):
            raise WitnessContradictionError(
                "certificate holds but the solver solution disagrees with the "
                "closed form"
            )
    return WitnessReport(
        condition1=condition1,
        sign_match=sign_match,
        beta_tilde=beta_tilde,
        solution=solution,
    )


def fit_moments(data: Dataset, lambda_sigma: float,
                penalize_intercept_variance: bool = False) -> MomentFit:
    """Full two-stage pipeline: means by OLS, covariance entries by adaptive lasso.

    Raises :class:`ConvergenceError` if the solution at ``lambda_sigma`` has
    not converged (see :class:`SecondStage`'s ``moment_fit``).
    """
    stage = SecondStage.from_data(data, penalize_intercept_variance)
    return stage.moment_fit(stage.path([lambda_sigma])[0])


def select_means(data: Dataset, lambda_mu: float) -> LassoSolution:
    """Adaptive-lasso selection of the coefficient means (intercept unpenalized).

    The initial estimate is OLS, solved from the same cross products as the lasso.
    """
    cross = _cross(data.Y, data.X)
    mask = np.ones(data.p, dtype=bool)
    mask[0] = False
    return _walk(*_gram(*cross), _ols(*cross), mask, [lambda_mu])[0]


def sandwich(data: Dataset, fit: MomentFit) -> SandwichEstimate:
    """Plug-in sandwich covariance of the selected covariance coordinates.

    The outer matrix is the stage's Gram ``G`` of the transformed design; the
    middle matrix reweights it by squared second-stage residuals, whose
    conditional mean matches the heteroscedastic noise level row by row.
    It is summed over row blocks of the fitted data's design, never held whole;
    data whose squared first-stage residuals differ from the stage's are refused.
    The reported block inverts the Gram restricted to the active set, which
    is the limit law of the selected coordinates.  Treat the output as a
    diagnostic: it ignores selection uncertainty, so it is not a basis for
    formal inference.
    """
    stage, beta = fit.stage, fit.solution.beta
    if data.n != stage.ysig.size or data.p != stage.mu_hat.size:
        raise DimensionError(f"data has n={data.n}, p={data.p} but the fit was made on "
                             f"n={stage.ysig.size}, p={stage.mu_hat.size}")
    if not np.array_equal(_squared_residuals(data, stage.mu_hat), stage.ysig):
        raise DomainError("data differ from those the fit was made on: their squared "
                          "residuals at its mu_hat are not the stage's")
    rows = _design_blocks(data.X, stage.ysig)
    b_hat = reduce(np.add, ((X * ((Y - X @ beta) ** 2)[:, None]).T @ X
                            for X, Y in rows())) / data.n
    b_hat = (b_hat + b_hat.T) / 2.0
    S = fit.solution.active_set
    if S.size == 0:
        return SandwichEstimate(b_hat=b_hat, avar_s=np.zeros((0, 0)), active_set=S)
    root, Css = _unit_diagonal(stage.G[np.ix_(S, S)], SingularGramError,
                               "Gram matrix restricted to the active set")
    scale = np.outer(root, root)
    inner = np.linalg.solve(Css, b_hat[np.ix_(S, S)] / scale)
    avar = np.linalg.solve(Css, inner.T).T / scale
    avar = (avar + avar.T) / 2.0
    return SandwichEstimate(b_hat=b_hat, avar_s=avar, active_set=S)
