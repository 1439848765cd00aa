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
Data reach the solvers, :class:`Dataset` and :func:`witness_check` by one door:
:func:`_data_blocks` refuses a caller's non-finite or mismatched ``(Y, X)`` before
any product, and :func:`_gram` forms the Gram form ``(X'X/n, X'Y/n)`` of any row
blocks, once per stage or per call, or with per-row weights W the form ``X'WX/n`` of
:func:`sandwich`'s middle matrix; it refuses every form that overflows.  Every Gram
matrix is judged once by one rank rule, :func:`_unit_diagonal`: a stage's walks rely
on the whole-Gram test of its least squares fit, and the raw-data solvers test the
coordinates not excluded.

The solver follows the exact piecewise-linear solution path in Gram form
(X'X/n, X'y/n): one walk serves a whole grid of levels, and a single level
is the same walk stopped early; it updates the inverse of the active Gram
block as coordinates join and leave.  A level has converged when the walk
reached it and its Gram KKT residual is at most ``KKT_TOL * max(1,
max|X'y/n|)``, after refactoring that inverse if need be.  The residual is in
the units of X'y/n, so the verdict does not depend on the response's units.
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
    is_number,
    number_array,
)
from .halfvec import half_dim, min_eigenvalue, numeric_rank, unvec_half, v_transform_rows

__all__ = [
    "Dataset",
    "SecondStageDesign",
    "SecondStage",
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
    "sandwich",
]

PSD_TOL = 1e-9
# Converged: Gram KKT residual <= KKT_TOL * max(1, max|X'y/n|) (module docstring).
KKT_TOL = 1e-8
# A certified witness agrees with the solver's solution on S within this bound.
WITNESS_TOL = 1e-6
# Most breakpoints one walk passes: a guard against a path that cycles.
MAX_BREAKPOINTS = 100_000
# Rows of the second-stage design formed at a time: 7.2 MB of floats at p=10.
_BLOCK_ROWS = 16384
_OVERFLOW = "the data are finite, but their cross products overflow; rescale the covariates"


@dataclass(frozen=True)
class Dataset:
    """n observations of (Y, X) where X carries a leading intercept column: refused by
    the solvers' rule (:func:`_data_blocks`), then unless n >= p and column 0 is all ones."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        (X, Y), = _data_blocks(self.Y, self.X, "a dataset")
        if X.shape[0] < X.shape[1]:
            raise DimensionError(f"need n >= p, got n={X.shape[0]}, p={X.shape[1]}")
        if X.shape[1] == 0 or not np.all(X[:, 0] == 1.0):
            raise DomainError("first column of X must be identically one")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @classmethod
    def from_covariates(cls, W, Y) -> "Dataset":
        """Build a dataset from raw covariates, prepending the intercept column."""
        W = number_array(W, "least squares needs finite X and Y")
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
    rows = _data_blocks(Y, X, "least squares")
    return _ols(*_gram(rows), rows)


def _data_blocks(Y, X, use: str = "the lasso solver"):
    """A caller's ``(Y, X)`` as one row block ``[(X, Y)]`` of float arrays, refused before any
    product unless arrays of numbers, then unless X is 2-D with as many rows as Y, at least one."""
    X, Y = (number_array(x, "least squares needs finite X and Y") for x in (X, Y))
    Y = Y.reshape(-1)
    if X.ndim != 2 or X.shape[0] != Y.shape[0] or X.shape[0] == 0:
        raise DimensionError(f"incompatible shapes X {X.shape}, Y {Y.shape} for {use}")
    return [(X, Y)]


def _gram(blocks):
    """``(X'WX/n, X'WY/n, n)`` over the n rows of ``(X, Y[, w])`` ``blocks``, W = diag(w) or I: the
    one place a Gram form is made from data.  Finite data whose products overflow are refused."""
    def products(X, Y, w=None):  # a block's weighted copy L dies with this call
        L = X if w is None else X * w[:, None]
        return L.T @ X, L.T @ Y, X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        XX, XY, rows = zip(*(products(*block) for block in blocks))
        n = sum(rows)
        G, b = reduce(np.add, XX) / n, reduce(np.add, XY) / n
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(b))):
        raise DomainError(_OVERFLOW)
    return G, b, n


def _vector(x, d: int, name: str, dtype=float) -> np.ndarray:
    """``x`` as a flat ``dtype`` array, a float one refused unless an array of numbers;
    :class:`DimensionError` unless of length ``d``."""
    x = (number_array(x, f"estimation needs a finite {name}") if dtype is float
         else np.asarray(x, dtype=dtype)).reshape(-1)
    if x.shape[0] != d:
        raise DimensionError(f"{name} must have length {d}, got {x.shape[0]}")
    return x


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


def _ols(G, b, n, rows) -> np.ndarray:
    """:func:`ols` from the :func:`_gram` form ``(G, b, n)`` of the ``(X, Y)`` row blocks
    ``rows``; the refinement reads a block at a time."""
    root, scaled = _unit_diagonal(G, SingularDesignError, f"design with shape {(n, G.shape[0])}")
    beta = np.linalg.solve(scaled, b / root) / root
    r = reduce(np.add, (X.T @ (Y - X @ beta) for X, Y in rows)) / n
    return beta + np.linalg.solve(scaled, r / root) / root


def build_second_stage(data: Dataset, mu_hat) -> SecondStageDesign:
    """Squared residuals and row-wise transformed design for stage two."""
    return SecondStageDesign(ysig=_squared_residuals(data, mu_hat), xsig=v_transform_rows(data.X))


def _squared_residuals(data: Dataset, mu_hat) -> np.ndarray:
    """Squared first-stage residuals at ``mu_hat``, which must have length p."""
    resid = data.Y - data.X @ _vector(mu_hat, data.p, "mu_hat")
    with np.errstate(over="ignore"):  # an infinite square is refused by stage two's _gram
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
        try:
            mu_hat = ols(data.Y, data.X)
            ysig = _squared_residuals(data, mu_hat)
            rows = _design_blocks(data.X, ysig)
            G, b, n = _gram(rows())
            init = _ols(G, b, n, rows())
        except SingularDesignError as exc:  # run only here, so a fit that succeeds pays nothing
            few = [(j, m) for j, m in enumerate((np.unique(w).size for w in data.X[:, 1:].T), 1)
                   if m < 3]
            if not few:
                raise
            raise SingularDesignError(f"{exc}: " + ", ".join(
                f"w{j} takes {m} distinct value{'s' * (m != 1)}" for j, m in few)
                + "; a covariate needs 3 for its variance to be identified; see rcreg bounds"
            ) from None
        mask = np.ones(d, dtype=bool)
        mask[0] = penalize_intercept_variance
        return cls(mu_hat, ysig, init, mask, G, b)

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
    grid = number_array(grid, "lambda must be finite and nonnegative").reshape(-1)
    bad = grid[grid < 0.0]
    if bad.size:
        raise DomainError(f"lambda must be finite and nonnegative, got {bad[0]}")
    return grid


def _penalty(init, penalize_mask, d: int):
    """``(scale, excluded)``; coordinate k's threshold at level lam is ``lam / scale[k]``.

    ``scale`` is |init| where penalized and infinite where not; excluded
    coordinates (penalized, zero initial estimate) are fixed at zero.
    """
    init = _vector(init, d, "init")
    penalized = (np.ones(d, dtype=bool) if penalize_mask is None
                 else _vector(penalize_mask, d, "penalize_mask", bool))
    excluded = penalized & (init == 0.0)
    weighted = penalized & ~excluded
    scale = np.full(d, np.inf)
    scale[weighted] = np.abs(init[weighted])
    return scale, excluded


def _violations(grad, beta, thr, optimized):
    """Per-coordinate stationarity violation (|grad| where ``thr`` is 0); grad = 2/n X'(Xb - y)."""
    weighted = np.where(beta != 0.0, np.abs(grad + 2.0 * thr * np.sign(beta)),
                        np.maximum(0.0, np.abs(grad) - 2.0 * thr))
    return np.where(optimized, weighted, 0.0)


def kkt_residual(Y, X, beta, lam, init, penalize_mask=None) -> float:
    """Stationarity residual of ``beta`` at level ``lam``, recomputed from the raw data.

    Independent of the solver's internal Gram bookkeeping; non-finite data or ``beta``
    are refused before any product, overflowing ones after.  A converged solution
    satisfies ``kkt_residual <= KKT_TOL * max(1, max|X'Y/n|)`` up to round-off.
    """
    (X, Y), = _data_blocks(Y, X)
    beta = _vector(beta, X.shape[1], "beta")
    lam, = _levels([lam])
    scale, excluded = _penalty(init, penalize_mask, X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        grad = (2.0 / X.shape[0]) * (X.T @ (X @ beta - Y))
    if not np.all(np.isfinite(grad)):
        raise DomainError(_OVERFLOW)
    return float(_violations(grad, beta, lam / scale, ~excluded).max(initial=0.0))


@dataclass(slots=True)
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
        return bool((self.sign * (self.alpha - lam * self.gamma) >= 0.0).all()
                    and (np.abs(self.a[k] + lam * self.e[k]) <= lam / scale[k]).all())


def _segments(G, b, scale, excluded):
    """Segments of the exact path from lam = inf down to 0; ``send(True)``
    refactors the active-set inverse and yields the current segment again.

    Homotopy of Osborne, Presnell and Turlach (2000), the lasso variant of
    LARS (Efron et al. 2004), in weighted form.  With active set A and signs
    s fixed, ``G_AA beta_A = b_A - lam w_A s_A`` (w = 1/scale) makes beta_A
    linear in lam.  The next breakpoint is the largest lower lam at which an
    inactive correlation reaches ``lam w_k`` (k joins) or an active
    penalized coordinate reaches zero (k leaves).  A coordinate that just left
    may not rejoin on the same side within the next segment: that event sits
    at the segment's top.  One that just joined needs no such bar (the sign
    condition of LARS): k joins on side s only where ``w_k - s e_k > 0``, and
    bordering gives ``s gamma_k = (w_k - s e_k) / pivot > 0``, so the leave test
    ``s gamma_k < 0`` passes it over but for rounding.

    ``inv(G_AA)`` and ``G[A]`` are kept, A in join order: a joining coordinate
    borders the inverse (pivot ``g_kk - g_kA G_AA^-1 g_Ak``), a leaving one is
    downdated out.  No rank test runs here: by eigenvalue interlacing, the
    callers' test of G where not excluded covers every G_AA on the path.
    """
    w = 1.0 / scale
    penalized = ~excluded & (w > 0.0)
    A = np.flatnonzero(~excluded & ~penalized)  # unpenalized coordinates never leave
    Ginv = np.linalg.inv(G[np.ix_(A, A)])
    GA = G[A]  # G[:, A] transposed: G is symmetric
    sign, never = np.zeros_like(b), np.full_like(b, -np.inf)  # never: no event level
    hi, left, left_side = np.inf, -1, 0.0
    while True:
        sA, waiting = sign[A], penalized & (sign == 0.0)  # sA is 0 where unpenalized
        coef = Ginv @ np.array([b[A], w[A] * sA]).T
        alpha, gamma = coef.T
        a, e = coef.T @ GA
        a = b - a
        up = np.divide(a, w - e, out=never.copy(), where=waiting & (w - e > 0.0))
        down = np.divide(-a, w + e, out=never.copy(), where=waiting & (w + e > 0.0))
        if left_side:  # the coordinate that just left may not rejoin on its old side
            (up if left_side > 0.0 else down)[left] = -np.inf
        leave = np.divide(alpha, gamma, out=never[:A.size].copy(), where=sA * gamma < 0.0)
        join = np.maximum(up, down)
        lam_in, lam_out = join.max(initial=-np.inf), leave.max(initial=-np.inf)
        lo = min(max(lam_in, lam_out, 0.0), hi)
        if (yield _Segment(lo, A, sA, waiting.nonzero()[0], alpha, gamma, a, e)):
            Ginv = np.linalg.inv(G[np.ix_(A, A)])
            continue
        if lo <= 0.0:
            return
        if lam_in >= lam_out:
            k = int(join.argmax())
            v = Ginv @ G[A, k]
            u = np.concatenate((-v, (1.0,)))
            Ginv, old = u[:, None] * (u / (G[k, k] - G[k, A] @ v)), Ginv
            Ginv[:-1, :-1] += old
            A, GA = np.concatenate((A, (k,))), np.concatenate((GA, G[k:k + 1]))
            sign[k] = 1.0 if up[k] >= down[k] else -1.0
            left, left_side = -1, 0.0
        else:
            j = int(leave.argmax())
            k, keep = A[j], A != A[j]
            c = Ginv[j, keep]
            Ginv = Ginv[keep][:, keep] - c[:, None] * (c / Ginv[j, j])
            A, GA = A[keep], GA[keep]
            left, left_side = k, sign[k]
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
    segments, free = _segments(G, b, scale, excluded), ~excluded
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
            beta = np.zeros(b.shape[0])
            beta[seg.active] = seg.alpha - (lam if reached else seg.lo) * seg.gamma
            grad = 2.0 * (G @ beta - b)
            kkt = float(_violations(grad, beta, lam / scale, free).max(initial=0.0))
            if refactored or not reached or kkt <= tol:
                break
            seg, refactored = segments.send(True), True
        budget -= steps
        solutions.append(LassoSolution(
            beta=beta, active_set=(beta != 0.0).nonzero()[0], kkt_residual=kkt,
            iterations=steps, converged=reached and kkt <= tol, lam=lam,
        ))
    return solutions


def adaptive_lasso(Y, X, lam, init, penalize_mask=None) -> LassoSolution:
    """Weighted-l1 least squares at one penalty level, by the exact path.

    Minimizes (1/n)||Y - X b||^2 + 2 lam sum_k |b_k| / |init_k| over the
    coordinates not excluded by a zero initial estimate, walking the path
    of :func:`lambda_path` from the top down to ``lam``.  Coordinates where
    ``penalize_mask`` is False are unpenalized; None penalizes all.  Passing
    ``MAX_BREAKPOINTS`` breakpoints first returns the exact solution at the
    last one with ``converged=False`` rather than raising; a numerically
    singular active Gram raises :class:`SingularGramError`.
    """
    return _walk(*_walk_args(_gram(_data_blocks(Y, X)), init, penalize_mask), [lam])[0]


def lambda_max(Y, X, init, penalize_mask=None) -> float:
    """Smallest penalty level at which every penalized coordinate is zero.

    It is the first breakpoint of the exact path, computed by the same code,
    so a :func:`lambda_path` grid that starts at it gives exact zeros there.
    """
    return _lambda_max(*_walk_args(_gram(_data_blocks(Y, X)), init, penalize_mask))


def _walk_args(form, init, penalize_mask):
    """``(G, b, init, penalize_mask)`` for a walk from the :func:`_gram` ``form`` of raw
    data, G rank-tested where not excluded."""
    G, b, _ = form
    free = np.flatnonzero(~_penalty(init, penalize_mask, G.shape[0])[1])
    _unit_diagonal(G[np.ix_(free, free)], SingularGramError,
                   "Gram matrix over the coordinates the path may activate")
    return G, b, init, penalize_mask


def _lambda_max(G, b, init, penalize_mask) -> float:
    return float(next(_segments(G, b, *_penalty(init, penalize_mask, G.shape[0]))).lo)


def lambda_path(Y, X, grid, init, penalize_mask=None) -> list[LassoSolution]:
    """Exact solutions along a descending grid of penalty levels, from one walk down the path."""
    return _walk(*_walk_args(_gram(_data_blocks(Y, X)), init, penalize_mask), grid)


def witness_check(X, Y, S, lam, init, beta_star=None) -> WitnessReport:
    """Certify exact support recovery of the weighted-l1 solution on S.

    The certificate is read from the Gram form ``(G, b)`` the solver walks.
    Signs ``s`` come from ``beta_star`` (given, supported on S) or else from
    the restricted least squares fit ``G_SS^-1 b_S``; with ``w = lam * s /
    |init_S|`` the closed-form candidate on S is ``beta_tilde = G_SS^-1 (b_S -
    w)``, and strict dual feasibility asks ``|(b - G beta_tilde)_k| < lam /
    |init_k|`` off S (vacuous where init is zero).  Both are the noise forms:
    for any ``t`` on S and noise ``eps = Y - X_S t``, ``t + G_SS^-1 (X_S' eps / n
    - w) = G_SS^-1 (b_S - w)``, so ``beta_star`` contributes only its signs.
    When the certificate holds, the solver walks the same ``(G, b)`` and must
    agree with the closed form within ``WITNESS_TOL``.

    Raises
    ------
    WitnessContradictionError
        If the certificate holds but the solver solution differs; this
        indicates a solver defect.
    """
    G, b, n = form = _gram(_data_blocks(Y, X))
    p = G.shape[0]
    entries = np.asarray(S, dtype=object).reshape(-1).tolist()
    if len(entries) > n:
        raise DimensionError(f"|S|={len(entries)} exceeds the sample size {n}")
    if not all(is_number(v) and v == int(v) for v in entries) or len(set(entries)) < len(entries):
        raise DomainError(f"S must hold distinct whole column indices, got {entries}")
    if not all(0 <= v < p for v in entries):
        raise DimensionError(f"S must index the {p} columns of X, got {entries}")
    S = np.array(entries, dtype=int)
    lam, = _levels([lam])
    scale, excluded = _penalty(init, None, p)
    if np.any(excluded[S]):
        raise DomainError("initial estimate vanishes on the candidate support")
    Sc = np.setdiff1d(np.arange(p), S)
    root, scaled = _unit_diagonal(G[np.ix_(S, S)], SingularDesignError, "design restricted to S")
    if beta_star is not None:
        beta_star = _vector(beta_star, p, "beta_star")
        if np.any(beta_star[Sc] != 0.0):
            raise DomainError("beta_star must be supported on S")
        if np.any(beta_star[S] == 0.0):
            raise DomainError("beta_star must be nonzero on S")
        signs = np.sign(beta_star[S])
    else:
        signs = np.sign(np.linalg.solve(scaled, b[S] / root) / root)

    beta_tilde = np.linalg.solve(scaled, (b[S] - lam * signs / scale[S]) / root) / root
    lhs = b[Sc] - G[np.ix_(Sc, S)] @ beta_tilde
    rhs = np.where(excluded[Sc], np.inf, lam / scale[Sc])
    condition1 = bool(np.all(np.abs(lhs) < rhs))
    sign_match = bool(np.all(np.sign(beta_tilde) == signs) and np.all(signs != 0.0))

    solution = None
    if condition1 and sign_match:
        solution = _walk(*_walk_args(form, init, None), [lam])[0]
        off_support_zero = bool(np.all(solution.beta[Sc] == 0.0))
        agrees = bool(np.max(np.abs(solution.beta[S] - beta_tilde), initial=0.0) <= WITNESS_TOL)
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


def fit_moments(data: Dataset, lambda_sigma: float) -> MomentFit:
    """Full two-stage pipeline: means by OLS, covariance entries by adaptive lasso.

    Raises :class:`ConvergenceError` if the solution at ``lambda_sigma`` has
    not converged (see :class:`SecondStage`'s ``moment_fit``).  The intercept
    variance is unpenalized; ``SecondStage.from_data`` can penalize it.
    """
    stage = SecondStage.from_data(data)
    return stage.moment_fit(stage.path([lambda_sigma])[0])


def sandwich(data: Dataset, fit: MomentFit) -> SandwichEstimate:
    """Plug-in sandwich covariance of the selected covariance coordinates.

    The outer matrix is the stage's Gram ``G`` of the transformed design; the
    middle matrix reweights it by squared second-stage residuals, whose
    conditional mean matches the heteroscedastic noise level row by row.
    It is the weighted :func:`_gram` of row blocks of the fitted data's design,
    never held whole, and refused by :class:`DomainError` if it overflows;
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
    b_hat = _gram((Z, Z[:, :0], (y - Z @ beta) ** 2)  # no Y: Z'W ysig would overflow first
                  for Z, y in _design_blocks(data.X, stage.ysig)())[0]
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
