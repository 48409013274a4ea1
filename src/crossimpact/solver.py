"""Expected-cost-minimizing liquidation strategies.

The execution cost of a deterministic strategy is the quadratic form
``1/2 xi . Gram . xi`` assembled from the kernel's two-sided extension; a
strategy is optimal for its liquidation constraint exactly when the impact
it accumulates, ``sum_l tilde(t_k - t_l) xi_l``, is the same vector at every
trade time (the Lagrange condition).  This module provides the generic KKT
solve, the closed-form solution for matrix-exponential decay, the
diagonalization route for commuting kernels, buy-only/sell-only basis
strategies, and dyadic grid refinement toward the continuous-time optimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
import numpy as np
import scipy.linalg

from .grids import TimeGrid, equidistant_grid
from .kernels import (
    DecayKernel,
    ExpDecay,
    MatrixExpKernel,
    MatrixFunctionKernel,
    RATE_FLOOR,
    _maxabs,
    _min_eigenpair,
    check_shape_properties,
    check_structure,
)
from .posdef import (
    PSD_REL_TOL,
    _fill_gram,
    _gram_lags,
    _shifted_cholesky,
    assemble_gram,
    classify_positive_definite,
)

__all__ = [
    "Strategy",
    "SolveResult",
    "BasisDecomposition",
    "RefineResult",
    "UnboundedCostError",
    "cost",
    "solve_kkt",
    "lagrange_residual",
    "solve_exp_closed_form",
    "solve_1d_exp",
    "simultaneous_diagonalize",
    "solve_commuting",
    "basis_strategies",
    "refine",
    "solve_best",
]

RESIDUAL_REL_TOL = 1e-8
LIQUIDATION_TOL = 1e-10
# the preconditioned CG solve of a strict Gram stops once
# max|A^T - Gram Y| <= PCG_RES_FACTOR * NK * eps * (1 + max|Gram|) * (1 + max|Y|),
# and raises if that takes more than PCG_MAX_STEPS steps
PCG_RES_FACTOR = 1.0
PCG_MAX_STEPS = 50
# solve_best's cross-check: the route's trades may differ from the KKT
# reference by CROSS_CHECK_REL_TOL * (1 + max|xi_kkt|) in the max norm
CROSS_CHECK_REL_TOL = 1e-8
# refine: a finer level may exceed the coarser cost by this fraction of it
REFINE_MONOTONE_SLACK = 1e-10
# simultaneous_diagonalize: largest off-diagonal leakage of a rotated sample,
# relative to 1 + max|G(t)|
DIAGONAL_LEAK_TOL = 1e-9


class UnboundedCostError(ValueError):
    """The Gram on this grid has a negative direction: cost is unbounded below."""

    def __init__(self, message, direction=None, min_eig=None):
        super().__init__(message)
        self.direction = direction
        self.min_eig = min_eig


@dataclass(frozen=True)
class Strategy:
    """Trade sizes per grid time and asset; positive entries are buys."""

    trades: np.ndarray  # (N, K)
    grid: TimeGrid

    def __post_init__(self):
        trades = np.asarray(self.trades, dtype=float)
        if trades.ndim == 1:
            trades = trades[:, None]
        if trades.shape[0] != self.grid.n:
            raise ValueError(
                f"strategy has {trades.shape[0]} trades for a grid of {self.grid.n} times"
            )
        if not np.all(np.isfinite(trades)):
            raise ValueError("trades must be finite")
        trades = trades.copy()
        trades.setflags(write=False)
        object.__setattr__(self, "trades", trades)

    @property
    def dimension(self) -> int:
        return self.trades.shape[1]

    @property
    def liquidates(self) -> np.ndarray:
        """The initial portfolio this strategy liquidates: ``-sum_k xi_k``."""
        return -self.trades.sum(axis=0)


@dataclass(frozen=True)
class SolveResult:
    strategy: Strategy
    lam: np.ndarray  # Lagrange multiplier, one entry per asset
    cost: float
    unique: bool
    residual: float  # max_k || sum_l tilde(t_k-t_l) xi_l - lam ||_inf


@dataclass(frozen=True)
class BasisDecomposition:
    """Orthonormal directions v_i and one optimal strategy liquidating each.

    ``vectors[i]`` is v_i (a row), ``strategies[i]`` liquidates v_i with
    sign-constant components, and ``rotation`` is the orthogonal matrix whose
    rows are the v_i (the kernel diagonalizes as rotation^T diag rotation).
    """

    vectors: np.ndarray  # (K, K), row i = v_i
    strategies: tuple  # K strategies
    rotation: np.ndarray  # (K, K)


@dataclass(frozen=True)
class RefineResult:
    levels: tuple  # ((N, cost), ...) per dyadic level
    finest: SolveResult


def _kernel_trades(kernel: DecayKernel, grid: TimeGrid, strategy) -> np.ndarray:
    """A strategy's (N, K) trades, checked against the grid and the kernel."""
    if isinstance(strategy, Strategy):
        trades = strategy.trades
    else:
        trades = np.asarray(strategy, dtype=float)
        if trades.ndim == 1:
            trades = trades[:, None]
    if trades.shape[0] != grid.n:
        raise ValueError("strategy and grid sizes do not match")
    if trades.shape[1] != kernel.dimension:
        raise ValueError(
            f"strategy trades {trades.shape[1]} assets but the kernel is "
            f"{kernel.dimension}-dimensional"
        )
    return trades


def cost(kernel: DecayKernel, grid: TimeGrid, strategy) -> float:
    """Expected execution cost ``1/2 xi . Gram . xi`` of a strategy."""
    trades = _kernel_trades(kernel, grid, strategy)
    return 0.5 * assemble_gram(kernel, grid).quadratic_form(trades)


def lagrange_residual(kernel: DecayKernel, grid: TimeGrid, strategy):
    """Optimality certificate for a liquidating strategy.

    Returns ``(lambda_hat, residual)`` where ``lambda_hat`` is the mean over
    trade times of the accumulated-impact vectors and ``residual`` their
    maximum deviation from it; a residual of (numerical) zero certifies
    optimality for the portfolio the strategy liquidates.
    """
    trades = _kernel_trades(kernel, grid, strategy)
    impact = assemble_gram(kernel, grid).impact(trades)
    lambda_hat = impact.mean(axis=0)
    residual = float(np.max(np.abs(impact - lambda_hat))) if grid.n else 0.0
    return lambda_hat, residual


def _portfolio(kernel: DecayKernel, x0) -> np.ndarray:
    """``x0`` as a 1-D float array, checked to hold K finite positions."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (kernel.dimension,):
        raise ValueError(f"x0 must have {kernel.dimension} components")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def _check_result(grid, trades, lam, x0, unique, impact: np.ndarray, slack=0.0) -> SolveResult:
    """Wrap a solved strategy, enforcing the certificate tolerances on the
    impact (N, K) it accumulates, whose entries are exact to within ``slack``."""
    colsum_err = _maxabs(trades.sum(axis=0) + x0)
    if colsum_err > LIQUIDATION_TOL * (1.0 + _maxabs(x0)):
        raise ArithmeticError(f"liquidation constraint violated by {colsum_err:.3e}")
    residual = float(np.max(np.abs(impact - lam))) + slack
    if residual > RESIDUAL_REL_TOL * (1.0 + _maxabs(lam)):
        raise ArithmeticError(
            f"Lagrange residual {residual:.3e} exceeds tolerance; the solve is unreliable"
        )
    half_form = 0.5 * float(np.vdot(trades, impact))
    return SolveResult(Strategy(trades, grid), lam, half_form, unique, residual)


def _pcg_solve(gram: np.ndarray, factor, rhs: np.ndarray, gram_max: float) -> np.ndarray:
    """Solve ``gram Y = rhs`` by conjugate gradients, one recurrence per
    column, preconditioned with the Cholesky ``factor`` of ``gram - tau I``.

    Starts from ``Y = factor^-1 rhs`` and stops on the true residual (see
    ``PCG_RES_FACTOR``).  Plain refinement ``Y += factor^-1 (rhs - gram Y)``
    contracts only by ``tau / (lambda_min - tau)`` and so diverges once
    ``lambda_min < 2 tau``; CG converges for every strict Gram.
    """
    def solve(b):
        return scipy.linalg.cho_solve(factor, b, check_finite=False)

    floor = PCG_RES_FACTOR * gram.shape[0] * np.finfo(float).eps * (1.0 + gram_max)
    Y = solve(rhs)
    R = rhs - gram @ Y
    P = rz_old = None
    for step in range(PCG_MAX_STEPS + 1):
        if _maxabs(R) <= floor * (1.0 + _maxabs(Y)):
            return Y
        if step == PCG_MAX_STEPS:
            break
        Z = solve(R)
        rz = np.einsum("ij,ij->j", R, Z)
        P = Z if P is None else Z + (rz / rz_old) * P
        Y += (rz / np.einsum("ij,ij->j", P, gram @ P)) * P
        R = rhs - gram @ Y
        rz_old = rz
    raise ArithmeticError(
        f"preconditioned CG stalled after {PCG_MAX_STEPS} steps with residual "
        f"{_maxabs(R):.3e}; the solve is unreliable"
    )


def _kkt_solve_gram(gram: np.ndarray, n: int, k: int, x0: np.ndarray):
    """Solve the equality-constrained quadratic program on an assembled Gram.

    Minimizes ``1/2 xi . Gram . xi`` subject to ``A xi = -x0``, where ``A``
    sums the N trade vectors, and returns ``(trades, lam, strict)``.  The
    Gram is strict when a Cholesky factorization of ``Gram - tau I``
    succeeds, ``tau = PSD_REL_TOL * (1 + max|Gram|)`` (the same decision as
    ``eigvalsh(Gram)[0] > tau``).  That factor is the only factorization of
    a strict Gram: it preconditions the CG solve of ``Gram Y = A^T`` (k
    right-hand sides, :func:`_pcg_solve`), then the k x k Schur complement
    ``S = A Y`` (the sum of Y's N blocks) gives ``lam = -S^-1 x0`` and
    ``xi = Y lam``.  Otherwise the smallest eigenpair decides: an eigenvalue
    below ``-tau`` raises :class:`UnboundedCostError` with its eigenvector as
    the direction, and a singular-but-PSD Gram gets the minimum-norm
    least-squares solution of the bordered system
    ``[[Gram, A^T], [A, 0]] [xi; -lam] = [0; -x0]``.
    """
    gram_max = _maxabs(gram)
    tol = PSD_REL_TOL * (1.0 + gram_max)
    # the factor reads the upper triangle; a filled Gram is exactly symmetric
    factor = _shifted_cholesky(gram, -tol)
    if factor is not None:
        Y = _pcg_solve(gram, factor, np.tile(np.eye(k), (n, 1)), gram_max)
        lam = -np.linalg.solve(Y.reshape(n, k, k).sum(axis=0), x0)
        return (Y @ lam).reshape(n, k), lam, True

    min_eig, direction = _min_eigenpair(gram)
    if min_eig < -tol:
        raise UnboundedCostError(
            f"Gram matrix has eigenvalue {min_eig:.3e}: cost unbounded below on this grid",
            direction=direction.reshape(n, k),
            min_eig=min_eig,
        )
    nk = n * k
    A = np.tile(np.eye(k), n)
    M = np.zeros((nk + k, nk + k))
    M[:nk, :nk] = gram
    M[:nk, nk:] = A.T
    M[nk:, :nk] = A
    rhs = np.zeros(nk + k)
    rhs[nk:] = -x0
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol[:nk].reshape(n, k), -sol[nk:], False


def solve_kkt(kernel: DecayKernel, grid: TimeGrid, x0, *, gram=None) -> SolveResult:
    """Optimal liquidation of ``x0`` on a grid by solving the KKT system.

    Solves the Gram (``gram`` if given, checked against the grid and the
    kernel's dimension, else assembled) with :func:`_kkt_solve_gram`.
    Raises :class:`UnboundedCostError` when the Gram is indefinite on the
    grid.  On a PSD-but-singular Gram the returned strategy is the
    minimum-norm optimizer and ``unique`` is False.
    """
    x0 = _portfolio(kernel, x0)
    if gram is None:
        gram = assemble_gram(kernel, grid)
    elif gram.dimension != kernel.dimension or not np.array_equal(gram.grid.times, grid.times):
        raise ValueError("the given Gram was not assembled on this grid and dimension")
    trades, lam, strict = _kkt_solve_gram(gram.blocks, grid.n, kernel.dimension, x0)
    return _check_result(grid, trades, lam, x0, strict, gram.impact(trades))


def _exp_recursion(A: np.ndarray, x0: np.ndarray):
    """Closed-form optimum for matrix-exponential decay.

    ``A`` stacks the gap propagators ``A_n = exp(-(t_n - t_{n-1}) B)`` for
    ``n = 2..N`` (1-based), shape (N-1, K, K).  Then
    ``lam = -[2(I+A_2)^-1 + sum_{n>2} (I-A_n)(I+A_n)^-1]^-1 x0``,
    ``xi_1 = (I+A_2)^-1 lam``,
    ``xi_n = (I+A_n)^-1 lam - A_{n+1}(I+A_{n+1})^-1 lam`` and
    ``xi_N = (I+A_N)^-1 lam``.  Returns ``(trades, lam)``.
    """
    eye = np.eye(A.shape[1])
    lead = np.linalg.inv(eye + A)  # (I + A_n)^-1
    lam = -np.linalg.solve(2.0 * lead[0] + np.sum((eye - A[1:]) @ lead[1:], axis=0), x0)
    pushed = lead @ lam  # (I + A_n)^-1 lam
    trades = np.empty((A.shape[0] + 1, A.shape[1]))
    trades[0] = pushed[0]
    trades[1:-1] = pushed[:-1] - np.einsum("jab,jb->ja", A[1:], pushed[1:])
    trades[-1] = pushed[-1]
    return trades, lam


def solve_1d_exp(rate: float, grid: TimeGrid, y: float) -> np.ndarray:
    """Optimal single-asset liquidation of ``y`` under exponential decay.

    The K = 1 case of the matrix-exponential closed form: with
    ``a_n = exp(-rate * (t_n - t_{n-1}))``, the optimal trades are
    ``eta_1 = lam / (1 + a_2)``,
    ``eta_n = (1/(1+a_n) - a_{n+1}/(1+a_{n+1})) lam`` in the interior, and
    ``eta_N = lam / (1 + a_N)``, where ``lam`` normalizes the total to -y.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    if grid.n < 2:
        raise ValueError("the closed form needs at least two trade times")
    a = np.exp(-rate * np.diff(grid.times))
    trades, _ = _exp_recursion(a[:, None, None], np.array([float(y)]))
    return trades[:, 0]


def solve_exp_closed_form(B, grid: TimeGrid, x0) -> SolveResult:
    """Optimal liquidation for the matrix-exponential kernel ``exp(-tB)``.

    Evaluates the general closed-form recursion (see :func:`_exp_recursion`)
    with ``A_n = exp(-(t_n - t_{n-1}) B)`` on any grid, equidistant or not,
    and certifies the result like every other route.
    """
    kernel = MatrixExpKernel(B)  # validates symmetry and shape
    low = kernel.eigenvalues[0]  # eigenvalues ascend
    if low <= RATE_FLOOR:
        raise ValueError(f"B must be strictly positive definite; smallest eigenvalue {low:.3e}")
    if grid.n < 2:
        raise ValueError("the closed form needs at least two trade times")
    x0 = _portfolio(kernel, x0)
    return _solve_exp(kernel, grid, x0, assemble_gram(kernel, grid))


def _solve_exp(kernel: DecayKernel, grid: TimeGrid, x0: np.ndarray, gram) -> SolveResult:
    """The closed form for ``G(t) = exp(-t B)``, ``B`` positive definite,
    with ``A_n = G(t_n - t_{n-1})`` from the kernel, certified on ``gram``."""
    trades, lam = _exp_recursion(kernel.at_many(np.diff(grid.times)), x0)
    return _check_result(grid, trades, lam, x0, True, gram.impact(trades))


def _frame_decays(kernel: DecayKernel, grid: TimeGrid, seed: int):
    """The eigenframe ``O`` (rows), the decays (m, K) at the Gram's lags
    (:func:`posdef._gram_lags`) and the frame's largest off-diagonal entry
    there: closed form and 0, else sampled by :func:`simultaneous_diagonalize`."""
    lags = _gram_lags(grid)
    frame = kernel.eigenframe()
    if frame is None:
        O, gs, leak = _diagonalize(kernel, lags, seed)
        return O, gs.T, leak
    O, decays = frame
    return O, decays(lags), 0.0


def simultaneous_diagonalize(kernel: DecayKernel, sample_times, seed: int = 0):
    """Common orthogonal frame of a symmetric commuting kernel.

    Diagonalizes one random positive combination of the sampled kernel
    values (a generic combination splits shared eigenspaces) and verifies
    off-diagonal leakage at every sample time; one retry with fresh weights,
    then an error naming the worst offending time.  Returns ``(O, gs)``
    where ``G(t) = O^T diag(gs) O`` and ``gs[i]`` samples the i-th scalar
    decay over ``sample_times``.
    """
    O, gs, _ = _diagonalize(kernel, sample_times, seed)
    return O, gs


def _diagonalize(kernel: DecayKernel, sample_times, seed: int):
    """:func:`simultaneous_diagonalize`, also returning its largest leakage."""
    sample_times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    symmetric, commuting = check_structure(kernel, sample_times)
    if not (symmetric and commuting):
        raise ValueError(
            f"simultaneous diagonalization needs a symmetric commuting kernel "
            f"(symmetric={symmetric}, commuting={commuting})"
        )
    values = kernel.at_many(sample_times)
    norms = np.max(np.abs(values), axis=(1, 2))
    rng = np.random.default_rng(seed)
    worst_time, worst_gap = None, np.inf
    for _ in range(2):
        weights = rng.uniform(0.5, 1.5, size=values.shape[0])
        mix = np.einsum("t,tij->ij", weights, values)
        _, vecs = np.linalg.eigh(0.5 * (mix + mix.T))
        O = vecs.T
        # O G(t) O^T for every t as one GEMM: kron(O, O) acts on the flattened G(t)
        rotated = (values.reshape(len(values), -1) @ np.kron(O, O).T).reshape(values.shape)
        off = rotated - rotated * np.eye(kernel.dimension)
        gaps = np.max(np.abs(off), axis=(1, 2))
        tols = DIAGONAL_LEAK_TOL * (1.0 + norms)
        if np.all(gaps <= tols):
            return O, np.einsum("tii->it", rotated), float(gaps.max())
        i = int(np.argmax(gaps - tols))
        if gaps[i] < worst_gap:
            worst_gap, worst_time = gaps[i], float(sample_times[i])
    raise ArithmeticError(
        f"kernel does not diagonalize to tolerance; worst off-diagonal leakage "
        f"{worst_gap:.3e} at t={worst_time}"
    )


def solve_commuting(kernel: DecayKernel, grid: TimeGrid, x0, seed: int = 0) -> SolveResult:
    """Optimal liquidation for a symmetric commuting kernel.

    Solves one single-asset KKT problem per direction of the eigenframe
    (:func:`_frame_decays`) with :func:`_kkt_solve_gram`, on the N x N Gram
    of that direction's decay; no NK x NK Gram is built.  An indefinite
    direction raises :class:`UnboundedCostError` naming the component.  The
    certificate's impact is computed in the frame, independent of
    :func:`solve_kkt`; a sampled frame's leak ``e`` moves each impact entry
    by at most ``sqrt(K) e sum|eta|``, which the residual includes.
    """
    x0 = _portfolio(kernel, x0)
    n, k = grid.n, kernel.dimension
    O, decays, leak = _frame_decays(kernel, grid, seed)
    y = O @ x0
    trades_rot = np.empty((n, k))
    impact_rot = np.empty((n, k))
    lam_rot = np.empty(k)
    unique = True
    for i in range(k):
        gram = _fill_gram(decays[:, i, None, None], n)
        try:
            eta, lam_i, strict = _kkt_solve_gram(gram, n, 1, y[i : i + 1])
        except UnboundedCostError as exc:
            raise UnboundedCostError(
                f"decay component {i} is not positive definite on this grid "
                f"(eigenvalue {exc.min_eig:.3e})",
                min_eig=exc.min_eig,
            ) from exc
        trades_rot[:, i] = eta[:, 0]
        impact_rot[:, i] = gram @ eta[:, 0]
        lam_rot[i] = lam_i[0]
        unique = unique and strict
    slack = np.sqrt(k) * leak * float(np.abs(trades_rot).sum())
    return _check_result(grid, trades_rot @ O, O.T @ lam_rot, x0, unique, impact_rot @ O, slack)


def basis_strategies(kernel: DecayKernel, grid: TimeGrid, seed: int = 0) -> BasisDecomposition:
    """Sign-constant optimal strategies along the kernel's eigendirections.

    For a symmetric, nonnegative, nonincreasing, convex, commuting kernel:
    liquidating one unit of eigendirection v_i optimally trades
    ``eta^i_k v_i`` with single-signed ``eta^i``; any portfolio written as
    ``sum alpha_i v_i`` is then liquidated optimally by the matching linear
    combination.
    """
    t_max = grid.span if grid.span > 0 else 1.0
    report = check_shape_properties(kernel, t_max=t_max, seed=seed)
    if not (report.symmetric and report.commuting):
        raise ValueError("basis strategies need a symmetric commuting kernel")
    sampled = []
    for name in ("nonnegative", "nonincreasing", "convex"):
        verdict = getattr(report, name)
        if verdict.value is not True:
            raise ValueError(f"basis strategies need a {name} kernel")
        if verdict.method == "sampled":
            sampled.append(name)
    if sampled:
        warnings.warn(
            f"shape properties {sampled} accepted from sampled evidence only",
            stacklevel=2,
        )

    O, decays, _ = _frame_decays(kernel, grid, seed)
    strategies = []
    for i in range(kernel.dimension):
        gram = _fill_gram(decays[:, i, None, None], grid.n)
        eta, _, _ = _kkt_solve_gram(gram, grid.n, 1, np.ones(1))
        strategies.append(Strategy(np.outer(eta[:, 0], O[i]), grid))
    return BasisDecomposition(vectors=O.copy(), strategies=tuple(strategies), rotation=O)


def solve_best(
    kernel: DecayKernel, grid: TimeGrid, x0, seed: int = 0, cross_check: bool = False
):
    """Dispatch to the best applicable solver.

    Precedence: matrix-exponential closed form, then the commuting-kernel
    route, then the generic KKT solve.  With ``cross_check=True`` the chosen
    route is verified against the KKT solve to
    ``CROSS_CHECK_REL_TOL * (1 + max|xi_kkt|)`` in the max norm; disagreement
    raises with both strategies attached.  The dense Gram is assembled only
    for the closed form's certificate, the KKT solve or the cross-check, at
    most once; the KKT reference still computes its trades independently.
    """
    x0 = _portfolio(kernel, x0)
    result, route, gram = None, "kkt", None
    # MatrixExpKernel included, at rate 1; its eigenvalues ascend
    exp_decay = isinstance(kernel, MatrixFunctionKernel) and isinstance(kernel.fn, ExpDecay)
    if grid.n >= 2 and exp_decay and kernel.fn.rate * kernel.eigenvalues[0] > RATE_FLOOR:
        gram = assemble_gram(kernel, grid)
        result, route = _solve_exp(kernel, grid, x0, gram), "closed_form"
    if result is None:
        try:
            sym, comm = check_structure(kernel, grid.times)
        except RuntimeError:
            sym = comm = False
        if sym and comm:
            try:
                result, route = solve_commuting(kernel, grid, x0, seed=seed), "commuting"
            except (ValueError, ArithmeticError):
                result = None
    if result is None or cross_check:
        reference = solve_kkt(kernel, grid, x0, gram=gram)
        if result is None:
            return reference, "kkt"
        gap = _maxabs(result.strategy.trades - reference.strategy.trades)
        if gap > CROSS_CHECK_REL_TOL * (1.0 + _maxabs(reference.strategy.trades)):
            err = ArithmeticError(
                f"solver cross-check failed: {route} and kkt disagree by {gap:.3e}"
            )
            err.results = (result, reference)
            raise err
    return result, route


def refine(
    kernel: DecayKernel,
    horizon: float,
    x0,
    max_levels: int,
    rel_tol: float = 0.0,
    seed: int = 0,
) -> RefineResult:
    """Approach the continuous-time optimum on dyadic equidistant grids.

    Solves on ``N = 2**level + 1`` points for ``level = 1..max_levels``;
    nested grids make the cost sequence nonincreasing, and refinement stops
    early once the relative cost drop falls below ``rel_tol``.  The finest
    Lagrange residual is the discrete counterpart of the continuous-time
    optimality condition.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if max_levels < 1:
        raise ValueError("need at least one refinement level")
    report = classify_positive_definite(kernel, seed=seed)
    if report.verdict == "not_pd":
        raise UnboundedCostError(
            "kernel is not positive definite; refinement has no limit",
            direction=None if report.witness is None else report.witness.trades,
            min_eig=report.min_eig,
        )
    levels = []
    finest = None
    previous = None
    for level in range(1, max_levels + 1):
        grid = equidistant_grid(horizon, 2**level + 1)
        finest, _ = solve_best(kernel, grid, x0, seed=seed)
        levels.append((grid.n, finest.cost))
        if previous is not None:
            if finest.cost > previous + REFINE_MONOTONE_SLACK * abs(previous):
                raise ArithmeticError(
                    f"cost increased under refinement: {previous!r} -> {finest.cost!r}"
                )
            # a roundoff rise is no drop: rel_tol = 0 never stops early
            drop = max(previous - finest.cost, 0.0)
            if drop < rel_tol * max(abs(previous), 1e-300):
                break
        previous = finest.cost
    return RefineResult(levels=tuple(levels), finest=finest)
