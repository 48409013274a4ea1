"""Expected-cost-minimizing liquidation strategies.

The execution cost of a deterministic strategy is the quadratic form
``1/2 xi . Gram . xi`` assembled from the kernel's two-sided extension; a
strategy is optimal for its liquidation constraint exactly when the impact
it accumulates, ``sum_l tilde(t_k - t_l) xi_l``, is the same vector at every
trade time (the Lagrange condition).  This module provides the generic KKT
solve, its O(N) state-space route, the closed form for matrix-exponential
decay, the diagonalization route for commuting kernels, buy-only/sell-only
basis strategies, and dyadic grid refinement toward the continuous-time optimum.
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
    DIAGONAL_LEAK_TOL,
    PSD_REL_TOL,
    GramMatrix,
    StateSpaceGram,
    _fill_gram,
    _gram_lags,
    assemble_gram,
    classify_positive_definite,
    gram_for,
    guard_lags,
    state_space_gram,
)

__all__ = [
    "Strategy",
    "SolveResult",
    "BasisDecomposition",
    "RefineResult",
    "UnboundedCostError",
    "cost",
    "solve_kkt",
    "solve_state_space",
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
# max|A^T - Gram Y| <= NK * eps * (1 + max|Gram|) * (1 + max|Y|),
# and raises if that takes more than PCG_MAX_STEPS steps
PCG_MAX_STEPS = 50
# solve_best's cross-check: the route's trades may differ from the KKT
# reference by CROSS_CHECK_REL_TOL * (1 + max|xi_kkt|) in the max norm
CROSS_CHECK_REL_TOL = 1e-8
# refine: a finer level may exceed the coarser cost by this fraction of it
REFINE_MONOTONE_SLACK = 1e-10


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
    """Expected execution cost ``1/2 xi . Gram . xi`` on :func:`posdef.gram_for`'s Gram."""
    trades = _kernel_trades(kernel, grid, strategy)
    return 0.5 * float(np.vdot(trades, gram_for(kernel, grid).impact(trades)))


def lagrange_residual(kernel: DecayKernel, grid: TimeGrid, strategy):
    """Optimality certificate for a liquidating strategy.

    Returns ``(lambda_hat, residual)`` where ``lambda_hat`` is the mean over
    trade times of the accumulated-impact vectors and ``residual`` their
    maximum deviation from it; a residual of (numerical) zero certifies
    optimality for the portfolio the strategy liquidates.  The impact is
    that of :func:`posdef.gram_for`'s Gram, as in :func:`cost`.
    """
    trades = _kernel_trades(kernel, grid, strategy)
    impact = gram_for(kernel, grid).impact(trades)
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


def _check_result(grid, trades, lam, x0, unique, impact: np.ndarray) -> SolveResult:
    """Wrap a solved strategy, enforcing the certificate tolerances on the
    impact (N, K) it accumulates, computed by the route on its own Gram;
    trades or a cost that overflowed raise instead of being returned."""
    half_form = 0.5 * float(np.vdot(trades, impact))
    if not (np.isfinite(half_form) and np.all(np.isfinite(trades))):
        raise ArithmeticError("the solve overflowed: its trades or cost are not finite")
    colsum_err = _maxabs(trades.sum(axis=0) + x0)
    if colsum_err > LIQUIDATION_TOL * (1.0 + _maxabs(x0)):
        raise ArithmeticError(f"liquidation constraint violated by {colsum_err:.3e}")
    residual = float(np.max(np.abs(impact - lam)))
    if not residual <= RESIDUAL_REL_TOL * (1.0 + _maxabs(lam)):
        raise ArithmeticError(
            f"Lagrange residual {residual:.3e} exceeds tolerance; the solve is unreliable"
        )
    return SolveResult(Strategy(trades, grid), lam, half_form, unique, residual)


def _pcg(product, precondition, rhs: np.ndarray, gram_max: float) -> np.ndarray:
    """Solve ``Gram Y = rhs`` (NK x m) by conjugate gradients, one recurrence
    per column, for a strict Gram given by its ``product`` on (NK, m) columns
    and the ``precondition`` solve with a factor of ``Gram - tau I``; in
    :func:`_kkt_solve`, the Gram's ``product`` and its factor's ``solve``.

    Starts from ``Y = precondition(rhs)`` and stops on the true residual (see
    ``PCG_MAX_STEPS``), with ``gram_max`` at least max|Gram|, the Gram's
    ``bound``.  Plain refinement ``Y += precondition(rhs - Gram Y)``
    contracts only by ``tau / (lambda_min - tau)`` and so diverges once
    ``lambda_min < 2 tau``; CG converges for every strict Gram.
    """
    floor = rhs.shape[0] * np.finfo(float).eps * (1.0 + gram_max)
    Y = precondition(rhs)
    R = rhs - product(Y)
    P = rz_old = None
    for step in range(PCG_MAX_STEPS + 1):
        if _maxabs(R) <= floor * (1.0 + _maxabs(Y)):
            return Y
        if step == PCG_MAX_STEPS:
            break
        Z = precondition(R)
        rz = np.einsum("ij,ij->j", R, Z)
        P = Z if P is None else Z + (rz / rz_old) * P
        Y += (rz / np.einsum("ij,ij->j", P, product(P))) * P
        R = rhs - product(Y)
        rz_old = rz
    raise ArithmeticError(
        f"preconditioned CG stalled after {PCG_MAX_STEPS} steps with residual "
        f"{_maxabs(R):.3e}; the solve is unreliable"
    )


def _schur_step(Y: np.ndarray, n: int, k: int, x0: np.ndarray):
    """Trades (N, K) and multiplier from ``Y = Gram^-1 A^T`` (NK x k): the
    k x k Schur complement ``S = A Y`` (the sum of Y's N blocks) gives
    ``lam = -S^-1 x0`` and ``xi = Y lam``."""
    lam = -np.linalg.solve(Y.reshape(n, k, k).sum(axis=0), x0)
    return (Y @ lam).reshape(n, k), lam


def _kkt_solve(gram, x0: np.ndarray):
    """Solve the equality-constrained quadratic program on a Gram.

    Minimizes ``1/2 xi . Gram . xi`` subject to ``A xi = -x0``, where ``A``
    sums the N trade vectors, and returns ``(trades, lam, strict)``.  The
    Gram is a :class:`posdef.GramMatrix` or a :class:`posdef.StateSpaceGram`,
    or anything with their ``bound`` (at least max|Gram|), ``product`` on
    (NK, m) columns, ``dimension``, ``size`` and ``shifted_factor(shift)``: a
    factor with ``solve`` on (NK, m) columns, or None; the Gram is whole
    between calls.  The Gram is strict when the factor of ``Gram - tau I``,
    ``tau = PSD_REL_TOL * (1 + bound)``, exists (for a dense Gram, the same
    decision as ``eigvalsh(Gram)[0] > tau``).  That factor is the only
    factorization of a strict Gram: it preconditions the CG solve of
    ``Gram Y = A^T`` (k right-hand sides, :func:`_pcg`), and
    :func:`_schur_step` gives ``lam`` and ``xi``.  A dense Gram is factored
    in place, over its upper triangle
    (:meth:`posdef.GramMatrix.shifted_factor`), so a strict solve holds no
    other NK x NK array.

    Otherwise only a dense Gram is decided, by its smallest eigenpair: an
    eigenvalue below ``-tau`` raises :class:`UnboundedCostError` with its
    eigenvector as the direction, and a singular-but-PSD Gram gets the
    minimum-norm least-squares solution of the bordered system
    ``[[Gram, A^T], [A, 0]] [xi; -lam] = [0; -x0]`` by LAPACK gelsd, else
    gelss; a failure of both, or any other Gram, raises ``ArithmeticError``.
    """
    n, k = gram.size, gram.dimension
    bound = gram.bound
    tol = PSD_REL_TOL * (1.0 + bound)
    factor = gram.shifted_factor(-tol)
    if factor is not None:
        Y = _pcg(gram.product, factor.solve, np.tile(np.eye(k), (n, 1)), bound)
        return (*_schur_step(Y, n, k, x0), True)
    if not isinstance(gram, GramMatrix):
        raise ArithmeticError("a factor of Gram - tau I failed: the Gram is not strict")

    min_eig, direction = _min_eigenpair(gram.blocks)
    if min_eig < -tol:
        raise UnboundedCostError(
            f"Gram matrix has eigenvalue {min_eig:.3e}: cost unbounded below on this grid",
            direction=direction.reshape(n, k),
            min_eig=min_eig,
        )
    nk = n * k
    A = np.tile(np.eye(k), n)
    M = np.zeros((nk + k, nk + k))
    M[:nk, :nk] = np.tril(gram.blocks) + np.tril(gram.blocks, -1).T
    M[:nk, nk:] = A.T
    M[nk:, :nk] = A
    rhs = np.zeros(nk + k)
    rhs[nk:] = -x0
    try:
        sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    except np.linalg.LinAlgError:  # gelsd's SVD did not converge: gelss at its cutoff
        try:
            sol = scipy.linalg.lstsq(M, rhs, np.finfo(float).eps * len(M), lapack_driver="gelss")[0]
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"least squares failed on the KKT system: {exc}") from exc
    return sol[:nk].reshape(n, k), -sol[nk:], False


def _solve_on(gram, x0: np.ndarray) -> SolveResult:
    """:func:`_kkt_solve` on a Gram, certified on its ``impact``."""
    trades, lam, strict = _kkt_solve(gram, x0)
    return _check_result(gram.grid, trades, lam, x0, strict, gram.impact(trades))


def solve_kkt(kernel: DecayKernel, grid: TimeGrid, x0) -> SolveResult:
    """Optimal liquidation of ``x0`` on a grid by solving the KKT system.

    Solves the assembled Gram with :func:`_kkt_solve`.  Raises
    :class:`UnboundedCostError` when the Gram is indefinite on the grid.  On
    a PSD-but-singular Gram the returned strategy is the minimum-norm
    optimizer and ``unique`` is False.
    """
    x0 = _portfolio(kernel, x0)
    return _solve_on(assemble_gram(kernel, grid), x0)


def solve_state_space(kernel: DecayKernel, grid: TimeGrid, x0) -> SolveResult:
    """Optimal liquidation of ``x0`` through the kernel's realization
    ``G(t) = P diag(exp(-t rates)) Q^T`` (:meth:`DecayKernel.realization`),
    in O(N) block steps and with no NK x NK Gram.

    The Gram is :func:`posdef.state_space_gram`'s, guarded there against the
    kernel's values, and solved by :func:`_kkt_solve`: its ``bound``
    ``M >= max|Gram|`` makes the strictness test never looser than
    :func:`solve_kkt`'s, and the certificate reads the two-scan impact.
    Only strict results are returned: a failed guard or pivot, a stalled CG
    or a failed certificate raises :class:`ArithmeticError`, and
    :func:`solve_kkt` then decides the grid (``unique``,
    :class:`UnboundedCostError`, minimum-norm answers).  A kernel without a
    realization raises ``ValueError``.
    """
    x0 = _portfolio(kernel, x0)
    return _solve_on(state_space_gram(kernel, grid), x0)


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
    with np.errstate(over="ignore"):  # rate * gap = inf near the float limit: exp(-inf) = 0
        a = np.exp(-rate * np.diff(grid.times))
    trades, _ = _exp_recursion(a[:, None, None], np.array([float(y)]))
    return trades[:, 0]


def solve_exp_closed_form(B, grid: TimeGrid, x0) -> SolveResult:
    """Optimal liquidation for the matrix-exponential kernel ``exp(-tB)``.

    Evaluates the general closed-form recursion (see :func:`_exp_recursion`)
    with ``A_n = exp(-(t_n - t_{n-1}) B)`` on any grid, equidistant or not,
    and certifies the result on the two-scan impact of the kernel's
    realization, in O(N).
    """
    kernel = MatrixExpKernel(B)  # validates symmetry and shape
    low = kernel.eigenvalues[0]  # eigenvalues ascend
    if low <= RATE_FLOOR:
        raise ValueError(f"B must be strictly positive definite; smallest eigenvalue {low:.3e}")
    if grid.n < 2:
        raise ValueError("the closed form needs at least two trade times")
    x0 = _portfolio(kernel, x0)
    return _solve_exp(kernel, state_space_gram(kernel, grid), x0)


def _solve_exp(kernel: DecayKernel, gram: StateSpaceGram, x0: np.ndarray) -> SolveResult:
    """The closed form for ``G(t) = exp(-t B)``, ``B`` positive definite,
    with ``A_n = G(t_n - t_{n-1})`` from the kernel, certified on the impact
    (:meth:`posdef.StateSpaceGram.impact`) of the kernel's guarded
    realization ``gram`` on the grid (:func:`posdef.state_space_gram`)."""
    trades, lam = _exp_recursion(kernel.at_many(np.diff(gram.grid.times)), x0)
    return _check_result(gram.grid, trades, lam, x0, True, gram.impact(trades))


def simultaneous_diagonalize(kernel: DecayKernel, sample_times, seed: int = 0):
    """Common orthogonal frame of a symmetric commuting kernel, from samples;
    a standalone tool, which no solve route uses.

    Diagonalizes one random positive combination of the sampled kernel
    values (a generic combination splits shared eigenspaces) and verifies
    off-diagonal leakage at every sample time; one retry with fresh weights,
    then an error naming the worst offending time.  Returns ``(O, gs)``
    where ``G(t) = O^T diag(gs) O`` and ``gs[i]`` samples the i-th scalar
    decay over ``sample_times``.
    """
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
            return O, np.einsum("tii->it", rotated)
        i = int(np.argmax(gaps - tols))
        if gaps[i] < worst_gap:
            worst_gap, worst_time = gaps[i], float(sample_times[i])
    raise ArithmeticError(
        f"kernel does not diagonalize to tolerance; worst off-diagonal leakage "
        f"{worst_gap:.3e} at t={worst_time}"
    )


def _direction_grams(kernel: DecayKernel, grid: TimeGrid, O: np.ndarray, decay) -> list:
    """One K = 1 :class:`posdef.StateSpaceGram` per direction i of the frame
    ``(O, decay)``, or None.  With the realization ``G(t) = P diag(exp(-t
    rates)) Q^T``, direction i decays as ``d_i(t) = sum_r c_ir exp(-t
    rate_r)``, ``c = (O P) * (O Q)``.  Terms with ``|c_ir| <= eps sum_r
    |c_ir|`` are dropped (an eigenbasis realization's roundoff, which would
    keep all R terms in every direction), terms of exactly equal rates merge
    and the lag-0 entry is ``d_i(0)``.  A kernel with no realization, and a
    direction with no term left or whose sum misses ``decay`` in the Gram's
    own guard (:meth:`posdef.StateSpaceGram.guard`), get None."""
    realization = kernel.realization()
    if realization is None:
        return [None] * kernel.dimension
    P, rates, Q = (np.asarray(a, dtype=float) for a in realization)
    rates, index = np.unique(rates, return_inverse=True)
    coeffs = (O @ P) * (O @ Q)
    abs_coeffs = np.abs(coeffs)
    coeffs[abs_coeffs <= np.finfo(float).eps * abs_coeffs.sum(axis=1, keepdims=True)] = 0.0
    coeffs = coeffs @ (index[:, None] == np.arange(rates.size))
    values = decay(np.concatenate([[0.0], guard_lags(grid)]))  # (1 + lags, K)
    grams = []
    for i, c in enumerate(coeffs):
        terms = c != 0.0
        try:
            grams.append(StateSpaceGram(
                grid, values[:1, i, None], c[None, terms], np.ones((1, np.count_nonzero(terms))),
                rates[terms],
            ).guard(values[1:, i, None, None]) if terms.any() else None)
        except ArithmeticError:  # the direction's sum misses the frame's decay
            grams.append(None)
    return grams


def _unit_frame_solves(kernel: DecayKernel, grid: TimeGrid):
    """Liquidate one unit along each direction i of the kernel's closed-form
    ``eigenframe()``, each through :func:`_kkt_solve`; no NK x NK Gram is
    built.  A direction takes its K = 1 :class:`posdef.StateSpaceGram` of
    :func:`_direction_grams`, in O(N); a direction without one, or whose
    state-space solve declines (a Gram that is not strict), takes the N x N
    :class:`posdef.GramMatrix` of its decay at the Gram's lags
    (:func:`posdef._gram_lags`, evaluated only then), which decides
    ``unique`` and indefiniteness.  Returns ``(O, etas, lams, impacts,
    unique)``, with direction i's trades ``etas[:, i]``, multiplier
    ``lams[i]`` and their impact ``impacts[:, i]`` on the direction's Gram.
    A kernel with no frame raises ``ValueError``; an indefinite direction
    raises :class:`UnboundedCostError` naming the component."""
    frame = kernel.eigenframe()
    if frame is None:
        raise ValueError(f"the {kernel.family} kernel has no closed-form eigenframe")
    O, decay = frame
    n, k = grid.n, kernel.dimension
    etas = np.empty((n, k))
    lams = np.empty(k)
    impacts = np.empty((n, k))
    unique = True
    dense = None  # every direction's decay at the Gram's lags, once one needs it
    for i, gram in enumerate(_direction_grams(kernel, grid, O, decay)):
        try:
            solved = None if gram is None else _kkt_solve(gram, np.ones(1))
        except ArithmeticError:  # not strict, or CG stalled: the dense Gram decides
            solved = None
        if solved is None:
            if dense is None:
                dense = decay(_gram_lags(grid))
            gram = GramMatrix(grid, _fill_gram(dense[:, i, None, None], n))
            try:
                solved = _kkt_solve(gram, np.ones(1))
            except UnboundedCostError as exc:
                raise UnboundedCostError(
                    f"decay component {i} is not positive definite on this grid "
                    f"(eigenvalue {exc.min_eig:.3e})",
                    min_eig=exc.min_eig,
                ) from exc
        eta, lam_i, strict = solved
        etas[:, i] = eta[:, 0]
        lams[i] = lam_i[0]
        impacts[:, i] = gram.impact(eta)[:, 0]
        unique = unique and strict
    return O, etas, lams, impacts, unique


def solve_commuting(kernel: DecayKernel, grid: TimeGrid, x0) -> SolveResult:
    """Optimal liquidation for a kernel with a closed-form ``eigenframe()``.

    Scales the unit liquidations of :func:`_unit_frame_solves` and their
    impacts by the rotated portfolio ``y = O x0`` (both are linear in it) and
    certifies on ``(impacts * y) @ O``, independent of :func:`solve_kkt`.
    Each direction solves on a K = 1 :class:`posdef.StateSpaceGram` in O(N)
    where the kernel's realization gives one, else on its N x N
    :class:`posdef.GramMatrix`.  A kernel with no frame raises ``ValueError``.
    """
    x0 = _portfolio(kernel, x0)
    O, etas, lams, impacts, unique = _unit_frame_solves(kernel, grid)
    y = O @ x0
    impact = (impacts * y) @ O
    return _check_result(grid, (etas * y) @ O, O.T @ (lams * y), x0, unique, impact)


def basis_strategies(kernel: DecayKernel, grid: TimeGrid) -> BasisDecomposition:
    """Sign-constant optimal strategies along the kernel's eigendirections.

    For a symmetric, nonnegative, nonincreasing, convex, commuting kernel
    with a closed-form ``eigenframe()`` (else ``ValueError``): liquidating
    one unit of eigendirection v_i optimally trades ``eta^i_k v_i`` with
    single-signed ``eta^i``; any portfolio written as ``sum alpha_i v_i`` is
    then liquidated optimally by the matching linear combination.
    """
    t_max = grid.span if grid.span > 0 else 1.0
    report = check_shape_properties(kernel, t_max=t_max)
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

    O, etas, _, _, _ = _unit_frame_solves(kernel, grid)
    strategies = tuple(Strategy(np.outer(etas[:, i], O[i]), grid) for i in range(kernel.dimension))
    return BasisDecomposition(vectors=O.copy(), strategies=strategies, rotation=O)


def solve_best(kernel: DecayKernel, grid: TimeGrid, x0, cross_check: bool = False):
    """Dispatch to the best applicable solver; returns ``(result, route)``.

    Precedence: the matrix-exponential closed form (``"closed_form"``), then
    the commuting route (``"commuting"``, :func:`solve_commuting`) for a
    kernel whose ``eigenframe()`` is not None.  A kernel with neither takes
    the one state-space-else-dense step, :func:`_solve_general`
    (``"state_space"`` or ``"kkt"``).  The route follows from these kernel
    facts alone: nothing is sampled.

    With ``cross_check=True`` the closed form and the commuting route are
    checked to ``CROSS_CHECK_REL_TOL * (1 + max|xi_ref|)`` in the max norm
    against the same step's answer (the closed form passes it the Gram it
    already guarded); disagreement raises with both strategies attached.
    A kernel with no eigenframe route is solved once, as without the
    cross-check.

    Every route but the closed form solves through the one KKT core,
    :func:`_kkt_solve`: ``state_space`` on the guarded
    :func:`posdef.state_space_gram`; ``commuting`` per eigenframe direction,
    on a K = 1 ``StateSpaceGram`` of the direction's exponential sum when the
    kernel has a realization (O(N)), else, or where that Gram is not strict,
    on the direction's N x N :class:`posdef.GramMatrix`; and ``kkt`` on the
    NK x NK one where the state-space Gram is missing or declines.  Each
    certifies on its own Gram's ``impact``: the commuting route in its frame, the
    closed form and the state-space backend on the realization's two scans.

    The commuting route's cross-check stays independent when both run on
    the realization: the reference solves the full NK Gram from the kernel's
    own generators, in chunks of ``max(1, STATE_SPACE_CHUNK_ROWS // K)``
    steps; each direction has rotated, merged generators, chunks of
    ``STATE_SPACE_CHUNK_ROWS`` steps and the same guard against the frame's
    decay (:meth:`posdef.StateSpaceGram.guard`) instead of ``at_many``.
    """
    x0 = _portfolio(kernel, x0)
    result = realization = None
    # MatrixExpKernel included, at rate 1; its eigenvalues ascend
    exp_decay = isinstance(kernel, MatrixFunctionKernel) and isinstance(kernel.scalar_fn, ExpDecay)
    if grid.n >= 2 and exp_decay and kernel.scalar_fn.rate * kernel.eigenvalues[0] > RATE_FLOOR:
        # guarded once: it certifies the closed form and serves the cross-check
        realization = state_space_gram(kernel, grid)
        result, route = _solve_exp(kernel, realization, x0), "closed_form"
    if result is None and kernel.eigenframe() is not None:
        try:
            result, route = solve_commuting(kernel, grid, x0), "commuting"
        except (ValueError, ArithmeticError):
            result = None
    if result is None:
        return _solve_general(kernel, grid, x0)
    if not cross_check:
        return result, route
    reference, name = _solve_general(kernel, grid, x0, realization)
    gap = _maxabs(result.strategy.trades - reference.strategy.trades)
    if gap > CROSS_CHECK_REL_TOL * (1.0 + _maxabs(reference.strategy.trades)):
        err = ArithmeticError(
            f"solver cross-check failed: {route} and {name} disagree by {gap:.3e}"
        )
        err.results = (result, reference)
        raise err
    return result, route


def _solve_general(kernel: DecayKernel, grid: TimeGrid, x0: np.ndarray, gram=None):
    """:func:`solve_best`'s one state-space-else-dense step: ``(result,
    "state_space")`` on :func:`posdef.gram_for`'s state-space Gram (``gram``
    when the caller built it), else, or where that solve raises
    ``ValueError`` or ``ArithmeticError``, ``(result, "kkt")`` on the dense one."""
    gram = gram_for(kernel, grid) if gram is None else gram
    if isinstance(gram, StateSpaceGram):
        try:
            return _solve_on(gram, x0), "state_space"
        except (ValueError, ArithmeticError):
            gram = assemble_gram(kernel, grid)
    return _solve_on(gram, x0), "kkt"


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
    optimality condition.  A horizon that is not positive and finite raises
    ``ValueError`` from :func:`grids.equidistant_grid` at the first level.
    """
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
        finest, _ = solve_best(kernel, grid, x0)
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
