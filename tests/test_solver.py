import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from crossimpact import (
    CongruenceKernel,
    Constant,
    CrossExpKernel,
    DiagCongruenceKernel,
    Exp2x2Kernel,
    ExpDecay,
    GaussianSquared,
    JordanExpKernel,
    LeftMultiplyKernel,
    Linear2x2Kernel,
    LinearPolya,
    MatrixExpKernel,
    MatrixFunctionKernel,
    PermanentKernel,
    PlusTemporaryKernel,
    ScalarTimesMatrixKernel,
    Strategy,
    TimeGrid,
    UnboundedCostError,
    assemble_gram,
    basis_strategies,
    check_shape_properties,
    cost,
    equidistant_grid,
    geometric_grid,
    lagrange_residual,
    refine,
    simultaneous_diagonalize,
    solve_1d_exp,
    solve_best,
    solve_commuting,
    solve_exp_closed_form,
    solve_kkt,
    solve_state_space,
)
from crossimpact import cli, kernels, posdef, solver
from crossimpact.kernels import CLOSE_REL_TOL, DecayKernel
from crossimpact.posdef import PSD_REL_TOL, GramMatrix, StateSpaceGram, state_space_gram
from crossimpact.solver import _kkt_solve, _pcg
from conftest import (
    count_calls,
    count_eigensolver_calls,
    impact_loop,
    random_admissible_kernel,
    random_convex_decay,
    random_cross_exp,
    random_grid,
    random_orthogonal,
    random_spd,
)


def bordered_kkt_reference(gram, n, k, x0):
    """Minimum-norm solution of ``[[G, A^T], [A, 0]] [xi; -lam] = [0; -x0]``."""
    nk = n * k
    A = np.tile(np.eye(k), n)
    M = np.block([[gram, A.T], [A, np.zeros((k, k))]])
    rhs = np.concatenate([np.zeros(nk), -np.asarray(x0, dtype=float)])
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return sol[:nk].reshape(n, k), -sol[nk:]


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid([0.1, 1.0])  # must start at 0
        with pytest.raises(ValueError):
            TimeGrid([0.0, 1.0, 1.0])  # strictly increasing
        with pytest.raises(ValueError):
            TimeGrid([])
        grid = TimeGrid([0.0, 0.5, 2.0])
        assert grid.n == 3 and grid.span == 2.0

    def test_immutability(self):
        grid = TimeGrid([0.0, 1.0])
        with pytest.raises(ValueError):
            grid.times[0] = 5.0

    @pytest.mark.parametrize("n, ratio", [(0, 2.0), (-3, 2.0), (1025, 2.0), (2000, 1.5)])
    def test_geometric_count_it_cannot_build(self, n, ratio):
        # no trade time at all, or ratio**(n-1) beyond the float range
        with pytest.raises(ValueError, match="trade time|finite"):
            geometric_grid(5.0, n, ratio)

    @pytest.mark.parametrize("build", [equidistant_grid, geometric_grid])
    @pytest.mark.parametrize("horizon", [0.0, -1.0, float("inf"), float("nan")])
    def test_horizon_must_be_positive_and_finite(self, build, horizon):
        # rejected before any arithmetic: an infinite horizon raises no
        # RuntimeWarning on its way to the ValueError
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            build(horizon, 5)


class TestCost:
    def test_zero_strategy(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        assert cost(kernel, grid, np.zeros((4, 2))) == 0.0

    def test_single_block_trade(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        x0 = rng.uniform(-3, 3, 2)
        value = cost(kernel, TimeGrid([0.0]), -x0[None, :])
        assert value == pytest.approx(0.5 * x0 @ kernel.tilde(0.0) @ x0, rel=1e-14)

    def test_permanent_cost_is_allocation_free(self, rng):
        """Symmetric constant kernels price any liquidation the same;
        brute-force double-loop evaluation confirms half the book impact."""
        g0 = random_spd(rng, 2)
        kernel = PermanentKernel(g0)
        x0 = rng.uniform(-3, 3, 2)
        expected = 0.5 * x0 @ g0 @ x0
        for _ in range(5):
            grid = random_grid(rng, n_max=7)
            trades = rng.standard_normal((grid.n, 2))
            trades -= (trades.sum(axis=0) + x0) / grid.n  # liquidate x0
            got = cost(kernel, grid, trades)
            # independent double-loop evaluation of the quadratic form
            brute = 0.0
            for k in range(grid.n):
                for l in range(grid.n):
                    brute += 0.5 * trades[k] @ kernel.tilde(grid.times[k] - grid.times[l]) @ trades[l]
            assert got == pytest.approx(brute, abs=1e-12)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_permanent_nonsymmetric_matches_brute_force(self, rng):
        # the antisymmetric part couples to the time-ordering, so only the
        # brute-force sum (not allocation-independence) is asserted here
        g0 = rng.standard_normal((2, 2))
        kernel = PermanentKernel(g0)
        grid = random_grid(rng, n_max=6)
        trades = rng.standard_normal((grid.n, 2))
        brute = 0.0
        for k in range(grid.n):
            for l in range(grid.n):
                brute += 0.5 * trades[k] @ kernel.tilde(grid.times[k] - grid.times[l]) @ trades[l]
        assert cost(kernel, grid, trades) == pytest.approx(brute, abs=1e-12)

    def test_shape_mismatch(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        with pytest.raises(ValueError):
            cost(kernel, equidistant_grid(1.0, 3), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            cost(kernel, equidistant_grid(1.0, 3), np.zeros((3, 3)))


class TestSolveKKT:
    def test_permanent_equal_split(self, rng):
        g0 = random_spd(rng, 2)
        x0 = np.array([4.0, -2.0])
        result = solve_kkt(PermanentKernel(g0), equidistant_grid(1.0, 4), x0)
        assert result.unique is False
        assert np.allclose(result.strategy.trades, np.tile(-x0 / 4.0, (4, 1)), atol=1e-10)

    def test_least_squares_falls_back_to_gelss(self, rng, monkeypatch):
        """When gelsd's SVD does not converge, the singular branch solves the
        bordered system once more with gelss, at the same cutoff: its answer
        passes the certificate and is gelsd's minimum-norm optimizer up to
        roundoff.  When gelss fails too, the solve raises ArithmeticError."""
        kernel = PermanentKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 9)
        x0 = np.array([4.0, -2.0])
        expected = solve_kkt(kernel, grid, x0).strategy.trades

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        retries = count_calls(monkeypatch, scipy.linalg, "lstsq")
        result = solve_kkt(kernel, grid, x0)
        assert [call[0].shape for call in retries] == [(2 * 9 + 2,) * 2]
        assert result.unique is False
        gap = np.max(np.abs(result.strategy.trades - expected))
        assert gap <= 1e-12 * (1.0 + np.max(np.abs(expected)))

        monkeypatch.setattr(scipy.linalg, "lstsq", no_convergence)
        with pytest.raises(ArithmeticError, match="least squares failed"):
            solve_kkt(kernel, grid, x0)

    def test_matches_closed_form(self):
        grid = equidistant_grid(1.0, 10)
        b = np.diag([1.0, 2.0])
        x0 = np.array([10.0, 5.0])
        via_kkt = solve_kkt(MatrixExpKernel(b), grid, x0)
        via_formula = solve_exp_closed_form(b, grid, x0)
        assert np.max(np.abs(via_kkt.strategy.trades - via_formula.strategy.trades)) < 1e-8
        assert via_kkt.cost == pytest.approx(via_formula.cost, rel=1e-10)

    def test_two_point_exponential_halves(self):
        kernel = ScalarTimesMatrixKernel(ExpDecay(1.3), [[1.0]])
        result = solve_kkt(kernel, TimeGrid([0.0, 2.0]), [1.0])
        assert np.allclose(result.strategy.trades[:, 0], [-0.5, -0.5], atol=1e-12)

    def test_indefinite_gram_rejected(self):
        kernel = PermanentKernel(np.diag([1.0, -1.0]))
        with pytest.raises(UnboundedCostError) as err:
            solve_kkt(kernel, equidistant_grid(1.0, 3), [1.0, 1.0])
        assert err.value.direction is not None
        assert err.value.min_eig < 0

    def test_indefinite_gram_decomposed_once(self, monkeypatch):
        """The indefinite branch reads its verdict, ``min_eig`` and direction
        off one eigen-decomposition; the direction is a unit eigenvector."""
        kernel = JordanExpKernel(0.2)
        grid = equidistant_grid(20.0, 65)
        gram = assemble_gram(kernel, grid)
        calls = count_eigensolver_calls(monkeypatch)
        with pytest.raises(UnboundedCostError) as err:
            solve_kkt(kernel, grid, [1.0, 1.0])
        assert sum(map(len, calls)) == 1
        d = err.value.direction.ravel()
        tol = d.size * np.finfo(float).eps * gram.bound
        assert err.value.min_eig < 0
        assert abs(np.linalg.norm(d) - 1.0) <= d.size * np.finfo(float).eps
        assert abs(d @ gram.blocks @ d - err.value.min_eig) <= tol

    def test_core_matches_bordered_lstsq_reference(self, rng):
        for _ in range(10):
            kernel = MatrixExpKernel(random_spd(rng, 2))
            grid = random_grid(rng, n_max=9)
            x0 = rng.uniform(-5, 5, 2)
            trades, lam = bordered_kkt_reference(assemble_gram(kernel, grid).blocks, grid.n, 2, x0)
            result = solve_kkt(kernel, grid, x0)
            assert result.unique is True
            assert np.max(np.abs(result.strategy.trades - trades)) < 1e-10
            assert np.max(np.abs(result.lam - lam)) < 1e-10

    def test_strictness_matches_spectral_test(self, rng):
        """The Cholesky strictness test decides like ``eigvalsh(G)[0] > tau``
        on the 190 Grams of the figures sweep and on a permanent kernel."""
        cases = [
            (MatrixFunctionKernel([[1.0, rho], [rho, 1.0]], GaussianSquared()),
             equidistant_grid(float(horizon), 23))
            for rho in [round(0.05 * i, 2) for i in range(1, 20)]
            for horizon in range(1, 11)
        ]
        cases.append((PermanentKernel(random_spd(rng, 2)), equidistant_grid(1.0, 4)))
        verdicts = []
        for kernel, grid in cases:
            gram = assemble_gram(kernel, grid)
            tau = PSD_REL_TOL * (1.0 + np.max(np.abs(gram.blocks)))
            _, _, unique = _kkt_solve(gram, np.array([10.0, 0.0]))
            assert unique == bool(np.linalg.eigvalsh(gram.blocks)[0] > tau)
            verdicts.append(unique)
        assert any(verdicts[:-1]) and not all(verdicts[:-1])
        assert verdicts[-1] is False

    def test_barely_strict_figures_grams_certified(self):
        """Two figures-sweep Grams with lambda_min < 2 tau, where refinement
        with the factor of ``G - tau I`` would diverge, solve and certify."""
        for rho, horizon in [(0.25, 9), (0.15, 8)]:
            kernel = MatrixFunctionKernel([[1.0, rho], [rho, 1.0]], GaussianSquared())
            grid = equidistant_grid(float(horizon), 23)
            gram = assemble_gram(kernel, grid).blocks
            tau = PSD_REL_TOL * (1.0 + np.max(np.abs(gram)))
            assert tau < np.linalg.eigvalsh(gram)[0] < 2.0 * tau
            result = solve_kkt(kernel, grid, [10.0, 0.0])
            assert result.unique is True

    def test_pcg_converges_where_refinement_diverges(self, rng):
        n, k = 20, 2
        nk = n * k
        q = random_orthogonal(rng, nk)
        eigs = np.geomspace(1e-3, 1.0, nk)
        for _ in range(2):  # tau depends on max|G|, which barely depends on eigs[0]
            gram = (q * eigs) @ q.T
            gram = 0.5 * (gram + gram.T)
            tau = PSD_REL_TOL * (1.0 + np.max(np.abs(gram)))
            eigs[0] = 1.05 * tau
        assert 1.0 < np.linalg.eigvalsh(gram)[0] / tau < 1.1
        rhs = np.tile(np.eye(k), (n, 1))
        factor = scipy.linalg.cho_factor(gram - tau * np.eye(nk), lower=True)
        gram_max = np.max(np.abs(gram))

        dense = GramMatrix(equidistant_grid(1.0, n), gram.copy())
        held = dense.shifted_factor(-tau)  # the factor lives in dense's upper triangle
        Y = _pcg(dense.product, held.solve, rhs, gram_max)
        bound = nk * np.finfo(float).eps * (1.0 + gram_max)
        assert np.max(np.abs(rhs - gram @ Y)) <= bound * (1.0 + np.max(np.abs(Y)))

        Y = scipy.linalg.cho_solve(factor, rhs)
        start = np.max(np.abs(rhs - gram @ Y))
        for _ in range(10):
            Y = Y + scipy.linalg.cho_solve(factor, rhs - gram @ Y)
        assert np.max(np.abs(rhs - gram @ Y)) > 1e6 * start

        original = gram.copy()  # the core factors its Gram in place
        trades, lam, strict = _kkt_solve(GramMatrix(dense.grid, gram), np.array([3.0, -1.0]))
        assert strict is True
        assert np.allclose(trades.sum(axis=0), [-3.0, 1.0], rtol=0, atol=1e-9)
        impact = (original @ trades.ravel()).reshape(n, k)
        assert np.max(np.abs(impact - lam)) <= 1e-8 * (1.0 + np.max(np.abs(lam)))

    def test_pcg_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "PCG_MAX_STEPS", 0)
        with pytest.raises(ArithmeticError, match="stalled"):
            solve_kkt(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 11), [-50.0, 1.0])

    def test_solve_memory_within_one_factor(self):
        """A strict solve factors the Gram in place and holds no NK x NK copy."""
        gram = assemble_gram(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 1025))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, strict = _kkt_solve(gram, np.array([-50.0, 1.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strict is True
        assert peak - base <= 0.05 * gram.blocks.nbytes

    def test_solve_kkt_memory_within_one_gram(self):
        """Assembly, factor, CG and certificate together hold one NK x NK
        array: the kernel is evaluated in runs of ``GRAM_CHUNK_LAGS`` lags
        (33 of them here) and the factor is written over the Gram."""
        kernel = Exp2x2Kernel(1.0, 0.3, 0.3, 1.2, 1.0, 1.5, 1.5, 1.2)  # symmetric
        grid = equidistant_grid(5.0, 1025)
        gram_bytes = 8 * (2 * grid.n) ** 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve_kkt(kernel, grid, [1.0, -2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.unique is True
        assert peak - base <= 1.25 * gram_bytes

    @pytest.mark.parametrize(
        "kernel, grid, verdict",
        [
            (CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 40), "strict"),
            (PermanentKernel(np.eye(2)), equidistant_grid(1.0, 4), "singular"),
            (JordanExpKernel(0.2), equidistant_grid(20.0, 65), "indefinite"),
        ],
        ids=["strict", "singular", "indefinite"],
    )
    def test_core_leaves_the_lower_triangle(self, kernel, grid, verdict):
        """Whatever the verdict, the strictly lower triangle and the diagonal
        are the input's when the core returns or raises."""
        gram = assemble_gram(kernel, grid)
        lower = np.tril(gram.blocks)
        try:
            _, _, strict = _kkt_solve(gram, np.array([1.0, -1.0]))
            outcome = "strict" if strict else "singular"
        except UnboundedCostError:
            outcome = "indefinite"
        assert outcome == verdict
        assert np.array_equal(np.tril(gram.blocks), lower)

    def test_certificate_invariants(self, rng):
        for _ in range(10):
            kernel = random_admissible_kernel(rng)
            grid = random_grid(rng, n_max=10)
            x0 = rng.uniform(-5, 5, kernel.dimension)
            result = solve_kkt(kernel, grid, x0)
            assert result.residual <= 1e-8 * (1.0 + np.max(np.abs(result.lam)))
            assert np.max(np.abs(result.strategy.trades.sum(axis=0) + x0)) <= 1e-10


class CholeskyGram:
    """A test double of the Gram interface the KKT core solves on: a plain
    SPD matrix, its ``np.linalg.cholesky`` factor, and the four members."""

    def __init__(self, matrix, grid, k):
        self.matrix, self.grid, self.size, self.dimension = matrix, grid, grid.n, k

    @property
    def bound(self):
        return float(np.max(np.abs(self.matrix)))

    def product(self, X):
        return self.matrix @ X

    def impact(self, trades):
        return (self.matrix @ trades.ravel()).reshape(trades.shape)

    def shifted_factor(self, shift):
        try:
            lower = np.linalg.cholesky(self.matrix + shift * np.eye(len(self.matrix)))
        except np.linalg.LinAlgError:
            return None
        return CholeskyFactor(lower)


class CholeskyFactor:
    def __init__(self, lower):
        self.lower = lower

    def solve(self, B):
        return scipy.linalg.cho_solve((self.lower, True), B)


class TestKKTCore:
    @pytest.mark.parametrize("kernel, grid, x0", [
        (CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 40), [-50.0, 1.0]),
        (Exp2x2Kernel(1.0, 0.15, 0.15, 1.1, 0.7, 1.5, 1.5, 1.6), geometric_grid(2.0, 33, 1.1),
         [10.0, -4.0]),
        (MatrixExpKernel([[1.0, 0.3, 0.1], [0.3, 1.8, 0.2], [0.1, 0.2, 2.5]]),
         equidistant_grid(3.0, 17), [1.0, -2.0, 0.5]),
    ], ids=["cross_exp", "exp2x2", "matrix_exp"])
    def test_a_gram_double_solves_like_solve_kkt(self, kernel, grid, x0):
        """The core reads the Gram only through ``bound``, ``product`` and
        ``shifted_factor``: a plain matrix behind them solves like the dense
        Gram, to roundoff, and certifies on its own ``impact``."""
        matrix = assemble_gram(kernel, grid).blocks
        double = CholeskyGram(matrix.copy(), grid, kernel.dimension)
        trades, lam, strict = _kkt_solve(double, np.asarray(x0))
        reference = solve_kkt(kernel, grid, x0)
        assert strict is reference.unique is True
        eigs = np.linalg.eigvalsh(matrix)
        roundoff = 10.0 * (eigs[-1] / eigs[0]) * matrix.shape[0] * np.finfo(float).eps
        scale = 1.0 + np.max(np.abs(reference.strategy.trades))
        assert np.max(np.abs(trades - reference.strategy.trades)) <= roundoff * scale
        assert np.max(np.abs(lam - reference.lam)) <= roundoff * (1.0 + np.max(np.abs(lam)))
        certified = solver._solve_on(double, np.asarray(x0, dtype=float))
        assert certified.cost == pytest.approx(reference.cost, rel=1e-12)

    @pytest.mark.parametrize("kernel, grid", [
        (PermanentKernel(np.eye(2)), equidistant_grid(1.0, 4)),
        (JordanExpKernel(0.2), equidistant_grid(20.0, 65)),
    ], ids=["singular", "indefinite"])
    def test_a_failed_double_factor_raises(self, kernel, grid):
        """Only a dense Gram is decided past a failed factor: any other
        raises ``ArithmeticError``, as the state-space backend does."""
        double = CholeskyGram(assemble_gram(kernel, grid).blocks, grid, 2)
        with pytest.raises(ArithmeticError, match="not strict"):
            _kkt_solve(double, np.array([1.0, -1.0]))


class TestLagrangeResidual:
    def test_multiplier_is_mean_of_pairwise_impact(self, rng):
        kernels = [
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        for kernel in kernels:
            grid = random_grid(rng, n_max=9)
            trades = rng.standard_normal((grid.n, 2))
            impact = impact_loop(kernel, grid, trades)
            lam_hat, residual = lagrange_residual(kernel, grid, trades)
            assert np.allclose(lam_hat, impact.mean(axis=0), rtol=0, atol=1e-13)
            deviation = np.max(np.abs(impact - impact.mean(axis=0)))
            assert residual == pytest.approx(deviation, rel=0, abs=1e-13)

    def test_solver_output_certified(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(2.0, 6)
        result = solve_kkt(kernel, grid, [3.0, -1.0])
        lam_hat, residual = lagrange_residual(kernel, grid, result.strategy)
        assert residual <= 1e-8 * (1.0 + np.max(np.abs(lam_hat)))
        assert np.allclose(lam_hat, result.lam, atol=1e-9)

    def test_perturbation_detected(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(2.0, 6)
        result = solve_kkt(kernel, grid, [3.0, -1.0])
        trades = result.strategy.trades.copy()
        trades[1] += [0.1, 0.0]
        trades[4] -= [0.1, 0.0]
        _, residual = lagrange_residual(kernel, grid, trades)
        assert residual > 1e-4

    def test_asset_count_checked(self):
        grid = equidistant_grid(1.0, 4)
        with pytest.raises(ValueError, match="3 assets but the kernel is 2-dimensional"):
            lagrange_residual(CrossExpKernel(1.0, 1.8, 0.3), grid, np.ones((4, 3)))

    def test_permanent_multiplier(self, rng):
        g0 = random_spd(rng, 2)
        kernel = PermanentKernel(g0)
        grid = equidistant_grid(1.0, 5)
        x0 = rng.uniform(-4, 4, 2)
        trades = rng.standard_normal((5, 2))
        trades -= (trades.sum(axis=0) + x0) / 5.0
        lam_hat, residual = lagrange_residual(kernel, grid, trades)
        assert residual <= 1e-10 * (1 + np.max(np.abs(lam_hat)))
        assert np.allclose(lam_hat, -0.5 * (g0 + g0.T) @ x0, atol=1e-10)


class TestExpClosedForm:
    def test_collapse_toward_zero_matrix(self):
        # smallest eigenvalue allowed by the strictness guard: formulas
        # collapse to half the position at each endpoint
        result = solve_exp_closed_form(1e-11 * np.eye(2), equidistant_grid(1.0, 5), [4.0, 2.0])
        trades = result.strategy.trades
        assert np.allclose(trades[0], [-2.0, -1.0], atol=1e-9)
        assert np.allclose(trades[-1], [-2.0, -1.0], atol=1e-9)
        assert np.max(np.abs(trades[1:-1])) < 1e-9

    def test_two_times_half_each(self, rng):
        b = random_spd(rng, 3)
        x0 = rng.uniform(-5, 5, 3)
        result = solve_exp_closed_form(b, TimeGrid([0.0, 1.7]), x0)
        assert np.allclose(result.strategy.trades, np.tile(-x0 / 2.0, (2, 1)), atol=1e-12)

    def test_three_point_scalar_formula(self):
        grid = equidistant_grid(1.0, 3)
        x0 = np.array([2.0])
        result = solve_exp_closed_form(np.array([[1.0]]), grid, x0)
        xi1 = -2.0 / (3.0 - np.exp(-0.5))
        expected = [xi1, (1.0 - np.exp(-0.5)) * xi1, xi1]
        assert np.allclose(result.strategy.trades[:, 0], expected, atol=1e-12)
        oracle = solve_kkt(MatrixExpKernel([[1.0]]), grid, x0)
        assert np.max(np.abs(result.strategy.trades - oracle.strategy.trades)) < 1e-10

    def test_equidistant_simplified_form(self, rng):
        """On an equidistant grid the recursion reduces to
        ``xi_1 = xi_N = -(N I - (N-2) A)^-1 x0`` and ``xi_i = (I - A) xi_1``."""
        for n in (3, 8, 65):
            b = random_spd(rng, 3)
            x0 = rng.uniform(-5, 5, 3)
            grid = equidistant_grid(2.0, n)
            a = scipy.linalg.expm(-(2.0 / (n - 1)) * b)
            xi1 = -np.linalg.solve(n * np.eye(3) - (n - 2) * a, x0)
            expected = np.tile((np.eye(3) - a) @ xi1, (n, 1))
            expected[0] = expected[-1] = xi1
            result = solve_exp_closed_form(b, grid, x0)
            trades = result.strategy.trades
            assert np.max(np.abs(trades - expected)) <= 1e-12 * (1.0 + np.max(np.abs(trades)))
            lam = (np.eye(3) + a) @ xi1
            assert np.max(np.abs(result.lam - lam)) <= 1e-12 * (1.0 + np.max(np.abs(lam)))

    def test_rejects_semidefinite(self):
        with pytest.raises(ValueError, match="strictly positive"):
            solve_exp_closed_form(np.diag([1.0, 0.0]), equidistant_grid(1.0, 3), [1.0, 1.0])
        with pytest.raises(ValueError):
            solve_exp_closed_form(np.eye(2), TimeGrid([0.0]), [1.0, 1.0])


class TestSolve1DExp:
    def test_two_times(self):
        assert np.allclose(solve_1d_exp(2.0, TimeGrid([0.0, 5.0]), 1.0), [-0.5, -0.5])

    def test_equidistant_matches_matrix_route(self):
        grid = equidistant_grid(2.0, 7)
        eta = solve_1d_exp(0.8, grid, 3.0)
        via_matrix = solve_exp_closed_form(np.array([[0.8]]), grid, [3.0])
        assert np.max(np.abs(eta - via_matrix.strategy.trades[:, 0])) < 1e-12

    def test_irregular_grid_against_kkt(self):
        grid = TimeGrid([0.0, 0.1, 1.0])
        eta = solve_1d_exp(1.0, grid, 1.0)
        oracle = solve_kkt(MatrixExpKernel([[1.0]]), grid, [1.0])
        assert np.max(np.abs(eta - oracle.strategy.trades[:, 0])) < 1e-10


class TestSimultaneousDiagonalize:
    def test_cross_exp_frame(self):
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        ts = np.linspace(0.0, 5.0, 9)
        O, gs = simultaneous_diagonalize(kernel, ts)
        # rows must span the +/- diagonal directions
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        inner = np.abs(O @ expected)
        assert np.max(inner) > 1 - 1e-10 and np.min(inner) < 1e-8
        for i in range(2):
            sign = 1.0 if abs(O[i] @ expected) > 0.5 else -1.0
            decay = np.exp(-ts) + sign * 0.3 * np.exp(-1.8 * ts)
            assert np.allclose(gs[i], decay, atol=1e-10)

    def test_diagonal_kernel_identity_frame(self):
        kernel = MatrixExpKernel(np.diag([1.0, 3.0]))
        O, _ = simultaneous_diagonalize(kernel, np.linspace(0, 3, 5))
        assert np.allclose(np.abs(O), np.eye(2)[np.argsort(np.abs(O).argmax(axis=1))], atol=1e-10)

    def test_matrix_function_recovers_eigenvectors(self, rng):
        q = random_orthogonal(rng, 3)
        b = q @ np.diag([0.5, 1.0, 2.0]) @ q.T
        kernel = MatrixFunctionKernel(0.5 * (b + b.T), GaussianSquared())
        O, _ = simultaneous_diagonalize(kernel, np.linspace(0.1, 3, 7))
        # each row of O matches an eigenvector of B up to sign
        match = np.abs(O @ q)
        assert np.allclose(np.sort(match.max(axis=1)), [1.0, 1.0, 1.0], atol=1e-8)

    def test_noncommuting_rejected(self):
        kernel = ClampedLike = CrossExpKernel(1.0, 1.8, 0.3)
        from crossimpact import Exp2x2Kernel

        bad = Exp2x2Kernel(1.0, 0.5, 0.5, 2.0, 1.0, 1.4, 1.4, 1.1)
        with pytest.raises(ValueError, match="commuting"):
            simultaneous_diagonalize(bad, np.linspace(0, 4, 6))


class TestSolveCommuting:
    def test_diagonal_kernel_splits(self, rng):
        kernel = MatrixExpKernel(np.diag([0.7, 2.0]))
        grid = equidistant_grid(2.0, 6)
        x0 = np.array([5.0, -3.0])
        joint = solve_commuting(kernel, grid, x0)
        for i, rate in enumerate([0.7, 2.0]):
            single = solve_1d_exp(rate, grid, x0[i])
            assert np.max(np.abs(joint.strategy.trades[:, i] - single)) < 1e-10

    def test_cross_exp_matches_kkt(self):
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        grid = equidistant_grid(5.0, 11)
        x0 = np.array([-50.0, 1.0])
        a = solve_commuting(kernel, grid, x0)
        b = solve_kkt(kernel, grid, x0)
        assert np.max(np.abs(a.strategy.trades - b.strategy.trades)) < 1e-8
        assert a.cost == pytest.approx(b.cost, rel=1e-10)

    def test_matrix_exp_matches_closed_form(self, rng):
        b = random_spd(rng, 3)
        grid = random_grid(rng, n_max=9)
        x0 = rng.uniform(-5, 5, 3)
        a = solve_commuting(MatrixExpKernel(b), grid, x0)
        c = solve_exp_closed_form(b, grid, x0)
        assert np.max(np.abs(a.strategy.trades - c.strategy.trades)) < 1e-8

    def test_cost_equals_sum_of_1d_costs(self, rng):
        kernel = random_admissible_kernel(rng)
        grid = random_grid(rng, n_max=8)
        x0 = rng.uniform(-3, 3, kernel.dimension)
        result = solve_commuting(kernel, grid, x0)
        assert result.cost == pytest.approx(cost(kernel, grid, result.strategy), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: ScalarTimesMatrixKernel(ExpDecay(0.8), [[2.0, 0.5], [0.4, 1.0]]),
        lambda: PermanentKernel([[2.0, 0.5], [0.4, 1.0]]),
        lambda: JordanLike(),
        lambda: EXP2X2_CLOSE_ONLY,
    ], ids=["nonsymmetric_L", "nonsymmetric_G0", "jordan_like", "exp2x2_close_only"])
    def test_no_frame_no_commuting_route(self, make):
        """A kernel without an exact closed-form frame has no commuting route,
        also where the sampled structure check reads it as commuting."""
        kernel, grid = make(), geometric_grid(3.0, 17)
        assert kernel.eigenframe() is None
        with pytest.raises(ValueError, match="no closed-form eigenframe"):
            solve_commuting(kernel, grid, [4.0, -1.0])

    def test_exponential_directions_fill_no_dense_gram(self, monkeypatch):
        """Every direction of CrossExp has a state-space Gram, so neither the
        commuting solve nor the basis strategies fill an N x N Gram, also at
        N = 4097, where one would take seconds."""

        def no_dense_gram(*args):
            raise AssertionError("a dense per-direction Gram was filled")

        for module in (solver, posdef):
            monkeypatch.setattr(module, "_fill_gram", no_dense_gram)
        kernel, grid = CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(2.0, 4097)
        result = solve_commuting(kernel, grid, [10.0, -4.0])
        assert result.unique is True
        assert np.allclose(result.strategy.liquidates, [10.0, -4.0], rtol=1e-12, atol=0)
        basis = basis_strategies(kernel, grid)
        for i, strategy in enumerate(basis.strategies):
            assert np.max(np.abs(strategy.liquidates - basis.vectors[i])) < 1e-10

    @pytest.mark.parametrize("spacing", ["equidistant", "geometric"])
    def test_a_missed_direction_solves_on_its_dense_gram(self, spacing, monkeypatch):
        """A direction whose realized decay misses the frame's by more than
        ``DIAGONAL_LEAK_TOL`` takes its dense N x N Gram, the other direction
        its state-space one, and together they match ``solve_kkt``; so does a
        kernel whose realization misses every direction."""
        calls = count_calls(monkeypatch, posdef, "_fill_gram")
        grid = (equidistant_grid(3.0, 33) if spacing == "equidistant"
                else geometric_grid(3.0, 33, 1.08))
        x0 = [4.0, -1.0]
        for kernel, dense_directions in [
            (OffRateDiagCongruence(np.array([[0.6, 0.8], [-0.8, 0.6]]),
                                   [ExpDecay(0.5), ExpDecay(2.0)]), 1),
            (OffRateCrossExp(1.0, 1.8, 0.3), 2),
        ]:
            calls.clear()
            result = solve_commuting(kernel, grid, x0)
            assert len(calls) == dense_directions
            reference = solve_kkt(kernel, grid, x0)
            assert result.unique is reference.unique is True
            gap = np.max(np.abs(result.strategy.trades - reference.strategy.trades))
            assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(reference.strategy.trades)))

    @pytest.mark.parametrize("spacing", ["equidistant", "geometric"])
    def test_circulant_linear2x2_takes_the_half_turn_frame(self, spacing):
        """A symmetric-circulant Linear2x2 has the half-turn frame
        ``(1, +-1)/sqrt(2)`` with decays ``own +- cross``: it takes the
        commuting route on dense per-direction Grams and agrees with the
        dense solve; a Linear2x2 off the circulant form has no frame."""
        kernel = Linear2x2Kernel(1.0, 0.3, 0.3, 1.0, 0.5, 0.15, 0.15, 0.5)
        grid = (equidistant_grid(3.0, 17) if spacing == "equidistant"
                else geometric_grid(3.0, 17, 1.1))
        x0 = [4.0, -1.0]
        result, route = solve_best(kernel, grid, x0, cross_check=True)
        assert route == "commuting"
        reference = solve_kkt(kernel, grid, x0)
        assert result.unique is reference.unique is True
        gap = np.max(np.abs(result.strategy.trades - reference.strategy.trades))
        assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(reference.strategy.trades)))
        assert Linear2x2Kernel(1.0, 0.3, 0.3, 1.1, 0.5, 0.15, 0.15, 0.5).eigenframe() is None

    @pytest.mark.parametrize("g", [ExpDecay(0.8), LinearPolya(1.0, 0.3)], ids=["exp", "polya"])
    def test_check_and_route_agree_on_symmetry(self, g):
        """``check`` calls ``g(t) L``, a permanent ``G0`` and exp2x2 kernels
        (equal rates, or half-turn symmetric as ``EXP2X2_CLOSE_ONLY``)
        symmetric and commuting exactly when they take the commuting route:
        loadings off symmetry in the last bits are nonsymmetric for all."""
        grid = equidistant_grid(3.0, 17)
        cases = [(CrossExpKernel(1.0, 1.8, 0.3), True)]
        for L in ([[2.0, 0.5], [0.5, 1.0]], [[2.0, 0.5], [0.5 + 1e-13, 1.0]]):
            (a11, a12), (a21, a22) = L
            cases += [(kernel, a12 == a21) for kernel in (
                ScalarTimesMatrixKernel(g, L),
                PermanentKernel(L),
                Exp2x2Kernel(a11, a12, a21, a22, 0.7, 0.7, 0.7, 0.7),
                Exp2x2Kernel(1.0, a12, a21, 1.0, 1.0, 1.8, 1.8, 1.0),
            )]
        for kernel, symmetric in cases:
            report = check_shape_properties(kernel, t_max=3.0)
            route = solve_best(kernel, grid, [4.0, -1.0])[1]
            assert (report.symmetric and report.commuting) == (route == "commuting")
            assert report.symmetric == symmetric
            assert report.commuting


class TestBasisStrategies:
    def test_diagonal_kernel_axes(self):
        kernel = MatrixExpKernel(np.diag([0.5, 1.5]))
        grid = equidistant_grid(2.0, 7)
        basis = basis_strategies(kernel, grid)
        assert np.allclose(np.abs(basis.vectors), np.eye(2)[np.argsort(np.abs(basis.vectors).argmax(axis=1))], atol=1e-12)
        for i, strategy in enumerate(basis.strategies):
            assert np.allclose(-strategy.trades.sum(axis=0), basis.vectors[i], atol=1e-10)

    def test_sign_constant_components(self, rng):
        for _ in range(10):
            kernel = random_admissible_kernel(rng)
            grid = random_grid(rng, n_max=9)
            basis = basis_strategies(kernel, grid)
            for strategy in basis.strategies:
                trades = strategy.trades
                outer = trades[:, None, :] * trades[None, :, :]
                assert np.min(outer) >= -1e-12

    def test_recombination_matches_kkt(self, rng):
        kernel = random_admissible_kernel(rng)
        grid = random_grid(rng, n_max=9)
        basis = basis_strategies(kernel, grid)
        alpha = rng.uniform(-2, 2, kernel.dimension)
        x0 = alpha @ basis.vectors
        combo = sum(a * s.trades for a, s in zip(alpha, basis.strategies))
        oracle = solve_kkt(kernel, grid, x0)
        assert np.max(np.abs(combo - oracle.strategy.trades)) < 1e-8

    def test_basis_is_orthonormal_and_liquidating(self, rng):
        for _ in range(5):
            kernel = random_admissible_kernel(rng)
            grid = random_grid(rng, n_max=8)
            basis = basis_strategies(kernel, grid)
            k = kernel.dimension
            assert np.max(np.abs(basis.vectors @ basis.vectors.T - np.eye(k))) < 1e-10
            for i, strategy in enumerate(basis.strategies):
                assert np.max(np.abs(strategy.liquidates - basis.vectors[i])) < 1e-10

    def test_precondition_enforced(self):
        # gaussian-squared matrix function is commuting but not convex
        kernel = MatrixFunctionKernel(np.array([[1.0, 0.4], [0.4, 1.0]]), GaussianSquared())
        with pytest.raises(ValueError, match="convex"):
            basis_strategies(kernel, equidistant_grid(2.0, 5))


class TestLargePortfolios:
    """The certificate tolerances scale with the portfolio, so 1e7-share
    books solve on every route like 1-share ones."""

    def test_solve_best_cross_exp(self):
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        grid = equidistant_grid(5.0, 11)
        result, route = solve_best(kernel, grid, [-5e7, 1e6], cross_check=True)
        assert route == "commuting"
        scaled = 1e6 * solve_kkt(kernel, grid, [-50.0, 1.0]).strategy.trades
        gap = np.max(np.abs(result.strategy.trades - scaled))
        assert gap <= 1e-9 * np.max(np.abs(scaled))

    def test_exp_closed_form_n1025(self):
        b = np.array([[1.0, 0.3], [0.3, 1.8]])
        result = solve_exp_closed_form(b, equidistant_grid(5.0, 1025), [1e7, 2e7])
        assert np.allclose(result.strategy.liquidates, [1e7, 2e7], rtol=1e-12, atol=0)

    def test_commuting_n257(self):
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        grid = equidistant_grid(5.0, 257)
        result = solve_commuting(kernel, grid, [-5e7, 1e6])
        oracle = solve_kkt(kernel, grid, [-5e7, 1e6])
        gap = np.max(np.abs(result.strategy.trades - oracle.strategy.trades))
        assert gap <= 1e-8 * (1.0 + np.max(np.abs(oracle.strategy.trades)))


class TestTransformationLaws:
    def test_uniform_cross_impact_is_ignorable(self, rng):
        """Same-rate impact across assets yields the same optimizer as no
        cross impact at all."""
        for _ in range(5):
            g = ExpDecay(float(rng.uniform(0.3, 2.0)))
            L = random_spd(rng, 2)
            grid = random_grid(rng, n_max=8)
            x0 = rng.uniform(-4, 4, 2)
            plain = solve_kkt(ScalarTimesMatrixKernel(g, np.eye(2)), grid, x0)
            loaded = solve_kkt(ScalarTimesMatrixKernel(g, L), grid, x0)
            assert np.max(np.abs(plain.strategy.trades - loaded.strategy.trades)) < 1e-8

    def test_congruence_mapping(self, rng):
        from crossimpact import CongruenceKernel

        for _ in range(5):
            kernel = MatrixExpKernel(random_spd(rng, 2))
            L = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
            grid = random_grid(rng, n_max=8)
            x0 = rng.uniform(-3, 3, 2)
            upstream = solve_kkt(kernel, grid, L @ x0)
            mapped = upstream.strategy.trades @ np.linalg.inv(L).T
            downstream = solve_kkt(CongruenceKernel(L, kernel), grid, x0)
            assert np.max(np.abs(mapped - downstream.strategy.trades)) < 1e-8


class TestCostOptimality:
    def test_feasible_perturbations_cannot_improve(self, rng):
        kernel = random_admissible_kernel(rng)
        grid = random_grid(rng, n_max=8)
        x0 = rng.uniform(-4, 4, kernel.dimension)
        result = solve_kkt(kernel, grid, x0)
        base = result.cost
        for _ in range(100):
            delta = rng.standard_normal(result.strategy.trades.shape)
            delta -= delta.mean(axis=0)
            perturbed = cost(kernel, grid, result.strategy.trades + 0.1 * delta)
            assert perturbed >= base - 1e-10 * (1.0 + abs(base))


class TestRefine:
    def test_permanent_cost_level_free(self, rng):
        g0 = random_spd(rng, 2)
        x0 = rng.uniform(-3, 3, 2)
        result = refine(PermanentKernel(g0), 1.0, x0, max_levels=2)
        costs = [c for _, c in result.levels]
        brute = 0.5 * x0 @ (0.5 * (g0 + g0.T)) @ x0
        assert costs[0] == pytest.approx(brute, rel=1e-10)
        assert costs[0] == pytest.approx(costs[-1], rel=1e-12)

    def test_1d_exponential_convergence(self):
        kernel = ScalarTimesMatrixKernel(ExpDecay(1.0), [[1.0]])
        result = refine(kernel, 1.0, [1.0], max_levels=10)
        costs = [c for _, c in result.levels]
        assert all(b <= a + 1e-10 * abs(a) for a, b in zip(costs, costs[1:]))
        assert all(b < a for a, b in zip(costs[:4], costs[1:5]))  # strictly at first
        assert abs(costs[-1] - costs[-2]) < 1e-6  # Cauchy by level 10
        # continuum cost for unit exponential decay on [0,1] is 1/3
        assert costs[-1] == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_not_pd_rejected(self):
        from crossimpact import JordanExpKernel

        with pytest.raises(UnboundedCostError):
            refine(JordanExpKernel(0.4), 1.0, [1.0, 0.0], max_levels=3)

    def test_early_stop(self):
        kernel = ScalarTimesMatrixKernel(ExpDecay(1.0), [[1.0]])
        result = refine(kernel, 1.0, [1.0], max_levels=10, rel_tol=1e-3)
        assert len(result.levels) < 10

    @pytest.mark.parametrize("g0", [[[1.0, 0.3], [0.3, 2.0]], np.eye(2)])
    def test_no_early_stop_on_roundoff(self, g0):
        # the permanent cost does not depend on the schedule, so finer levels
        # only move it by roundoff; rel_tol = 0 must still run every level
        result = refine(PermanentKernel(g0), 1.0, [1.0, 2.0], max_levels=8)
        assert [n for n, _ in result.levels] == [2**level + 1 for level in range(1, 9)]
        stopped = refine(PermanentKernel(g0), 1.0, [1.0, 2.0], max_levels=8, rel_tol=1e-6)
        assert len(stopped.levels) == 2


class TestSolveBest:
    def test_routes(self, rng):
        grid = equidistant_grid(2.0, 6)
        _, route = solve_best(MatrixExpKernel(random_spd(rng, 2)), grid, [1.0, 2.0])
        assert route == "closed_form"
        _, route = solve_best(CrossExpKernel(1.0, 1.8, 0.3), grid, [1.0, 2.0])
        assert route == "commuting"
        _, route = solve_best(JordanLike(), grid, [1.0, 2.0])
        assert route == "state_space"
        _, route = solve_best(JordanLike(), grid, [1.0, 2.0], cross_check=True)
        assert route == "state_space"
        _, route = solve_best(JordanExpKernel(0.7), grid, [1.0, 2.0])  # no realization
        assert route == "kkt"
        _, route = solve_best(EXP2X2_CLOSE_ONLY, grid, [1.0, 2.0], cross_check=True)
        assert route == "state_space"  # no closed-form frame
        # a realization whose Gram is singular: the state-space backend
        # declines and the dense core's non-strict branch answers
        singular = LeftMultiplyKernel(np.eye(2), PermanentKernel([[1.0, 0.2], [0.2, 0.5]]))
        for n in (2, 9):
            for cross_check in (False, True):
                result, route = solve_best(singular, equidistant_grid(2.0, n), [1.0, 2.0],
                                           cross_check=cross_check)
                assert (route, result.unique) == ("kkt", False)

    @pytest.mark.xfail(strict=True, raises=ArithmeticError,
                       reason="the KKT core's xi = Y lam loses digits on a graded grid")
    @pytest.mark.parametrize(
        "kernel",
        [CrossExpKernel(1.0, 1.8, 0.3), MatrixExpKernel([[1.0, 0.2], [0.2, 2.0]])],
        ids=["cross_exp", "matrix_exp"],
    )
    def test_cross_check_holds_on_a_graded_grid(self, kernel):
        """Gap spread 1000 at N = 4097: the route and the state-space
        reference must agree to the cross-check's tolerance.  Today the
        range-space step ``xi = Y lam`` of ``_kkt_solve`` puts both routes
        about 3e-7 apart and the cross-check raises; a refinement step on
        the KKT residual is the fix, and its change removes this mark."""
        grid = geometric_grid(2.0, 4097, 1.0016882)
        solve_best(kernel, grid, [10.0, -4.0], cross_check=True)

    def test_exp_profile_matrix_function_uses_closed_form(self, rng):
        b = random_spd(rng, 2)
        kernel = MatrixFunctionKernel(b, ExpDecay(1.7))
        grid = equidistant_grid(2.0, 6)
        result, route = solve_best(kernel, grid, [1.0, -2.0], cross_check=True)
        assert route == "closed_form"
        oracle = solve_kkt(kernel, grid, [1.0, -2.0])
        assert np.max(np.abs(result.strategy.trades - oracle.strategy.trades)) < 1e-8

    def test_one_gram_per_solve(self, rng, monkeypatch):
        """Only the dense KKT solve assembles a Gram.  Cross-checked, the
        closed form and the commuting route take the state-space reference,
        and a kernel with no eigenframe route the state-space route: none
        builds a Gram."""
        calls = count_calls(monkeypatch, posdef, "assemble_gram")
        grid = equidistant_grid(2.0, 6)
        closed = MatrixExpKernel(random_spd(rng, 2))
        jordan_like = JordanLike()
        for kernel, expected, grams in [
            (closed, "closed_form", []),
            (CrossExpKernel(1.0, 1.8, 0.3), "commuting", []),
            (jordan_like, "state_space", []),
        ]:
            calls.clear()
            _, route = solve_best(kernel, grid, [1.0, 2.0], cross_check=True)
            assert route == expected
            assert [(args[0], args[1]) for args in calls] == grams
        calls.clear()
        assert solve_best(closed, grid, [1.0, 2.0])[1] == "closed_form"
        solve_exp_closed_form(closed.B, grid, [1.0, 2.0])
        assert calls == []

        for kernel in [CrossExpKernel(1.0, 1.8, 0.3),
                       MatrixFunctionKernel(random_spd(rng, 3), LinearPolya(1.0, 0.2))]:
            x0 = np.arange(1.0, kernel.dimension + 1)
            assert solve_best(kernel, grid, x0)[1] == "commuting"
            solve_commuting(kernel, grid, x0)
            basis_strategies(kernel, grid)
            refine(kernel, 2.0, x0, max_levels=3)
        assert calls == []

    def test_routing_samples_nothing(self, rng, monkeypatch):
        """Every route of ``solve_best`` follows from kernel facts alone: with
        or without the cross-check, and through ``refine`` (its
        classification included), no kernel structure is sampled."""
        calls = count_calls(monkeypatch, kernels, "check_structure")
        grid = equidistant_grid(2.0, 9)
        for kernel, expected in [
            (MatrixExpKernel(random_spd(rng, 2)), "closed_form"),
            (CrossExpKernel(1.0, 1.8, 0.3), "commuting"),
            (EXP2X2_SYM, "state_space"),
            (JordanExpKernel(0.7), "kkt"),
        ]:
            for cross_check in (False, True):
                assert solve_best(kernel, grid, [1.0, 2.0], cross_check=cross_check)[1] == expected
            refine(kernel, 2.0, [1.0, 2.0], max_levels=3)
        assert calls == []

    def test_state_space_route_builds_no_gram(self, monkeypatch):
        """Exp2x2 (sym.) takes the state-space route with or without a
        cross-check; neither solve nor ``refine`` on it builds a Gram, and
        ``refine`` matches the dense solve at its finest level."""
        calls = count_calls(monkeypatch, posdef, "assemble_gram")
        kernel, x0 = EXP2X2_SYM, [10.0, -4.0]
        grid = equidistant_grid(2.0, 33)
        assert solve_best(kernel, grid, x0)[1] == "state_space"
        assert solve_best(kernel, grid, x0, cross_check=True)[1] == "state_space"
        assert calls == []
        result = refine(kernel, 2.0, x0, max_levels=8)
        assert calls == []
        assert result.finest.unique is True
        dense = solve_kkt(kernel, equidistant_grid(2.0, 257), x0)
        assert result.finest.cost == pytest.approx(dense.cost, rel=1e-12)
        gap = np.max(np.abs(result.finest.strategy.trades - dense.strategy.trades))
        assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(dense.strategy.trades)))

    def test_closed_form_reuses_the_kernel_decomposition(self, rng, monkeypatch):
        kernel = MatrixFunctionKernel(random_spd(rng, 2), ExpDecay(1.7))
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        _, route = solve_best(kernel, equidistant_grid(2.0, 8), [1.0, -2.0], cross_check=True)
        assert route == "closed_form"
        assert eigh == []

    def test_cross_checked_closed_form_builds_one_realization(self, rng, monkeypatch):
        """A cross-checked MatrixExp solve builds and guards the realization
        once: it certifies the closed form and is the state-space reference."""
        calls = count_calls(monkeypatch, posdef, "state_space_gram")
        kernel = MatrixExpKernel(random_spd(rng, 3))
        grid = equidistant_grid(2.0, 17)
        _, route = solve_best(kernel, grid, [1.0, -2.0, 0.5], cross_check=True)
        assert route == "closed_form"
        assert len(calls) == 1

    @pytest.mark.parametrize("x0, message", [([1.0, 2.0, 3.0], "x0 must have 2 components"),
                                             ([1.0, np.nan], "x0 must be finite")])
    @pytest.mark.parametrize("route", ["kkt", "closed_form", "commuting", "best"])
    def test_portfolio_checked_on_every_route(self, route, x0, message):
        b = np.array([[1.0, 0.3], [0.3, 1.8]])
        grid = equidistant_grid(2.0, 6)
        solve = {
            "kkt": lambda: solve_kkt(CrossExpKernel(1.0, 1.8, 0.3), grid, x0),
            "closed_form": lambda: solve_exp_closed_form(b, grid, x0),
            "commuting": lambda: solve_commuting(CrossExpKernel(1.0, 1.8, 0.3), grid, x0),
            "best": lambda: solve_best(MatrixExpKernel(b), grid, x0),
        }[route]
        with pytest.raises(ValueError, match=message):
            solve()

    @pytest.mark.parametrize("route", ["kkt", "closed_form", "commuting", "best"])
    def test_overflowing_cost_raises_on_every_route(self, route):
        """At x0 = (1e200, -1e200) the cost overflows: every route raises
        instead of returning an infinite cost."""
        b = np.array([[1.0, 0.3], [0.3, 1.8]])
        grid = equidistant_grid(2.0, 6)
        x0 = [1e200, -1e200]
        solve = {
            "kkt": lambda: solve_kkt(CrossExpKernel(1.0, 1.8, 0.3), grid, x0),
            "closed_form": lambda: solve_exp_closed_form(b, grid, x0),
            "commuting": lambda: solve_commuting(CrossExpKernel(1.0, 1.8, 0.3), grid, x0),
            "best": lambda: solve_best(CrossExpKernel(1.0, 1.8, 0.3), grid, x0, cross_check=True),
        }[route]
        with pytest.raises(ArithmeticError, match="not finite"):
            solve()

    def test_cross_check_runs(self, rng):
        result, route = solve_best(
            MatrixExpKernel(random_spd(rng, 2)), equidistant_grid(1.0, 5), [1.0, -1.0],
            cross_check=True,
        )
        assert route == "closed_form"
        assert result.residual < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    eigenvalues=st.lists(st.floats(0.2, 5.0), min_size=1, max_size=4),
    gaps=st.lists(st.floats(1e-2, 3.0), min_size=1, max_size=29),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_agrees_with_kkt(eigenvalues, gaps, seed):
    """On any SPD generator and any grid, the closed form's trades agree with
    the KKT solve's within the cross-check tolerance of ``solve_best``, and
    its certificate, computed in the eigenframe, with the dense Gram's."""
    rng = np.random.default_rng(seed)
    k = len(eigenvalues)
    q = random_orthogonal(rng, k)
    b = q @ np.diag(eigenvalues) @ q.T
    b = 0.5 * (b + b.T)
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(gaps)]))
    x0 = rng.uniform(-10.0, 10.0, k)
    kernel = MatrixExpKernel(b)
    result = solve_exp_closed_form(b, grid, x0)
    closed = result.strategy.trades
    reference = solve_kkt(kernel, grid, x0).strategy.trades
    gap = np.max(np.abs(closed - reference))
    assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(reference)))

    dense_cost = cost(kernel, grid, closed)
    assert abs(result.cost - dense_cost) <= 1e-12 * abs(dense_cost)
    lam, residual = lagrange_residual(kernel, grid, closed)
    tol = solver.RESIDUAL_REL_TOL * (1.0 + np.max(np.abs(lam)))
    assert abs(result.residual - residual) <= tol


def _commuting_kernel(family, rng, positive=False):
    """A kernel of the family with a closed-form eigenframe, K from 1 to 4 (2
    for the 2 x 2 families): positive definite when ``positive``, else
    positive definite or not."""
    k = int(rng.integers(1, 5))
    m = rng.standard_normal((k, k))
    if positive:  # m + m.T is then SPD
        m = 0.5 * random_spd(rng, k)
    if family == "matrix_exp":
        return MatrixExpKernel(random_spd(rng, k))
    if family == "matrix_function":
        return MatrixFunctionKernel(random_spd(rng, k), LinearPolya(1.0, rng.uniform(0.1, 2.0)))
    if family == "diag_congruence":
        decays = [random_convex_decay(rng) for _ in range(k)]
        return DiagCongruenceKernel(random_orthogonal(rng, k), decays)
    if family == "cross_exp":
        return random_cross_exp(rng)
    if family == "scalar_times_matrix":
        return ScalarTimesMatrixKernel(ExpDecay(rng.uniform(0.2, 3.0)), m + m.T)
    if family == "permanent":
        return PermanentKernel(m + m.T)
    if family == "exp2x2_equal_rates":
        a11, a12, a22, rate = rng.uniform(0.1, 2.0, 4)
        if positive:
            a12 = rng.uniform(0.05, 0.95) * np.sqrt(a11 * a22)
        return Exp2x2Kernel(a11, a12, a12, a22, rate, rate, rate, rate)
    if family == "linear2x2_circulant":
        a11, b11, s = rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.05, 0.95)
        if positive:  # decays (1 +- s) max(a11 - b11 t, 0)
            return Linear2x2Kernel(a11, s * a11, s * a11, a11, b11, s * b11, s * b11, b11)
        a12, b12 = rng.uniform(0.1, 2.0, 2)
        return Linear2x2Kernel(a11, a12, a12, a11, b11, b12, b12, b11)
    # own impact a11 != 1 on both diagonals, cross impact at its own rate
    a11, a12, b11, b12 = rng.uniform(0.1, 2.0, 4)
    if positive:  # a scaled admissible cross_exp
        cross = random_cross_exp(rng)
        a12, b11, b12 = a11 * cross.rho, cross.kappa, cross.kappa_tilde
        return Exp2x2Kernel(a11, a12, a12, a11, b11, b12, b12, b11)
    return Exp2x2Kernel(a11 + 2.0, a12, a12, a11 + 2.0, b11, b12, b12, b11)


CLOSED_FRAMES = ("matrix_exp", "matrix_function", "diag_congruence", "cross_exp",
                 "scalar_times_matrix", "permanent", "exp2x2_equal_rates",
                 "exp2x2_equal_diagonals", "linear2x2_circulant")


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(CLOSED_FRAMES),
    gaps=st.lists(st.floats(1e-2, 3.0), max_size=39),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_impact_matches_dense(family, gaps, seed):
    """The commuting route's impact, the unit impacts of
    ``solver._unit_frame_solves`` (each direction's state-space or N x N
    dense Gram's ``impact``) scaled by the rotated portfolio and rotated
    back, is the dense Gram's impact of the same trades up to roundoff; the
    closed-form frame reproduces the kernel's values."""
    rng = np.random.default_rng(seed)
    kernel = _commuting_kernel(family, rng)
    O, decays = kernel.eigenframe()
    lags = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e3, 20))])
    values = np.einsum("ia,mi,ib->mab", O, decays(lags), O)
    reference = kernel.at_many(lags)
    assert np.max(np.abs(values - reference)) <= 1e-14 * (1.0 + np.max(np.abs(reference)))

    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(gaps)]))
    n, k = grid.n, kernel.dimension
    try:
        O, etas, _, impacts, _ = solver._unit_frame_solves(kernel, grid)
    except UnboundedCostError:
        assume(False)  # an indefinite direction has no unit solve to certify
    y = O @ rng.standard_normal(k)
    trades = (etas * y) @ O
    gram = assemble_gram(kernel, grid)
    gap = np.max(np.abs((impacts * y) @ O - gram.impact(trades)))
    assert gap <= 1e-12 * (1.0 + gram.bound) * n * np.max(np.abs(trades))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    exponential=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniform_load_law(k, exponential, seed):
    """Criterion 11's uniform-load law: ``G(t) = g(t) L`` with SPD ``L``
    takes the commuting route, in the closed-form frame of ``L``, and trades
    as ``g(t) I`` does."""
    rng = np.random.default_rng(seed)
    if exponential:
        g = ExpDecay(float(rng.uniform(0.2, 3.0)))
    else:
        g = LinearPolya(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 2.0)))
    L = random_spd(rng, k)
    L = 0.5 * (L + L.T)  # exactly symmetric
    grid = random_grid(rng, n_max=24)
    x0 = rng.uniform(-10.0, 10.0, k)
    loaded, route = solve_best(ScalarTimesMatrixKernel(g, L), grid, x0)
    assert route == "commuting"
    plain = solve_best(ScalarTimesMatrixKernel(g, np.eye(k)), grid, x0)[0].strategy.trades
    gap = np.max(np.abs(loaded.strategy.trades - plain))
    assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(plain)))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(CLOSED_FRAMES), seed=st.integers(0, 2**32 - 1))
def test_congruence_law(family, seed):
    """Criterion 11's congruence law: the optimum for ``L^T G(t) L`` and
    ``x0`` is the optimum for ``G`` and ``L x0`` mapped by ``L^-1``, at the
    same cost, on every closed-frame family."""
    rng = np.random.default_rng(seed)
    kernel = _commuting_kernel(family, rng, positive=True)
    k = kernel.dimension
    L = random_orthogonal(rng, k) * rng.uniform(0.5, 2.0, k)  # condition at most 4
    grid = random_grid(rng, n_max=16)
    x0 = rng.uniform(-10.0, 10.0, k)
    upstream = solve_kkt(kernel, grid, L @ x0)
    downstream = solve_kkt(CongruenceKernel(L, kernel), grid, x0)
    mapped = upstream.strategy.trades @ np.linalg.inv(L).T
    gap = np.max(np.abs(mapped - downstream.strategy.trades))
    assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(mapped)))
    assert downstream.cost == pytest.approx(upstream.cost, rel=1e-9, abs=1e-12)
    assert downstream.unique == upstream.unique


def _realized_frame_kernel(family, rng):
    """A kernel with both a closed-form frame and a realization, positive
    definite: a DiagCongruence over ExpDecay and Constant (K 1-4, sometimes
    two equal rates, sometimes a Constant direction), ScalarTimesMatrix over
    ExpDecay, an admissible CrossExp, a symmetric-circulant Exp2x2, or a
    permanent kernel of PSD ``G0``, singular on every grid of two or more
    times; half of those ``G0`` are diagonal with some exactly zero entries,
    directions with no exponential term."""
    k = int(rng.integers(1, 5))
    L = random_spd(rng, k)
    L = 0.5 * (L + L.T)  # exactly symmetric
    if family == "diag_congruence":
        decays = [ExpDecay(r) for r in rng.uniform(0.2, 3.0, k)]
        if k > 1 and rng.random() < 0.5:
            decays[1] = decays[0]
        if rng.random() < 0.5:
            decays[-1] = Constant(float(rng.uniform(0.5, 2.0)))
        return DiagCongruenceKernel(random_orthogonal(rng, k), decays)
    if family == "scalar_times_matrix":
        return ScalarTimesMatrixKernel(ExpDecay(rng.uniform(0.2, 3.0)), L)
    if family == "cross_exp":
        return random_cross_exp(rng)
    if family == "exp2x2_circulant":
        return _commuting_kernel("exp2x2_equal_diagonals", rng, positive=True)
    if rng.random() < 0.5:
        L = np.diag(rng.uniform(0.1, 3.0, k) * (rng.random(k) < 0.5))
    return PermanentKernel(L)


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["diag_congruence", "scalar_times_matrix", "cross_exp",
                            "exp2x2_circulant", "permanent"]),
    n=st.integers(1, 64),
    geometric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# a singular Gram on which LAPACK gelsd's SVD does not converge with two BLAS
# threads: the non-strict branch retries with gelss
@example(family="diag_congruence", n=60, geometric=False, seed=3950893)
def test_commuting_route_matches_dense(family, n, geometric, seed):
    """On kernels with a closed-form frame and a realization, the commuting
    route (a state-space Gram per direction, a dense one where that
    declines) trades as the dense ``solve_kkt`` within the cross-check
    tolerance, with the same ``unique``: False through the dense fallback
    for a permanent kernel or a Constant direction on two or more times."""
    rng = np.random.default_rng(seed)
    kernel = _realized_frame_kernel(family, rng)
    horizon = float(rng.uniform(0.5, 10.0))
    grid = geometric_grid(horizon, n, 1.08) if geometric else equidistant_grid(horizon, n)
    x0 = rng.uniform(-10.0, 10.0, kernel.dimension)
    result, route = solve_best(kernel, grid, x0)
    assert route == "commuting"
    reference = solve_kkt(kernel, grid, x0)
    assert result.unique == reference.unique
    if family == "permanent" and n > 1:
        assert result.unique is False
    trades = reference.strategy.trades
    gap = np.max(np.abs(result.strategy.trades - trades))
    assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(trades)))


def _generated_kernel(family, rng):
    """A positive definite kernel of the family: an admissible cross_exp,
    matrix_exp on a random SPD generator, or a symmetric, non-commuting
    exp2x2 whose cross rates outlive its own ones."""
    if family == "cross_exp":
        return random_cross_exp(rng)
    if family == "matrix_exp":
        return MatrixExpKernel(random_spd(rng, int(rng.integers(1, 5))))
    a12, b11, b22 = rng.uniform(0.05, 0.25), rng.uniform(0.5, 1.0), rng.uniform(1.2, 2.0)
    b12 = rng.uniform(1.0, 1.3) * 0.5 * (b11 + b22)
    kernel = Exp2x2Kernel(rng.uniform(0.8, 1.2), a12, a12, rng.uniform(0.8, 1.2),
                          b11, b12, b12, b22)
    assert kernel.pd_class() == "pd"
    return kernel


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["cross_exp", "matrix_exp", "exp2x2"]),
    log_c=st.floats(-6.0, 9.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_solutions_scale_with_the_portfolio(family, log_c, seed):
    """Liquidating ``c x0`` trades ``c`` times the trades of ``x0`` at ``c**2``
    times the cost, on every route of ``solve_best``."""
    rng = np.random.default_rng(seed)
    kernel = _generated_kernel(family, rng)
    grid = random_grid(rng, n_max=40)
    x0 = rng.uniform(-10.0, 10.0, kernel.dimension)
    c = 10.0**log_c
    base, route = solve_best(kernel, grid, x0, cross_check=True)
    scaled, scaled_route = solve_best(kernel, grid, c * x0, cross_check=True)
    assert scaled_route == route
    trades = base.strategy.trades
    gap = np.max(np.abs(scaled.strategy.trades - c * trades))
    assert gap <= 1e-12 * c * np.max(np.abs(trades))
    assert scaled.cost == pytest.approx(c * c * base.cost, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from(["cross_exp", "matrix_exp"]),
    levels=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_refinement_never_raises_the_cost(family, levels, seed):
    """Nested dyadic grids give nonincreasing optimal costs."""
    rng = np.random.default_rng(seed)
    kernel = _generated_kernel(family, rng)
    x0 = rng.uniform(-10.0, 10.0, kernel.dimension)
    result = refine(kernel, float(rng.uniform(0.5, 10.0)), x0, max_levels=levels, seed=seed % 1000)
    costs = [c for _, c in result.levels]
    assert len(costs) == levels
    assert all(b <= a + solver.REFINE_MONOTONE_SLACK * abs(a) for a, b in zip(costs, costs[1:]))


# the symmetric, non-commuting Exp2x2 kernel of the benchmark's exp2x2 slot kind
EXP2X2_SYM = Exp2x2Kernel(1.0, 0.15, 0.15, 1.1, 0.7, 1.5, 1.5, 1.6)
# CrossExp(1, 1.8, 0.3) with a21 off by half of CLOSE_REL_TOL: commuting to
# that tolerance only, so it has no closed-form frame
EXP2X2_CLOSE_ONLY = Exp2x2Kernel(1.0, 0.3, 0.3 * (1.0 + 0.5 * CLOSE_REL_TOL), 1.0,
                                 1.0, 1.8, 1.8, 1.0)


def JordanLike():
    # symmetric-but-not-commuting kernel: no eigenframe route
    from crossimpact import Exp2x2Kernel

    return Exp2x2Kernel(1.0, 0.5, 0.5, 2.0, 1.0, 1.6, 1.6, 1.2)


class RealizedKernel(DecayKernel):
    """``G(t) = P diag(exp(-t rates)) Q^T`` from its generators."""

    family = "realized"

    def __init__(self, P, rates, Q):
        self.P, self.rates, self.Q = P, rates, Q
        self.dimension = P.shape[0]

    def _values(self, ts):
        with np.errstate(over="ignore"):
            decays = np.exp(-np.outer(ts, self.rates))
        return np.matmul(self.P * decays[:, None, :], self.Q.T)

    def realization(self):
        return self.P, self.rates, self.Q


class OffRateCrossExp(CrossExpKernel):
    """CrossExp whose realization gets one rate wrong by 1e-3."""

    def realization(self):
        P, rates, Q = super().realization()
        rates[1] += 1e-3
        return P, rates, Q


class OffRateDiagCongruence(DiagCongruenceKernel):
    """DiagCongruence whose realization gets its second direction's rate
    wrong by 1e-3."""

    def realization(self):
        P, rates, Q = super().realization()
        rates[1] += 1e-3
        return P, rates, Q


class GapExactCrossExp(CrossExpKernel):
    """CrossExp whose realization is exact at the lag ``GAP`` and nowhere
    else: the cross terms decay 0.2 faster, their weights scaled up by
    ``exp(0.2 GAP)``."""

    GAP = 0.5

    def realization(self):
        P, rates, Q = super().realization()
        rates[1:3] += 0.2  # terms (0, 1) and (1, 0)
        Q[:, 1:3] *= np.exp(0.2 * self.GAP)
        return P, rates, Q


REALIZED_KERNELS = pytest.mark.parametrize("kernel", [
    EXP2X2_SYM,
    # a nonsymmetric Exp2x2, not PD alone, made strict by a temporary jump
    PlusTemporaryKernel(0.5 * np.eye(2), Exp2x2Kernel(1.0, 0.1, 0.3, 1.2, 0.8, 1.6, 1.4, 1.5)),
    CrossExpKernel(1.0, 1.8, 0.3),
    MatrixExpKernel(np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.4], [0.0, 0.4, 0.8]])),
    DiagCongruenceKernel(np.array([[0.6, 0.8], [-0.8, 0.6]]), [ExpDecay(0.5), ExpDecay(2.0)]),
    CongruenceKernel(np.array([[1.0, 0.5], [0.0, 2.0]]), EXP2X2_SYM),
], ids=["exp2x2_sym", "exp2x2_nonsym_plus_temporary", "cross_exp", "matrix_exp",
        "diag_congruence", "congruence"])


def spaced_grid(spacing):
    return (equidistant_grid(3.0, 65) if spacing == "equidistant"
            else geometric_grid(3.0, 65, 1.05))


class TestStateSpace:
    @REALIZED_KERNELS
    @pytest.mark.parametrize("spacing", ["equidistant", "geometric"])
    def test_matches_dense(self, kernel, spacing):
        grid = spaced_grid(spacing)
        x0 = np.arange(1.0, kernel.dimension + 1) * [1.0, -2.0, 3.0][: kernel.dimension]
        result = solve_state_space(kernel, grid, x0)
        dense = solve_kkt(kernel, grid, x0)
        assert result.unique is dense.unique is True
        gap = np.max(np.abs(result.strategy.trades - dense.strategy.trades))
        assert gap <= 1e-10 * (1.0 + np.max(np.abs(dense.strategy.trades)))
        assert result.cost == pytest.approx(dense.cost, rel=1e-12)
        trades = np.random.default_rng(5).standard_normal((grid.n, kernel.dimension))
        impact = state_space_gram(kernel, grid).impact(trades)
        gram = assemble_gram(kernel, grid)
        assert np.max(np.abs(impact - gram.impact(trades))) <= 1e-13 * grid.n * gram.bound

    @pytest.mark.parametrize("kernel, grid, verdict", [
        (PermanentKernel(np.eye(2)), equidistant_grid(1.0, 4), "singular"),
        (Exp2x2Kernel(1.0, 2.5, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0), equidistant_grid(5.0, 20),
         "indefinite"),
    ], ids=["singular", "indefinite"])
    def test_declines_what_is_not_strict(self, kernel, grid, verdict):
        """The backend returns only strict results; the dense solve decides
        the rest, also as the fallback of ``solve_best``."""
        x0 = [1.0, -1.0]
        with pytest.raises(ArithmeticError, match="not strict"):
            solve_state_space(kernel, grid, x0)
        if verdict == "singular":
            assert solve_kkt(kernel, grid, x0).unique is False
            return
        with pytest.raises(UnboundedCostError):
            solve_kkt(kernel, grid, x0)
        with pytest.raises(UnboundedCostError):
            solve_best(kernel, grid, x0)

    def test_no_realization(self):
        with pytest.raises(ValueError, match="no state-space realization"):
            solve_state_space(JordanExpKernel(0.7), equidistant_grid(1.0, 5), [1.0, 0.0])

    @REALIZED_KERNELS
    @pytest.mark.parametrize("spacing", ["equidistant", "geometric"])
    def test_decays_follow_from_the_rates(self, kernel, spacing):
        """A state-space Gram holds the grid, ``tilde(0)``, P, Q and the rates
        alone; its gap decays are ``exp(-gap rates)``, bit for bit."""
        grid = spaced_grid(spacing)
        gram = state_space_gram(kernel, grid)
        fields = [field.name for field in dataclasses.fields(StateSpaceGram)]
        assert fields == ["grid", "diagonal", "P", "Q", "rates"]
        expected = np.exp(-np.outer(np.diff(grid.times), gram.rates))
        assert gram.decays.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("rate", [-0.5, np.nan, np.inf])
    def test_rates_are_finite_and_nonnegative(self, k, rate):
        """Every state-space Gram, a frame direction's K = 1 Gram included,
        rejects a rate that is negative or not finite."""
        grid = equidistant_grid(1.0, 5)
        P = Q = np.ones((k, 2))
        with pytest.raises(ValueError, match="finite rates >= 0"):
            StateSpaceGram(grid, np.eye(k), P, Q, np.array([1.0, rate]))

    def test_gram_for_takes_the_guarded_realization(self, rng):
        """``posdef.gram_for`` gives the state-space Gram of a kernel whose
        realization passes the guard, and the dense Gram of one with no
        realization or whose realization misses; either gives the impact
        summed pair by pair from the kernel's values."""
        grid = geometric_grid(2.0, 17, 1.05)
        for kernel, backend in [
            (CrossExpKernel(1.0, 1.8, 0.3), StateSpaceGram),
            (EXP2X2_SYM, StateSpaceGram),
            (PlusTemporaryKernel([[0.2, 0.05], [0.05, 0.1]], EXP2X2_SYM), StateSpaceGram),
            (CongruenceKernel([[1.0, 0.5], [0.0, 2.0]], EXP2X2_SYM), StateSpaceGram),
            (JordanExpKernel(0.7), GramMatrix),
            (OffRateCrossExp(1.0, 1.8, 0.3), GramMatrix),
        ]:
            gram = posdef.gram_for(kernel, grid)
            assert type(gram) is backend, kernel.family
            trades = rng.standard_normal((grid.n, 2))
            gap = np.max(np.abs(gram.impact(trades) - impact_loop(kernel, grid, trades)))
            assert gap <= 1e-13 * (1.0 + gram.bound) * grid.n * np.max(np.abs(trades))

    def test_the_factory_guards(self):
        """``posdef.state_space_gram`` returns only guarded Grams: a
        realization off the kernel raises, and a kernel without one too."""
        grid = equidistant_grid(5.0, 11)
        with pytest.raises(ArithmeticError, match="misses the kernel"):
            state_space_gram(OffRateCrossExp(1.0, 1.8, 0.3), grid)
        with pytest.raises(ValueError, match="no state-space realization"):
            state_space_gram(JordanExpKernel(0.7), grid)

    def test_guard_checks_lags_beyond_the_gap(self):
        """On an equidistant grid the gaps are one lag; a realization exact
        there but wrong at twice the gap fails the guard at the lags
        ``t_k - t_0``, and the cross-checked solve falls back to the dense
        reference."""
        kernel = GapExactCrossExp(1.0, 1.8, 0.3)
        grid = equidistant_grid(5.0, 11)
        P, rates, Q = kernel.realization()
        at_gap = (P * np.exp(-kernel.GAP * rates)) @ Q.T
        assert np.max(np.abs(at_gap - kernel.at(kernel.GAP))) <= 1e-15
        at_twice = (P * np.exp(-2 * kernel.GAP * rates)) @ Q.T
        assert np.max(np.abs(at_twice - kernel.at(2 * kernel.GAP))) > 1e-3
        with pytest.raises(ArithmeticError, match="misses the kernel"):
            solve_state_space(kernel, grid, [-50.0, 1.0])
        assert solve_best(kernel, grid, [-50.0, 1.0], cross_check=True)[1] == "commuting"

    def test_guard_rejects_a_wrong_realization(self, tmp_path, capsys, monkeypatch):
        """A realization with one rate off by 1e-3 fails the guard, and the
        cross-check falls back to the dense reference; without the guard, the
        cross-check itself catches the wrong reference and the CLI exits 4."""
        kernel = OffRateCrossExp(1.0, 1.8, 0.3)
        grid = equidistant_grid(5.0, 11)
        with pytest.raises(ArithmeticError, match="misses the kernel"):
            solve_state_space(kernel, grid, [-50.0, 1.0])
        assert solve_best(kernel, grid, [-50.0, 1.0], cross_check=True)[1] == "commuting"

        monkeypatch.setattr(posdef, "DIAGONAL_LEAK_TOL", np.inf)
        monkeypatch.setattr(cli, "_build_kernel", lambda config: kernel)
        config = tmp_path / "off_rate.json"
        config.write_text(json.dumps({
            "kernel": {"family": "cross_exp", "kappa": 1.0, "kappa_tilde": 1.8, "rho": 0.3},
            "grid": {"horizon": 5.0, "count": 11, "spacing": "equidistant"},
            "portfolio": [-50.0, 1.0],
        }))
        assert cli.main(["solve", "--config", str(config)]) == 4
        assert "commuting and state_space disagree" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 4),
    r=st.integers(1, 6),
    n=st.integers(1, 64),
    geometric=st.booleans(),
    kind=st.sampled_from(["symmetric", "perturbed", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_space_agrees_with_dense(k, r, n, geometric, kind, seed):
    """On generated realizations (random P and Q, rates >= 0), whenever the
    state-space backend returns, the dense KKT solve is unique and its
    trades agree within the cross-check tolerance; whenever the dense solve
    finds the cost unbounded, the backend declines.

    On an ill-conditioned Gram (condition number kappa about 1e8 here, one
    draw in a thousand) a one-ulp change of the Gram moves the exact optimum
    by up to about ``kappa * NK * eps``, so the trades are compared within
    that bound when it exceeds the cross-check tolerance; a 60-digit solve
    of such draws put the state-space trades as close to the optimum as the
    dense ones, or closer."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((k, r))
    rates = rng.uniform(0.0, 3.0, r) * (rng.random(r) < 0.9)  # some rates are 0
    Q = {"symmetric": P, "perturbed": P + 0.3 * rng.standard_normal((k, r)),
         "random": rng.standard_normal((k, r))}[kind]
    horizon = float(rng.uniform(0.5, 10.0))
    grid = geometric_grid(horizon, n, 1.08) if geometric else equidistant_grid(horizon, n)
    kernel = RealizedKernel(P, rates, Q)
    x0 = rng.uniform(-10.0, 10.0, k)
    try:
        dense = solve_kkt(kernel, grid, x0)
    except UnboundedCostError:
        dense = "unbounded"
    except ArithmeticError:  # a near-singular Gram whose dense certificate fails
        dense = None
    try:
        result = solve_state_space(kernel, grid, x0)
    except ArithmeticError:
        result = None
    if dense == "unbounded":
        assert result is None
    elif result is not None and dense is not None:
        assert dense.unique is True
        reference = dense.strategy.trades
        gap = np.max(np.abs(result.strategy.trades - reference))
        eigs = np.linalg.eigvalsh(assemble_gram(kernel, grid).blocks)
        roundoff = 10.0 * (eigs[-1] / eigs[0]) * n * k * np.finfo(float).eps
        tol = max(solver.CROSS_CHECK_REL_TOL, roundoff)
        assert gap <= tol * (1.0 + np.max(np.abs(reference)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the KKT core's xi = Y lam loses digits on an ill-conditioned Gram")
@pytest.mark.parametrize("k, seed", [(4, 48), (3, 77971193)], ids=["k4_seed48", "k3_seed77971193"])
def test_state_space_agrees_with_dense_on_known_draws(k, seed):
    """Two draws of :func:`test_state_space_agrees_with_dense` (r = k, n = 2,
    equidistant, symmetric) whose state-space and dense trades lie 1.2e-7
    apart against a tolerance of 5.2e-8.  On seed 48 a 60-digit solve of the
    assembled Gram puts the dense trades 4.0e-7 and the state-space trades
    7.5e-7 off, and a bordered ``np.linalg.solve`` 1.2e-11: the range-space
    step ``xi = Y lam`` of ``_kkt_solve`` cancels digits.  A refinement step
    on the KKT residual is the fix, and its change removes this mark."""
    test_state_space_agrees_with_dense.hypothesis.inner_test(
        k=k, r=k, n=2, geometric=False, kind="symmetric", seed=seed)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 4),
    r=st.integers(1, 6),
    chunks=st.integers(0, 3),
    tail=st.integers(0, 31),
    off=st.sampled_from([None, -1, 1]),
    geometric=st.booleans(),
    kind=st.sampled_from(["symmetric", "perturbed", "random"]),
    strictness=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_factor_matches_dense(k, r, chunks, tail, off, geometric, kind, strictness,
                                      seed):
    """The state-space block Cholesky pivots on chunks of
    ``max(1, STATE_SPACE_CHUNK_ROWS // K)`` steps.  On generated realizations
    (rates of 0 included) and grids of one to three chunks plus a ragged
    tail, or one step off a chunk multiple, it fails exactly when the dense
    Cholesky of the same shifted Gram fails, except within roundoff of the
    boundary, and its solve matches ``cho_solve`` on the dense factor within
    ``10 kappa NK eps``.  The shift is the solve's strictness shift
    ``-tau`` or a positive one that makes more Grams definite."""
    rng = np.random.default_rng(seed)
    steps = max(1, posdef.STATE_SPACE_CHUNK_ROWS // k)
    n = max(1, chunks * steps + (tail % steps if off is None else off))
    P = rng.standard_normal((k, r))
    rates = rng.uniform(0.0, 3.0, r) * (rng.random(r) < 0.8)
    Q = {"symmetric": P, "perturbed": P + 0.3 * rng.standard_normal((k, r)),
         "random": rng.standard_normal((k, r))}[kind]
    horizon = float(rng.uniform(0.5, 10.0))
    grid = geometric_grid(horizon, n, 1.08) if geometric else equidistant_grid(horizon, n)
    kernel = RealizedKernel(P, rates, Q)
    gram = state_space_gram(kernel, grid)
    tau = PSD_REL_TOL * (1.0 + gram.bound)
    shift = -tau if strictness else float(rng.uniform(0.0, 2.0)) * gram.bound
    factor = gram.shifted_factor(shift)

    dense = assemble_gram(kernel, grid)
    eigs = np.linalg.eigvalsh(dense.blocks) + shift
    nk = n * k
    roundoff = 100.0 * nk * np.finfo(float).eps * (1.0 + gram.bound)
    reference = dense.shifted_factor(shift)
    if abs(eigs[0]) > roundoff:
        assert (factor is None) == (reference is None)
    if factor is None or reference is None:
        return
    B = rng.standard_normal((n, k, 3)).reshape(nk, 3)
    solved = factor.solve(B)
    expected = reference.solve(B)
    kappa = eigs[-1] / eigs[0]
    gap = np.max(np.abs(solved - expected))
    assert gap <= 10.0 * kappa * nk * np.finfo(float).eps * np.max(np.abs(expected))
