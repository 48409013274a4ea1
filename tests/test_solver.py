import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from crossimpact import (
    Constant,
    CrossExpKernel,
    DiagCongruenceKernel,
    Exp2x2Kernel,
    ExpDecay,
    GaussianSquared,
    JordanExpKernel,
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
)
from crossimpact import posdef, solver
from crossimpact.posdef import PSD_REL_TOL, _fill_gram
from crossimpact.solver import _kkt_solve_gram, _pcg_solve
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
            solve_kkt(kernel, grid, [1.0, 1.0], gram=gram)
        assert sum(map(len, calls)) == 1
        d = err.value.direction.ravel()
        tol = d.size * np.finfo(float).eps * gram.norm
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
            gram = assemble_gram(kernel, grid).blocks
            tau = PSD_REL_TOL * (1.0 + np.max(np.abs(gram)))
            _, _, unique = _kkt_solve_gram(gram, grid.n, 2, np.array([10.0, 0.0]))
            assert unique == bool(np.linalg.eigvalsh(gram)[0] > tau)
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

        Y = _pcg_solve(gram, factor, rhs, gram_max)
        bound = solver.PCG_RES_FACTOR * nk * np.finfo(float).eps * (1.0 + gram_max)
        assert np.max(np.abs(rhs - gram @ Y)) <= bound * (1.0 + np.max(np.abs(Y)))

        Y = scipy.linalg.cho_solve(factor, rhs)
        start = np.max(np.abs(rhs - gram @ Y))
        for _ in range(10):
            Y = Y + scipy.linalg.cho_solve(factor, rhs - gram @ Y)
        assert np.max(np.abs(rhs - gram @ Y)) > 1e6 * start

        trades, lam, strict = _kkt_solve_gram(gram, n, k, np.array([3.0, -1.0]))
        assert strict is True
        assert np.allclose(trades.sum(axis=0), [-3.0, 1.0], rtol=0, atol=1e-9)
        impact = (gram @ trades.ravel()).reshape(n, k)
        assert np.max(np.abs(impact - lam)) <= 1e-8 * (1.0 + np.max(np.abs(lam)))

    def test_pcg_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solver, "PCG_MAX_STEPS", 0)
        with pytest.raises(ArithmeticError, match="stalled"):
            solve_kkt(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 11), [-50.0, 1.0])

    def test_solve_memory_within_one_factor(self):
        """A strict solve holds the Gram's factor and no other NK x NK copy."""
        gram = assemble_gram(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 1025)).blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, strict = _kkt_solve_gram(gram, 1025, 2, np.array([-50.0, 1.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strict is True
        assert peak - base <= 1.2 * gram.nbytes

    def test_certificate_invariants(self, rng):
        for _ in range(10):
            kernel = random_admissible_kernel(rng)
            grid = random_grid(rng, n_max=10)
            x0 = rng.uniform(-5, 5, kernel.dimension)
            result = solve_kkt(kernel, grid, x0)
            assert result.residual <= 1e-8 * (1.0 + np.max(np.abs(result.lam)))
            assert np.max(np.abs(result.strategy.trades.sum(axis=0) + x0)) <= 1e-10


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

    def test_sampled_frame_leak_enters_the_certificate(self, monkeypatch):
        """A sampled frame's residual bounds the dense one, and a leak too
        large for the residual tolerance fails the solve."""
        kernel = ScalarTimesMatrixKernel(ExpDecay(0.8), [[2.0, 0.5], [0.5, 1.0]])
        grid = geometric_grid(3.0, 17)
        x0 = np.array([4.0, -1.0])
        result = solve_commuting(kernel, grid, x0)
        trades = result.strategy.trades
        dense = np.max(np.abs(assemble_gram(kernel, grid).impact(trades) - result.lam))
        assert dense <= result.residual + 1e-13 * (1.0 + np.max(np.abs(result.lam)))

        original = solver._diagonalize
        monkeypatch.setattr(solver, "_diagonalize", lambda *args: original(*args)[:2] + (1e-6,))
        with pytest.raises(ArithmeticError, match="Lagrange residual"):
            solve_commuting(kernel, grid, x0)


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
        assert route == "kkt"

    def test_exp_profile_matrix_function_uses_closed_form(self, rng):
        b = random_spd(rng, 2)
        kernel = MatrixFunctionKernel(b, ExpDecay(1.7))
        grid = equidistant_grid(2.0, 6)
        result, route = solve_best(kernel, grid, [1.0, -2.0], cross_check=True)
        assert route == "closed_form"
        oracle = solve_kkt(kernel, grid, [1.0, -2.0])
        assert np.max(np.abs(result.strategy.trades - oracle.strategy.trades)) < 1e-8

    def test_one_gram_per_solve(self, rng, monkeypatch):
        """The route and the KKT cross-check share one assembled Gram, the
        closed form's certificate needs one, and the commuting route none."""
        calls = count_calls(monkeypatch, posdef, "assemble_gram")
        grid = equidistant_grid(2.0, 6)
        closed = MatrixExpKernel(random_spd(rng, 2))
        for kernel, expected in [
            (closed, "closed_form"),
            (CrossExpKernel(1.0, 1.8, 0.3), "commuting"),
            (JordanLike(), "kkt"),
        ]:
            calls.clear()
            _, route = solve_best(kernel, grid, [1.0, 2.0], cross_check=True)
            assert route == expected
            assert [(args[0], args[1]) for args in calls] == [(kernel, grid)]
        calls.clear()
        assert solve_best(closed, grid, [1.0, 2.0])[1] == "closed_form"
        assert [(args[0], args[1]) for args in calls] == [(closed, grid)]

        calls.clear()
        for kernel in [CrossExpKernel(1.0, 1.8, 0.3),
                       MatrixFunctionKernel(random_spd(rng, 3), LinearPolya(1.0, 0.2))]:
            x0 = np.arange(1.0, kernel.dimension + 1)
            assert solve_best(kernel, grid, x0)[1] == "commuting"
            solve_commuting(kernel, grid, x0)
            basis_strategies(kernel, grid)
            refine(kernel, 2.0, x0, max_levels=3)
        assert calls == []

    def test_closed_form_reuses_the_kernel_decomposition(self, rng, monkeypatch):
        kernel = MatrixFunctionKernel(random_spd(rng, 2), ExpDecay(1.7))
        eigh = count_calls(monkeypatch, np.linalg, "eigh")
        _, route = solve_best(kernel, equidistant_grid(2.0, 8), [1.0, -2.0], cross_check=True)
        assert route == "closed_form"
        assert eigh == []

    def test_gram_from_another_grid_rejected(self):
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        grid = equidistant_grid(2.0, 6)
        others = [
            assemble_gram(kernel, equidistant_grid(3.0, 6)),
            assemble_gram(kernel, equidistant_grid(2.0, 7)),
            assemble_gram(ScalarTimesMatrixKernel(ExpDecay(1.0), np.eye(3)), grid),
        ]
        for gram in others:
            with pytest.raises(ValueError, match="Gram"):
                solve_kkt(kernel, grid, [1.0, 2.0], gram=gram)

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
    the KKT solve's within the cross-check tolerance of ``solve_best``."""
    rng = np.random.default_rng(seed)
    k = len(eigenvalues)
    q = random_orthogonal(rng, k)
    b = q @ np.diag(eigenvalues) @ q.T
    b = 0.5 * (b + b.T)
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(gaps)]))
    x0 = rng.uniform(-10.0, 10.0, k)
    closed = solve_exp_closed_form(b, grid, x0).strategy.trades
    reference = solve_kkt(MatrixExpKernel(b), grid, x0).strategy.trades
    gap = np.max(np.abs(closed - reference))
    assert gap <= solver.CROSS_CHECK_REL_TOL * (1.0 + np.max(np.abs(reference)))


def _commuting_kernel(family, rng):
    """A symmetric commuting kernel of the family, K from 1 to 4 (2 for the
    2 x 2 families), positive definite or not."""
    k = int(rng.integers(1, 5))
    m = rng.standard_normal((k, k))
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
    a11, a12, a22, rate = rng.uniform(0.1, 2.0, 4)
    return Exp2x2Kernel(a11, a12, a12, a22, rate, rate, rate, rate)


CLOSED_FRAMES = ("matrix_exp", "matrix_function", "diag_congruence", "cross_exp")
SAMPLED_FRAMES = ("scalar_times_matrix", "permanent", "exp2x2_equal_rates")


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(CLOSED_FRAMES + SAMPLED_FRAMES),
    gaps=st.lists(st.floats(1e-2, 3.0), max_size=39),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_impact_matches_dense(family, gaps, seed):
    """The commuting route's impact, built in the eigenframe from N x N
    single-direction Grams, is the dense Gram's impact up to roundoff and the
    sampled frame's measured leak; a closed-form frame reproduces the
    kernel's values."""
    rng = np.random.default_rng(seed)
    kernel = _commuting_kernel(family, rng)
    assert (kernel.eigenframe() is None) == (family in SAMPLED_FRAMES)
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(gaps)]))
    n, k = grid.n, kernel.dimension
    trades = rng.standard_normal((n, k))
    O, decays, leak = solver._frame_decays(kernel, grid, seed=0)
    assert leak == 0.0 or family in SAMPLED_FRAMES
    rotated = trades @ O.T
    impact_rot = [_fill_gram(decays[:, i, None, None], n) @ rotated[:, i] for i in range(k)]
    gram = assemble_gram(kernel, grid)
    gap = np.max(np.abs(np.column_stack(impact_rot) @ O - gram.impact(trades)))
    slack = np.sqrt(k) * leak * np.abs(rotated).sum()
    assert gap <= slack + 1e-12 * (1.0 + gram.norm) * n * np.max(np.abs(trades))

    if family in CLOSED_FRAMES:
        O, decays = kernel.eigenframe()
        lags = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1e3, 20))])
        values = np.einsum("ia,mi,ib->mab", O, decays(lags), O)
        reference = kernel.at_many(lags)
        assert np.max(np.abs(values - reference)) <= 1e-14 * (1.0 + np.max(np.abs(reference)))


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


def JordanLike():
    # symmetric-but-not-commuting kernel to force the generic route
    from crossimpact import Exp2x2Kernel

    return Exp2x2Kernel(1.0, 0.5, 0.5, 2.0, 1.0, 1.6, 1.6, 1.2)
