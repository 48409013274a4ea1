import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossimpact import posdef, simulate
from crossimpact import (
    CrossExpKernel,
    Exp2x2Kernel,
    JordanExpKernel,
    MartingaleModel,
    MatrixExpKernel,
    PlusTemporaryKernel,
    TimeGrid,
    cost,
    equidistant_grid,
    estimate_expected_cost,
    impacted_price,
    revenues,
    sample_paths,
    solve_kkt,
)
from conftest import random_admissible_kernel, random_grid, random_spd


def flat_model(s0, k=None):
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    return MartingaleModel(s0, np.zeros((s0.size, s0.size)), horizon=1.0)


def path_reference(kernel, grid, trades, model, n_paths, seed):
    """Mean shortfall and its stderr from explicit price paths, one
    ``revenues`` call per path."""
    x0 = -trades.sum(axis=0)
    paths = sample_paths(model, grid, n_paths, seed)
    shortfalls = np.array([x0 @ model.s0 - revenues(kernel, grid, trades, p) for p in paths])
    stderr = shortfalls.std(ddof=1) / np.sqrt(n_paths) if n_paths > 1 else 0.0
    return shortfalls.mean(), stderr, np.abs(trades).sum() * np.abs(paths).max()


def readme_model_at_100k_paths(rng):
    """The README's kernel and price model on 257 times: the 100k-path
    report and its traced peak in bytes."""
    kernel = CrossExpKernel(1.0, 1.8, 0.3)
    grid = equidistant_grid(5.0, 257)
    trades = rng.standard_normal((257, 2))
    model = MartingaleModel([100.0, 60.0], [[0.04, 0.01], [0.01, 0.09]], horizon=5.0)
    tracemalloc.start()
    try:
        report = estimate_expected_cost(kernel, grid, trades, model, 100_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


class TestSamplePaths:
    def test_zero_covariance_constant(self):
        model = flat_model([100.0, 50.0])
        paths = sample_paths(model, equidistant_grid(1.0, 5), n_paths=7, seed=3)
        assert np.all(paths == np.array([100.0, 50.0]))

    def test_martingale_mean(self, rng):
        cov = random_spd(rng, 2, lo=0.01, hi=0.2)
        model = MartingaleModel([10.0, 20.0], cov, horizon=2.0)
        grid = equidistant_grid(2.0, 6)
        paths = sample_paths(model, grid, n_paths=100_000, seed=5)
        terminal = paths[:, -1, :]
        stderr = terminal.std(axis=0, ddof=1) / np.sqrt(paths.shape[0])
        assert np.all(np.abs(terminal.mean(axis=0) - model.s0) <= 3.0 * stderr)

    def test_deterministic_given_seed(self, rng):
        model = MartingaleModel([1.0], [[0.5]], horizon=1.0)
        grid = equidistant_grid(1.0, 4)
        a = sample_paths(model, grid, 50, seed=11)
        b = sample_paths(model, grid, 50, seed=11)
        assert np.array_equal(a, b)
        c = sample_paths(model, grid, 50, seed=12)
        assert not np.array_equal(a, c)

    def test_paths_do_not_depend_on_the_path_count(self, monkeypatch):
        """Path p draws from child ``p // PATHS_PER_STREAM`` of the seed, so
        fewer paths are a prefix of more, across stream boundaries."""
        monkeypatch.setattr(simulate, "PATHS_PER_STREAM", 4)
        model = MartingaleModel([1.0, 2.0], [[0.5, 0.1], [0.1, 0.3]], horizon=1.0)
        grid = equidistant_grid(1.0, 5)
        more = sample_paths(model, grid, 23, seed=6)
        for n_paths in (1, 4, 5, 13):
            assert np.array_equal(sample_paths(model, grid, n_paths, seed=6), more[:n_paths])
        assert not np.array_equal(more[:4], more[4:8])

    def test_caller_arrays_stay_writeable(self):
        s0, cov = np.array([10.0, 20.0]), np.array([[0.1, 0.0], [0.0, 0.2]])
        model = MartingaleModel(s0, cov, horizon=1.0)
        assert s0.flags.writeable and cov.flags.writeable
        cov[0, 0] = 5.0
        assert model.covariance[0, 0] == 0.1 and not model.covariance.flags.writeable

    def test_covariance_validation(self):
        with pytest.raises(ValueError, match="PSD"):
            MartingaleModel([1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], horizon=1.0)
        with pytest.raises(ValueError):
            MartingaleModel([1.0], np.zeros((2, 2)), horizon=1.0)


class TestImpactedPrice:
    def test_zero_strategy_is_unaffected(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        path = rng.standard_normal((4, 2)) + 50.0
        for k in range(4):
            got = impacted_price(kernel, grid, np.zeros((4, 2)), path, k)
            assert np.array_equal(got, path[k])

    def test_single_prior_trade(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = TimeGrid([0.0, 0.7])
        trades = np.array([[2.0, -1.0], [0.0, 0.0]])
        path = np.full((2, 2), 30.0)
        got = impacted_price(kernel, grid, trades, path, 1)
        assert np.allclose(got, path[1] + kernel.at(0.7) @ trades[0], atol=1e-14)

    def test_first_trade_sees_no_impact(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 3)
        trades = rng.standard_normal((3, 2))
        path = rng.standard_normal((3, 2))
        assert np.array_equal(impacted_price(kernel, grid, trades, path, 0), path[0])

    def test_index_validation(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 3)
        with pytest.raises(IndexError):
            impacted_price(kernel, grid, np.zeros((3, 2)), np.zeros((3, 2)), 3)

    def test_matches_sum_over_earlier_trades(self, rng):
        kernel = PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3))
        grid = random_grid(rng, n_max=9)
        trades = rng.standard_normal((grid.n, 2))
        path = rng.uniform(10.0, 20.0, (grid.n, 2))
        for k in range(grid.n):
            expected = path[k] + sum(
                kernel.at(grid.times[k] - grid.times[ell]) @ trades[ell] for ell in range(k)
            )
            got = impacted_price(kernel, grid, trades, path, k)
            assert np.allclose(got, expected, rtol=1e-13, atol=1e-13)


class TestRevenues:
    def test_zero_strategy(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        assert revenues(kernel, grid, np.zeros((4, 2)), np.full((4, 2), 10.0)) == 0.0

    def test_block_trade_oracle(self, rng):
        # single trade -x0 at time 0 on a flat path: proceeds are the book
        # value minus half the self-impact
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = TimeGrid([0.0])
        s0 = np.array([40.0, 60.0])
        x0 = rng.uniform(-3, 3, 2)
        got = revenues(kernel, grid, -x0[None, :], s0[None, :])
        expected = x0 @ s0 - 0.5 * x0 @ kernel.at(0.0) @ x0
        assert got == pytest.approx(expected, rel=1e-13)

    def test_shortfall_identity_on_flat_paths(self, rng):
        """Zero-volatility shortfall equals the analytic cost exactly, for
        arbitrary (not just optimal) strategies and nonsymmetric kernels."""
        kernels = [
            MatrixExpKernel(random_spd(rng, 2)),
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        for kernel in kernels:
            for _ in range(5):
                grid = random_grid(rng, n_max=7)
                trades = rng.standard_normal((grid.n, 2))
                s0 = rng.uniform(10.0, 90.0, 2)
                path = np.tile(s0, (grid.n, 1))
                x0 = -trades.sum(axis=0)
                shortfall = x0 @ s0 - revenues(kernel, grid, trades, path)
                assert shortfall == pytest.approx(cost(kernel, grid, trades), abs=1e-10)


    def test_matches_impacted_price_reference(self, rng):
        """Each trade executes at the unaffected price plus the impact
        ``sum_{l<k} G(t_k - t_l) xi_l`` of the earlier trades and half its own
        lag-0 impact, priced here with one ``kernel.at`` per pair of times, on
        one and on many times."""
        kernels = [
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        for kernel in kernels:
            g0 = kernel.at(0.0)
            for grid in (TimeGrid([0.0]), random_grid(rng, n_max=9)):
                t = grid.times
                trades = rng.standard_normal((grid.n, 2))
                path = rng.uniform(10.0, 20.0, (grid.n, 2))
                prices = []
                for k in range(grid.n):
                    price = path[k] + 0.5 * g0 @ trades[k]
                    for l in range(k):
                        price = price + kernel.at(t[k] - t[l]) @ trades[l]
                    prices.append(price)
                expected = -float(np.sum(trades * np.array(prices)))
                got = revenues(kernel, grid, trades, path)
                assert got == pytest.approx(expected, rel=0, abs=1e-12 * np.abs(trades).sum() * 20)

    def test_shape_mismatches_rejected(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        path = np.full((4, 2), 10.0)
        with pytest.raises(ValueError, match="grid sizes"):
            revenues(kernel, grid, np.zeros((5, 2)), path)
        with pytest.raises(ValueError, match="2-dimensional"):
            revenues(kernel, grid, np.zeros((4, 3)), np.full((4, 3), 10.0))
        with pytest.raises(ValueError, match="path has shape"):
            revenues(kernel, grid, np.zeros((4, 2)), path[:3])


class TestEstimateExpectedCost:
    def test_zero_covariance_exact(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 5)
        result = solve_kkt(kernel, grid, [4.0, -1.0])
        report = estimate_expected_cost(
            kernel, grid, result.strategy, flat_model([100.0, 50.0]), n_paths=10, seed=0
        )
        assert report.stderr == 0.0
        assert report.mean_shortfall == pytest.approx(report.analytic_cost, abs=1e-10)

    def test_zero_covariance_draws_nothing(self, rng, monkeypatch):
        """At zero covariance every noise weight is zero, so no normal is
        drawn: no child stream is even made."""

        def no_streams(*args):
            raise AssertionError("a zero-covariance estimate made a noise stream")

        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 5)
        result = solve_kkt(kernel, grid, [4.0, -1.0])
        monkeypatch.setattr(simulate, "_streams", no_streams)
        report = estimate_expected_cost(
            kernel, grid, result.strategy, flat_model([100.0, 50.0]), n_paths=10, seed=0
        )
        assert report.stderr == report.analytic_stderr == 0.0
        assert report.mean_shortfall == pytest.approx(report.analytic_cost, abs=1e-10)

    def test_within_monte_carlo_error(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(2.0, 7)
        result = solve_kkt(kernel, grid, [10.0, -5.0])
        model = MartingaleModel([100.0, 50.0], random_spd(rng, 2, lo=0.01, hi=0.3), horizon=2.0)
        report = estimate_expected_cost(kernel, grid, result.strategy, model, 100_000, seed=21)
        assert abs(report.mean_shortfall - report.analytic_cost) <= 3.0 * report.stderr
        assert report.stderr == pytest.approx(report.analytic_stderr, rel=0.02)

    def test_identical_seeds_identical_reports(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        result = solve_kkt(kernel, grid, [1.0, 2.0])
        model = MartingaleModel([10.0, 10.0], 0.1 * np.eye(2), horizon=1.0)
        a = estimate_expected_cost(kernel, grid, result.strategy, model, 500, seed=4)
        b = estimate_expected_cost(kernel, grid, result.strategy, model, 500, seed=4)
        assert a == b

    def test_inconsistent_x0_rejected(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        trades = rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="liquidates"):
            estimate_expected_cost(
                kernel, grid, trades, flat_model([1.0, 1.0]), 10, seed=0,
                x0=-trades.sum(axis=0) + 0.5,
            )

    def test_roundoff_gap_at_large_scale_accepted(self, rng):
        """The x0 check is relative: a few ulps of a 1e7-share book pass."""
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        trades = 1e7 * rng.standard_normal((4, 2))
        report = estimate_expected_cost(
            kernel, grid, trades, flat_model([1.0, 1.0]), 10, seed=0,
            x0=-trades.sum(axis=0) + 1e-8,
        )
        assert report.stderr == 0.0

    def test_covariance_invariant_mean(self, rng):
        """The martingale part cancels in expectation: two covariances give
        compatible mean shortfalls."""
        kernel = random_admissible_kernel(rng)
        k = kernel.dimension
        grid = equidistant_grid(1.5, 6)
        result = solve_kkt(kernel, grid, rng.uniform(-4, 4, k))
        s0 = np.full(k, 50.0)
        quiet = MartingaleModel(s0, 0.01 * np.eye(k), horizon=1.5)
        noisy = MartingaleModel(s0, random_spd(rng, k, lo=0.05, hi=0.5), horizon=1.5)
        a = estimate_expected_cost(kernel, grid, result.strategy, quiet, 60_000, seed=8)
        b = estimate_expected_cost(kernel, grid, result.strategy, noisy, 60_000, seed=9)
        combined = np.hypot(a.stderr, b.stderr)
        assert abs(a.mean_shortfall - b.mean_shortfall) <= 3.0 * combined

    def test_analytic_stderr_zero_at_zero_covariance(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        for n in (1, 2, 6):
            trades = rng.standard_normal((n, 2))
            grid = equidistant_grid(1.0, n) if n > 1 else TimeGrid([0.0])
            report = estimate_expected_cost(
                kernel, grid, trades, flat_model([30.0, 70.0]), n_paths=25, seed=n
            )
            assert report.analytic_stderr == 0.0
            assert report.stderr == 0.0

    def test_blocks_match_path_reference(self, rng, monkeypatch):
        """Several blocks, the last one ragged, reproduce the explicit paths."""
        kernel = PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3))
        grid = random_grid(rng, n_max=9)
        trades = rng.standard_normal((grid.n, 2))
        model = MartingaleModel([40.0, 25.0], random_spd(rng, 2, lo=0.05, hi=0.5), horizon=1.0)
        monkeypatch.setattr(simulate, "BLOCK_DOUBLES", 7 * (grid.n - 1) * 2 + 3)  # 7 paths
        report = estimate_expected_cost(kernel, grid, trades, model, n_paths=45, seed=17)
        mean, stderr, _ = path_reference(kernel, grid, trades, model, 45, seed=17)
        assert report.mean_shortfall == pytest.approx(mean, rel=1e-12)
        assert report.stderr == pytest.approx(stderr, rel=1e-12)

    def test_memory_bounded_at_100k_paths(self, rng):
        """Paths are never materialized: 100k paths of 257 x 2 prices would
        take about 400 MB, and building them about 2 GB."""
        report, peak = readme_model_at_100k_paths(rng)
        assert peak < 100e6
        assert report.n_paths == 100_000

    def test_memory_bounded_with_two_workers(self, rng, monkeypatch):
        """The workers share one block array: two of them stay within the
        one-worker bound."""
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        report, peak = readme_model_at_100k_paths(rng)
        assert peak < 100e6
        assert report.n_paths == 100_000

    def test_exponential_sum_builds_no_dense_gram(self, rng, monkeypatch):
        """Exp2x2 (sym.) at N = 4097 and K = 2, with 200 paths: the estimate
        prices on the kernel's state-space Gram, assembles no dense one (512
        MiB at this size) and peaks below 64 MiB traced."""

        def no_gram(*args):
            raise AssertionError("a dense Gram was assembled")

        monkeypatch.setattr(posdef, "assemble_gram", no_gram)
        kernel = Exp2x2Kernel(1.0, 0.15, 0.15, 1.1, 0.7, 1.5, 1.5, 1.6)
        grid = equidistant_grid(2.0, 4097)
        trades = rng.standard_normal((grid.n, 2))
        model = MartingaleModel([100.0, 60.0], [[0.04, 0.01], [0.01, 0.09]], horizon=2.0)
        tracemalloc.start()
        try:
            report = estimate_expected_cost(kernel, grid, trades, model, 200, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert abs(report.mean_shortfall - report.analytic_cost) <= 4.0 * report.analytic_stderr

    def test_report_does_not_depend_on_the_worker_count(self, rng, monkeypatch):
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda workers=workers: workers)
            reports.append(readme_model_at_100k_paths(np.random.default_rng(3))[0])
        assert reports[0] == reports[1]

    def test_validation(self, rng):
        kernel = MatrixExpKernel(random_spd(rng, 2))
        grid = equidistant_grid(1.0, 4)
        trades = rng.standard_normal((4, 2))
        model = flat_model([1.0, 1.0])
        for n_paths in (0, -3):
            with pytest.raises(ValueError, match="at least one path"):
                estimate_expected_cost(kernel, grid, trades, model, n_paths, seed=0)
        with pytest.raises(ValueError, match="grid sizes"):
            estimate_expected_cost(kernel, grid, trades[:3], model, 10, seed=0)
        with pytest.raises(ValueError, match="2-dimensional"):
            estimate_expected_cost(kernel, grid, np.zeros((4, 3)), model, 10, seed=0)
        with pytest.raises(ValueError, match="price model"):
            estimate_expected_cost(kernel, grid, trades, flat_model([1.0, 1.0, 1.0]), 10, seed=0)


def _simulated_kernel(family, k, rng):
    """A kernel of the family: symmetric matrix_exp of side k; a nonsymmetric
    exp2x2, or a plus_temporary over one with a nonsymmetric jump, both of
    which have a realization; or a jordan_exp, which has none."""
    if family == "matrix_exp":
        return MatrixExpKernel(random_spd(rng, k))
    if family == "jordan_exp":
        return JordanExpKernel(rng.uniform(0.2, 2.0))
    exp2x2 = Exp2x2Kernel(*rng.uniform(0.1, 1.5, 4), *rng.uniform(0.2, 3.0, 4))
    if family == "exp2x2":
        return exp2x2
    skew = rng.uniform(-0.5, 0.5) * np.array([[0.0, 1.0], [-1.0, 0.0]])
    return PlusTemporaryKernel(random_spd(rng, 2) + skew, exp2x2)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["matrix_exp", "exp2x2", "plus_temporary", "jordan_exp"]),
    k=st.integers(1, 3),
    n=st.integers(2, 12),
    n_paths=st.integers(1, 300),
    rank=st.integers(0, 3),
    budget=st.integers(1, 400),
    per_stream=st.integers(1, 64),
    workers=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_estimate_matches_path_reference(
    family, k, n, n_paths, rank, budget, per_stream, workers, seed
):
    """For any shape, PSD covariance (rank 0 to K), block size, stream
    length and worker count, the streamed estimate equals the per-path
    ``revenues`` reference, on the state-space Gram of a kernel with a
    realization (symmetric or not, with a temporary jump) and on the dense
    Gram of one without."""
    rng = np.random.default_rng(seed)
    kernel = _simulated_kernel(family, k, rng)
    k = kernel.dimension
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    grid = TimeGrid(times)
    dense = isinstance(posdef.gram_for(kernel, grid), posdef.GramMatrix)
    assert dense == (family == "jordan_exp")
    trades = rng.standard_normal((n, k))
    factor = rng.uniform(0.0, 0.5) * rng.standard_normal((k, min(rank, k)))
    model = MartingaleModel(rng.uniform(10.0, 100.0, k), factor @ factor.T, horizon=grid.span)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "BLOCK_DOUBLES", budget)
        mp.setattr(simulate, "PATHS_PER_STREAM", per_stream)
        mp.setattr(simulate, "_usable_cpus", lambda: workers)
        report = estimate_expected_cost(kernel, grid, trades, model, n_paths, seed)
        mean, stderr, scale = path_reference(kernel, grid, trades, model, n_paths, seed)
    # relative to the book value, the size of the sums both sides round
    assert abs(report.mean_shortfall - mean) <= 1e-12 * scale
    assert abs(report.stderr - stderr) <= 1e-12 * scale
