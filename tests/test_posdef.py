import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossimpact import (
    ClampedExpKernel,
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
    PowerCapped,
    ScalarTimesMatrixKernel,
    TimeGrid,
    assemble_gram,
    check_grid_pd,
    classify_positive_definite,
    cost,
    equidistant_grid,
    geometric_grid,
    search_violation,
)
from crossimpact import kernels, posdef
from crossimpact.posdef import (
    EVIDENCE_N_MAX,
    EVIDENCE_SPAN,
    GramMatrix,
    _fill_gram,
    _gram_lags,
)
from conftest import (
    count_calls,
    count_eigensolver_calls,
    impact_loop,
    random_admissible_kernel,
    random_grid,
    random_orthogonal,
    random_spd,
)


@dataclasses.dataclass(frozen=True)
class InverseLinear(kernels.ScalarFunction):
    """``x -> 1/(1 + x)``: nonincreasing and convex, of no known PD class."""

    tag = "inverse_linear"
    nonincreasing = True
    convex = True
    positive_definite = None
    strictly_positive_definite = False

    def __call__(self, x):
        return 1.0 / (1.0 + np.asarray(x, dtype=float))


def gaussian_1d():
    return ScalarTimesMatrixKernel(GaussianSquared(), [[1.0]])


def count_lags_per_evaluation(kernel):
    """Record the number of lags of every ``kernel.tilde_many`` call."""
    sizes = []
    evaluate = kernel.tilde_many

    def counted(ts):
        sizes.append(len(ts))
        return evaluate(ts)

    kernel.tilde_many = counted
    return sizes


# one random kernel of each family, from a numpy generator
FAMILY_FACTORIES = (
    lambda rng: PermanentKernel(random_spd(rng, 2)),
    lambda rng: MatrixExpKernel(random_spd(rng, int(rng.integers(1, 5)))),
    lambda rng: MatrixFunctionKernel(random_spd(rng, 3), GaussianSquared()),
    lambda rng: DiagCongruenceKernel(
        random_orthogonal(rng, 3), [ExpDecay(1.3), LinearPolya(1.0, 0.4), Constant(0.5)]
    ),
    lambda rng: Exp2x2Kernel(*rng.uniform(0.2, 2.0, 8)),
    lambda rng: CrossExpKernel(*rng.uniform(0.2, 2.0, 2), rng.uniform(0.05, 0.9)),
    lambda rng: Linear2x2Kernel(*rng.uniform(0.2, 2.0, 8)),
    lambda rng: ClampedExpKernel(),
    lambda rng: JordanExpKernel(rng.uniform(0.1, 2.0)),
    lambda rng: ScalarTimesMatrixKernel(ExpDecay(rng.uniform(0.3, 3.0)), rng.standard_normal((2, 2))),
    lambda rng: LeftMultiplyKernel(
        np.eye(2) + 0.2 * rng.standard_normal((2, 2)), CrossExpKernel(1.0, 1.8, 0.3)
    ),
    lambda rng: CongruenceKernel(
        np.eye(3) + 0.3 * rng.standard_normal((3, 3)), MatrixExpKernel(random_spd(rng, 3))
    ),
    lambda rng: PlusTemporaryKernel(random_spd(rng, 2, 0.05, 0.5), CrossExpKernel(1.0, 1.8, 0.3)),
)


class TestAssembleGram:
    def test_impact_matches_pairwise_loop(self, rng):
        kernels = [
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        for kernel in kernels:
            for _ in range(5):
                grid = random_grid(rng, n_max=9)
                trades = rng.standard_normal((grid.n, 2))
                gram = assemble_gram(kernel, grid)
                expected = impact_loop(kernel, grid, trades)
                assert np.allclose(gram.impact(trades), expected, rtol=0, atol=1e-13)
                assert gram.quadratic_form(trades) == pytest.approx(
                    np.vdot(trades, expected), rel=0, abs=1e-12
                )

    def test_gram_is_its_grid_and_blocks(self):
        """``GramMatrix(grid, blocks)`` derives N and K from its two fields,
        and rejects blocks that no K fits."""
        assert [f.name for f in dataclasses.fields(GramMatrix)] == ["grid", "blocks"]
        grid = equidistant_grid(1.0, 3)
        gram = GramMatrix(grid, np.zeros((6, 6)))
        assert (gram.size, gram.dimension) == (3, 2)
        for shape in [(6,), (6, 4), (5, 5), (0, 0), (6, 6, 1)]:
            with pytest.raises(ValueError, match="blocks"):
                GramMatrix(grid, np.zeros(shape))

    def test_single_time(self, rng):
        k = PermanentKernel(rng.standard_normal((2, 2)))
        gram = assemble_gram(k, TimeGrid([0.0]))
        assert np.array_equal(gram.blocks, k.tilde(0.0))

    def test_permanent_two_times(self, rng):
        g0 = random_spd(rng, 2)
        sym = 0.5 * (g0 + g0.T)
        gram = assemble_gram(PermanentKernel(g0), TimeGrid([0.0, 1.0]))
        expected = np.block([[sym, g0.T], [g0, sym]])
        assert np.array_equal(gram.blocks, expected)
        assert np.allclose(gram.blocks, np.block([[g0, g0], [g0, g0]]), atol=1e-15)

    def test_block_toeplitz_on_equidistant(self, rng):
        k = MatrixExpKernel(random_spd(rng, 2))
        grid = TimeGrid(np.linspace(0.0, 3.0, 5))
        gram = assemble_gram(k, grid)
        blocks = gram.blocks.reshape(5, 2, 5, 2).transpose(0, 2, 1, 3)
        for i in range(5):
            for j in range(5):
                assert np.array_equal(blocks[i, j], blocks[(i + 1) % 5, (j + 1) % 5]) or (
                    i == 4 or j == 4
                )
        # explicit Toeplitz check on the diagonals
        for off in range(5):
            ref = blocks[off, 0]
            for i in range(5 - off):
                assert np.allclose(blocks[i + off, i], ref, atol=1e-15)

    def test_storage_exactly_symmetric(self, rng):
        for kernel in (
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            JordanExpKernel(0.4),
            ClampedExpKernel(),
        ):
            gram = assemble_gram(kernel, random_grid(rng, n_max=8))
            assert np.array_equal(gram.blocks, gram.blocks.T)

    def test_matches_all_lag_evaluation(self, rng):
        """Evaluating the lower block triangle only gives, bit for bit, the
        blocks ``tilde(t_k - t_l)`` of all N^2 signed lags."""
        kernels = [
            random_admissible_kernel(rng),
            MatrixExpKernel(random_spd(rng, 3)),
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            JordanExpKernel(0.4),
            PlusTemporaryKernel([[0.6, 0.1], [0.3, 0.5]], CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        for kernel in kernels:
            for grid in (TimeGrid([0.0]), random_grid(rng, n_max=9), random_grid(rng, n_max=40)):
                n, k = grid.n, kernel.dimension
                lags = grid.times[:, None] - grid.times[None, :]
                expected = kernel.tilde_many(lags.ravel()).reshape(n, n, k, k)
                blocks = assemble_gram(kernel, grid).blocks.reshape(n, k, n, k)
                assert np.array_equal(blocks.transpose(0, 2, 1, 3), expected), kernel.family

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.integers(0, len(FAMILY_FACTORIES) - 1),
        n=st.integers(1, 48),
        chunk=st.integers(1, 300),
        geometric=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunked_assembly_is_one_evaluation(self, family, n, chunk, geometric, seed):
        """Runs of block rows with at most ``chunk`` lags each (at least one
        row) give, bit for bit, the Gram of one ``tilde_many`` over all of
        ``_gram_lags`` filled by ``_fill_gram``."""
        rng = np.random.default_rng(seed)
        kernel = FAMILY_FACTORIES[family](rng)
        grid = geometric_grid(5.0, n, 1.1) if geometric and n > 1 else equidistant_grid(5.0, n)
        expected = _fill_gram(kernel.tilde_many(_gram_lags(grid)), n)
        sizes = count_lags_per_evaluation(kernel)
        with mock.patch.object(posdef, "GRAM_CHUNK_LAGS", chunk):
            blocks = assemble_gram(kernel, grid).blocks
        assert np.array_equal(blocks, expected), kernel.family
        assert sum(sizes) == n * (n + 1) // 2
        assert max(sizes) <= max(chunk, n)
        assert (len(sizes) == 1) == (n * (n + 1) // 2 <= chunk)

    def test_runs_split_above_one_chunk(self):
        # 255 times hold 32640 lags, the largest grid of one run
        kernel = CrossExpKernel(1.0, 1.8, 0.3)
        sizes = count_lags_per_evaluation(kernel)
        assemble_gram(kernel, equidistant_grid(5.0, 255))
        assert sizes == [32640] and posdef.GRAM_CHUNK_LAGS < 32896
        sizes.clear()
        assemble_gram(kernel, equidistant_grid(5.0, 1025))
        assert sum(sizes) == 1025 * 1026 // 2 and len(sizes) > 1
        assert max(sizes) <= posdef.GRAM_CHUNK_LAGS

    def test_impact_matches_dense_product(self, rng):
        for kernel in (
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            MatrixExpKernel(random_spd(rng, 4)),
            JordanExpKernel(0.2),
        ):
            for _ in range(5):
                grid = random_grid(rng, n_max=60)
                gram = assemble_gram(kernel, grid)
                trades = rng.standard_normal((grid.n, kernel.dimension))
                dense = gram.blocks @ trades.ravel()
                scale = np.max(np.abs(gram.blocks) @ np.abs(trades.ravel()))
                gap = np.max(np.abs(gram.impact(trades).ravel() - dense))
                assert gap <= 1e-14 * scale, kernel.family

    def test_impact_reads_the_lower_triangle(self, rng):
        gram = assemble_gram(MatrixExpKernel(random_spd(rng, 3)), random_grid(rng, n_max=30))
        trades = rng.standard_normal((gram.size, gram.dimension))
        expected = gram.impact(trades)
        gram.blocks[np.triu_indices(gram.blocks.shape[0], 1)] = np.nan
        assert np.array_equal(gram.impact(trades), expected)


class TestCheckGridPD:
    def test_explicit_indefinite(self):
        gram = assemble_gram(PermanentKernel(np.diag([1.0, -1.0])), TimeGrid([0.0]))
        res = check_grid_pd(gram)
        assert res.psd is False
        assert res.min_eig == pytest.approx(-1.0)

    def test_gaussian_three_points(self):
        grid = TimeGrid([0.0, 1.0, 2.0])
        gram = assemble_gram(gaussian_1d(), grid)
        res = check_grid_pd(gram)
        # independent oracle: roots of the characteristic polynomial of
        # [[1, a, b], [a, 1, a], [b, a, 1]] with a=e^-1, b=e^-4;
        # det(M - x I) = -x^3 + 3x^2 - (3 - 2a^2 - b^2) x + det(M)
        a, b = np.exp(-1.0), np.exp(-4.0)
        det = 1.0 + 2.0 * a * a * b - 2.0 * a * a - b * b
        roots = np.roots([-1.0, 3.0, -(3.0 - 2.0 * a * a - b * b), det])
        assert res.psd and res.strict
        assert res.min_eig == pytest.approx(float(np.min(roots.real)), abs=1e-12)

    def test_zero_kernel(self):
        gram = assemble_gram(PermanentKernel(np.zeros((2, 2))), TimeGrid([0.0, 1.0]))
        res = check_grid_pd(gram)
        assert res.psd is True
        assert res.strict is False


class TestClassify:
    def test_matrix_function_strict(self, rng):
        kernel = MatrixFunctionKernel(random_spd(rng, 3), ExpDecay(1.0))
        report = classify_positive_definite(kernel)
        assert report.verdict == "strict_pd"

    def test_matrix_function_psd_only(self):
        kernel = MatrixFunctionKernel(np.diag([1.0, 0.0]), ExpDecay(1.0))
        assert classify_positive_definite(kernel).verdict == "pd"

    def test_exp2x2_nonincreasing_symmetric(self):
        kernel = Exp2x2Kernel(1.0, 0.5, 0.5, 1.0, 1.0, 1.2, 1.2, 1.0)
        assert classify_positive_definite(kernel).verdict == "pd"

    def test_linear_broken_ratios_not_pd(self):
        kernel = Linear2x2Kernel(2.0, 1.2, 1.2, 2.4, 1.0, 0.8, 0.8, 1.2)
        report = classify_positive_definite(kernel)
        assert report.verdict == "not_pd"
        assert report.witness is not None

    def test_linear_proportional_pd(self):
        kernel = Linear2x2Kernel(2.0, 1.6, 1.6, 2.4, 1.0, 0.8, 0.8, 1.2)
        assert classify_positive_definite(kernel).verdict == "pd"

    def test_linear_outside_precondition_undetermined(self):
        # off-diagonal impact outlives the own impact: no criterion applies
        kernel = Linear2x2Kernel(1.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        report = classify_positive_definite(kernel)
        assert report.verdict in ("undetermined", "not_pd")

    def test_jordan_threshold(self):
        assert classify_positive_definite(JordanExpKernel(0.5)).verdict == "pd"
        assert classify_positive_definite(JordanExpKernel(0.6)).verdict == "pd"
        low = classify_positive_definite(JordanExpKernel(0.4))
        assert low.verdict == "not_pd"
        assert low.witness is not None

    def test_permanent(self, rng):
        assert classify_positive_definite(PermanentKernel(random_spd(rng, 2))).verdict == "pd"
        report = classify_positive_definite(PermanentKernel(np.diag([1.0, -1.0])))
        assert report.verdict == "not_pd"
        assert report.witness.grid.n == 1

    def test_scalar_times_matrix(self, rng):
        spd = random_spd(rng, 2)
        strict = ScalarTimesMatrixKernel(GaussianSquared(), spd)
        assert classify_positive_definite(strict).verdict == "strict_pd"
        psd = ScalarTimesMatrixKernel(ExpDecay(1.0), np.diag([1.0, 0.0]))
        assert classify_positive_definite(psd).verdict == "pd"

    def test_congruence_preserves_verdict(self, rng):
        inner = MatrixExpKernel(random_spd(rng, 2))
        L = np.array([[1.0, 0.3], [-0.2, 0.8]])
        assert classify_positive_definite(CongruenceKernel(L, inner)).verdict == "strict_pd"
        bad = CongruenceKernel(L, JordanExpKernel(0.4))
        report = classify_positive_definite(bad)
        assert report.verdict == "not_pd"
        assert report.witness is not None

    def test_plus_temporary_upgrades(self, rng):
        inner = MatrixExpKernel(np.diag([1.0, 0.0]))  # pd, not strict
        assert classify_positive_definite(inner).verdict == "pd"
        bumped = PlusTemporaryKernel(np.eye(2), inner)
        assert classify_positive_definite(bumped).verdict == "strict_pd"

    def test_clamped_not_pd(self):
        report = classify_positive_definite(ClampedExpKernel())
        assert report.verdict == "not_pd"
        assert report.witness is not None

    def test_power_capped_never_claims_pd(self, rng):
        # capped power decay has no analytic PD class; sampling may falsify
        # (the cap's kink genuinely breaks positive definiteness here) but
        # must never certify
        from crossimpact import PowerCapped

        kernel = DiagCongruenceKernel(
            random_orthogonal(rng, 2), [PowerCapped(0.5, 2.0), ExpDecay(1.0)]
        )
        report = classify_positive_definite(kernel)
        assert report.verdict in ("undetermined", "not_pd")
        assert report.min_eig is not None
        if report.verdict == "not_pd":
            gram = assemble_gram(kernel, report.witness.grid)
            assert gram.quadratic_form(report.witness.trades) < 0.0

    @pytest.mark.parametrize(
        "kernel",
        [
            LeftMultiplyKernel([[1.0, 0.2], [-0.1, 0.9]], CrossExpKernel(1.0, 1.8, 0.3)),
            MatrixFunctionKernel([[1.0, 0.3], [0.3, 2.0]], PowerCapped(0.5, 2.0)),
        ],
        ids=["left_multiply", "power_capped"],
    )
    def test_shape_theorem_reads_closed_forms(self, monkeypatch, kernel):
        # neither kernel has closed-form shape flags that prove PD, so the
        # shape theorem does not apply; it must not sample to find that out
        calls = count_calls(monkeypatch, kernels, "check_shape_properties")
        report = classify_positive_definite(kernel)
        assert calls == []
        assert report.verdict in ("undetermined", "not_pd")

    @pytest.mark.parametrize("build", [
        lambda g: DiagCongruenceKernel([[0.6, 0.8], [-0.8, 0.6]], [g, ExpDecay(1.0)]),
        lambda g: MatrixFunctionKernel([[1.0, 0.3], [0.3, 2.0]], g),
    ], ids=["diag_congruence", "matrix_function"])
    def test_shape_theorem_proves_a_convex_profile(self, build):
        """A profile of unknown PD class that is nonincreasing and convex,
        ``x -> 1/(1 + x)``, makes a symmetric kernel PD by the shape theorem,
        with no witness search; a PowerCapped profile, not convex, does not."""
        report = classify_positive_definite(build(InverseLinear()))
        assert (report.verdict, report.method) == ("pd", "analytic_theorem")
        report = classify_positive_definite(build(PowerCapped(0.5, 2.0)))
        assert report.method != "analytic_theorem"
        assert report.verdict in ("undetermined", "not_pd")

    def test_spectral_evidence_draws_search_grids(self, monkeypatch):
        drawn, sampler = [], posdef._random_search_grid

        def draw(rng, span_max, n_max):
            drawn.append((span_max, n_max, sampler(rng, span_max, n_max)))
            return drawn[-1][2]

        monkeypatch.setattr(posdef, "_random_search_grid", draw)
        assembled = count_calls(monkeypatch, posdef, "assemble_gram")
        posdef._spectral_evidence(gaussian_1d(), np.random.default_rng(3))
        assert len(drawn) == 20
        assert all((span, n) == (EVIDENCE_SPAN, EVIDENCE_N_MAX) for span, n, _ in drawn)
        assert [args[1] for args in assembled] == [grid for _, _, grid in drawn]

    def test_spectral_evidence_decomposes_each_gram_once(self, monkeypatch):
        # every Gram of an indefinite permanent kernel is indefinite, so the
        # first one also yields the witness
        kernel = PermanentKernel(np.diag([1.0, -1.0]))
        calls = count_eigensolver_calls(monkeypatch)
        worst, witness = posdef._spectral_evidence(kernel, np.random.default_rng(3))
        assert sum(map(len, calls)) == 20
        assert witness is not None and worst <= witness.value < 0.0
        gram = assemble_gram(kernel, witness.grid)
        assert gram.quadratic_form(witness.trades) < -posdef.PSD_REL_TOL * (1.0 + gram.bound)


class TestSearchViolation:
    def test_permanent_indefinite_found_fast(self):
        witness = search_violation(
            PermanentKernel(np.diag([1.0, -1.0])), span_max=5.0, n_max=4, budget=50, seed=0
        )
        assert witness is not None
        assert witness.value < 0.0

    def test_gaussian_no_witness(self):
        assert (
            search_violation(gaussian_1d(), span_max=20.0, n_max=12, budget=10_000, seed=0)
            is None
        )

    def test_cholesky_probe_decides_by_shifted_spectrum(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        gram = GramMatrix(TimeGrid([0.0]), m)
        assert gram.shifted_factor(0.0) is None
        assert gram.shifted_factor(1.5) is not None

    def test_cholesky_probe_holds_one_copy(self):
        """The Gram is the one copy: the probe writes the factor over its upper
        triangle and diagonal, and the strictly lower triangle stays."""
        gram = assemble_gram(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 1025))
        original = gram.blocks.copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            probe = gram.shifted_factor(0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probe is not None
        assert np.shares_memory(probe.factor, gram.blocks)
        assert peak - base <= 0.01 * gram.blocks.nbytes
        assert np.array_equal(np.tril(gram.blocks, -1), np.tril(original, -1))
        b = np.random.default_rng(1).standard_normal((gram.blocks.shape[0], 1))
        x = probe.solve(b)
        assert np.max(np.abs(original @ x - b)) <= 1e-9 * np.max(np.abs(b))

    def test_the_gram_stays_whole_around_its_factor(self, rng):
        """With no other call in between, every read of the Gram gives bit
        for bit what it gave before its factor was made: before the factor's
        ``solve``, after it, and after a ``solve`` that raises; and the
        factor solves the same after those reads."""
        n = 40
        gram = assemble_gram(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, n))
        trades = rng.standard_normal((n, 2))
        X = rng.standard_normal((2 * n, 3))

        def reads():
            return (gram.impact(trades), gram.quadratic_form(trades), gram.product(X),
                    np.tril(gram.blocks))

        before = reads()
        factor = gram.shifted_factor(-posdef.PSD_REL_TOL * (1.0 + gram.bound))
        assert factor is not None
        for after in ("the factor", "its solve", "a failed solve"):
            if after == "its solve":
                solved = factor.solve(X)
            if after == "a failed solve":
                with pytest.raises(ValueError):
                    factor.solve(X[:-1])
            for got, want in zip(reads(), before):
                assert np.array_equal(got, want), after
        assert np.array_equal(factor.solve(X), solved)

    def test_failed_probe_leaves_the_lower_triangle(self):
        gram = assemble_gram(JordanExpKernel(0.2), equidistant_grid(20.0, 65))
        lower = np.tril(gram.blocks)
        assert gram.shifted_factor(0.0) is None
        assert np.array_equal(np.tril(gram.blocks), lower)

    def test_validation(self):
        with pytest.raises(ValueError):
            search_violation(gaussian_1d(), span_max=0.0, n_max=4)
        with pytest.raises(ValueError):
            search_violation(gaussian_1d(), span_max=1.0, n_max=1)


class TestWitnessValidity:
    def test_witness_cost_negative_cross_module(self, rng):
        """Every not-PD witness must price to a strictly negative cost."""
        kernels = [
            JordanExpKernel(0.4),
            Linear2x2Kernel(2.0, 1.2, 1.2, 2.4, 1.0, 0.8, 0.8, 1.2),
            ClampedExpKernel(),
            PermanentKernel(np.diag([1.0, -1.0])),
        ]
        for kernel in kernels:
            report = classify_positive_definite(kernel)
            assert report.verdict == "not_pd", kernel.family
            w = report.witness
            gram = assemble_gram(kernel, w.grid)
            assert cost(kernel, w.grid, w.trades) < -0.5e-12 * gram.bound


class TestStrictness:
    def test_strict_kernels_have_positive_grams(self, rng):
        for _ in range(20):
            kernel = random_admissible_kernel(rng)
            report = classify_positive_definite(kernel)
            if report.verdict != "strict_pd":
                continue
            grid = random_grid(rng, n_max=10)
            gram = assemble_gram(kernel, grid)
            min_eig = np.linalg.eigvalsh(gram.blocks)[0]
            assert min_eig > 1e-12 * gram.bound


class TestLemmaNonnegativity:
    def test_nonincreasing_plus_psd_grams_implies_nonnegative(self, rng):
        """Kernels that are nonincreasing and PSD on many grids must also
        report nonnegative (the monotone + positive definite implication)."""
        from crossimpact import check_shape_properties

        candidates = [
            random_admissible_kernel(rng) for _ in range(10)
        ] + [CrossExpKernel(1.0, 1.4, 0.4), Exp2x2Kernel(1.0, 0.5, 0.5, 1.0, 1.0, 1.2, 1.2, 1.0)]
        for kernel in candidates:
            report = check_shape_properties(kernel, t_max=8.0)
            if report.nonincreasing.value is not True:
                continue
            psd_everywhere = True
            for _ in range(50):
                gram = assemble_gram(kernel, random_grid(rng, n_max=8))
                if not check_grid_pd(gram).psd:
                    psd_everywhere = False
                    break
            if psd_everywhere:
                assert report.nonnegative.value is True


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_decay_scan_matches_the_loop(n, m, seed):
    """The doubling scan behind ``StateSpaceGram.product`` gives the running
    sums ``a_k = terms_k + decays_{k-1} a_{k-1}`` of the sequential loop, to
    the roundoff of its ceil(log2 N) passes; decays of exactly 0 and 1
    included."""
    rng = np.random.default_rng(seed)
    decays = rng.uniform(0.0, 1.0, (n - 1, 1, 3))
    decays[rng.random(decays.shape) < 0.2] = 0.0
    decays[rng.random(decays.shape) < 0.2] = 1.0
    terms = rng.standard_normal((n, m, 3))

    def loop(values):
        out = values.copy()
        for k in range(1, n):
            out[k] += decays[k - 1] * out[k - 1]
        return out

    scanned = posdef._decay_scan(decays, terms.copy())
    passes = max(1, int(np.ceil(np.log2(n))))
    bound = 4 * passes * np.finfo(float).eps * loop(np.abs(terms))
    assert np.all(np.abs(scanned - loop(terms)) <= bound)
