import tracemalloc

import numpy as np
import pytest

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
    search_violation,
)
from crossimpact import kernels, posdef
from crossimpact.posdef import EVIDENCE_N_MAX, EVIDENCE_SPAN, _shifted_cholesky
from conftest import (
    count_calls,
    count_eigensolver_calls,
    impact_loop,
    random_admissible_kernel,
    random_grid,
    random_orthogonal,
    random_spd,
)


def gaussian_1d():
    return ScalarTimesMatrixKernel(GaussianSquared(), [[1.0]])


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
        assert gram.quadratic_form(witness.trades) < -posdef.PSD_REL_TOL * (1.0 + gram.norm)


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
        assert _shifted_cholesky(m, 0.0) is None
        assert _shifted_cholesky(m, 1.5) is not None

    def test_cholesky_probe_holds_one_copy(self):
        """The probe factors one straight copy of the Gram in place."""
        gram = assemble_gram(CrossExpKernel(1.0, 1.8, 0.3), equidistant_grid(5.0, 1025)).blocks
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            succeeds = _shifted_cholesky(gram, 0.0) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert succeeds is True
        assert peak - base <= 1.2 * gram.nbytes

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
            assert cost(kernel, w.grid, w.trades) < -0.5e-12 * gram.norm


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
            assert min_eig > 1e-12 * gram.norm


class TestLemmaNonnegativity:
    def test_nonincreasing_plus_psd_grams_implies_nonnegative(self, rng):
        """Kernels that are nonincreasing and PSD on many grids must also
        report nonnegative (the monotone + positive definite implication)."""
        from crossimpact import check_shape_properties

        candidates = [
            random_admissible_kernel(rng) for _ in range(10)
        ] + [CrossExpKernel(1.0, 1.4, 0.4), Exp2x2Kernel(1.0, 0.5, 0.5, 1.0, 1.0, 1.2, 1.2, 1.0)]
        for kernel in candidates:
            report = check_shape_properties(kernel, t_max=8.0, seed=1)
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
