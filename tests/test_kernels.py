import numpy as np
import pytest
import scipy.linalg
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
    LinearPolya,
    Linear2x2Kernel,
    MatrixExpKernel,
    MatrixFunctionKernel,
    PermanentKernel,
    PlusTemporaryKernel,
    PowerCapped,
    ScalarTimesMatrixKernel,
    check_shape_properties,
    check_structure,
    kernel_from_dict,
)
from crossimpact import kernels
from conftest import random_admissible_kernel, random_orthogonal, random_spd


class TestEval:
    def test_cross_exp_at_zero(self):
        k = CrossExpKernel(kappa=1.0, kappa_tilde=1.8, rho=0.3)
        assert np.allclose(k.at(0.0), [[1.0, 0.3], [0.3, 1.0]], atol=0, rtol=0)

    def test_matrix_exp_diagonal(self):
        k = MatrixExpKernel(np.diag([1.0, 2.0]))
        got = k.at(np.log(2.0))
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-15)

    def test_permanent_is_constant(self):
        g0 = np.array([[2.0, -1.0], [0.5, 1.0]])
        k = PermanentKernel(g0)
        for t in (0.0, 0.7, 13.0):
            assert np.array_equal(k.at(t), g0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError):
            CrossExpKernel(1.0, 1.8, 0.3).at(-0.1)

    def test_jordan_closed_form(self):
        k = JordanExpKernel(0.7)
        t = 1.3
        e = np.exp(-0.7 * t)
        assert np.allclose(k.at(t), [[e, -t * e], [0.0, e]], atol=0, rtol=1e-15)

    def test_clamped_freezes_beyond_one(self):
        k = ClampedExpKernel()
        assert np.array_equal(k.at(1.0), k.at(5.0))
        assert not np.array_equal(k.at(0.5), k.at(1.0))


class TestEvalTilde:
    def test_symmetric_kernel_even(self, rng):
        k = MatrixExpKernel(random_spd(rng, 3))
        for t in rng.uniform(0.1, 5.0, 10):
            assert np.array_equal(k.tilde(-t), k.tilde(t).T)
            assert np.array_equal(k.tilde(t), k.tilde(-t))
            assert np.array_equal(k.tilde(t), k.at(t))

    def test_symmetrized_at_zero(self):
        k = Exp2x2Kernel(1.0, 2.0, 1e-9, 1.0, 1.0, 1.0, 1.0, 1.0)
        # a21 must be positive; with a21 ~ 0 the symmetrization is ~[[1,1],[1,1]]
        assert np.allclose(k.tilde(0.0), [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)

    def test_negative_lag_is_transpose(self):
        k = Exp2x2Kernel(1.0, 2.0, 0.5, 1.0, 1.0, 1.3, 0.7, 1.0)
        assert np.array_equal(k.tilde(-1.0), k.at(1.0).T)

    def test_reflection_exact_for_all_families(self, rng):
        kernels = [
            random_admissible_kernel(rng),
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            Linear2x2Kernel(2.0, 1.2, 1.2, 2.4, 1.0, 0.8, 0.8, 1.2),
            ClampedExpKernel(),
            JordanExpKernel(0.4),
            PermanentKernel(rng.standard_normal((2, 2))),
            PlusTemporaryKernel(np.eye(2), CrossExpKernel(1.0, 1.8, 0.3)),
        ]
        ts = np.concatenate([rng.uniform(0.0, 8.0, 25), [0.0]])
        for kernel in kernels:
            left = kernel.tilde_many(-ts)
            right = np.transpose(kernel.tilde_many(ts), (0, 2, 1))
            assert np.array_equal(left, right), kernel.family


class TestMatrixFunction:
    def test_exp_decay_matches_matrix_exp(self, rng):
        b = random_spd(rng, 3)
        mf = MatrixFunctionKernel(b, ExpDecay(1.0))
        me = MatrixExpKernel(b)
        for t in (0.0, 0.5, 1.0, 2.0):
            assert np.allclose(mf.at(t), me.at(t), atol=1e-12, rtol=0)

    def test_zero_matrix_gives_constant(self):
        mf = MatrixFunctionKernel(np.zeros((2, 2)), GaussianSquared())
        for t in (0.0, 1.0, 9.0):
            assert np.allclose(mf.at(t), np.eye(2), atol=0, rtol=0)

    def test_gaussian_sq_against_series_oracle(self):
        # reference: exp(-(tB)^2) summed as a matrix power series
        rho = 0.4
        b = np.array([[1.0, rho], [rho, 1.0]])
        mf = MatrixFunctionKernel(b, GaussianSquared())
        for t in (0.0, 0.3, 0.9, 1.7):
            m = -(t * b) @ (t * b)
            series = np.eye(2)
            term = np.eye(2)
            for j in range(1, 60):
                term = term @ m / j
                series = series + term
            assert np.max(np.abs(mf.at(t) - series)) < 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MatrixFunctionKernel([[1.0, 0.5], [0.0, 1.0]], ExpDecay(1.0))

    def test_indefinite_rejected_with_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            MatrixFunctionKernel([[1.0, 2.0], [2.0, 1.0]], ExpDecay(1.0))

    def test_consistency_many_random_psd(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            q = random_orthogonal(rng, k)
            b = q @ np.diag(rng.uniform(0.0, 4.0, k)) @ q.T
            b = 0.5 * (b + b.T)
            mf = MatrixFunctionKernel(b, ExpDecay(1.0))
            me = MatrixExpKernel(b)
            ts = rng.uniform(0.0, 6.0, 50)
            assert np.max(np.abs(mf.at_many(ts) - me.at_many(ts))) < 1e-12

    def test_scaled_rank_deficient_psd_accepted(self, rng):
        # the PSD floor scales with the matrix: a singular PSD generator stays
        # admissible at any scale, while eigh's roundoff grows with the entries
        inner = CrossExpKernel(1.0, 1.8, 0.3)
        for scale in (1e6, 1e9):
            for _ in range(20):
                f = rng.standard_normal((3, 2))
                b = scale * (f @ f.T)
                MatrixExpKernel(b)
                MatrixFunctionKernel(b, GaussianSquared())
                PlusTemporaryKernel(scale * np.outer(f[:2, 0], f[:2, 0]), inner)


def eigenbasis_kernels(rng, k):
    """One kernel of each eigenbasis family on a random K-dimensional basis."""
    decays = [ExpDecay(0.5), GaussianSquared(), LinearPolya(2.0, 0.3), Constant(0.7)]
    return [
        MatrixExpKernel(random_spd(rng, k)),
        MatrixFunctionKernel(random_spd(rng, k), GaussianSquared()),
        DiagCongruenceKernel(random_orthogonal(rng, k), [decays[j % 4] for j in range(k)]),
    ]


class TestEigenBasisValues:
    LAGS = np.array([0.0, 1e-300, 1e-12, 1e-6, 0.3, 1.7, 9.0, 40.0, 1e3])

    def test_exactly_symmetric(self, rng):
        for k in range(1, 9):
            for kernel in eigenbasis_kernels(rng, k):
                values = kernel.at_many(self.LAGS)
                assert np.array_equal(values, values.transpose(0, 2, 1)), (kernel.family, k)

    def test_matches_per_term_sum(self, rng):
        ts = rng.uniform(0.0, 6.0, 40)
        for k in range(1, 9):
            for kernel in eigenbasis_kernels(rng, k):
                U, d = kernel.eigvecs, kernel._diagonals(ts)
                for t, got in enumerate(kernel.at_many(ts)):
                    want = sum(d[t, j] * np.outer(U[:, j], U[:, j]) for j in range(k))
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matrix_exp_matches_expm(self, rng):
        for k in range(1, 9):
            b = random_spd(rng, k)
            kernel = MatrixExpKernel(b)
            for t in (0.0, 1e-6, 0.2, 0.9, 2.5):
                want = scipy.linalg.expm(-t * b)
                assert np.max(np.abs(kernel.at(t) - want)) <= 1e-13 * np.max(np.abs(want))


class TestScalarFunctions:
    @pytest.mark.parametrize(
        "fn",
        [
            ExpDecay(0.7),
            GaussianSquared(),
            LinearPolya(2.0, 0.5),
            Constant(1.3),
            PowerCapped(0.6, 4.0),
        ],
    )
    def test_finite_nonnegative(self, fn):
        x = np.linspace(0.0, 50.0, 201)
        values = fn(x)
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ExpDecay(0.0)
        with pytest.raises(ValueError):
            LinearPolya(-1.0, 1.0)
        with pytest.raises(ValueError):
            Constant(-0.1)
        with pytest.raises(ValueError):
            PowerCapped(0.5, 0.0)


class TestTransforms:
    def test_identity_congruence(self, rng):
        inner = CrossExpKernel(1.0, 1.8, 0.3)
        wrapped = CongruenceKernel(np.eye(2), inner)
        ts = rng.uniform(0.0, 5.0, 20)
        assert np.max(np.abs(wrapped.at_many(ts) - inner.at_many(ts))) == 0.0

    def test_scalar_times_identity_equals_matrix_exp(self):
        k1 = ScalarTimesMatrixKernel(ExpDecay(1.0), np.eye(2))
        k2 = MatrixExpKernel(np.eye(2))
        for t in (0.0, 0.4, 2.0):
            assert np.allclose(k1.at(t), k2.at(t), atol=1e-14)

    def test_plus_temporary_jump_at_zero_only(self):
        inner = CrossExpKernel(1.0, 1.8, 0.3)
        h0 = np.array([[0.5, 0.1], [0.1, 0.4]])
        wrapped = PlusTemporaryKernel(h0, inner)
        assert np.allclose(wrapped.tilde(0.0), inner.tilde(0.0) + h0, atol=0, rtol=0)
        assert np.array_equal(wrapped.tilde(0.1), inner.tilde(0.1))
        assert np.array_equal(wrapped.at(0.3), inner.at(0.3))

    def test_singular_congruence_rejected(self):
        with pytest.raises(ValueError, match="condition"):
            CongruenceKernel(np.array([[1.0, 1.0], [1.0, 1.0]]), CrossExpKernel(1, 1.8, 0.3))

    def test_negative_temporary_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PlusTemporaryKernel(np.diag([1.0, -0.5]), CrossExpKernel(1, 1.8, 0.3))

    def test_left_multiply(self, rng):
        inner = MatrixExpKernel(random_spd(rng, 2))
        L = rng.standard_normal((2, 2))
        wrapped = LeftMultiplyKernel(L, inner)
        t = 0.8
        assert np.allclose(wrapped.at(t), L @ inner.at(t), atol=0, rtol=0)


class TestStructure:
    def test_cross_exp(self):
        k = CrossExpKernel(1.0, 1.8, 0.3)
        assert check_structure(k, np.linspace(0, 5, 9)) == (True, True)

    def test_exp2x2_commuting_criteria(self):
        same_rates = Exp2x2Kernel(1.0, 0.5, 0.7, 2.0, 1.3, 1.3, 1.3, 1.3)
        assert check_structure(same_rates, np.linspace(0, 5, 9))[1] is True
        symmetric_pair = Exp2x2Kernel(1.0, 0.5, 0.5, 1.0, 1.0, 1.4, 1.4, 1.0)
        assert check_structure(symmetric_pair, np.linspace(0, 5, 9)) == (True, True)
        generic = Exp2x2Kernel(1.0, 0.5, 0.5, 2.0, 1.0, 1.4, 1.4, 1.1)
        assert check_structure(generic, np.linspace(0, 5, 9))[1] is False

    def test_asymmetric_loadings(self):
        k = Exp2x2Kernel(1.0, 0.6, 0.3, 1.0, 1.0, 1.0, 1.0, 1.0)
        symmetric, _ = check_structure(k, np.linspace(0, 5, 9))
        assert symmetric is False

    def test_jordan_commutes(self):
        assert check_structure(JordanExpKernel(0.4), np.linspace(0, 5, 9)) == (False, True)

    def test_sampled_combinator(self, rng):
        inner = MatrixExpKernel(random_spd(rng, 2))
        L = np.array([[1.0, 0.2], [0.0, 0.9]])
        wrapped = CongruenceKernel(L, inner)
        symmetric, _ = check_structure(wrapped, np.linspace(0, 4, 8))
        assert symmetric is True  # congruence of a symmetric kernel

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            check_structure(CrossExpKernel(1, 1.8, 0.3), [])


class TestShapeProperties:
    def test_figure_parameters_admissible(self):
        report = check_shape_properties(CrossExpKernel(1.0, 1.8, 0.3), t_max=10.0)
        assert report.nonincreasing.value is True  # 0.3 <= 1/1.8
        assert report.convex.value is True  # 0.3 <= 1/1.8**2 ~ 0.3086
        assert report.nonnegative.value is True
        assert report.nonincreasing.method == "analytic"

    def test_cross_exp_convexity_boundary(self):
        # just above kappa^2/kappa_tilde^2 the kernel stops being convex
        report = check_shape_properties(CrossExpKernel(1.0, 1.8, 0.31), t_max=10.0)
        assert report.convex.value is False
        assert report.nonincreasing.value is True

    def test_slow_cross_decay_not_nonnegative(self):
        report = check_shape_properties(
            Exp2x2Kernel(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0), t_max=10.0
        )
        assert report.nonnegative.value is False
        witness = report.nonnegative.witness
        assert witness is not None
        kernel = Exp2x2Kernel(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0)
        (t,) = witness.times
        x = witness.direction
        assert x @ kernel.at(t) @ x < 0.0

    def test_permanent_psd(self, rng):
        g0 = random_spd(rng, 2)
        report = check_shape_properties(PermanentKernel(g0), t_max=5.0)
        assert report.nonnegative.value is True
        assert report.nonincreasing.value is True
        assert report.convex.value is True
        assert report.nonconstant_forms.value is False

    def test_sampled_witness_reevaluates(self, rng):
        # gaussian-squared matrix function is not convex; the sampled triple
        # must exhibit a genuine negative second difference
        kernel = MatrixFunctionKernel(random_spd(rng, 2), GaussianSquared())
        report = check_shape_properties(kernel, t_max=6.0)
        assert report.convex.value is False
        w = report.convex.witness
        assert w is not None
        t1, t2, t3 = w.times
        form = [w.direction @ kernel.at(t) @ w.direction for t in (t1, t2, t3)]
        assert form[0] - 2.0 * form[1] + form[2] < 0.0

    def test_validation(self):
        k = CrossExpKernel(1.0, 1.8, 0.3)
        with pytest.raises(ValueError):
            check_shape_properties(k, t_max=0.0)
        with pytest.raises(ValueError):
            check_shape_properties(k, t_max=1.0, n_samples=2)


class TestSerialization:
    def test_round_trip_all_families(self, rng):
        kernels = [
            PermanentKernel(rng.standard_normal((2, 2))),
            MatrixExpKernel(random_spd(rng, 3)),
            MatrixFunctionKernel(random_spd(rng, 2), GaussianSquared()),
            DiagCongruenceKernel(
                random_orthogonal(rng, 2), [ExpDecay(1.0), LinearPolya(1.0, 0.5)]
            ),
            Exp2x2Kernel(1.0, 0.4, 0.7, 1.2, 1.0, 1.3, 1.4, 1.1),
            CrossExpKernel(1.0, 1.8, 0.3),
            Linear2x2Kernel(2.0, 1.6, 1.6, 2.4, 1.0, 0.8, 0.8, 1.2),
            ClampedExpKernel(),
            JordanExpKernel(0.4),
            ScalarTimesMatrixKernel(ExpDecay(1.0), np.eye(2)),
            CongruenceKernel(np.array([[1.0, 0.2], [0.0, 0.9]]), CrossExpKernel(1, 1.8, 0.3)),
            PlusTemporaryKernel(np.eye(2), CrossExpKernel(1, 1.8, 0.3)),
        ]
        ts = rng.uniform(0.0, 4.0, 7)
        for kernel in kernels:
            clone = kernel_from_dict(kernel.to_dict())
            assert np.max(np.abs(clone.at_many(ts) - kernel.at_many(ts))) < 1e-15

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            kernel_from_dict({"family": "nope"})


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    log_scale=st.floats(-6.0, 6.0),
    clustered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_min_eigenpair_matches_full_spectrum(n, log_scale, clustered, seed):
    """The partial decomposition's eigenvalue agrees with the full spectrum's
    smallest, and its vector is a unit vector with that Rayleigh quotient,
    also for repeated eigenvalues."""
    rng = np.random.default_rng(seed)
    if clustered:
        q = random_orthogonal(rng, n)
        m = (q * rng.choice([-1.0, 0.0, 1.0], size=n)) @ q.T
    else:
        m = rng.standard_normal((n, n))
    m = 10.0**log_scale * 0.5 * (m + m.T)
    value, vector = kernels._min_eigenpair(m)
    eps = np.finfo(float).eps
    tol = 8 * n * eps * np.linalg.norm(m, 2)
    assert abs(value - np.linalg.eigvalsh(m)[0]) <= tol
    assert abs(np.linalg.norm(vector) - 1.0) <= 8 * n * eps
    assert abs(vector @ m @ vector - value) <= tol
