"""Closed-form family facts (``structure``, ``shape_flags``, ``pd_class``)
held against sampling and spectral evidence."""

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
    check_shape_properties,
    classify_positive_definite,
    search_violation,
)
from crossimpact.kernels import _structure_sampled
from conftest import random_grid, random_orthogonal, random_spd

# a / b equal in every entry, but the four ratios differ in the last bit
ULP_PROPORTIONAL = Linear2x2Kernel(
    0.9945189522393865, 0.2144426684415924, 0.2144426684415924, 1.3235410285073086,
    0.5886036103198524, 0.1269173690125536, 0.1269173690125536, 0.7833345217118929,
)


def test_proportional_linear2x2_despite_rounded_ratios():
    assert ULP_PROPORTIONAL.shape_flags() == {
        "nonnegative": True, "nonincreasing": True, "convex": True
    }
    report = check_shape_properties(ULP_PROPORTIONAL, t_max=10.0)
    for verdict in (report.nonnegative, report.nonincreasing, report.convex):
        assert verdict.value and verdict.method == "analytic"
    assert classify_positive_definite(ULP_PROPORTIONAL).verdict == "pd"


def test_specialized_values_match_the_general_family():
    ts = np.linspace(0.0, 7.0, 301)
    b = random_spd(np.random.default_rng(3), 3)
    assert np.array_equal(
        MatrixExpKernel(b).at_many(ts), MatrixFunctionKernel(b, ExpDecay(1.0)).at_many(ts)
    )
    cross = CrossExpKernel(0.8, 1.7, 0.4)
    assert np.array_equal(cross.at_many(ts), Exp2x2Kernel._values(cross, ts))


def test_power_capped_starts_at_the_cap():
    # x ** -exponent is infinite at x = 0, so the profile is capped there,
    # as the nonincreasing flag requires
    g = PowerCapped(0.5, 2.0)
    values = g(np.array([0.0, 1e-300, 0.1, 0.25, 1.0, 4.0]))
    assert values[0] == 2.0
    assert np.all(np.diff(values) <= 0.0)


def _scalar(rng):
    pick = int(rng.integers(5))
    if pick == 0:
        return ExpDecay(float(rng.uniform(0.2, 3.0)))
    if pick == 1:
        return GaussianSquared()
    if pick == 2:
        return LinearPolya(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0)))
    if pick == 3:
        return Constant(float(rng.uniform(0.0, 2.0)))
    return PowerCapped(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.5, 3.0)))


def _psd(rng, k):
    """Symmetric PSD; singular (rank one, or zero) three times in ten."""
    if rng.random() < 0.3:
        v = random_orthogonal(rng, k)[:, :1] if k > 1 else np.zeros((1, 1))
        return v @ v.T
    return random_spd(rng, k)


def _kernel(family, rng):
    k = int(rng.integers(1, 4))
    if family == "matrix_exp":
        return MatrixExpKernel(_psd(rng, k))
    if family == "matrix_function":
        return MatrixFunctionKernel(_psd(rng, k), _scalar(rng))
    if family == "diag_congruence":
        return DiagCongruenceKernel(random_orthogonal(rng, k), [_scalar(rng) for _ in range(k)])
    if family == "scalar_times_matrix":
        L = _psd(rng, k) if rng.random() < 0.7 else rng.uniform(-1.0, 1.0, (k, k))
        return ScalarTimesMatrixKernel(_scalar(rng), L)
    if family == "jordan_exp":
        return JordanExpKernel(float(rng.uniform(0.1, 2.0)))
    if family == "permanent":
        G0 = _psd(rng, k) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0, (k, k))
        return PermanentKernel(G0)
    if family == "exp2x2":
        a, b = rng.uniform(0.1, 3.0, 4), rng.uniform(0.1, 3.0, 4)
        if rng.random() < 0.5:
            a[2] = a[1]
        return Exp2x2Kernel(*a, *b)
    # linear2x2, proportional: a = c * b with a symmetric cross impact
    b = rng.uniform(0.1, 3.0, 4)
    b[2] = b[1]
    return Linear2x2Kernel(*(float(rng.uniform(0.3, 3.0)) * b), *b)


FAMILIES = [
    "matrix_exp", "matrix_function", "diag_congruence", "scalar_times_matrix",
    "jordan_exp", "permanent", "exp2x2", "linear2x2",
]


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_closed_forms_never_contradicted(family, seed):
    """A closed-form "yes" survives sampling: the structure on sampled
    values, a shape flag on the sampled shape check, and a PD class on the
    Gram of a random grid."""
    rng = np.random.default_rng(seed)
    kernel = _kernel(family, rng)
    t_max = float(rng.uniform(1.0, 20.0))

    structure = kernel.structure()
    if structure is not None:
        sampled = _structure_sampled(kernel.at_many(np.linspace(0.0, t_max, 48)))
        assert all(s for closed, s in zip(structure, sampled) if closed)

    flags = kernel.shape_flags()
    if flags is not None:
        report = check_shape_properties(kernel, t_max=t_max, method="sampled")
        for prop, closed in flags.items():
            assert not closed or getattr(report, prop).value is not False, prop

    if kernel.pd_class() in ("strict_pd", "pd"):
        grid = random_grid(rng, n_max=16)
        assert check_grid_pd(assemble_gram(kernel, grid)).psd


def _sum_of_exponentials(kernel) -> bool:
    """Whether the kernel is a sum of exponentials with closed-form terms."""
    family = kernel.family
    if family in ("left_multiply", "congruence", "plus_temporary"):
        return _sum_of_exponentials(kernel.inner)
    exponential = (ExpDecay, Constant)
    if family == "matrix_function":
        return isinstance(kernel.scalar_fn, exponential)
    if family == "diag_congruence":
        return all(isinstance(g, exponential) for g in kernel.decays)
    if family == "scalar_times_matrix":
        return isinstance(kernel.g, exponential)
    return family in ("matrix_exp", "permanent", "exp2x2", "cross_exp")


def _any_kernel(family, rng):
    if family == "cross_exp":
        return CrossExpKernel(*rng.uniform(0.2, 3.0, 3))
    if family == "clamped_exp":
        return ClampedExpKernel()
    if family in ("left_multiply", "congruence", "plus_temporary"):
        inner = _kernel(str(rng.choice(FAMILIES)), rng)
        k = inner.dimension
        if family == "plus_temporary":
            return PlusTemporaryKernel(_psd(rng, k), inner)
        L = np.eye(k) + rng.uniform(-0.5, 0.5, (k, k))
        return (LeftMultiplyKernel if family == "left_multiply" else CongruenceKernel)(L, inner)
    return _kernel(family, rng)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(FAMILIES + [
        "cross_exp", "clamped_exp", "left_multiply", "congruence", "plus_temporary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_realization_reproduces_the_kernel(family, seed):
    """Every family and combinator that is a sum of exponentials returns a
    realization ``(P, rates, Q)`` with ``P diag(exp(-t rates)) Q^T`` equal
    to ``at_many`` to 1e-13 relative at positive lags; every other returns
    None."""
    rng = np.random.default_rng(seed)
    kernel = _any_kernel(family, rng)
    realization = kernel.realization()
    assert (realization is not None) == _sum_of_exponentials(kernel)
    if realization is None:
        return
    P, rates, Q = realization
    k = kernel.dimension
    assert P.shape == Q.shape == (k, rates.size) and np.all(rates >= 0)
    lags = np.sort(rng.uniform(0.0, 20.0, 40)) + 1e-6
    values = kernel.at_many(lags)
    realized = np.einsum("ir,mr,jr->mij", P, np.exp(-np.outer(lags, rates)), Q)
    assert np.max(np.abs(realized - values)) <= 1e-13 * max(np.max(np.abs(values)), 1e-300)


def _loading(shape, rng, k):
    """A K x K loading: SPD, symmetric indefinite, or SPD plus a skew part
    of relative size 1e-4 to 1."""
    if shape == "indefinite":
        q = random_orthogonal(rng, k)
        return q @ np.diag(rng.uniform(0.1, 3.0, k) * np.r_[-1.0, np.ones(k - 1)]) @ q.T
    L = random_spd(rng, k)
    if shape == "nonsymmetric":
        m = rng.standard_normal((k, k))
        skew = (m - m.T) / np.linalg.norm(m - m.T)
        L = L + 10.0 ** rng.uniform(-4.0, 0.0) * np.linalg.norm(L) * skew
    return L


def test_nonsymmetric_permanent_is_not_pd():
    kernel = PermanentKernel([[1.0, 2.0], [-2.0, 1.0]])
    assert classify_positive_definite(kernel).verdict == "not_pd"
    eigs = np.linalg.eigvalsh(assemble_gram(kernel, TimeGrid([0.0, 1.0])).blocks)
    assert eigs[0] == pytest.approx(1.0 - np.sqrt(5.0), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    base=st.sampled_from(["permanent", "scalar_times_matrix"]),
    shape=st.sampled_from(["spd", "indefinite", "nonsymmetric"]),
    wrap=st.sampled_from([None, "left_multiply", "congruence", "plus_temporary"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_classification_never_contradicted(base, shape, wrap, seed):
    """``g(t) L`` kernels, constant ones included, and the combinators over
    them: a PD verdict leaves a search without a witness, and a not-PD
    witness has a negative form on its own Gram."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    L = _loading(shape, rng, k)
    kernel = PermanentKernel(L) if base == "permanent" else ScalarTimesMatrixKernel(_scalar(rng), L)
    if wrap == "plus_temporary":
        kernel = PlusTemporaryKernel(_psd(rng, k), kernel)
    elif wrap is not None:
        M = np.eye(k) + rng.uniform(-0.5, 0.5, (k, k))
        kernel = (LeftMultiplyKernel if wrap == "left_multiply" else CongruenceKernel)(M, kernel)
    report = classify_positive_definite(kernel, seed=seed)
    if report.verdict in ("strict_pd", "pd"):
        assert search_violation(kernel, 20.0, 12, budget=400, seed=seed) is None
    if report.verdict == "not_pd":
        witness = report.witness
        assert assemble_gram(kernel, witness.grid).quadratic_form(witness.trades) < 0.0
