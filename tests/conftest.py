"""Shared random-model builders for the test suite."""

import numpy as np
import pytest

import crossimpact
from crossimpact import cli, kernels, posdef, simulate, solver
from crossimpact import (
    CrossExpKernel,
    DiagCongruenceKernel,
    ExpDecay,
    LinearPolya,
    MatrixExpKernel,
    MatrixFunctionKernel,
    ScalarTimesMatrixKernel,
    TimeGrid,
)


def random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_spd(rng, k, lo=0.1, hi=3.0):
    q = random_orthogonal(rng, k)
    return q @ np.diag(rng.uniform(lo, hi, k)) @ q.T


def random_grid(rng, n_max=12, span_lo=0.3, span_hi=10.0, distinct=True):
    n = int(rng.integers(2, n_max + 1))
    span = float(rng.uniform(span_lo, span_hi))
    interior = np.sort(rng.uniform(0.0, span, n - 1)) + 0.02 * span
    times = np.concatenate([[0.0], interior])
    if distinct and n > 2 and np.min(np.diff(times)) < 1e-6 * span:
        times = np.linspace(0.0, span, n)
    return TimeGrid(times)


def random_convex_decay(rng, nonconstant_only=True):
    if rng.random() < 0.5:
        return ExpDecay(rate=float(rng.uniform(0.2, 3.0)))
    return LinearPolya(level=float(rng.uniform(0.5, 2.0)), slope=float(rng.uniform(0.2, 2.0)))


def random_admissible_kernel(rng):
    """Symmetric, nonnegative, nonincreasing, convex, commuting; strictly PD."""
    kind = rng.integers(0, 4)
    if kind == 0:
        k = int(rng.integers(1, 4))
        return MatrixExpKernel(random_spd(rng, k))
    if kind == 1:
        k = int(rng.integers(1, 4))
        return MatrixFunctionKernel(random_spd(rng, k), ExpDecay(float(rng.uniform(0.3, 2.0))))
    if kind == 2:
        k = int(rng.integers(2, 4))
        decays = [random_convex_decay(rng) for _ in range(k)]
        return DiagCongruenceKernel(random_orthogonal(rng, k), decays)
    kappa = float(rng.uniform(0.3, 1.5))
    kappa_tilde = float(kappa * rng.uniform(1.0, 2.5))
    # rho below kappa^2/kappa_tilde^2 keeps the kernel convex as well
    rho = float(rng.uniform(0.05, 0.95) * (kappa / kappa_tilde) ** 2)
    return CrossExpKernel(kappa, kappa_tilde, rho)


def count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of ``module.name``, also
    through the crossimpact modules that imported it by name."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in (module, crossimpact, cli, kernels, posdef, simulate, solver):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counted)
    return calls


def impact_loop(kernel, grid, trades):
    """Reference accumulated impact ``sum_l tilde(t_k - t_l) xi_l``, one
    kernel evaluation per pair of trade times."""
    t = grid.times
    return np.array(
        [sum(kernel.tilde(tk - tl) @ xi for tl, xi in zip(t, trades)) for tk in t]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
