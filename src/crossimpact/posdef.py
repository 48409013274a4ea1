"""Positive definiteness of decay kernels via Gram-matrix spectral tests.

A kernel admits no profitable round trips (and guarantees optimal
liquidation strategies) exactly when every Gram matrix built from its
two-sided extension on a trading grid is positive semidefinite.  This
module assembles those Gram matrices, checks them spectrally, classifies
whole kernel families analytically where closed-form criteria exist, and
searches for explicit violations otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg.lapack

from .grids import TimeGrid
from .kernels import (
    SYM_TOL,
    CongruenceKernel,
    DecayKernel,
    PermanentKernel,
    PlusTemporaryKernel,
    _maxabs,
    _min_eigenpair,
    _tril_indices,
)

__all__ = [
    "GramMatrix",
    "GridPDResult",
    "GramWitness",
    "PosDefReport",
    "assemble_gram",
    "check_grid_pd",
    "classify_positive_definite",
    "search_violation",
]

PSD_REL_TOL = 1e-9
WITNESS_REL_TOL = 1e-12
# largest span and size of the spectral evidence's random grids
EVIDENCE_SPAN = 50.0
EVIDENCE_N_MAX = 12


@dataclass(frozen=True)
class GramMatrix:
    """The NK x NK block matrix of two-sided kernel values at pairwise lags.

    Block (k, l) equals ``tilde(t_k - t_l)``; the storage is exactly
    symmetric because the extension transposes mirrored lags bit-for-bit.
    """

    grid: TimeGrid
    blocks: np.ndarray  # (N*K, N*K)
    dimension: int
    size: int

    @property
    def norm(self) -> float:
        return _maxabs(self.blocks)

    def impact(self, trades: np.ndarray) -> np.ndarray:
        """Accumulated impact ``sum_l tilde(t_k - t_l) xi_l`` at every trade
        time, shape (N, K), for trades of shape (N, K)."""
        v = np.asarray(trades, dtype=float).reshape(-1)
        return (self.blocks @ v).reshape(self.size, self.dimension)

    def quadratic_form(self, trades: np.ndarray) -> float:
        """``xi . Gram . xi`` for trades of shape (N, K)."""
        return float(np.vdot(trades, self.impact(trades)))


@dataclass(frozen=True)
class GridPDResult:
    psd: bool
    strict: bool
    min_eig: float
    eigenvalues: np.ndarray  # the Gram's spectrum, ascending


@dataclass(frozen=True)
class GramWitness:
    """A grid and unit trade vector whose quadratic form is negative."""

    grid: TimeGrid
    trades: np.ndarray  # (N, K), flattened 2-norm 1
    value: float  # trades . Gram . trades


@dataclass(frozen=True)
class PosDefReport:
    verdict: str  # "strict_pd" | "pd" | "not_pd" | "undetermined"
    min_eig: Optional[float]  # worst Gram eigenvalue seen, when sampled
    witness: Optional[GramWitness]
    method: str  # "analytic_theorem" | "analytic_family" | "spectral" | "search"


def _gram_lags(grid: TimeGrid) -> np.ndarray:
    """The lags ``t_i - t_j``, ``j <= i``, of the lower block triangle, row by row."""
    rows, cols = _tril_indices(grid.n)
    return grid.times[rows] - grid.times[cols]


def _fill_gram(values: np.ndarray, n: int) -> np.ndarray:
    """The (nk) x (nk) matrix with block (i, j), ``j <= i``, the ``values``
    (m, k, k) at the :func:`_gram_lags` lag ``t_i - t_j``, and (j, i) its transpose."""
    k = values.shape[1]
    gram = np.empty((n, k, n, k))
    start = 0
    for i in range(n):  # values[start:start + i + 1] are the lags t_i - t_j, j <= i
        row = values[start : start + i + 1]
        gram[i, :, : i + 1] = row.transpose(1, 0, 2)
        gram[: i + 1, :, i] = row.transpose(0, 2, 1)
        start += i + 1
    return gram.reshape(n * k, n * k)


def assemble_gram(kernel: DecayKernel, grid: TimeGrid) -> GramMatrix:
    """Assemble the cost quadratic form's Gram matrix for a trading grid.

    The kernel is evaluated at the lower block triangle's lags only; the
    transposed blocks are bit for bit ``tilde(t_l - t_k)``, so the result is
    that of all N^2 lags at half the kernel evaluations.
    """
    blocks = _fill_gram(kernel.tilde_many(_gram_lags(grid)), grid.n)
    return GramMatrix(grid=grid, blocks=blocks, dimension=kernel.dimension, size=grid.n)


def check_grid_pd(gram: GramMatrix) -> GridPDResult:
    """Spectral PSD test with a relative tolerance on the smallest eigenvalue."""
    try:
        eigs = np.linalg.eigvalsh(gram.blocks)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed on a {gram.blocks.shape} Gram") from exc
    min_eig = float(eigs[0])
    tol = PSD_REL_TOL * (1.0 + gram.norm)
    return GridPDResult(
        psd=min_eig >= -tol, strict=min_eig > tol, min_eig=min_eig, eigenvalues=eigs
    )


def _shifted_cholesky(matrix: np.ndarray, shift: float):
    """``(factor, True)`` for ``scipy.linalg.cho_solve`` with the Cholesky
    factor of ``matrix + shift * I``, or None if that is not positive definite
    (for a symmetric matrix: some eigenvalue is at most ``-shift``, up to
    roundoff).  The factor is the one copy: ``matrix.T`` in Fortran order, a
    straight copy that LAPACK factors in place, reading ``matrix``'s upper
    triangle."""
    shifted = np.array(matrix.T, order="F")
    shifted.flat[:: matrix.shape[0] + 1] += shift
    factor, info = scipy.linalg.lapack.dpotrf(shifted, lower=1, overwrite_a=1, clean=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
    return (factor, True) if info == 0 else None


def _random_search_grid(rng, span_max: float, n_max: int) -> TimeGrid:
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.1:
        # low-frequency defects live on the largest allowed grid
        return TimeGrid(np.linspace(0.0, span_max, n_max))
    if n == 1:
        return TimeGrid(np.zeros(1))
    span = span_max * 10.0 ** rng.uniform(-3.0, 0.0)
    if rng.random() < 0.5:
        times = np.linspace(0.0, span, n)
    else:
        g = 10.0 ** rng.uniform(0.02, min(1.0, 8.0 / n))
        i = np.arange(n, dtype=float)
        times = span * (g**i - 1.0) / (g ** (n - 1) - 1.0)
        times[0] = 0.0
    return TimeGrid(times)


def search_violation(
    kernel: DecayKernel,
    span_max: float,
    n_max: int,
    budget: int = 10_000,
    seed: int = 0,
) -> Optional[GramWitness]:
    """Search random grids for a negative-cost trade vector.

    Draws grid sizes up to ``n_max`` and spans log-uniformly up to
    ``span_max``, mixing equidistant with geometric spacing and occasional
    probes of the maximal grid (long coarse grids expose low-frequency
    defects, short ones high-frequency defects).  Returns the first witness
    whose quadratic form falls below ``-WITNESS_REL_TOL * ||Gram||``, or None once the
    budget is exhausted.
    """
    if not span_max > 0:
        raise ValueError("span_max must be positive")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        grid = _random_search_grid(rng, span_max, n_max)
        gram = assemble_gram(kernel, grid)
        # only Grams that fail the probe pay for an eigendecomposition, and
        # the unit min-eigenvector is the witness
        if _shifted_cholesky(gram.blocks, WITNESS_REL_TOL * gram.norm) is None:
            value, xi = _min_eigenpair(gram.blocks)
            if value < -WITNESS_REL_TOL * gram.norm:
                return GramWitness(grid, xi.reshape(grid.n, kernel.dimension), value)
    return None


def _spectral_evidence(kernel: DecayKernel, rng):
    """Worst eigenvalue over 20 random search grids (see
    :func:`_random_search_grid`); a witness from the first Gram that fails
    :func:`check_grid_pd`'s PSD test."""
    worst = math.inf
    witness = None
    for _ in range(20):
        gram = assemble_gram(kernel, _random_search_grid(rng, EVIDENCE_SPAN, EVIDENCE_N_MAX))
        value, xi = _min_eigenpair(gram.blocks)
        worst = min(worst, value)
        if witness is None and value < -PSD_REL_TOL * (1.0 + gram.norm):
            witness = GramWitness(gram.grid, xi.reshape(gram.size, gram.dimension), value)
    return worst, witness


def _searched_not_pd(kernel, seed, rng) -> PosDefReport:
    """NotPD backed by a witness searched for within the family's
    ``violation_box``; degrades to undetermined if the violation cannot be
    exhibited within the search budget."""
    span_max, n_max = kernel.violation_box
    witness = search_violation(kernel, span_max=span_max, n_max=n_max, budget=4000, seed=seed)
    if witness is not None:
        return PosDefReport("not_pd", witness.value, witness, "analytic_family")
    worst, _ = _spectral_evidence(kernel, rng)
    return PosDefReport("undetermined", worst, None, "spectral")


def classify_positive_definite(kernel: DecayKernel, seed: int = 0) -> PosDefReport:
    """Classify a kernel as strictly PD / PD / not PD / undetermined.

    Applies, in order: the family's closed-form criterion
    (:meth:`DecayKernel.pd_class`), the congruence and temporary-impact
    rules on the inner kernel, the shape theorem on closed-form facts
    (symmetric + nonnegative + nonincreasing + convex implies PD; it would be
    strict if every quadratic form were nonconstant, which is only ever
    sampled), and finally spectral evidence on random grids.  Sampling alone
    never yields a PD verdict; it can only falsify (with a witness) or leave
    the kernel undetermined.
    """
    rng = np.random.default_rng(seed)

    if isinstance(kernel, PermanentKernel):
        sym = 0.5 * (kernel.G0 + kernel.G0.T)
        low, xi = _min_eigenpair(sym)
        if low < -PSD_REL_TOL * (1.0 + _maxabs(kernel.G0)):
            witness = GramWitness(TimeGrid(np.zeros(1)), xi.reshape(1, -1), float(xi @ sym @ xi))
            return PosDefReport("not_pd", low, witness, "analytic_family")
        return PosDefReport("pd", low, None, "analytic_family")

    pd_class = kernel.pd_class()
    if pd_class in ("strict_pd", "pd"):
        return PosDefReport(pd_class, None, None, "analytic_family")
    if pd_class == "not_pd":
        return _searched_not_pd(kernel, seed, rng)

    if isinstance(kernel, CongruenceKernel):
        # congruence by an invertible matrix preserves (strict) positive
        # definiteness in both directions
        inner = classify_positive_definite(kernel.inner, seed=seed)
        if inner.verdict in ("strict_pd", "pd"):
            return PosDefReport(inner.verdict, inner.min_eig, None, inner.method)
        if inner.verdict == "not_pd" and inner.witness is not None:
            inv = np.linalg.inv(kernel.L)
            trades = inner.witness.trades @ inv.T
            scale = np.linalg.norm(trades)
            trades = trades / scale
            gram = assemble_gram(kernel, inner.witness.grid)
            value = gram.quadratic_form(trades)
            if value < -WITNESS_REL_TOL * gram.norm:
                witness = GramWitness(inner.witness.grid, trades, value)
                return PosDefReport("not_pd", value, witness, inner.method)

    if isinstance(kernel, PlusTemporaryKernel):
        inner = classify_positive_definite(kernel.inner, seed=seed)
        if inner.verdict in ("strict_pd", "pd"):
            low = _min_eigenpair(0.5 * (kernel.H0 + kernel.H0.T))[0]
            if low > SYM_TOL * (1.0 + _maxabs(kernel.H0)):
                return PosDefReport("strict_pd", inner.min_eig, None, inner.method)
            return PosDefReport(inner.verdict, inner.min_eig, None, inner.method)

    if pd_class is None:
        flags, structure = kernel.shape_flags(), kernel.structure()
        if flags is not None and structure is not None and structure[0] and all(
            flags[p] for p in ("nonnegative", "nonincreasing", "convex")
        ):
            return PosDefReport("pd", None, None, "analytic_theorem")

    worst, witness = _spectral_evidence(kernel, rng)
    if witness is not None:
        return PosDefReport("not_pd", worst, witness, "search")
    return PosDefReport("undetermined", worst, None, "spectral")
