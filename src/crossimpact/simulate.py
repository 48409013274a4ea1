"""Monte Carlo verification of expected execution costs.

Simulates unaffected prices as an arithmetic Gaussian martingale, applies
the kernel's price impact to get execution prices, and checks that the
average implementation shortfall (book value of the initial portfolio minus
realized revenues) matches the analytic cost of the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import TimeGrid
from .kernels import DecayKernel, _maxabs
from .solver import Strategy, cost

__all__ = [
    "MartingaleModel",
    "SimulationReport",
    "sample_paths",
    "impacted_price",
    "revenues",
    "estimate_expected_cost",
]


@dataclass(frozen=True)
class MartingaleModel:
    """Arithmetic Gaussian martingale for the unaffected prices.

    Increments over a gap ``dt`` are ``sqrt(dt) * C @ Z`` with ``C`` a factor
    of ``covariance`` and ``Z`` standard normal, so prices can go negative;
    only the martingale property matters for the cost identity.
    """

    s0: np.ndarray  # (K,) initial prices
    covariance: np.ndarray  # (K, K) per-unit-time increment covariance
    horizon: float

    def __post_init__(self):
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (s0.size, s0.size):
            raise ValueError("covariance must be KxK for K initial prices")
        if _maxabs(cov - cov.T) > 1e-10 * (1.0 + _maxabs(cov)):
            raise ValueError("covariance must be symmetric")
        eigs, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        if eigs[0] < -1e-10 * (1.0 + _maxabs(cov)):
            raise ValueError(f"covariance must be PSD; eigenvalue {eigs[0]:.3e}")
        factor = vecs * np.sqrt(np.maximum(eigs, 0.0))
        for arr in (s0, cov, factor):
            arr.setflags(write=False)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_factor", factor)

    @property
    def dimension(self) -> int:
        return self.s0.size


@dataclass(frozen=True)
class SimulationReport:
    mean_shortfall: float
    stderr: float  # sample standard deviation / sqrt(n_paths)
    n_paths: int
    seed: int
    analytic_cost: float


def sample_paths(model: MartingaleModel, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """Unaffected prices at the grid times, shape (n_paths, N, K).

    Deterministic for a given seed; the first column is the initial price.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    rng = np.random.default_rng(seed)
    n, k = grid.n, model.dimension
    paths = np.empty((n_paths, n, k))
    paths[:, 0, :] = model.s0
    if n > 1:
        z = rng.standard_normal((n_paths, n - 1, k))
        steps = np.sqrt(np.diff(grid.times))[None, :, None] * (z @ model._factor.T)
        paths[:, 1:, :] = model.s0 + np.cumsum(steps, axis=1)
    return paths


def _impact_terms(kernel: DecayKernel, grid: TimeGrid, trades: np.ndarray) -> np.ndarray:
    """Accumulated impact just before each trade: sum_{l<k} G(t_k-t_l) xi_l."""
    n, k = grid.n, trades.shape[1]
    if n == 1:
        return np.zeros_like(trades, dtype=float)
    values = kernel.at_many(np.abs(grid.lags()).ravel()).reshape(n, n, k, k)
    lower = np.tril(np.ones((n, n)), k=-1)
    return np.einsum("kl,klij,lj->ki", lower, values, trades)


def impacted_price(
    kernel: DecayKernel, grid: TimeGrid, strategy, path: np.ndarray, k: int
) -> np.ndarray:
    """Price just before the trade at time index ``k``: the unaffected price
    plus the decayed impact of all strictly earlier trades."""
    trades = strategy.trades if isinstance(strategy, Strategy) else np.asarray(strategy, float)
    if not 0 <= k < grid.n:
        raise IndexError(f"trade index {k} out of range for {grid.n} times")
    price = np.asarray(path, dtype=float)[k].copy()
    for ell in range(k):
        price += kernel.at(grid.times[k] - grid.times[ell]) @ trades[ell]
    return price


def revenues(kernel: DecayKernel, grid: TimeGrid, strategy, path: np.ndarray) -> float:
    """Realized proceeds of a strategy along one price path.

    Each trade executes at its pre-trade impacted price shifted by half its
    own (lag-0) impact, so temporary-impact jumps are priced consistently
    with the cost functional.
    """
    trades = strategy.trades if isinstance(strategy, Strategy) else np.asarray(strategy, float)
    if trades.ndim == 1:
        trades = trades[:, None]
    impact = _impact_terms(kernel, grid, trades)
    g0 = kernel.at(0.0)
    exec_prices = np.asarray(path, dtype=float) + impact + 0.5 * trades @ g0.T
    return float(-np.sum(trades * exec_prices))


def estimate_expected_cost(
    kernel: DecayKernel,
    grid: TimeGrid,
    strategy,
    model: MartingaleModel,
    n_paths: int,
    seed: int,
    x0: Optional[np.ndarray] = None,
) -> SimulationReport:
    """Monte Carlo estimate of the expected implementation shortfall.

    The shortfall of a path is the initial portfolio's book value minus the
    realized revenues; its expectation equals the analytic cost whenever the
    strategy liquidates ``x0`` (the martingale part cancels).  ``x0``
    defaults to the strategy's own liquidation target and is validated
    against it otherwise.
    """
    trades = strategy.trades if isinstance(strategy, Strategy) else np.asarray(strategy, float)
    if trades.ndim == 1:
        trades = trades[:, None]
    target = -trades.sum(axis=0)
    if x0 is None:
        x0 = target
    else:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if _maxabs(x0 - target) > 1e-10 * (1.0 + _maxabs(x0)):
            raise ValueError(
                f"strategy liquidates {target}, not x0={x0}; the martingale "
                "cancellation needs the trades to sum to -x0"
            )

    paths = sample_paths(model, grid, n_paths, seed)
    impact = _impact_terms(kernel, grid, trades)
    g0 = kernel.at(0.0)
    shift = impact + 0.5 * trades @ g0.T  # path-independent part of exec prices
    per_path_revenue = -np.einsum("pki,ki->p", paths, trades) - float(np.sum(trades * shift))
    shortfalls = float(x0 @ model.s0) - per_path_revenue
    mean = float(np.mean(shortfalls))
    stderr = float(np.std(shortfalls, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return SimulationReport(
        mean_shortfall=mean,
        stderr=stderr,
        n_paths=n_paths,
        seed=seed,
        analytic_cost=cost(kernel, grid, trades),
    )
