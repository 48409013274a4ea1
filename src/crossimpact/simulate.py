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
from .kernels import DecayKernel, _maxabs, _symmetric_psd_eig
from .posdef import GramMatrix, assemble_gram
from .solver import LIQUIDATION_TOL, _kernel_trades

__all__ = [
    "MartingaleModel",
    "SimulationReport",
    "sample_paths",
    "impacted_price",
    "revenues",
    "estimate_expected_cost",
]

# Standard normals drawn per block by ``estimate_expected_cost``: 2**22
# doubles (32 MiB) bound its working memory whatever the path count.
BLOCK_DOUBLES = 1 << 22


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
        # copies, so that freezing them leaves the caller's arrays writeable
        s0 = np.atleast_1d(np.array(self.s0, dtype=float))
        cov = np.array(self.covariance, dtype=float)
        if cov.shape != (s0.size, s0.size):
            raise ValueError("covariance must be KxK for K initial prices")
        eigs, vecs = _symmetric_psd_eig(cov, "covariance")
        factor = vecs * np.sqrt(eigs)
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
    analytic_stderr: float  # exact shortfall standard deviation / sqrt(n_paths)


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


def _execution_shift(kernel: DecayKernel, gram: GramMatrix, trades: np.ndarray) -> np.ndarray:
    """Path-independent part of the execution prices: the impact of earlier
    trades, ``sum_{l<k} G(t_k - t_l) xi_l``, plus half the trade's own (lag-0)
    impact.  The earlier impact is read from the Gram's strictly lower blocks,
    which hold ``tilde(t_k - t_l) = G(t_k - t_l)`` for ``k > l``."""
    n, k = trades.shape
    blocks = gram.blocks.reshape(n, k, n, k)
    lower = np.tril(np.ones((n, n)), k=-1)
    earlier = np.einsum("kl,kilj,lj->ki", lower, blocks, trades, optimize=True)
    return earlier + 0.5 * trades @ kernel.at(0.0).T


def impacted_price(
    kernel: DecayKernel, grid: TimeGrid, strategy, path: np.ndarray, k: int
) -> np.ndarray:
    """Price just before the trade at time index ``k``: the unaffected price
    plus the decayed impact of all strictly earlier trades."""
    trades = _kernel_trades(kernel, grid, strategy)
    if not 0 <= k < grid.n:
        raise IndexError(f"trade index {k} out of range for {grid.n} times")
    price = np.asarray(path, dtype=float)[k].copy()
    if k:
        lags = grid.times[k] - grid.times[:k]
        price += np.einsum("lij,lj->i", kernel.at_many(lags), trades[:k])
    return price


def revenues(kernel: DecayKernel, grid: TimeGrid, strategy, path: np.ndarray) -> float:
    """Realized proceeds of a strategy along one price path.

    Each trade executes at its pre-trade impacted price shifted by half its
    own (lag-0) impact, so temporary-impact jumps are priced consistently
    with the cost functional.
    """
    trades = _kernel_trades(kernel, grid, strategy)
    path = np.asarray(path, dtype=float)
    if path.shape != trades.shape:
        raise ValueError(f"path has shape {path.shape}, the trades {trades.shape}")
    exec_prices = path + _execution_shift(kernel, assemble_gram(kernel, grid), trades)
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

    The price paths are never built.  Summation by parts turns the price
    part of a path's revenue into ``(sum_k xi_k).s0 + Z.w`` with
    ``w_j = sqrt(dt_j) C^T R_j``, where ``R_j = sum_{k>=j} xi_k`` is the
    trading still to come, ``C`` the covariance factor and ``Z`` the path's
    (N-1)K normals.  The normals are drawn from ``default_rng(seed)`` in
    blocks of at most ``BLOCK_DOUBLES`` values, which yields the same stream
    as ``sample_paths(model, grid, n_paths, seed)``; the sampling then needs
    32 MiB plus 8 bytes per path, whatever N and K.  ``analytic_stderr`` is
    the exact ``|w| / sqrt(n_paths)`` that ``stderr`` estimates.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    trades = _kernel_trades(kernel, grid, strategy)
    if model.dimension != trades.shape[1]:
        raise ValueError(
            f"strategy trades {trades.shape[1]} assets but the price model has "
            f"{model.dimension}"
        )
    target = -trades.sum(axis=0)
    if x0 is None:
        x0 = target
    else:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if _maxabs(x0 - target) > LIQUIDATION_TOL * (1.0 + _maxabs(x0)):
            raise ValueError(
                f"strategy liquidates {target}, not x0={x0}; the martingale "
                "cancellation needs the trades to sum to -x0"
            )

    remaining = np.cumsum(trades[::-1], axis=0)[::-1][1:]  # R_j for j = 1..N-1
    weights = (np.sqrt(np.diff(grid.times))[:, None] * (remaining @ model._factor)).ravel()
    rng = np.random.default_rng(seed)
    rows = max(1, BLOCK_DOUBLES // max(weights.size, 1))
    noise = np.empty(n_paths)  # the shortfall of each path minus its constant part
    for start in range(0, n_paths, rows):
        m = min(rows, n_paths - start)
        noise[start : start + m] = rng.standard_normal((m, weights.size)) @ weights

    gram = assemble_gram(kernel, grid)
    shift = _execution_shift(kernel, gram, trades)
    drift_revenue = -float(trades.sum(axis=0) @ model.s0) - float(np.sum(trades * shift))
    mean = float(x0 @ model.s0) - drift_revenue + float(np.mean(noise))
    stderr = float(np.std(noise, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return SimulationReport(
        mean_shortfall=mean,
        stderr=stderr,
        n_paths=n_paths,
        seed=seed,
        analytic_cost=0.5 * gram.quadratic_form(trades),
        analytic_stderr=float(np.linalg.norm(weights) / np.sqrt(n_paths)),
    )
