"""Monte Carlo verification of expected execution costs.

Simulates unaffected prices as an arithmetic Gaussian martingale, applies
the kernel's price impact to get execution prices, and checks that the
average implementation shortfall (book value of the initial portfolio minus
realized revenues) matches the analytic cost of the strategy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import TimeGrid
from .kernels import DecayKernel, _maxabs, _symmetric_psd_eig
from .solver import LIQUIDATION_TOL, _kernel_trades, cost

__all__ = [
    "MartingaleModel",
    "SimulationReport",
    "sample_paths",
    "impacted_price",
    "revenues",
    "estimate_expected_cost",
]

# Standard normals drawn per block by ``estimate_expected_cost``, summed over
# its workers: 2**22 doubles (32 MiB) bound its working memory whatever the
# path count.
BLOCK_DOUBLES = 1 << 22
# Paths per child stream of ``SeedSequence(seed)``: path p takes its normals
# from child ``p // PATHS_PER_STREAM``, so the streams can be drawn on
# separate threads and every worker count gives the same numbers.
PATHS_PER_STREAM = 8192


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
        if not np.all(np.isfinite(s0)):
            raise ValueError("s0 must be finite")
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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _streams(seed: int, n_paths: int) -> list:
    """One ``Generator(PCG64(child))`` per ``PATHS_PER_STREAM`` paths, the
    children spawned from ``SeedSequence(seed)`` in path order."""
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // PATHS_PER_STREAM))
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


def sample_paths(model: MartingaleModel, grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """Unaffected prices at the grid times, shape (n_paths, N, K).

    Deterministic for a given seed; the first column is the initial price.
    Path p takes its (N-1)K normals from child ``p // PATHS_PER_STREAM`` of
    ``SeedSequence(seed)``, in path order within the child: the layout that
    :func:`estimate_expected_cost` draws, on any number of workers.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    n, k = grid.n, model.dimension
    paths = np.empty((n_paths, n, k))
    paths[:, 0, :] = model.s0
    if n > 1:
        z = np.empty((n_paths, n - 1, k))
        for lo, gen in zip(range(0, n_paths, PATHS_PER_STREAM), _streams(seed, n_paths)):
            gen.standard_normal(out=z[lo : lo + PATHS_PER_STREAM])
        steps = np.sqrt(np.diff(grid.times))[None, :, None] * (z @ model._factor.T)
        paths[:, 1:, :] = model.s0 + np.cumsum(steps, axis=1)
    return paths


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

    Each trade executes at its pre-trade :func:`impacted_price` shifted by
    half its own (lag-0) impact, so temporary-impact jumps are priced
    consistently with the cost functional.  No Gram is built: this is the
    per-path reference for :func:`estimate_expected_cost`.
    """
    trades = _kernel_trades(kernel, grid, strategy)
    path = np.asarray(path, dtype=float)
    if path.shape != trades.shape:
        raise ValueError(f"path has shape {path.shape}, the trades {trades.shape}")
    before = np.array([impacted_price(kernel, grid, trades, path, k) for k in range(grid.n)])
    exec_prices = before + 0.5 * trades @ kernel.at(0.0).T
    return float(-np.sum(trades * exec_prices))


def _path_noise(weights: np.ndarray, n_paths: int, seed: int) -> np.ndarray:
    """``Z_p . weights`` for every path p, its normals ``Z_p`` laid out as in
    :func:`sample_paths`, drawn by up to one worker thread per usable CPU."""
    streams = _streams(seed, n_paths)
    workers = min(_usable_cpus(), len(streams))
    rows = BLOCK_DOUBLES // max(workers * weights.size, 1)
    rows = max(1, min(rows, PATHS_PER_STREAM, n_paths))
    # one array for all workers: blocks made on their own threads would come
    # from per-thread malloc arenas and raise the peak
    blocks = np.empty((workers, rows, weights.size))
    noise = np.empty(n_paths)

    def draw(j: int) -> None:
        for s in range(j, len(streams), workers):
            stop = min((s + 1) * PATHS_PER_STREAM, n_paths)
            for start in range(s * PATHS_PER_STREAM, stop, rows):
                block = blocks[j, : min(rows, stop - start)]
                streams[s].standard_normal(out=block)
                np.matmul(block, weights, out=noise[start : start + block.shape[0]])

    if workers == 1:
        draw(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(draw, range(workers)))
    return noise


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
    (N-1)K normals, drawn as ``sample_paths(model, grid, n_paths, seed)``
    draws them.  One worker thread per usable CPU (drawing and the product
    release the GIL), at most one per child stream, draws children j, j +
    workers, ... into row j of one block array of at most ``BLOCK_DOUBLES``
    values and writes ``Z.w`` for its paths, each at its own index, so the
    report is the same for every worker count and the sampling needs 32 MiB
    plus 8 bytes per path, whatever N, K and the worker count.
    ``analytic_stderr`` is the exact ``|w| / sqrt(n_paths)`` that
    ``stderr`` estimates.

    Every path pays the same impact, each trade that of the earlier ones
    plus half its own, in sum ``analytic_cost = 1/2 xi . Gram . xi``
    (:func:`solver.cost`), so ``mean_shortfall`` is ``(x0 - target) . s0 +
    analytic_cost`` plus the noise's mean.  :func:`revenues`, which prices
    every trade from the kernel's values, is the independent reference.
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
    # each path's shortfall minus its constant part; zero weights draw nothing
    noise = _path_noise(weights, n_paths, seed) if np.any(weights) else np.zeros(n_paths)
    analytic_cost = cost(kernel, grid, trades)
    mean = float((x0 - target) @ model.s0) + analytic_cost + float(np.mean(noise))
    stderr = float(np.std(noise, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return SimulationReport(
        mean_shortfall=mean,
        stderr=stderr,
        n_paths=n_paths,
        seed=seed,
        analytic_cost=analytic_cost,
        analytic_stderr=float(np.linalg.norm(weights) / np.sqrt(n_paths)),
    )
