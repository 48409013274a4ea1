"""Regenerate ``reference.json``: optimal-cost matrices for the liquidate catalog.

The optimal cost of liquidating ``x0`` on a grid is the quadratic form
``x0 . Q . x0`` with ``Q = 1/2 (A Gram^-1 A^T)^-1``, where ``A`` sums the
trade vectors.  This script builds each Gram from the kernel formulas
directly (not through the library) and factors it with Cholesky, so the
stored answers are independent of the solver routes under test.  Any
portfolio scale ``c`` then has the reference cost ``c**2 x0 . Q . x0``.

    python3 perfbench/make_reference.py

It also stores the cost of the ``figures`` round-trip table and of the
README model used by ``verify``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.linalg

from inputs import LIQUIDATE_SIZES, README_KERNEL, grid_spec, liquidate_catalog, reference_key

HERE = Path(__file__).resolve().parent


def grid_times(spec: dict) -> np.ndarray:
    horizon, n = float(spec["horizon"]), int(spec["count"])
    if spec["spacing"] == "equidistant":
        return np.linspace(0.0, horizon, n)
    r = float(spec["ratio"])
    i = np.arange(n, dtype=float)
    times = horizon * (r**i - 1.0) / (r ** (n - 1) - 1.0)
    times[0], times[-1] = 0.0, horizon
    return times


def kernel_values(kernel: dict, lags: np.ndarray) -> np.ndarray:
    """``G(t)`` at lags ``t >= 0`` for the families the catalog uses."""
    family = kernel["family"]
    if family == "cross_exp":
        own = np.exp(-kernel["kappa"] * lags)
        cross = kernel["rho"] * np.exp(-kernel["kappa_tilde"] * lags)
        return np.stack([np.stack([own, cross], -1), np.stack([cross, own], -1)], -2)
    if family == "matrix_exp":
        rates, vecs = np.linalg.eigh(np.asarray(kernel["B"], dtype=float))
        return np.einsum("ij,tj,kj->tik", vecs, np.exp(-np.outer(lags, rates)), vecs)
    if family == "exp2x2":
        a = np.array([[kernel["a11"], kernel["a12"]], [kernel["a21"], kernel["a22"]]])
        b = np.array([[kernel["b11"], kernel["b12"]], [kernel["b21"], kernel["b22"]]])
        return a * np.exp(-lags[:, None, None] * b)
    raise ValueError(f"no reference formula for family {family!r}")


def gram(kernel: dict, times: np.ndarray) -> np.ndarray:
    """Block (k, l) is G(t_k - t_l) below the diagonal, its transpose above."""
    n = times.size
    lags = times[:, None] - times[None, :]
    values = kernel_values(kernel, np.abs(lags).ravel())
    k = values.shape[-1]
    values = values.reshape(n, n, k, k)
    upper = lags < 0
    values[upper] = np.transpose(values[upper], (0, 2, 1))
    diag = np.arange(n)
    values[diag, diag] = 0.5 * (values[diag, diag] + np.transpose(values[diag, diag], (0, 2, 1)))
    return values.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def cost_matrix(kernel: dict, times: np.ndarray) -> np.ndarray:
    g = gram(kernel, times)
    k = g.shape[0] // times.size
    factor = scipy.linalg.cho_factor(g)
    y = scipy.linalg.cho_solve(factor, np.tile(np.eye(k), times.size).T)
    schur = y.reshape(times.size, k, k).sum(axis=0)
    q = 0.5 * np.linalg.inv(0.5 * (schur + schur.T))
    return 0.5 * (q + q.T)


def portfolio_cost(kernel: dict, spec: dict, x0) -> float:
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ cost_matrix(kernel, grid_times(spec)) @ x0)


def main() -> None:
    catalog = liquidate_catalog()
    entries = {}
    for slot, variants in catalog.items():
        for v, entry in enumerate(variants):
            for n in LIQUIDATE_SIZES[slot]:
                for spacing in ("equidistant", "geometric"):
                    spec = grid_spec(entry["horizon"], n, spacing)
                    q = cost_matrix(entry["kernel"], grid_times(spec))
                    entries[reference_key(slot, v, n, spacing)] = {
                        "kernel": entry["kernel"], "grid": spec, "cost_matrix": q.tolist()}
                    print(reference_key(slot, v, n, spacing), flush=True)
    document = {
        "liquidate": entries,
        "figures_round_trip_cost": portfolio_cost(
            README_KERNEL, grid_spec(5.0, 11, "equidistant"), [-50.0, 1.0]),
        "verify_readme_cost": portfolio_cost(
            README_KERNEL, grid_spec(5.0, 257, "equidistant"), [-50.0, 1.0]),
    }
    (HERE / "reference.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
