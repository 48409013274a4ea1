"""Answer checks.  Each returns None when the answer passes, else a reason.

The checks never call a solver: they compare against the stored reference
costs (``reference.json``), against laws the paper proves (the c**2 scale
law, monotone refinement, the martingale identity behind Monte Carlo) and
against the families' closed-form positive-definiteness answers.
"""

from __future__ import annotations

import csv

import numpy as np

COST_REL_TOL = 1e-8
LIQUIDATION_REL_TOL = 1e-9
MC_SIGMAS = 4.0
PD_VERDICTS = ("strict_pd", "pd")


def _rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def read_table(path) -> np.ndarray:
    """A strategy table as an (N, 1 + K) array: time, then one column per asset."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row] for row in rows[1:]])


def reference_cost(cost_matrix, x0) -> float:
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ np.asarray(cost_matrix) @ x0)


def check_solve(document: dict, table: np.ndarray, x0, n: int, cost_matrix) -> str | None:
    x0 = np.asarray(x0, dtype=float)
    summary = document["solve"]
    gap = _rel_gap(summary["cost"], reference_cost(cost_matrix, x0))
    if gap > COST_REL_TOL:
        return f"cost off the reference by {gap:.2e} relative"
    if table.shape != (n, 1 + x0.size):
        return f"strategy table has shape {table.shape}, expected {(n, 1 + x0.size)}"
    residual = float(np.max(np.abs(table[:, 1:].sum(axis=0) + x0)))
    if residual > LIQUIDATION_REL_TOL * float(np.max(np.abs(x0))):
        return f"strategy leaves {residual:.2e} of the portfolio unliquidated"
    return None


def check_refine(document: dict, levels: int, x0, cost_matrix) -> str | None:
    sequence = document["refine"]["levels"]
    sizes = [n for n, _ in sequence]
    if sizes != [2**level + 1 for level in range(1, levels + 1)]:
        return f"refinement stopped early or skipped a level: N = {sizes}"
    costs = [c for _, c in sequence]
    for coarse, fine in zip(costs, costs[1:]):
        if fine > coarse:
            return f"cost increased under refinement: {coarse!r} -> {fine!r}"
    gap = _rel_gap(costs[-1], reference_cost(cost_matrix, x0))
    if gap > COST_REL_TOL:
        return f"finest cost off the reference by {gap:.2e} relative"
    return None


def check_witness(witness, gram_blocks: np.ndarray | None, expected: str | None) -> str | None:
    """A search result: no witness for a PD family; a found witness must be a
    unit trade vector whose quadratic form is negative and recomputes."""
    if witness is None:
        return None
    if expected == "pd":
        return "violation witness for a positive definite family"
    trades = np.asarray(witness.trades, dtype=float).ravel()
    if abs(np.linalg.norm(trades) - 1.0) > 1e-9:
        return "witness trades are not a unit vector"
    if not witness.value < 0:
        return f"witness value {witness.value!r} is not negative"
    value = float(trades @ gram_blocks @ trades)
    if abs(value - witness.value) > 1e-9 * (1.0 + float(np.max(np.abs(gram_blocks)))):
        return f"witness value {witness.value!r} does not recompute ({value!r})"
    return None


def check_verdict(document: dict, expected: str | None, search_found_witness: bool) -> str | None:
    report = document["positive_definite"]
    verdict = report["verdict"]
    if verdict in PD_VERDICTS and search_found_witness:
        return f"verdict {verdict} but search_violation found a witness"
    if expected == "pd" and verdict == "not_pd":
        return "not_pd verdict for a positive definite family"
    if expected == "not_pd" and verdict in PD_VERDICTS:
        return f"{verdict} verdict for a family that is not positive definite"
    if verdict == "not_pd" and not report.get("witness", {}).get("value", 0.0) < 0:
        return "not_pd verdict without a negative witness"
    return None


def check_gram(document: dict, n: int, k: int, trace: float, expected: str | None) -> str | None:
    gram = document["gram"]
    eigs = np.asarray(gram["eigenvalues"], dtype=float)
    if eigs.size != n * k or gram["size"] != n or gram["dimension"] != k:
        return f"{eigs.size} eigenvalues for N={n}, K={k}"
    if np.any(np.diff(eigs) < 0):
        return "eigenvalues are not sorted"
    scale = float(np.sum(np.abs(eigs))) + 1e-300
    if abs(gram["min_eig"] - eigs[0]) > 1e-12 * scale:
        return "min_eig is not the smallest eigenvalue"
    if abs(float(np.sum(eigs)) - trace) > 1e-9 * scale:
        return f"eigenvalues sum to {np.sum(eigs)!r}, the Gram trace is {trace!r}"
    if expected == "pd" and not gram["psd"]:
        return "Gram of a positive definite family reported not PSD"
    return None


def check_figures(document: dict, sweep_rows: int, round_trip_cost: float) -> str | None:
    figures = document["figures"]
    if sweep_rows != 190:
        return f"oscillation table has {sweep_rows} rows, expected 190"
    if not figures["oscillation_sweep"]["best"]["ratio"] > 100.0:
        return "oscillation sweep finds no trade above 100x the position"
    gap = _rel_gap(figures["round_trip"]["summary"]["cost"], round_trip_cost)
    if gap > COST_REL_TOL:
        return f"round-trip cost off the reference by {gap:.2e} relative"
    return None


def check_simulate(document: dict, analytic_cost: float, n_paths: int) -> str | None:
    sim = document["simulation"]
    if sim["n_paths"] != n_paths:
        return f"simulated {sim['n_paths']} paths, asked for {n_paths}"
    gap = _rel_gap(sim["analytic_cost"], analytic_cost)
    if gap > 1e-9:
        return f"analytic cost off the solved cost by {gap:.2e} relative"
    if abs(sim["mean_shortfall"] - sim["analytic_cost"]) > MC_SIGMAS * sim["stderr"]:
        return (f"mean shortfall {sim['mean_shortfall']!r} is more than {MC_SIGMAS:g} "
                f"standard errors from the analytic cost {sim['analytic_cost']!r}")
    return None

