"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from crossimpact import (
    ClampedExpKernel,
    CrossExpKernel,
    DiagCongruenceKernel,
    Exp2x2Kernel,
    ExpDecay,
    GaussianSquared,
    JordanExpKernel,
    Linear2x2Kernel,
    MartingaleModel,
    MatrixExpKernel,
    MatrixFunctionKernel,
    ScalarTimesMatrixKernel,
    TimeGrid,
    analytic_shape_flags,
    assemble_gram,
    basis_strategies,
    check_shape_properties,
    cost,
    equidistant_grid,
    estimate_expected_cost,
    refine,
    search_violation,
    solve_commuting,
    solve_exp_closed_form,
    solve_kkt,
)
from crossimpact.kernels import CongruenceKernel
from conftest import (
    random_admissible_kernel,
    random_convex_decay,
    random_grid,
    random_orthogonal,
    random_spd,
)


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {tag} - {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_01_cross_solver_agreement():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 21))
        b = random_spd(rng, k)
        if rng.random() < 0.5:
            grid = equidistant_grid(float(rng.uniform(0.3, 6.0)), n)
        else:
            grid = random_grid(rng, n_max=n if n >= 2 else 2, span_hi=6.0)
        x0 = rng.uniform(-10.0, 10.0, k)
        kernel = MatrixExpKernel(b)
        via_kkt = solve_kkt(kernel, grid, x0).strategy.trades
        via_formula = solve_exp_closed_form(b, grid, x0).strategy.trades
        via_diag = solve_commuting(kernel, grid, x0).strategy.trades
        worst = max(
            worst,
            float(np.max(np.abs(via_kkt - via_formula))),
            float(np.max(np.abs(via_kkt - via_diag))),
            float(np.max(np.abs(via_formula - via_diag))),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        "KKT / closed-form / commuting solvers agree to 1e-8 on 100 random models",
        worst < 1e-8 and elapsed < 5.0,
        f"max gap {worst:.2e}, {elapsed:.2f}s",
    )


FIG2_TRADES = np.array(
    [
        [9.4324344976753594, -1.1745894951699121],
        [3.3028076266663633, 0.37602098880731588],
        [3.4690576980804781, 0.14650270675949115],
        [3.5118734548788759, 0.07514035376681559],
        [3.5219715354232957, 0.052969077553570221],
        [3.5237103745512566, 0.047912736565438555],
        [3.521971535423297, 0.052969077553569208],
        [3.511873454878879, 0.075140353766813717],
        [3.4690576980804675, 0.14650270675949789],
        [3.3028076266663731, 0.37602098880731044],
        [9.4324344976753558, -1.1745894951699101],
    ]
)


def test_criterion_02_round_trip_reproduction():
    kernel = CrossExpKernel(kappa=1.0, kappa_tilde=1.8, rho=0.3)
    grid = equidistant_grid(5.0, 11)
    result = solve_kkt(kernel, grid, [-50.0, 1.0])
    trades = result.strategy.trades
    signs = np.sign(trades[:, 1])
    sign_changes = int(np.sum(signs[:-1] * signs[1:] < 0))
    sums_ok = abs(trades[:, 1].sum() + 1.0) <= 1e-10 and abs(trades[:, 0].sum() - 50.0) <= 1e-10
    pinned_ok = np.max(np.abs(trades - FIG2_TRADES)) < 1e-9
    report(
        2,
        "cross-impact round trip: asset 2 changes sign, totals liquidate, values pinned",
        sign_changes >= 1 and sums_ok and pinned_ok,
        f"{sign_changes} sign changes, pin gap {np.max(np.abs(trades - FIG2_TRADES)):.1e}",
    )


def test_criterion_03_oscillation_sweep():
    x0 = np.array([10.0, 0.0])
    best = (0.0, None, None)
    for rho in [round(0.05 * i, 2) for i in range(1, 20)]:
        for horizon in range(1, 11):
            kernel = MatrixFunctionKernel([[1.0, rho], [rho, 1.0]], GaussianSquared())
            grid = equidistant_grid(float(horizon), 23)
            try:
                result = solve_kkt(kernel, grid, x0)
            except ArithmeticError:
                continue
            ratio = float(np.max(np.abs(result.strategy.trades)) / 10.0)
            if ratio > best[0]:
                best = (ratio, rho, horizon)
    report(
        3,
        "oscillation sweep finds trades above 100x the initial position",
        best[0] > 100.0,
        f"best ratio {best[0]:.1f} at rho={best[1]}, T={best[2]}",
    )


def test_criterion_04_convex_decay_kernels_are_psd():
    rng = np.random.default_rng(404)
    worst_rel = np.inf
    worst_strict = np.inf
    for _ in range(200):
        k = int(rng.integers(2, 5))
        decays = [random_convex_decay(rng) for _ in range(k)]
        kernel = DiagCongruenceKernel(random_orthogonal(rng, k), decays)
        for _ in range(3):
            gram = assemble_gram(kernel, random_grid(rng, n_max=12))
            min_eig = float(np.linalg.eigvalsh(gram.blocks)[0])
            rel = min_eig / (1.0 + gram.bound)
            worst_rel = min(worst_rel, rel)
            worst_strict = min(worst_strict, min_eig)
    report(
        4,
        "200 random convex-decay kernels give PSD Grams, strictly positive when nonconstant",
        worst_rel >= -1e-9 and worst_strict > 0.0,
        f"worst relative eig {worst_rel:.2e}, worst absolute {worst_strict:.2e}",
    )


def test_criterion_05_jordan_exponential_threshold():
    below = search_violation(JordanExpKernel(0.4), span_max=50.0, n_max=64, budget=10_000, seed=5)
    above = search_violation(JordanExpKernel(0.6), span_max=50.0, n_max=64, budget=10_000, seed=5)
    found_value = below.value if below is not None else float("nan")
    report(
        5,
        "nonsymmetric exponential: witness below the b=1/2 threshold, none above",
        below is not None and above is None,
        f"b=0.4 witness value {found_value:.2e}; b=0.6 exhausted budget",
    )


def test_criterion_06_convex_but_not_pd_counterexample():
    kernel = ClampedExpKernel()
    shape = check_shape_properties(kernel, t_max=20.0, n_samples=400)
    shape_ok = (
        shape.nonnegative.value is True
        and shape.nonincreasing.value is True
        and shape.convex.value is True
    )
    # the defect needs ~370+ unit-spaced trades, so the size cap is 400
    # (a search capped at 128 trades cannot reach it; see the notes ledger)
    witness = search_violation(kernel, span_max=400.0, n_max=400, budget=10_000, seed=6)
    witness_cost = (
        cost(kernel, witness.grid, witness.trades) if witness is not None else float("nan")
    )
    report(
        6,
        "clamped kernel: shape checks pass yet a negative-cost round trip exists",
        shape_ok and witness is not None and witness_cost < 0.0,
        f"witness cost {witness_cost:.2e} on N={witness.grid.n if witness else 0}",
    )


def test_criterion_07_linear_decay_classification():
    rng = np.random.default_rng(707)
    proportional = Linear2x2Kernel(2.0, 1.6, 1.6, 2.4, 1.0, 0.8, 0.8, 1.2)
    worst = np.inf
    for _ in range(50):
        gram = assemble_gram(proportional, random_grid(rng, n_max=12, span_hi=15.0))
        worst = min(worst, float(np.linalg.eigvalsh(gram.blocks)[0]) / (1.0 + gram.bound))
    broken = Linear2x2Kernel(2.0, 1.2, 1.2, 2.4, 1.0, 0.8, 0.8, 1.2)
    witness = search_violation(broken, span_max=40.0, n_max=48, budget=10_000, seed=7)
    report(
        7,
        "proportional linear decay is PSD on 50 grids; breaking the ratio yields a witness",
        worst >= -1e-9 and witness is not None and witness.value < 0.0,
        f"worst relative eig {worst:.2e}; witness value "
        f"{witness.value if witness else float('nan'):.2e}",
    )


def test_criterion_08_refinement_monotonicity():
    rng = np.random.default_rng(808)
    worst_increase = 0.0
    for _ in range(50):
        kernel = random_admissible_kernel(rng)
        x0 = rng.uniform(-5.0, 5.0, kernel.dimension)
        horizon = float(rng.uniform(0.5, 4.0))
        result = refine(kernel, horizon, x0, max_levels=5)
        costs = [c for _, c in result.levels]
        for a, b in zip(costs, costs[1:]):
            worst_increase = max(worst_increase, (b - a) / max(abs(a), 1e-300))
    report(
        8,
        "dyadic refinement costs are nonincreasing for 50 random admissible kernels",
        worst_increase <= 1e-10,
        f"worst relative increase {worst_increase:.2e}",
    )


def test_criterion_09_monte_carlo_consistency():
    rng = np.random.default_rng(909)
    worst_z = 0.0
    exact_gap = 0.0
    for i in range(20):
        kernel = random_admissible_kernel(rng)
        k = kernel.dimension
        grid = random_grid(rng, n_max=12, span_hi=5.0)
        x0 = rng.uniform(-8.0, 8.0, k)
        result = solve_kkt(kernel, grid, x0)
        s0 = rng.uniform(20.0, 100.0, k)
        model = MartingaleModel(s0, random_spd(rng, k, lo=0.02, hi=0.4), horizon=grid.span)
        rep = estimate_expected_cost(kernel, grid, result.strategy, model, 100_000, seed=1000 + i)
        worst_z = max(worst_z, abs(rep.mean_shortfall - rep.analytic_cost) / rep.stderr)
        flat = MartingaleModel(s0, np.zeros((k, k)), horizon=grid.span)
        flat_rep = estimate_expected_cost(kernel, grid, result.strategy, flat, 100, seed=i)
        exact_gap = max(exact_gap, abs(flat_rep.mean_shortfall - flat_rep.analytic_cost))
    report(
        9,
        "20 Monte Carlo runs match analytic costs within 3 stderr; exactly at zero volatility",
        worst_z <= 3.0 and exact_gap <= 1e-10,
        f"max z {worst_z:.2f}, zero-vol gap {exact_gap:.1e}",
    )


def test_criterion_10_basis_sign_constancy():
    rng = np.random.default_rng(1010)
    worst_cross = 0.0
    worst_gap = 0.0
    for _ in range(50):
        kernel = random_admissible_kernel(rng)
        grid = random_grid(rng, n_max=10)
        basis = basis_strategies(kernel, grid)
        for strategy in basis.strategies:
            trades = strategy.trades
            pairwise = trades[:, None, :] * trades[None, :, :]
            worst_cross = min(worst_cross, float(np.min(pairwise)))
        alpha = rng.uniform(-2.0, 2.0, kernel.dimension)
        x0 = alpha @ basis.vectors
        combined = sum(a * s.trades for a, s in zip(alpha, basis.strategies))
        oracle = solve_kkt(kernel, grid, x0)
        worst_gap = max(worst_gap, float(np.max(np.abs(combined - oracle.strategy.trades))))
    report(
        10,
        "basis strategies are sign-constant and recombine to the KKT optimum",
        worst_cross >= -1e-12 and worst_gap < 1e-8,
        f"min signed product {worst_cross:.1e}, recombination gap {worst_gap:.1e}",
    )


def test_criterion_11_transformation_laws():
    rng = np.random.default_rng(1111)
    worst_scalar = 0.0
    worst_congruence = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        g = ExpDecay(float(rng.uniform(0.3, 2.0)))
        grid = random_grid(rng, n_max=9)
        x0 = rng.uniform(-4.0, 4.0, k)
        plain = solve_kkt(ScalarTimesMatrixKernel(g, np.eye(k)), grid, x0)
        loaded = solve_kkt(ScalarTimesMatrixKernel(g, random_spd(rng, k)), grid, x0)
        worst_scalar = max(
            worst_scalar, float(np.max(np.abs(plain.strategy.trades - loaded.strategy.trades)))
        )

        kernel = MatrixExpKernel(random_spd(rng, k))
        L = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
        upstream = solve_kkt(kernel, grid, L @ x0)
        mapped = upstream.strategy.trades @ np.linalg.inv(L).T
        downstream = solve_kkt(CongruenceKernel(L, kernel), grid, x0)
        worst_congruence = max(
            worst_congruence, float(np.max(np.abs(mapped - downstream.strategy.trades)))
        )
    report(
        11,
        "uniform-load and congruence transformation laws hold over 50 draws",
        worst_scalar < 1e-8 and worst_congruence < 1e-8,
        f"scalar-load gap {worst_scalar:.1e}, congruence gap {worst_congruence:.1e}",
    )


def _draw_2x2_family(rng):
    family = rng.integers(0, 3)
    if family == 0:
        a = rng.uniform(0.1, 2.0, 4)
        b = rng.uniform(0.1, 3.0, 4)
        if rng.random() < 0.4:
            a[2] = a[1]
        if rng.random() < 0.3:
            b[2] = b[1]
        return Exp2x2Kernel(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
    if family == 1:
        return CrossExpKernel(
            float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 1.5))
        )
    a = rng.uniform(0.1, 3.0, 4)
    b = rng.uniform(0.1, 3.0, 4)
    if rng.random() < 0.4:
        a = float(rng.uniform(0.3, 3.0)) * b
    if rng.random() < 0.4:
        a[2], b[2] = a[1], b[1]
    return Linear2x2Kernel(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])


def test_criterion_12_analytic_vs_sampled_agreement():
    rng = np.random.default_rng(1212)
    contradictions = 0
    analytic_true = 0
    for i in range(1000):
        kernel = _draw_2x2_family(rng)
        flags = analytic_shape_flags(kernel)
        sampled = check_shape_properties(kernel, t_max=20.0, n_samples=400, method="sampled")
        for prop in ("nonnegative", "nonincreasing", "convex"):
            if flags[prop]:
                analytic_true += 1
                if getattr(sampled, prop).value is False:
                    contradictions += 1
    report(
        12,
        "1000 random 2x2 kernels: sampling never contradicts the analytic shape verdicts",
        contradictions == 0,
        f"{analytic_true} analytic-true verdicts sampled, {contradictions} contradictions",
    )
