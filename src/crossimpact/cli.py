"""Batch front-end: JSON model configs in, machine-readable reports out.

Subcommands
-----------
solve     optimal strategy for the configured model (best applicable solver;
          the closed form and the commuting route cross-checked against the
          state-space or the dense KKT solve)
check     structure / shape property report plus the PD classification
gram      sorted Gram eigenvalues and the PSD verdict on the configured grid
refine    dyadic grid refinement: (N, cost) sequence and the finest strategy
simulate  Monte Carlo implementation-shortfall report
figures   regenerate the oscillation-sweep and round-trip example tables

Exit codes: 0 success, 2 config error, 3 model rejected as not positive
definite, 4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .grids import TimeGrid, equidistant_grid, geometric_grid
from .kernels import (
    CrossExpKernel,
    GaussianSquared,
    MatrixFunctionKernel,
    check_shape_properties,
    kernel_from_dict,
)
from .posdef import assemble_gram, check_grid_pd, classify_positive_definite
from .simulate import MartingaleModel, estimate_expected_cost
from .solver import Strategy, UnboundedCostError, _portfolio, refine, solve_best, solve_kkt

CONFIG_ERROR, NOT_PD_ERROR, NUMERIC_ERROR = 2, 3, 4


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    """17 significant digits: exact round trip at double precision."""
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing; a path that cannot be written is a config
    error, not a traceback."""
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


def _emit(document: dict, out_path=None) -> None:
    text = json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n"
    if out_path:
        with _output(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data


@contextlib.contextmanager
def _section(name: str):
    """Read config section ``name``: a :class:`ConfigError` passes unchanged,
    a missing key becomes ``name: missing field 'key'`` and a TypeError,
    ValueError or OverflowError (a number beyond the float range) ``name: ...``."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _build_kernel(config: dict):
    with _section("kernel"):
        return kernel_from_dict(config["kernel"])


def _build_grid(config: dict) -> TimeGrid:
    spec = config.get("grid")
    if not isinstance(spec, dict):
        raise ConfigError("grid: must be an object")
    with _section("grid"):
        if "times" in spec:
            return TimeGrid(np.asarray(spec["times"], dtype=float))
        horizon, count = float(spec["horizon"]), int(spec["count"])
        if count != float(spec["count"]):
            raise ConfigError(f"grid.count: must be an integer, got {spec['count']!r}")
        spacing = spec.get("spacing", "equidistant")
        if spacing == "equidistant":
            return equidistant_grid(horizon, count)
        if spacing == "geometric":
            return geometric_grid(horizon, count, ratio=float(spec.get("ratio", 2.0)))
        raise ConfigError(f"grid.spacing: unknown value {spacing!r}")


def _build_portfolio(config: dict, kernel) -> np.ndarray:
    """The configured portfolio, checked by :func:`solver._portfolio`."""
    with _section("portfolio"):
        return _portfolio(kernel, np.ravel(config["portfolio"]))


def write_strategy_table(strategy: Strategy, path, fmt: str = "csv") -> None:
    """Strategy table with header ``t,asset_1,...,asset_K``."""
    k = strategy.dimension
    header = ["t"] + [f"asset_{i + 1}" for i in range(k)]
    if fmt == "csv":
        # the bytes csv.writer gives with _fmt cells, from one row template
        row = ",".join(["%.17g"] * (k + 1)) + "\r\n"
        table = np.column_stack([strategy.grid.times, strategy.trades]).tolist()
        with _output(path) as fh:
            fh.write(",".join(header) + "\r\n" + "".join([row % tuple(r) for r in table]))
    elif fmt == "json-like":
        doc = {
            "columns": header,
            "rows": [
                [_fmt(t)] + [_fmt(v) for v in row]
                for t, row in zip(strategy.grid.times, strategy.trades)
            ],
        }
        with _output(path) as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        raise ConfigError(f"unknown table format {fmt!r}")


def read_strategy_table(path) -> Strategy:
    """The strategy in a table written by :func:`write_strategy_table` (csv);
    a table that cannot be read or is malformed raises :class:`ConfigError`."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read strategy table {path}: {exc}") from exc
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ConfigError(f"{path}: not a strategy table (header must start with 't')")
    if len(rows) == 1:
        raise ConfigError(f"{path}: empty strategy table")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ConfigError(f"{path}:{line}: {len(row)} cells, the header has {len(rows[0])}")
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        return Strategy(data[:, 1:], TimeGrid(data[:, 0]))
    except ValueError as exc:  # a non-numeric cell, bad trade times, a NaN trade
        raise ConfigError(f"{path}: {exc}") from exc


def _result_summary(result, route: str) -> dict:
    return {
        "route": route,
        "lambda": [float(v) for v in result.lam],
        "cost": float(result.cost),
        "unique": bool(result.unique),
        "residual": float(result.residual),
        "liquidates": [float(v) for v in result.strategy.liquidates],
    }


def _verdict_doc(verdict) -> dict:
    doc = {"value": verdict.value, "method": verdict.method}
    if verdict.witness is not None:
        doc["witness"] = {
            "times": list(verdict.witness.times),
            "direction": verdict.witness.direction.tolist(),
        }
    return doc


def cmd_solve(args) -> int:
    config = load_config(args.config)
    kernel = _build_kernel(config)
    grid = _build_grid(config)
    x0 = _build_portfolio(config, kernel)
    result, route = solve_best(kernel, grid, x0, cross_check=True)
    if args.out:
        write_strategy_table(result.strategy, args.out, args.format)
    _emit({"solve": _result_summary(result, route)})
    return 0


def cmd_check(args) -> int:
    config = load_config(args.config)
    kernel = _build_kernel(config)
    try:
        report = check_shape_properties(kernel, t_max=args.tmax, n_samples=args.samples)
    except ValueError as exc:  # --tmax or --samples out of range
        raise ConfigError(f"check: {exc}") from exc
    pd_report = classify_positive_definite(kernel, seed=args.seed or 0)
    doc = {
        "properties": {
            "symmetric": report.symmetric,
            "commuting": report.commuting,
            "nonnegative": _verdict_doc(report.nonnegative),
            "nonincreasing": _verdict_doc(report.nonincreasing),
            "convex": _verdict_doc(report.convex),
            "nonconstant_forms": _verdict_doc(report.nonconstant_forms),
        },
        "positive_definite": {
            "verdict": pd_report.verdict,
            "method": pd_report.method,
            "min_eig": pd_report.min_eig,
        },
    }
    if pd_report.witness is not None:
        doc["positive_definite"]["witness"] = {
            "times": pd_report.witness.grid.times.tolist(),
            "trades": pd_report.witness.trades.tolist(),
            "value": pd_report.witness.value,
        }
    _emit(doc, args.out)
    return 0


def cmd_gram(args) -> int:
    config = load_config(args.config)
    kernel = _build_kernel(config)
    grid = _build_grid(config)
    gram = assemble_gram(kernel, grid)
    res = check_grid_pd(gram)
    _emit(
        {
            "gram": {
                "eigenvalues": res.eigenvalues.tolist(),
                "min_eig": res.min_eig,
                "psd": res.psd,
                "strict": res.strict,
                "size": gram.size,
                "dimension": gram.dimension,
            }
        },
        args.out,
    )
    return 0


def cmd_refine(args) -> int:
    config = load_config(args.config)
    kernel = _build_kernel(config)
    grid = _build_grid(config)
    if grid.n < 2:
        raise ConfigError(f"grid: refinement needs at least two times, got {grid.n}")
    if args.levels < 1:
        raise ConfigError(f"--levels: need at least one refinement level, got {args.levels}")
    x0 = _build_portfolio(config, kernel)
    result = refine(kernel, grid.span, x0, max_levels=args.levels, seed=args.seed or 0)
    if args.out:
        write_strategy_table(result.finest.strategy, args.out, args.format)
    _emit(
        {
            "refine": {
                "levels": [[n, c] for n, c in result.levels],
                "finest": _result_summary(result.finest, "refine"),
            }
        }
    )
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    kernel = _build_kernel(config)
    sim = config.get("simulation")
    if not isinstance(sim, dict):
        raise ConfigError("simulation: block missing")
    if args.strategy:
        strategy = read_strategy_table(args.strategy)
        grid = strategy.grid
    elif "strategy_csv" in sim:
        strategy = read_strategy_table(sim["strategy_csv"])
        grid = strategy.grid
    else:
        grid = _build_grid(config)
        x0 = _build_portfolio(config, kernel)
        strategy = solve_best(kernel, grid, x0)[0].strategy
    with _section("simulation"):
        s0 = np.asarray(sim["s0"], dtype=float).ravel()
        if s0.size != kernel.dimension:
            raise ConfigError(
                f"simulation.s0: has {s0.size} components but the kernel is "
                f"{kernel.dimension}-dimensional"
            )
        model = MartingaleModel(
            s0=s0,
            covariance=np.asarray(sim["covariance"], dtype=float),
            horizon=grid.span,
        )
        n_paths = int(args.paths if args.paths is not None else sim.get("paths", 10_000))
        seed = int(args.seed if args.seed is not None else sim.get("seed", 0))
    try:
        report = estimate_expected_cost(kernel, grid, strategy, model, n_paths, seed)
    except ValueError as exc:
        raise ConfigError(f"simulation: {exc}") from exc
    _emit(
        {
            "simulation": {
                "mean_shortfall": report.mean_shortfall,
                "stderr": report.stderr,
                "analytic_stderr": report.analytic_stderr,
                "n_paths": report.n_paths,
                "seed": report.seed,
                "analytic_cost": report.analytic_cost,
            }
        },
        args.out,
    )
    return 0


def cmd_figures(args) -> int:
    out_dir = Path(args.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from exc

    # oscillation sweep: Gaussian-squared matrix-function kernel, 23 trades
    x0 = np.array([10.0, 0.0])
    best = {"rho": None, "T": None, "ratio": 0.0}
    sweep_rows = []
    for rho in [round(0.05 * i, 2) for i in range(1, 20)]:
        for horizon in range(1, 11):
            kernel = MatrixFunctionKernel([[1.0, rho], [rho, 1.0]], GaussianSquared())
            grid = equidistant_grid(float(horizon), 23)
            try:
                result = solve_kkt(kernel, grid, x0)
                ratio = float(np.max(np.abs(result.strategy.trades)) / 10.0)
            except (UnboundedCostError, ArithmeticError):
                ratio = float("nan")
            sweep_rows.append((rho, horizon, ratio))
            if np.isfinite(ratio) and ratio > best["ratio"]:
                best = {"rho": rho, "T": horizon, "ratio": ratio}
    with _output(out_dir / "fig1_oscillation.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "T", "max_abs_trade_over_position"])
        for rho, horizon, ratio in sweep_rows:
            writer.writerow([_fmt(rho), horizon, _fmt(ratio)])

    # cross-asset round trip: one short position dragged by a large long one
    kernel = CrossExpKernel(kappa=1.0, kappa_tilde=1.8, rho=0.3)
    grid = equidistant_grid(5.0, 11)
    result, route = solve_best(kernel, grid, np.array([-50.0, 1.0]), cross_check=True)
    write_strategy_table(result.strategy, out_dir / "fig2_round_trip.csv")

    _emit(
        {
            "figures": {
                "oscillation_sweep": {"best": best, "table": "fig1_oscillation.csv"},
                "round_trip": {
                    "summary": _result_summary(result, route),
                    "table": "fig2_round_trip.csv",
                },
            }
        }
    )
    return 0


_FLAGS = {
    "--config": dict(required=True, help="model configuration (JSON)"),
    "--out": dict(default=None, help="output path (figures: directory)"),
    "--seed": dict(type=int, default=None, help="random seed"),
    "--paths": dict(type=int, default=None, help="Monte Carlo paths"),
    "--levels": dict(type=int, default=8, help="refinement levels"),
    "--tmax": dict(type=float, default=20.0, help="property-check horizon"),
    "--samples": dict(type=int, default=400, help="property-check lag samples"),
    "--format": dict(choices=("csv", "json-like"), default="csv", help="table format"),
    "--strategy": dict(default=None, help="strategy table to simulate"),
}

# each subcommand accepts exactly the flags its cmd_* function reads
_COMMANDS = {
    "solve": (cmd_solve, ("--config", "--out", "--format")),
    "check": (cmd_check, ("--config", "--out", "--seed", "--tmax", "--samples")),
    "gram": (cmd_gram, ("--config", "--out")),
    "refine": (cmd_refine, ("--config", "--out", "--seed", "--levels", "--format")),
    "simulate": (cmd_simulate, ("--config", "--out", "--seed", "--paths", "--strategy")),
    "figures": (cmd_figures, ("--out",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossimpact",
        description="Optimal liquidation under multivariate transient price impact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The :func:`build_parser` parser, built once per process: parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except UnboundedCostError as exc:
        payload = {"error": str(exc)}
        if exc.direction is not None:
            payload["direction"] = _jsonable(exc.direction)
        if exc.min_eig is not None:
            payload["min_eig"] = float(exc.min_eig)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return NOT_PD_ERROR
    except ArithmeticError as exc:
        payload = {"error": str(exc)}
        results = getattr(exc, "results", None)
        if results:
            payload["candidates"] = [
                {"trades": r.strategy.trades.tolist(), "cost": r.cost} for r in results
            ]
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
