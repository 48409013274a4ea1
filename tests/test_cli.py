import csv
import json

import numpy as np
import pytest
import scipy.linalg

from crossimpact import Strategy, TimeGrid, cli
from crossimpact.cli import main, read_strategy_table
from conftest import count_calls


FIG2_KERNEL = {"family": "cross_exp", "kappa": 1.0, "kappa_tilde": 1.8, "rho": 0.3}
SIMULATION = {
    "s0": [100.0, 60.0],
    "covariance": [[0.04, 0.01], [0.01, 0.09]],
    "paths": 4000,
    "seed": 11,
}
# an integer literal beyond the float range: float() raises OverflowError
HUGE = 10**401


def matrix_function(scalar_fn):
    """A 2 x 2 matrix_function kernel description over the profile ``scalar_fn``."""
    return {"family": "matrix_function", "B": [[1.0, 0.2], [0.2, 2.0]], "scalar_fn": scalar_fn}


def write_config(path, **overrides):
    """The cross_exp model config with ``overrides``; an override of None
    drops the field."""
    config = {
        "kernel": FIG2_KERNEL,
        "grid": {"horizon": 5.0, "count": 11, "spacing": "equidistant"},
        "portfolio": [-50.0, 1.0],
        "simulation": dict(SIMULATION),
    }
    config.update(overrides)
    config = {key: value for key, value in config.items() if value is not None}
    path.write_text(json.dumps(config))
    return config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_round_trip_strategy_table(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        out = tmp_path / "strategy.csv"
        code, stdout, _ = run(capsys, "solve", "--config", str(config), "--out", str(out))
        assert code == 0
        doc = json.loads(stdout)["solve"]
        assert doc["unique"] is True
        assert doc["residual"] < 1e-8

        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,asset_1,asset_2"
        assert len(lines) == 12  # header + 11 trade times
        strategy = read_strategy_table(out)
        trades = strategy.trades
        assert trades.shape == (11, 2)
        # asset 2 runs a round trip that nets out to the liquidation target
        assert np.any(trades[:, 1] > 0) and np.any(trades[:, 1] < 0)
        assert trades[:, 1].sum() == pytest.approx(-1.0, abs=1e-10)
        assert trades[:, 0].sum() == pytest.approx(50.0, abs=1e-10)

    def test_simulate_reproduces_analytic_cost(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        out = tmp_path / "strategy.csv"
        code, stdout, _ = run(capsys, "solve", "--config", str(config), "--out", str(out))
        solve_cost = json.loads(stdout)["solve"]["cost"]

        code, stdout, _ = run(
            capsys, "simulate", "--config", str(config), "--strategy", str(out)
        )
        assert code == 0
        sim = json.loads(stdout)["simulation"]
        # the 17-digit table round-trips exactly, so the analytic cost matches
        assert sim["analytic_cost"] == pytest.approx(solve_cost, abs=1e-10)
        assert sim["stderr"] == pytest.approx(sim["analytic_stderr"], rel=0.1)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, stdout_a, _ = run(capsys, "solve", "--config", str(config), "--out", str(out_a))
        _, stdout_b, _ = run(capsys, "solve", "--config", str(config), "--out", str(out_b))
        assert stdout_a == stdout_b
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_strategy_csv_config_key_and_paths_override(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        out = tmp_path / "strategy.csv"
        write_config(config)
        run(capsys, "solve", "--config", str(config), "--out", str(out))
        cfg = json.loads(config.read_text())
        cfg["simulation"]["strategy_csv"] = str(out)
        config.write_text(json.dumps(cfg))
        code, stdout, _ = run(
            capsys, "simulate", "--config", str(config), "--paths", "123"
        )
        assert code == 0
        assert json.loads(stdout)["simulation"]["n_paths"] == 123

    def test_geometric_spacing(self, tmp_path, capsys):
        config = tmp_path / "geo.json"
        write_config(config, grid={"horizon": 5.0, "count": 6, "spacing": "geometric"})
        out = tmp_path / "geo.csv"
        code, _, _ = run(capsys, "solve", "--config", str(config), "--out", str(out))
        assert code == 0
        strategy = read_strategy_table(out)
        gaps = np.diff(strategy.grid.times)
        assert np.all(np.diff(gaps) > 0)  # gaps grow geometrically
        assert strategy.grid.times[0] == 0.0 and strategy.grid.times[-1] == 5.0

    def test_json_like_format(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        out = tmp_path / "strategy.json"
        code, _, _ = run(
            capsys, "solve", "--config", str(config), "--out", str(out), "--format", "json-like"
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "asset_1", "asset_2"]
        assert len(doc["rows"]) == 11

    @pytest.mark.parametrize("k", [1, 3])
    def test_csv_table_matches_csv_writer(self, tmp_path, rng, k):
        """The one-template csv table is byte for byte what ``csv.writer``
        writes with ``_fmt`` cells, CRLF line ends, ``-0`` and 1e7-scale
        trades included."""
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, 8))])
        trades = 1e7 * rng.standard_normal((9, k))
        trades[0, 0], trades[1, -1], trades[2, 0] = -0.0, 1e-300, 12345678.9
        strategy = Strategy(trades, TimeGrid(times))
        out = tmp_path / "table.csv"
        cli.write_strategy_table(strategy, out)
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"asset_{i + 1}" for i in range(k)])
            for t, row in zip(times, trades):
                writer.writerow([cli._fmt(t)] + [cli._fmt(v) for v in row])
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert b"\r\n0,-0" in out.read_bytes() and out.read_bytes().count(b"\r\n") == 10
        assert np.array_equal(read_strategy_table(out).trades, trades)


class TestErrors:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text('{"kernel": ')
        code, _, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 2
        assert "config error" in stderr
        assert ":1:" in stderr  # line diagnostic

    def test_missing_field_exit_2(self, tmp_path, capsys):
        config = tmp_path / "incomplete.json"
        config.write_text(json.dumps({"kernel": FIG2_KERNEL, "grid": {"horizon": 1.0}}))
        code, _, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 2
        assert "grid" in stderr

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        config = tmp_path / "mismatch.json"
        write_config(config, portfolio=[1.0, 2.0, 3.0])
        code, _, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 2
        assert "portfolio" in stderr

    def test_simulate_strategy_dimension_mismatch_exit_2(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        table = tmp_path / "three_assets.csv"
        rows = ["t,asset_1,asset_2,asset_3"] + [f"{t},1.0,-2.0,0.5" for t in range(5)]
        table.write_text("\n".join(rows) + "\n")
        code, stdout, stderr = run(
            capsys, "simulate", "--config", str(config), "--strategy", str(table)
        )
        assert code == 2
        assert stdout == ""
        assert "config error" in stderr and "2-dimensional" in stderr

    def test_simulate_zero_paths_exit_2(self, tmp_path, capsys):
        # --paths 0 is an explicit value, not "unset": it must not fall back
        # to the config's path count
        config = tmp_path / "fig2.json"
        write_config(config)
        code, stdout, stderr = run(capsys, "simulate", "--config", str(config), "--paths", "0")
        assert code == 2
        assert stdout == ""
        assert "config error" in stderr and "path" in stderr

    @pytest.mark.parametrize(
        "argv, overrides",
        [
            (("check", "--tmax", "0"), {}),
            (("check", "--samples", "2"), {}),
            (("refine", "--levels", "0"), {}),
            (("refine",), {"grid": {"horizon": "abc", "count": 3}}),
            (("refine",), {"grid": {"horizon": -1.0, "count": 3}}),
            (("refine",), {"grid": {"horizon": float("inf"), "count": 3}}),
            (("refine",), {"grid": [0.0, 1.0]}),
            (("refine",), {"grid": None}),
            (("refine",), {"grid": {"times": [0.0]}}),
            # json reads 1e400 as inf, which never reaches np.linspace
            (("solve",), {"grid": {"horizon": float("1e400"), "count": 11}}),
            (("gram",), {"grid": {"horizon": float("1e400"), "count": 11}}),
            # ratio**(n-1) = 2**1024 overflows, and no grid has 0 times
            (("solve",), {"grid": {"horizon": 5.0, "count": 1025, "spacing": "geometric"}}),
            (("solve",), {"grid": {"horizon": 5.0, "count": 0, "spacing": "geometric"}}),
            # a count of 3.7 is not silently truncated to 3
            (("solve",), {"grid": {"horizon": 5.0, "count": 3.7}}),
            (("solve",), {"portfolio": [float("nan"), 1.0]}),
            (("refine", "--levels", "2"), {"portfolio": [float("nan"), 1.0]}),
            (("simulate", "--paths", "10"), {"portfolio": [1.0, float("nan")]}),
            (("solve",), {"portfolio": [HUGE, 1.0]}),
            (("solve",), {"kernel": {**FIG2_KERNEL, "kappa": HUGE}}),
            (("solve",), {"kernel": {"family": "matrix_exp", "B": [[HUGE, 0], [0, 1]]}}),
            (("simulate", "--paths", "10"), {"simulation": {**SIMULATION, "s0": [HUGE, 60.0]}}),
            (("simulate", "--paths", "10"),
             {"simulation": {**SIMULATION, "covariance": [[HUGE, 0.01], [0.01, 0.09]]}}),
            # json writes and reads a float inf as Infinity
            (("simulate",), {"simulation": {**SIMULATION, "paths": float("inf")}}),
            (("simulate", "--paths", "10"), {"simulation": {**SIMULATION, "seed": float("inf")}}),
            (("simulate", "--paths", "10"),
             {"simulation": {**SIMULATION, "s0": [float("nan"), 60.0]}}),
            (("simulate", "--paths", "10"),
             {"simulation": {**SIMULATION, "s0": [float("inf"), 60.0]}}),
            # an infinite profile parameter fails at construction, not in the solve
            *((command, {"kernel": matrix_function(profile)}) for profile in (
                {"tag": "linear_polya", "level": float("inf"), "slope": 0.3},
                {"tag": "power_capped", "exponent": 0.5, "cap": float("inf")},
            ) for command in (("solve",), ("check",))),
        ],
        ids=["tmax_0", "samples_2", "levels_0", "horizon_abc", "horizon_negative", "horizon_inf",
             "refine_grid_list", "refine_no_grid", "refine_one_time",
             "solve_horizon_1e400", "gram_horizon_1e400",
             "geometric_overflow", "geometric_count_0", "count_not_integral",
             "solve_portfolio_nan", "refine_portfolio_nan", "simulate_portfolio_nan",
             "portfolio_huge", "kappa_huge", "matrix_exp_B_huge", "s0_huge",
             "covariance_huge", "paths_inf", "seed_inf", "s0_nan", "s0_inf",
             "solve_level_inf", "check_level_inf", "solve_cap_inf", "check_cap_inf"],
    )
    def test_invalid_value_exit_2(self, tmp_path, capsys, argv, overrides):
        config = tmp_path / "fig2.json"
        write_config(config, **overrides)
        code, stdout, stderr = run(capsys, argv[0], "--config", str(config), *argv[1:])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("config error")
        # an invalid kernel, portfolio or simulation value names its section
        section = next(iter(overrides), None)
        if section in ("kernel", "portfolio", "simulation"):
            assert stderr.startswith(f"config error: {section}: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "table",
        [
            None,  # no such file
            "t,asset_1,asset_2\n0,1.0,-2.0\n1,0.5\n",
            "t,asset_1,asset_2\n0,1.0,abc\n1,0.5,2.0\n",
            "t,asset_1,asset_2\n0.5,1.0,-2.0\n1,0.5,2.0\n",
            "t,asset_1,asset_2\n0,1.0,nan\n1,0.5,2.0\n",
        ],
        ids=["missing", "ragged", "non_numeric", "first_time_not_0", "nan_trade"],
    )
    def test_malformed_strategy_table_exit_2(self, tmp_path, capsys, source, table):
        path = tmp_path / "strategy.csv"
        if table is not None:
            path.write_text(table)
        config = tmp_path / "fig2.json"
        cfg = write_config(config)
        argv = ["simulate", "--config", str(config), "--paths", "10"]
        if source == "flag":
            argv += ["--strategy", str(path)]
        else:
            cfg["simulation"]["strategy_csv"] = str(path)
            config.write_text(json.dumps(cfg))
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("config error") and "strategy.csv" in stderr

    @pytest.mark.parametrize("tmax", ["inf", "nan"])
    def test_check_nonfinite_tmax_exit_2(self, tmp_path, capsys, tmax):
        config = tmp_path / "fig2.json"
        write_config(config)
        code, stdout, stderr = run(capsys, "check", "--config", str(config), "--tmax", tmax)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("config error") and "finite" in stderr

    @pytest.mark.parametrize("command", ["solve", "check", "figures"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        config = tmp_path / "fig2.json"
        write_config(config)
        out = config / "out"  # below a regular file: neither writable nor creatable
        argv = [command, "--out", str(out)]
        if command != "figures":
            argv += ["--config", str(config)]
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr.startswith("config error") and str(out) in stderr

    def test_refine_not_pd_exit_3(self, tmp_path, capsys):
        config = tmp_path / "indefinite.json"
        write_config(
            config,
            kernel={"family": "permanent", "G0": [[1.0, 0.0], [0.0, -1.0]]},
            portfolio=[1.0, 1.0],
        )
        code, _, stderr = run(capsys, "refine", "--config", str(config), "--levels", "2")
        assert code == 3
        assert "not positive definite" in json.loads(stderr)["error"]

    def test_flag_of_another_subcommand_rejected(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--config", str(config), "--paths", "5"])
        assert exc.value.code == 2
        assert "--paths" in capsys.readouterr().err

    def test_solve_takes_no_seed(self, tmp_path, capsys):
        # solve routes on kernel facts and samples nothing: a seed would be unused
        config = tmp_path / "fig2.json"
        write_config(config)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(config), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["cross_exp", "matrix_exp"])
    def test_overflowing_cost_exit_4(self, tmp_path, capsys, family):
        # 1/2 xi . Gram . xi overflows: an error, not "cost": Infinity (not JSON)
        config = tmp_path / "huge.json"
        kernel = FIG2_KERNEL if family == "cross_exp" else {
            "family": "matrix_exp", "B": [[1.0, 0.3], [0.3, 1.8]]}
        write_config(config, kernel=kernel, portfolio=[1e200, -1e200])
        code, stdout, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 4
        assert stdout == ""
        assert "not finite" in json.loads(stderr)["error"]

    def test_numeric_failure_exit_4(self, tmp_path, capsys):
        # near-singular Gram whose certified solve fails its own tolerance
        config = tmp_path / "osc.json"
        write_config(
            config,
            kernel={
                "family": "matrix_function",
                "B": [[1.0, 0.9], [0.9, 1.0]],
                "scalar_fn": {"tag": "gaussian_sq"},
            },
            grid={"horizon": 8.0, "count": 23, "spacing": "equidistant"},
            portfolio=[10.0, 0.0],
        )
        code, _, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 4
        assert "error" in json.loads(stderr)

    def test_least_squares_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        """A singular Gram on which both LAPACK least-squares drivers fail is
        a numeric failure, not a traceback."""

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
        monkeypatch.setattr(scipy.linalg, "lstsq", no_convergence)
        config = tmp_path / "permanent.json"
        write_config(
            config,
            kernel={"family": "permanent", "G0": [[1.0, 0.2], [0.2, 0.5]]},
            grid={"horizon": 1.0, "count": 9, "spacing": "equidistant"},
            portfolio=[1.0, -1.0],
        )
        code, stdout, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 4
        assert stdout == ""
        assert "least squares failed" in json.loads(stderr)["error"]

    def test_not_pd_model_exit_3(self, tmp_path, capsys):
        config = tmp_path / "indefinite.json"
        write_config(
            config,
            kernel={"family": "permanent", "G0": [[1.0, 0.0], [0.0, -1.0]]},
            portfolio=[1.0, 1.0],
        )
        code, _, stderr = run(capsys, "solve", "--config", str(config))
        assert code == 3
        payload = json.loads(stderr)
        assert "direction" in payload


class TestCheck:
    def test_indefinite_permanent_reports_witness(self, tmp_path, capsys):
        config = tmp_path / "indefinite.json"
        write_config(
            config,
            kernel={"family": "permanent", "G0": [[1.0, 0.0], [0.0, -1.0]]},
            portfolio=[1.0, 1.0],
        )
        code, stdout, _ = run(capsys, "check", "--config", str(config))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["positive_definite"]["verdict"] == "not_pd"
        witness = doc["positive_definite"]["witness"]
        assert witness["times"] == [0.0]  # a single trade suffices

    def test_admissible_kernel_report(self, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        write_config(config)
        code, stdout, _ = run(capsys, "check", "--config", str(config))
        doc = json.loads(stdout)
        assert doc["properties"]["symmetric"] is True
        assert doc["properties"]["nonincreasing"]["value"] is True
        assert doc["positive_definite"]["verdict"] == "pd"


class TestGram:
    def test_gaussian_1d_strict(self, tmp_path, capsys):
        config = tmp_path / "gaussian.json"
        config.write_text(
            json.dumps(
                {
                    "kernel": {
                        "family": "scalar_times_matrix",
                        "g": {"tag": "gaussian_sq"},
                        "L": [[1.0]],
                    },
                    "grid": {"times": [0.0, 1.0, 2.0]},
                    "portfolio": [1.0],
                }
            )
        )
        code, stdout, _ = run(capsys, "gram", "--config", str(config))
        assert code == 0
        doc = json.loads(stdout)["gram"]
        assert doc["psd"] is True and doc["strict"] is True
        eigs = doc["eigenvalues"]
        assert eigs == sorted(eigs)
        assert all(e > 0 for e in eigs)

    def test_one_spectrum(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "fig2.json"
        write_config(config)
        calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        code, stdout, _ = run(capsys, "gram", "--config", str(config))
        assert code == 0
        assert len(calls) == 1
        assert len(json.loads(stdout)["gram"]["eigenvalues"]) == 22


class TestRefine:
    def test_levels_monotone(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "kernel": {"family": "matrix_exp", "B": [[1.0]]},
                    "grid": {"horizon": 1.0, "count": 2},
                    "portfolio": [1.0],
                }
            )
        )
        code, stdout, _ = run(capsys, "refine", "--config", str(config), "--levels", "6")
        assert code == 0
        doc = json.loads(stdout)["refine"]
        costs = [c for _, c in doc["levels"]]
        assert all(b <= a + 1e-10 * abs(a) for a, b in zip(costs, costs[1:]))
        assert doc["levels"][-1][0] == 2**6 + 1

    def test_horizon_is_the_grid_span(self, tmp_path, capsys):
        """A grid given by its times refines on its span, as the same grid
        given by horizon and count does."""
        levels = []
        for grid in ({"times": [0.5 * i for i in range(11)]}, {"horizon": 5.0, "count": 11}):
            config = tmp_path / "fig2.json"
            write_config(config, grid=grid)
            code, stdout, _ = run(capsys, "refine", "--config", str(config), "--levels", "2")
            assert code == 0
            levels.append(json.loads(stdout)["refine"]["levels"])
        assert levels[0] == levels[1]
        assert levels[1][-1][1] == pytest.approx(384.6, rel=1e-3)


class TestFigures:
    def test_tables_written(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "figures", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(stdout)["figures"]
        assert doc["oscillation_sweep"]["best"]["ratio"] > 100.0
        sweep = (tmp_path / "fig1_oscillation.csv").read_text().strip().splitlines()
        assert sweep[0] == "rho,T,max_abs_trade_over_position"
        assert len(sweep) == 1 + 19 * 10
        strategy = read_strategy_table(tmp_path / "fig2_round_trip.csv")
        assert strategy.trades.shape == (11, 2)
        assert strategy.trades[:, 1].sum() == pytest.approx(-1.0, abs=1e-10)


class TestParser:
    def test_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        """Two subcommands and one bad argv (exit 2) in one process build the
        parser once, and print byte for byte what a parser built for each
        call prints."""
        config = tmp_path / "fig2.json"
        write_config(config)
        argvs = [["solve", "--config", str(config)], ["gram", "--config", str(config)],
                 ["gram", "--config", str(config), "--paths", "5"]]

        def run_all():
            outputs = []
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                outputs.append((code, *capsys.readouterr()))
            return outputs

        cli._parser.cache_clear()
        builds = count_calls(monkeypatch, cli, "build_parser")
        cached = run_all()
        assert len(builds) == 1
        assert [code for code, _, _ in cached] == [0, 0, 2]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert run_all() == cached
        assert len(builds) == 4
