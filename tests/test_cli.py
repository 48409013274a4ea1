import json

import numpy as np
import pytest

from crossimpact.cli import main, read_strategy_table
from conftest import count_calls


FIG2_KERNEL = {"family": "cross_exp", "kappa": 1.0, "kappa_tilde": 1.8, "rho": 0.3}


def write_config(path, **overrides):
    config = {
        "kernel": FIG2_KERNEL,
        "grid": {"horizon": 5.0, "count": 11, "spacing": "equidistant"},
        "portfolio": [-50.0, 1.0],
        "simulation": {
            "s0": [100.0, 60.0],
            "covariance": [[0.04, 0.01], [0.01, 0.09]],
            "paths": 4000,
            "seed": 11,
        },
    }
    config.update(overrides)
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
        "argv, grid",
        [
            (("check", "--tmax", "0"), None),
            (("check", "--samples", "2"), None),
            (("refine", "--levels", "0"), None),
            (("refine",), {"horizon": "abc", "count": 3}),
            (("refine",), {"horizon": -1.0, "count": 3}),
            # ratio**(n-1) = 2**1024 overflows, and no grid has 0 times
            (("solve",), {"horizon": 5.0, "count": 1025, "spacing": "geometric"}),
            (("solve",), {"horizon": 5.0, "count": 0, "spacing": "geometric"}),
        ],
        ids=["tmax_0", "samples_2", "levels_0", "horizon_abc", "horizon_negative",
             "geometric_overflow", "geometric_count_0"],
    )
    def test_invalid_value_exit_2(self, tmp_path, capsys, argv, grid):
        config = tmp_path / "fig2.json"
        write_config(config, **({} if grid is None else {"grid": grid}))
        code, stdout, stderr = run(capsys, argv[0], "--config", str(config), *argv[1:])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("config error")

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
