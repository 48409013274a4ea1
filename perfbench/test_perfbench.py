"""Tests of the benchmark itself (not part of the library's suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def test_same_seed_same_inputs():
    catalog = inputs.liquidate_catalog()
    for make in (lambda s: inputs.liquidate_inputs(s, catalog), inputs.screen_inputs,
                 inputs.verify_inputs):
        assert json.dumps(make(5)) == json.dumps(make(5))
        assert json.dumps(make(5)) != json.dumps(make(6))


def test_every_liquidate_op_has_a_reference():
    reference = json.loads((HERE / "reference.json").read_text())["liquidate"]
    for op in inputs.liquidate_inputs(5, inputs.liquidate_catalog()):
        assert reference[op["reference"]]["kernel"] == op["config"]["kernel"]


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        tracing.metric_catalog()


def _failed_records(op):
    records, _, _, correct = worker.run_ops([[op]], None)
    assert not correct
    assert worker.summarize(records, 1.0)["failed"] == 1
    return records


def test_perturbed_cost_is_a_failed_op(tmp_path):
    op = worker.Liquidate(3, tmp_path).cycles[0][0]
    out = op.run()
    assert op.check(out) is None
    document = json.loads(out)
    document["solve"]["cost"] *= 1 + 1e-6
    records = _failed_records(worker.Op(op.label, lambda: json.dumps(document), op.check))
    assert records[0].outcome == "check" and "cost" in records[0].detail


def test_perturbed_strategy_is_a_failed_op(tmp_path):
    op = worker.Liquidate(3, tmp_path).cycles[0][0]
    out = op.run()
    assert op.check(out) is None
    table = tmp_path / "strategy-0.csv"
    rows = list(csv.reader(table.open()))
    rows[5][1] = repr(float(rows[5][1]) + 1e-6)
    with table.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    records = _failed_records(worker.Op(op.label, lambda: out, op.check))
    assert "unliquidated" in records[0].detail


def test_answer_checks_reject_wrong_answers():
    sim = {"simulation": {"n_paths": 100, "analytic_cost": 1.0, "mean_shortfall": 1.3,
                          "stderr": 0.1}}
    assert checks.check_simulate(sim, 1.0, 100) is None
    sim["simulation"]["mean_shortfall"] = 1.5
    assert checks.check_simulate(sim, 1.0, 100) is not None
    q = np.eye(2)
    refine = {"refine": {"levels": [[3, 4.0], [5, 2.5], [9, 2.0]]}}
    assert checks.check_refine(refine, 3, [1.0, 1.0], q) is None
    refine["refine"]["levels"][1][1] = 1.5  # cost rises from level 2 to 3
    assert "increased" in checks.check_refine(refine, 3, [1.0, 1.0], q)
    verdict = {"positive_definite": {"verdict": "pd"}}
    assert checks.check_verdict(verdict, None, search_found_witness=False) is None
    assert checks.check_verdict(verdict, None, search_found_witness=True) is not None
    assert checks.check_verdict(verdict, "not_pd", search_found_witness=False) is not None


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert worker.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    value, percentile = worker.tail([float(i) for i in range(11)])
    assert value == 0.0 and round(percentile, 2) == 9.09


def _library_namespace():
    import crossimpact

    modules = [m for n, m in sys.modules.items()
               if n == "crossimpact" or n.startswith("crossimpact.")]
    names = {(m.__name__, a): v for m in modules for a, v in vars(m).items()}
    kernel_class = crossimpact.kernels.DecayKernel
    names.update({("DecayKernel", a): vars(kernel_class)[a] for a in tracing.KERNEL_METHODS})
    return names


def test_trace_restores_every_wrapped_name(tmp_path):
    import crossimpact.cli  # noqa: F401  (every library module loaded)

    before = _library_namespace()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        wrapped = {f"{o.__module__.rsplit('.', 1)[-1]}.{o.__name__}" for _, _, o in patched}
        assert wrapped == set(tracing.traced_names())
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
        op = worker.Liquidate(3, tmp_path).cycles[0][0]
        assert op.check(op.run()) is None
    finally:
        tracer.uninstall()
    after = _library_namespace()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["solver.solve_best.calls"] == 1
    assert sum(tracer.self_times().values()) <= max(e for _, _, e, _ in tracer.spans) - \
        min(s for _, s, _, _ in tracer.spans) + 1e-9


def _run(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_short_run_prints_the_result_last():
    proc = _run(HERE.parent, "--workload", "screen", "--seed", "4", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]


def test_run_fails_without_the_library_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "liquidate", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
