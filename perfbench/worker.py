"""One workload run, in a fresh process started by ``run.py``.

Set-up imports the library from the checkout's ``src/``, generates the
inputs from the seed, loads the reference answers and runs one untimed
warm-up op (``screen``: one of each kind).  The timed loop then runs ops
one after another (a closed loop with one client), in whole cycles of the
workload's op mix, until ``--seconds`` have passed, and checks every answer.

``--role setup`` stops after set-up and reports only its duration, so that
``run.py`` can take the median set-up time over several fresh processes.
With ``--trace 1`` the loop runs with every layer traced (``tracing.py``),
which gives the per-layer metrics; the same ops are then replayed untraced,
and the two wall times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"
TAIL_BEYOND = 10  # passing ops that must lie beyond the tail percentile


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # the timed library call
    check: Callable[[object], Optional[str]]  # None, or why the answer is wrong
    simulate: bool = False


@dataclass
class Record:
    label: str
    latency: float
    outcome: str  # "ok", "check", "exit <code>" or an exception class
    detail: str = ""


class CliFailure(Exception):
    """The CLI returned a nonzero exit code (2, 3 or 4 are documented)."""

    def __init__(self, code, stderr):
        first_line = stderr.strip().splitlines()[0] if stderr.strip() else ""
        super().__init__(f"exit {code}: {first_line}")
        self.code = code


def call_cli(*argv) -> str:
    """``crossimpact.cli.main`` in-process; returns its standard output."""
    import crossimpact.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = crossimpact.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    if code != 0:
        raise CliFailure(code, err.getvalue())
    return out.getvalue()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Liquidate:
    """``solve`` (cross-checked, strategy table written) and ``refine``."""

    def __init__(self, seed: int, workdir: Path):
        self.reference = json.loads((HERE / "reference.json").read_text())["liquidate"]
        catalog = inputs.liquidate_catalog()
        for key, entry in self.reference.items():
            slot, variant = key.split("/")[:2]
            if catalog[slot][int(variant)]["kernel"] != entry["kernel"]:
                raise RuntimeError(f"reference.json is stale for {key}; rerun make_reference.py")
        ops = []
        for i, spec in enumerate(inputs.liquidate_inputs(seed, catalog)):
            config = workdir / f"liquidate-{i}.json"
            config.write_text(json.dumps(spec["config"]))
            ops.append(self._op(spec, config, workdir / f"strategy-{i}.csv"))
        self.cycles = _chunks(ops, len(inputs.LIQUIDATE_CYCLE))

    def _op(self, spec, config, table) -> Op:
        x0 = spec["config"]["portfolio"]
        cost_matrix = self.reference[spec["reference"]]["cost_matrix"]
        if spec["command"] == "solve":
            n = spec["config"]["grid"]["count"]
            return Op(
                spec["label"],
                lambda: call_cli("solve", "--config", config, "--out", table),
                lambda out: checks.check_solve(json.loads(out), checks.read_table(table),
                                               x0, n, cost_matrix),
            )
        levels = spec["levels"]
        return Op(
            spec["label"],
            lambda: call_cli("refine", "--config", config, "--levels", levels),
            lambda out: checks.check_refine(json.loads(out), levels, x0, cost_matrix),
        )

    def warm_up(self) -> None:
        self.cycles[0][0].run()


class Screen:
    """Per kernel: ``search_violation``, ``check`` and ``gram``; per cycle one
    ``figures`` (the oscillation sweep plus the round-trip table)."""

    def __init__(self, seed: int, workdir: Path):
        import crossimpact

        reference = json.loads((HERE / "reference.json").read_text())
        cases = inputs.screen_inputs(seed)
        self.found = {}  # case index -> whether the search found a witness
        self.cycles = []
        for variant in range(inputs.SCREEN_VARIANTS):
            ops = []
            for i, case in enumerate(cases):
                if case["variant"] != variant:
                    continue
                config = workdir / f"screen-{i}.json"
                config.write_text(json.dumps(case["config"]))
                kernel = crossimpact.kernel_from_dict(case["config"]["kernel"])
                n = case["config"]["grid"]["count"]
                trace = n * float(np.trace(kernel.tilde(0.0)))
                ops += self._ops(i, case, config, kernel, n, trace)
            figures = workdir / f"figures-{variant}"
            ops.append(Op(
                "figures",
                lambda figures=figures: call_cli("figures", "--out", figures),
                lambda out, figures=figures: checks.check_figures(
                    json.loads(out),
                    len((figures / "fig1_oscillation.csv").read_text().splitlines()) - 1,
                    reference["figures_round_trip_cost"]),
            ))
            self.cycles.append(ops)

    def _ops(self, i, case, config, kernel, n, trace) -> list:
        import crossimpact

        expected, label = case["expected"], f"{case['slot']}/{case['variant']}"
        search_args = dict(inputs.SCREEN_SEARCH, seed=case["search_seed"])

        def run_search():
            return crossimpact.search_violation(kernel, **search_args)

        def check_search(witness):
            self.found[i] = witness is not None
            blocks = None if witness is None else _gram_blocks(kernel, witness.grid.times)
            return checks.check_witness(witness, blocks, expected)

        return [
            Op(f"search/{label}", run_search, check_search),
            Op(f"check/{label}", lambda: call_cli("check", "--config", config),
               lambda out: checks.check_verdict(json.loads(out), expected,
                                                   self.found.get(i, False))),
            Op(f"gram/{label}/N={n}", lambda: call_cli("gram", "--config", config),
               lambda out: checks.check_gram(json.loads(out), n, kernel.dimension, trace,
                                             expected)),
        ]

    def warm_up(self) -> None:
        for op in self.cycles[0][:3]:
            op.check(op.run())


def _gram_blocks(kernel, times):
    """Dense Gram for re-checking a witness, assembled here from kernel values."""
    n, k = times.size, kernel.dimension
    values = kernel.tilde_many((times[:, None] - times[None, :]).ravel())
    return values.reshape(n, n, k, k).transpose(0, 2, 1, 3).reshape(n * k, n * k)


class Verify:
    """``simulate`` with 100k paths and a fresh Monte Carlo seed per op."""

    def __init__(self, seed: int, workdir: Path):
        reference = json.loads((HERE / "reference.json").read_text())
        generated = inputs.verify_inputs(seed)
        self.models = {}
        for name, model in generated["models"].items():
            config, table = workdir / f"verify-{name}.json", workdir / f"verify-{name}.csv"
            config.write_text(json.dumps(model))
            solved = json.loads(call_cli("solve", "--config", config, "--out", table))
            cost = solved["solve"]["cost"]
            if name == "readme" and abs(cost / reference["verify_readme_cost"] - 1) > 1e-8:
                raise RuntimeError(f"README model solves to cost {cost!r}, the reference "
                                   f"is {reference['verify_readme_cost']!r}")
            self.models[name] = (config, table, cost)
        ops = []
        for mc_seed, name in zip(generated["mc_seeds"], itertools.cycle(inputs.VERIFY_CYCLE)):
            config, table, cost = self.models[name]
            ops.append(Op(
                f"simulate/{name}",
                lambda c=config, t=table, s=mc_seed: call_cli(
                    "simulate", "--config", c, "--strategy", t, "--seed", s),
                lambda out, cost=cost: checks.check_simulate(json.loads(out), cost,
                                                             inputs.VERIFY_PATHS),
                simulate=True,
            ))
        self.cycles = _chunks(ops, len(inputs.VERIFY_CYCLE))

    def warm_up(self) -> None:
        config, table, _ = self.models["k4"]
        call_cli("simulate", "--config", config, "--strategy", table, "--paths", 2000)


def _chunks(ops: list, size: int) -> list:
    return [ops[i:i + size] for i in range(0, len(ops), size)]


WORKLOADS = {"liquidate": Liquidate, "screen": Screen, "verify": Verify}


# ---------------------------------------------------------------------------
# timed loop and metrics
# ---------------------------------------------------------------------------


def run_ops(cycles, seconds: Optional[float], tracer=None):
    """Run whole op cycles until ``seconds`` have passed (or the cycles end).

    Whole cycles keep the op mix, and so the metrics, the same from run to
    run.  Returns the records, the ops run, the loop's wall time and whether
    every answer the library gave passed its check.
    """
    records, done, correct = [], [], True
    start = time.perf_counter()
    for op in itertools.chain.from_iterable(
            itertools.takewhile(lambda _: seconds is None
                                or time.perf_counter() - start < seconds, cycles)):
        if tracer is not None and op.simulate:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except CliFailure as exc:
            record = Record(op.label, time.perf_counter() - t0, f"exit {exc.code}", str(exc))
        except Exception as exc:  # a crash inside the library is a failed op
            record = Record(op.label, time.perf_counter() - t0, type(exc).__name__, str(exc))
        else:
            record = Record(op.label, time.perf_counter() - t0, "ok")
            if tracer is not None:
                tracer.paused = True
            try:
                reason = op.check(out)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                reason = f"unreadable answer: {exc!r}"
            finally:
                if tracer is not None:
                    tracer.paused = False
            if reason is not None:
                record.outcome, record.detail = "check", reason
                correct = False
        finally:
            if tracer is not None and op.simulate:
                tracemalloc.stop()
        records.append(record)
        done.append(op)
    return records, done, time.perf_counter() - start, correct


def tail(latencies: list):
    """Latency at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize(records: list, wall: float) -> dict:
    ok = [r.latency for r in records if r.outcome == "ok"]
    failures = {}
    for r in records:
        if r.outcome != "ok":
            failures[r.outcome] = failures.get(r.outcome, 0) + 1
    tail_value, tail_pct = tail(ok) if ok else (float("nan"), float("nan"))
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "ok_ops_per_s": len(ok) / wall,
        "op_p50_s": statistics.median(ok) if ok else float("nan"),
        "op_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "passing": len(ok),
        "pass_rate": len(ok) / len(records),
        "error_rate": 1.0 - len(ok) / len(records),
        "failures": failures,
        "wall_s": wall,
    }


def environment() -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SOURCE))

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "environment": environment()}
        if args.trace:
            result.update(traced_run(workload, args.seconds))
        else:
            records, _, wall, correct = run_ops(itertools.cycle(workload.cycles), args.seconds)
            result.update(summarize(records, wall), correct=correct,
                          records=[vars(r) for r in records])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(workload, seconds: float) -> dict:
    tracer = tracing.Tracer()
    origin = time.perf_counter()
    tracer.install()
    try:
        traced, done, traced_wall, traced_correct = run_ops(
            itertools.cycle(workload.cycles), seconds, tracer)
    finally:
        tracer.uninstall()
    _, _, untraced_wall, replay_correct = run_ops([done], None)
    layers = tracer.metrics()
    layers["trace.overhead"] = traced_wall / untraced_wall - 1.0
    self_total = sum(tracer.self_times().values())
    return {
        **summarize(traced, traced_wall),
        "correct": traced_correct and replay_correct and self_total <= traced_wall,
        "layers": layers,
        "self_s_total": self_total,
        "untraced_wall_s": untraced_wall,
        "records": [vars(r) for r in traced],
        "spans": tracer.dump(origin),
    }


if __name__ == "__main__":
    sys.exit(main())
