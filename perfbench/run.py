"""Benchmark entry point for crossimpact.

    python3 perfbench/run.py --workload liquidate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30    # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``liquidate`` -- ``solve`` and ``refine`` on large grids (NK up to ~4100);
* ``screen``    -- ``check``, ``gram``, ``search_violation`` and ``figures``
  over kernels from every ``kernel_from_dict`` family;
* ``verify``    -- ``simulate`` with 100k Monte Carlo paths per op.

Every run is a fresh process (``worker.py``) with the BLAS thread count fixed
to 1 in its environment.  With ``--trace 0`` the set-up is also
repeated in two more fresh processes and ``setup_s`` is the median of the
three.  Human-readable lines come first; the last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
A full record, with every op and, for traced runs, every span, is written to
``perfbench/out/``.  Without the library source next to this directory the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "crossimpact"
OUT = HERE / "out"
WORKLOADS = ("liquidate", "screen", "verify")
END_TO_END = (
    ("setup_s", "s"),
    ("ok_ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("pass_rate", "fraction"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 3
# One BLAS thread: on 2 shared cores the spread between runs was about half
# that with two threads, at about the same speed for this op mix.
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # every process of one workload run ends within this


class RunFailed(Exception):
    pass




def spawn(args, workload: str, role: str, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role,
               "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} {role} process timed out") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload} {role} process exited with {proc.returncode}:\n"
                        f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        record = spawn(args, workload, "run", deadline)
        metrics = {name: {"value": _number(record["layers"][name]), "unit": unit}
                   for name, unit, _ in tracing.metric_catalog()}
    else:
        setups = [spawn(args, workload, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        record = spawn(args, workload, "run", deadline)
        record["setup_s_samples"] = setups + [record["setup_s"]]
        record["setup_s"] = statistics.median(record["setup_s_samples"])
        metrics = {name: {"value": _number(record[name]), "unit": unit}
                   for name, unit in END_TO_END}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print_summary(workload, args, record, metrics, path)
    return {"correct": bool(record["correct"]), "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_summary(workload, args, record, metrics, path) -> None:
    env = record["environment"]
    print(f"# {workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}  "
          f"(python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}, {env['cpu']})")
    print(f"#   ops {record['attempted']} attempted, {record['passing']} passed; "
          f"failures {record['failures']}")
    if not args.trace:
        print(f"#   op_tail_s is the p{record['tail_percentile']:.1f} latency of "
              f"{record['passing']} passing ops; setup_s samples {record['setup_s_samples']}")
    else:
        print(f"#   traced {record['wall_s']:.3f} s (untraced {record['untraced_wall_s']:.3f} s); "
              f"summed self_s {record['self_s_total']:.3f} s")
    rows = [(name, metric["value"], metric["unit"]) for name, metric in metrics.items()
            if not args.trace or metric["value"]]
    if not args.trace:
        rows.append(("error_rate", record["error_rate"], "fraction"))
    for name, value, unit in rows:
        print(f"#   {name:<48} {value!r:>24} {unit}")
    print(f"#   record: {path.relative_to(HERE.parent)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crossimpact benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"library source not found at {SOURCE}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_workload(args, workload)
            print(json.dumps(result))
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
