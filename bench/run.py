"""Benchmark of the cauchypairs package: FD residuals, 4D developments and
the frame algebra.

    python3 bench/run.py --workload fd3-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a source checkout; it imports the package from
`src/` and installs nothing.  Each workload runs in a fresh child process
(`bench/workloads.py`), one at a time, with OpenBLAS and OpenMP held to one
thread, so that peak RSS and set-up time belong to that workload alone.

With `--trace 0` the child measures every end-to-end metric; the output lists
each one by name and unit, then the environment, and ends with one JSON line
`{"correct", "attempted", "failed", "metrics"}` holding the metrics that
BENCHMARK.json declares.  `setup_s` is the median over SETUP_RUNS fresh
processes: the measured child and set-up-only children started before and
after it, so that the samples span the whole run.  With `--trace 1` the
child measures an untraced section, then the same work traced span by span,
and the JSON line holds the per-layer metrics.  `--workload all` runs every
workload in turn and prints each result.  The exit code is non-zero only
when a workload produced no result; failed checks show as
`"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 15.0
THREADS = "1"
# a run must end within 180 s; the measured child gets what is left of this
# budget once the set-up-only children after it are provided for
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared():
    """Workload and metric names from BENCHMARK.json, by section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: [m["name"] for m in spec[key]]
            for key in ("workloads", "end_to_end", "per_layer")}


def child(args, extra, timeout):
    """Run bench/workloads.py in a fresh process; return its JSON result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS,
               MKL_NUM_THREADS=THREADS, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size] + extra
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload}: child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: child exited {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args):
    """Measure one workload; return (human-readable lines, result object)."""
    started = time.monotonic()
    spans_out = []
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-{args.seed}.tsv"
        spans_out = ["--spans-out", str(path)]
    before = 0 if args.trace else SETUP_RUNS // 2
    after = 0 if args.trace else SETUP_RUNS - 1 - before

    def setup_only():
        return child(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]

    setups = [setup_only() for _ in range(before)]
    budget = BUDGET_S - (time.monotonic() - started) - after * SETUP_TIMEOUT_S
    result = child(args, spans_out, budget)
    setups.append(result["metrics"]["setup_s"])
    setups += [setup_only() for _ in range(after)]
    measured = result["per_layer"] if args.trace else result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)

    names = declared()["per_layer" if args.trace else "end_to_end"]
    units = result["units"]
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
             f"trace {args.trace}  size {args.size}"]
    for name, value in measured.items():
        lines.append(f"  {name:<56} {value:>16.6g} {units[name]}")
    lines.append(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    lines.append("  environment: " + json.dumps(result["environment"], sort_keys=True))
    missing = [m for m in names if m not in measured]
    if missing:
        raise BenchError(f"{args.workload}: metrics not measured: {missing}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": measured[m], "unit": units[m]} for m in names},
    }
    return lines, line


def main(argv=None):
    workloads = declared()["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cauchypairs" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    status = 0
    for name in workloads if args.workload == "all" else [args.workload]:
        try:
            lines, line = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines))
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
