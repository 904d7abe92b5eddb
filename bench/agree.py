"""Agreement check: do two sets of runs of the same code agree within the
bounds that BENCHMARK.json declares?

    python3 bench/agree.py --runs 10
    python3 bench/agree.py --runs 5 --workloads dev4-cli

Runs `bench/run.py` (trace 0) `--runs` times per set and workload, each run
with its own seed, alternating between the two sets.  For each end-to-end
metric and workload it prints the median, the quartiles
(`statistics.quantiles`, n=4) and the spread, the interquartile distance as
a share of the median.  The sets agree on a metric when both spreads are
within the metric's bound and the second median is not worse than the first
by more than the bound.  `setup_s` is held to the second condition only:
it is mostly import time, and on a shared 2-vCPU VM its spread reached 0.28
in a set of 10 runs whose wall times stayed within their bound.  The per-run values and the summary go to `--out` as
JSON.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
SEED_BASE = 1000


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, proc.stdout.splitlines()[-2]  # the environment line


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(spec, first, second):
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if spec["better"] == "lower" else -change


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "agree.json"))
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "runs_per_set": args.runs, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for s in range(SETS):
                seed = SEED_BASE + s * args.runs + i
                started = time.monotonic()
                line, env = one_run(workload, seed, args.seconds)
                line["seed"] = seed
                line["elapsed_s"] = time.monotonic() - started
                runs[s].append(line)
                ok = ok and line["correct"]
                print(f"{workload} set {s} seed {seed}: correct {line['correct']} "
                      f"in {line['elapsed_s']:.1f} s", flush=True)
        entry = {"environment": env.strip(), "runs": runs, "metrics": {}}
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'bound':>6}  " + "  ".join(
            f"{'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}" for _ in runs)
            + "  worse_by agree")
        for name, m in metrics.items():
            sets = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            row = {"sets": sets,
                   "worse_by": worse_by(m, sets[0]["median"], sets[1]["median"])}
            steady = name == "setup_s" or all(s["spread"] <= m["bound"] for s in sets)
            row["agree"] = steady and row["worse_by"] <= m["bound"]
            ok = ok and row["agree"]
            cells = "  ".join(f"{s['median']:>11.5g} {s['q1']:>11.5g} {s['q3']:>11.5g} "
                              f"{s['spread']:>7.3f}" for s in sets)
            verdict = f"  {row['worse_by']:>8.3f} {row['agree']}"
            print(f"  {name:<14} {m['bound']:>6}  {cells}{verdict}")
            entry["metrics"][name] = row
        report["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n{'all checks hold' if ok else 'some checks fail'}; details in {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
