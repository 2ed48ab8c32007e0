"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 1] [--write FILE]

Runs ``bench/run.py`` once per seed on every workload of BENCHMARK.json, one
run at a time, with its ``run_seconds``. For every metric it prints the median
of the runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound. ``--write`` saves the medians, quartiles, every
run's values and the environment fingerprint as JSON, which is how
bench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary: dict = {"seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.trace)
            runs.append(result)
            summary["env"] = env
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else None
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            bound = bounds.get(name)
            print(f"  {name:<34} {median:<12.6g} {metrics[name]['unit']:<6} spread "
                  f"{'-' if spread is None else format(spread, '.4f')}"
                  f"{'' if bound is None else f' (bound {bound})'}", flush=True)
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(f"  {'fail_frac':<34} {failed / attempted:.6g} ratio ({failed}/{attempted})")
        summary["workloads"][workload] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
