"""quadvar benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload monte_carlo --seed 1 --seconds 60 --trace 0

Workloads are defined in bench/workloads.py. Every sample is a fresh
single-threaded process (bench/sample.py) that imports quadvar from ``src/``,
validates and hashes the workload's configs and runs each once through
``quadvar.runner.run``, emitting to a file: what a ``quadvar`` CLI user pays
on every call. Samples run one at a time.

``--trace 0`` reports the end-to-end metrics:

    setup_s      median wall time from launching a sample process until
                 quadvar is imported and every config is validated and
                 hashed
    wall_s       median wall time of one pass over the configs (run + emit)
    peak_rss_mb  median ru_maxrss of the sample processes, MiB

A pass takes about three seconds, so a run holds 14 to 23 samples and its
medians ride out the swings in speed of a shared host that last a few
seconds. Samples start until the next one would end after ``--seconds``.

``--trace 1`` runs untraced and traced samples in ABBA blocks until
``--seconds`` is used (at least one block) and reports the per-layer metrics
of bench/tracer.py, the medians of the traced samples, plus
trace.overhead_frac (median traced pass over median untraced pass, minus one).

Both modes check correctness. A config execution fails on an exception, on a
record with an ``assert_*`` equal to 0, or when its emitted file's sha256
differs from another sample of the same workload, seed and sources; digests
are kept in .bench_out/digests so later runs in the same checkout are
compared too. In trace mode the counts must also repeat exactly across the
traced samples. The command prints every metric by name with its unit,
fail_frac (failed over attempted executions), the per-config digests and an
environment fingerprint; its last line is one JSON object with keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 3
# No sample starts after this many seconds from the start of the run, and
# none may take longer than SAMPLE_TIMEOUT_S, so a run ends inside 180 s.
LAUNCH_DEADLINE_S = 100.0
SAMPLE_TIMEOUT_S = 60.0
# Self times of nested spans add up to the duration of their root span, so
# trace.unaccounted_frac only measures the gaps between root spans (the
# runner.run calls) inside the pass. It cannot see untraced hot code: that
# time lands in the self time of its nearest traced caller, often
# runner.self_s, which is printed as a share of the traced pass.
MAX_UNACCOUNTED = 0.01


def source_digest() -> str:
    """sha256 over the package sources and the workload configs."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(workloads.CONFIG_ROOT.rglob("*.json"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(env: dict) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: env[name] for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
    }


def launch(workload: str, seed: int, out: Path, env: dict, *flags: str) -> dict | None:
    """Run one sample process to completion; None if it did not report."""
    command = [
        sys.executable, str(BENCH / "sample.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), *flags,
    ]
    launched = perf_counter()
    try:
        done = subprocess.run(
            [*command, "--launched", repr(launched)],
            capture_output=True, text=True, env=env, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"sample exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def judge(samples: list[dict], reference: dict[str, str]) -> list[str]:
    """Failed config executions, one line each. ``reference`` maps config to
    digest; a config without one takes the first clean digest seen."""
    failures = []
    for index, sample in enumerate(samples):
        for outcome in sample["configs"]:
            name = outcome["config"]
            if "error" in outcome:
                failures.append(f"sample {index} {name}: {outcome['error']}")
                continue
            if outcome["failed_asserts"]:
                failures.append(f"sample {index} {name}: {outcome['failed_asserts']} = 0")
                continue
            expected = reference.setdefault(name, outcome["sha256"])
            if outcome["sha256"] != expected:
                failures.append(f"sample {index} {name}: sha256 {outcome['sha256']} != {expected}")
    return failures


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "quadvar" / "__init__.py").is_file():
        print(f"run: no quadvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config_count = len(workloads.config_paths(args.workload))
    if config_count == 0:
        print(f"run: workload {args.workload} has no configs", file=sys.stderr)
        return 2

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    env.pop("PYTHONPATH", None)
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    untraced: list[dict] = []
    traced: list[dict] = []
    missing = 0
    longest = 0.0

    def sample(into: list, name: str, *flags: str) -> None:
        nonlocal missing, longest
        launched = perf_counter()
        result = launch(args.workload, args.seed, run_dir / name, env, *flags)
        longest = max(longest, perf_counter() - launched)
        if result is None:
            missing += 1
        else:
            into.append(result)

    # A round is one untraced sample, or one ABBA block when tracing, so a
    # steady drift in machine speed cancels from trace.overhead_frac.
    kinds = ("untraced", "traced", "traced", "untraced") if args.trace else ("untraced",)
    start = perf_counter()
    try:
        # Untimed: fills the bytecode and page caches a CLI user has warm.
        launch(args.workload, args.seed, run_dir / "warmup", env, "--setup-only")
        count = 0
        while True:
            elapsed = perf_counter() - start
            enough = count >= MIN_SAMPLES or args.trace and count > 0
            round_s = longest * len(kinds)
            if enough and (elapsed + round_s > args.seconds or elapsed > LAUNCH_DEADLINE_S):
                break
            for kind in kinds:
                if kind == "traced":
                    sample(traced, f"sample{count}", "--trace")
                else:
                    sample(untraced, f"sample{count}")
                count += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        print("run: no sample completed", file=sys.stderr)
        return 1

    source = source_digest()
    digest_file = OUT / "digests" / f"{args.workload}-seed{args.seed}-{source[:16]}.json"
    reference = json.loads(digest_file.read_text()) if digest_file.exists() else {}
    failures = judge(untraced + traced, reference)
    digest_file.parent.mkdir(parents=True, exist_ok=True)
    digest_file.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    attempted = config_count * (len(untraced) + len(traced) + missing)
    failed = len(failures) + config_count * missing
    problems = [f"{missing} sample process(es) did not report"] if missing else []

    if args.trace:
        layers = [s["layers"] for s in traced]
        for name in tracer.COUNTS:
            values = sorted({layer[name] for layer in layers})
            if len(values) > 1:
                problems.append(f"count {name} differs across traced samples: {values}")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_frac"] = (
            median_of(traced, "pass_s") / median_of(untraced, "pass_s") - 1.0
        )
        if not abs(metrics["trace.unaccounted_frac"]) <= MAX_UNACCOUNTED:
            problems.append("per-layer self times do not account for the traced pass")
        units = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": median_of(untraced, "setup_s"),
            "wall_s": median_of(untraced, "pass_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        units = END_TO_END
    fail_frac = failed / attempted

    env_info = fingerprint(env)
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(untraced)} untraced and {len(traced)} traced samples"
    )
    print("  untraced passes (s, in order):", " ".join(f"{s['pass_s']:.4f}" for s in untraced))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    if args.trace:
        share = metrics["runner.self_s"] / median_of(traced, "pass_s")
        print(f"  {'runner.self_s / traced pass':<34} {share:>14.6g} ratio")
    print(f"  {'fail_frac':<34} {fail_frac:>14.6g} ratio ({failed}/{attempted})")
    for name, digest in sorted(reference.items()):
        print(f"  digest {name} {digest}")
    for line in failures + problems:
        print(f"  FAIL {line}")
    print(f"env {json.dumps(env_info, sort_keys=True)}")

    result = {
        "correct": not (failures or problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
