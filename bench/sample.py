"""One benchmark sample: a fresh process that pays what a ``quadvar`` call pays.

bench/run.py starts it as

    python3 bench/sample.py --workload NAME --seed N --out DIR --launched T
                            [--setup-only] [--trace]

where T is the parent's ``time.perf_counter()`` just before the launch (on
Linux both processes read the same monotonic clock). The sample imports
quadvar from the checkout's ``src/``, loads and hashes every config of the
workload, then runs each once through ``quadvar.runner.run``, which emits
its records to DIR. It prints one JSON object: set-up time, pass time, peak
RSS, per-config outcome and the sha256 of every emitted file, plus the
per-layer metrics when traced.
"""

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _outcome(name: str, cfg, config_hash: str, result) -> dict:
    """Per-config outcome: an exception, failed assertions, or the digest."""
    if isinstance(result, BaseException):
        return {"config": name, "error": f"{type(result).__name__}: {result}"}
    failed = sorted(
        {
            key
            for record in result
            for key, value in record.metrics.items()
            if key.startswith("assert_") and value != 1
        }
    )
    data = Path(cfg.out).read_bytes()
    return {
        "config": name,
        "experiment": cfg.experiment,
        "config_hash": config_hash,
        "records": len(result),
        "failed_asserts": failed,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--launched", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import quadvar
    from quadvar import config, runner

    if Path(quadvar.__file__).resolve().parent != ROOT / "src" / "quadvar":
        print(f"sample: quadvar imported from {quadvar.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    args.out.mkdir(parents=True, exist_ok=True)
    loaded = []
    for path in workloads.config_paths(args.workload):
        overrides = {"seed": args.seed, "out": str(args.out / f"{path.stem}.csv")}
        cfg = config.load_config(path, overrides=overrides)
        loaded.append((path.stem, cfg, cfg.config_hash))
    setup_s = perf_counter() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results = []
    pass_start = perf_counter()
    for _, cfg, _ in loaded:
        try:
            results.append(runner.run(cfg))
        except Exception as exc:  # a failed config is counted, not fatal
            results.append(exc)
    pass_end = perf_counter()

    sample = {
        "setup_s": setup_s,
        "pass_s": pass_end - pass_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "configs": [
            _outcome(*entry, result) for entry, result in zip(loaded, results)
        ],
    }
    if tracer is not None:
        sample["layers"] = tracer.report(pass_start, pass_end)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
