"""Command-line entry point.

Usage:  quadvar <experiment> --config <path> [--out <path>]
                [--format csv|json] [--seed <u64>]

Exit codes: 0 all in-config assertions pass, 1 an assertion failed,
2 config or I/O error (argparse usage errors also exit 2).
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, load_config
from .runner import assertions_pass, run
from .spectral import ConvergenceError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadvar",
        description="Run a seeded experiment from a JSON config and report pass/fail.",
    )
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="write records here")
    parser.add_argument(
        "--format", default=None, choices=("csv", "json"), help="output format (default csv)"
    )
    parser.add_argument("--seed", default=None, type=int, help="seed override (u64)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            overrides={"seed": args.seed, "out": args.out, "format": args.format},
        )
    except OSError as exc:
        print(f"quadvar: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"quadvar: invalid config: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment != args.experiment:
        print(
            f"quadvar: config declares experiment {cfg.experiment!r}, "
            f"command line says {args.experiment!r}",
            file=sys.stderr,
        )
        return 2

    try:
        records = run(cfg)
    except OSError as exc:
        print(f"quadvar: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError) as exc:
        print(f"quadvar: experiment failed: {exc}", file=sys.stderr)
        return 1

    ok = assertions_pass(records)
    checks = sum(
        1 for r in records for k in r.metrics if k.startswith("assert_")
    )
    print(
        f"{cfg.experiment}: {len(records)} record(s), {checks} assertion(s), "
        f"{'pass' if ok else 'FAIL'} [hash {records[0].config_hash[:12]}]"
    )
    if cfg.out is not None:
        print(f"wrote {cfg.fmt} to {cfg.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
