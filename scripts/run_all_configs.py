#!/usr/bin/env python3
"""Run every bundled config and report one pass/fail line each.

Exit status is 0 only if every config's in-record assertions pass, which
makes this script usable as a cheap end-to-end check:

    python scripts/run_all_configs.py [--configs DIR] [--out DIR] [--check DIR]

With ``--check DIR`` each config's CSV is also compared by sha256 with the
file of the same name in DIR (as an earlier ``--out DIR`` wrote it), and any
difference or missing file makes the exit status 1: run it with ``--out``
on one version of the code and with ``--check`` on another to show that a
change keeps every emitted byte.  A file that differs is followed by up to
10 of its differing cells, one a line as ``row, column: old -> new`` (row 1
is the first record, row 0 the header).

Each line also gives the process's peak resident set size so far (Linux
``ru_maxrss``, in MiB); as the configs run in one process, the first line
where it jumps names the config that sets the peak.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import resource
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

from quadvar.config import load_config
from quadvar.runner import assertions_pass, emit, run


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _differing_cells(old: Path, new: Path, limit: int = 10) -> list[str]:
    """Up to ``limit`` cells that differ between two CSV files, as
    ``row, column: old -> new``; a cell one file lacks reads as (none)."""
    with open(old, newline="", encoding="utf-8") as a, open(new, newline="", encoding="utf-8") as b:
        old_rows, new_rows = list(csv.reader(a)), list(csv.reader(b))
    header = max(old_rows[:1] + new_rows[:1], key=len, default=[])
    cells = []
    for r, (o, n) in enumerate(zip_longest(old_rows, new_rows, fillvalue=[])):
        for c, (before, after) in enumerate(zip_longest(o, n, fillvalue="(none)")):
            if before != after:
                column = header[c] if c < len(header) else str(c)
                cells.append(f"  {r}, {column}: {before} -> {after}")
    if len(cells) > limit:
        cells[limit:] = [f"  ... {len(cells) - limit} more"]
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--configs",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "configs",
        help="directory holding *.json configs",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write <name>.csv per config here"
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        help="compare each <name>.csv with the file of that name here by sha256",
    )
    args = parser.parse_args()

    paths = sorted(args.configs.glob("*.json"))
    if not paths:
        print(f"no configs found under {args.configs}", file=sys.stderr)
        return 2

    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        out = args.out if args.out is not None else Path(scratch)
        for path in paths:
            start = time.perf_counter()
            cfg = load_config(path)
            records = run(cfg)
            elapsed = time.perf_counter() - start
            ok = assertions_pass(records)
            status = "pass" if ok else "FAIL"
            if args.out is not None or args.check is not None:
                out.mkdir(parents=True, exist_ok=True)
                emitted = out / (path.stem + ".csv")
                emit(records, "csv", emitted)
            if args.check is not None:
                reference = args.check / emitted.name
                if not reference.is_file():
                    ok, status = False, f"{status}  MISSING {reference}"
                elif _sha256(reference) != _sha256(emitted):
                    ok, status = False, f"{status}  BYTES DIFFER from {reference}"
                    status = "\n".join([status, *_differing_cells(reference, emitted)])
                else:
                    status = f"{status}  same bytes"
            failures += 0 if ok else 1
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(
                f"{path.name:32s} {cfg.experiment:16s} "
                f"{len(records):3d} record(s)  {elapsed:6.2f}s  "
                f"peak {peak_mib:6.1f} MiB  {status}"
            )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
