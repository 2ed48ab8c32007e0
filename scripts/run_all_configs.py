#!/usr/bin/env python3
"""Run every bundled config and report one pass/fail line each.

Exit status is 0 only if every config's in-record assertions pass, which
makes this script usable as a cheap end-to-end check:

    python scripts/run_all_configs.py [--configs DIR ...] [--out DIR] [--check DIR]

``--configs`` takes one or more directories (the bundled ``configs/`` by
default) and runs every ``*.json`` in each, in the order given.  Each
config's CSV is named after its file, so two configs with one file name
exit 2 before anything runs.

With ``--check DIR`` each config's CSV is also compared by sha256 with the
file of the same name in DIR (as an earlier ``--out DIR`` wrote it), and any
difference or missing file makes the exit status 1: run it with ``--out``
on one version of the code and with ``--check`` on another to show that a
change keeps every emitted byte.  A file that differs is followed by up to
10 of its differing cells, one a line as ``row, column: old -> new`` (row 1
is the first record, row 0 the header).

Each line also gives the process's peak resident set size so far (Linux
``ru_maxrss``, in MiB); as the configs run in one process, the first line
where it jumps names the config that sets the peak.  Next to it is the
number of minor page faults the config's load and run took (the
``ru_minflt`` delta): memory that is allocated, touched and handed back to
the system again and again faults anew each time, so churn shows there
even when the peak does not move.
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
        nargs="+",
        default=[Path(__file__).resolve().parent.parent / "configs"],
        help="directories holding *.json configs",
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

    paths = []
    for directory in args.configs:
        found = sorted(directory.glob("*.json"))
        if not found:
            print(f"no configs found under {directory}", file=sys.stderr)
            return 2
        paths += found
    first = {}
    for path in paths:
        if first.setdefault(path.name, path) != path:
            clash = f"{first[path.name]} and {path} would both write {path.stem}.csv"
            print(clash, file=sys.stderr)
            return 2

    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        out = args.out if args.out is not None else Path(scratch)
        for path in paths:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            cfg = load_config(path)
            records = run(cfg)
            elapsed = time.perf_counter() - start
            usage = resource.getrusage(resource.RUSAGE_SELF)
            faults = usage.ru_minflt - faults
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
            print(
                f"{path.name:32s} {cfg.experiment:16s} "
                f"{len(records):3d} record(s)  {elapsed:6.2f}s  "
                f"peak {usage.ru_maxrss / 1024.0:6.1f} MiB  faults {faults:6d}  {status}"
            )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
