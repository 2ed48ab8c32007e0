#!/usr/bin/env python3
"""Monte Carlo MSE of the long-run variance estimator across bandwidths.

Holds n fixed and sweeps m, printing the measured MSE next to the two
bound terms whose crossover drives the optimal bandwidth:

    python scripts/bandwidth_tradeoff.py --n 8000 --bandwidths 2 8 32 128

The arguments are checked as the ``lrv_mse`` config they describe, whose
``sweep[i]`` is ``[--n, bandwidth i]``: anything that config would refuse,
such as replicates x bandwidths past the size cap or a --rho so near 1
that its autocovariance support is, exits 2 naming its field before
anything is drawn.  The rows are the records ``run`` gives for that config.
"""

from __future__ import annotations

import argparse
import json
import sys

from quadvar.config import ConfigError, validate
from quadvar.runner import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=8000)
    parser.add_argument("--bandwidths", type=float, nargs="+", default=[2.0, 8.0, 32.0, 128.0])
    parser.add_argument("--kernel", default="bartlett", help="a named kernel, e.g. parzen")
    parser.add_argument("--replicates", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = {
        "experiment": "lrv_mse",
        "seed": args.seed,
        "replicates": args.replicates,
        "model": {"name": "gaussian_ar1", "rho": args.rho},
        "kernel": {"name": args.kernel},
        "sweep": [[args.n, m] for m in args.bandwidths],
    }
    try:
        cfg = validate(json.dumps(config))
    except ConfigError as exc:
        parser.error(f"as an lrv_mse config: {exc}")
    rows = [record.metrics for record in run(cfg)]

    print(f"true long-run variance: {rows[0]['sigma2_true']:.6f}")
    print(f"{'m':>8s} {'mc_mse':>12s} {'var_bound':>12s} {'sq_bias':>12s}")
    for row in rows:
        print(
            f"{row['m']:8.1f} {row['mc_mse']:12.6f} "
            f"{row['variance_bound_c_free']:12.6f} {row['squared_bias_leading']:12.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
