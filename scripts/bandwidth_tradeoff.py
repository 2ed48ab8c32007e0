#!/usr/bin/env python3
"""Monte Carlo MSE of the long-run variance estimator across bandwidths.

Holds n fixed and sweeps m, printing the measured MSE next to the two
bound terms whose crossover drives the optimal bandwidth:

    python scripts/bandwidth_tradeoff.py --n 8000 --bandwidths 2 8 32 128
"""

from __future__ import annotations

import argparse
import sys

from quadvar.config import ConfigError, check_exact_bias_lags
from quadvar.longrun import Kernel, lrv_true, mc_mse, mse_bound
from quadvar.models import GaussianAR1, dependence_profile, generate_paths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=float, default=0.5)
    parser.add_argument("--n", type=int, default=8000)
    parser.add_argument("--bandwidths", type=float, nargs="+", default=[2.0, 8.0, 32.0, 128.0])
    parser.add_argument("--kernel", default="bartlett", help="a named kernel, e.g. parzen")
    parser.add_argument("--replicates", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    try:
        kernel = Kernel(args.kernel)
    except ValueError as exc:
        parser.error(str(exc))
    model = GaussianAR1(rho=args.rho)
    # the exact bias sums one lag vector per bandwidth: refuse one past the
    # config cap before anything is drawn
    for m in args.bandwidths:
        try:
            check_exact_bias_lags(model, kernel, m, args.n, "--bandwidths")
        except ConfigError as exc:
            parser.error(str(exc))
    profile = dependence_profile(model)
    sigma2 = lrv_true(model)
    paths = generate_paths(model, args.n, args.seed, args.replicates)

    print(f"true long-run variance: {sigma2:.6f}")
    print(f"{'m':>8s} {'mc_mse':>12s} {'var_bound':>12s} {'sq_bias':>12s}")
    for m in args.bandwidths:
        mse = mc_mse(paths, kernel, m, sigma2)
        report = mse_bound(profile, model, kernel, m, args.n)
        print(
            f"{m:8.1f} {mse:12.6f} "
            f"{report.variance_bound_c_free:12.6f} {report.squared_bias_leading:12.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
