#!/usr/bin/env python3
"""Kolmogorov distance between empirical spectra and the solved limit law.

Grows p at fixed aspect ratio and prints one row per dimension, so the
expected shrink of the gap is visible directly:

    python scripts/esd_convergence.py --rho 0.5 --c 0.5 --dims 50 100 200
"""

from __future__ import annotations

import argparse
import sys
import time

from quadvar.models import GaussianAR1
from quadvar.spectral import (
    SpectralModel,
    effective_spectral_model,
    kolmogorov_distance,
    limit_cdf,
    sample_covariance_matrix,
    symmetric_eigenvalues,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rho", type=float, default=0.5, help="AR(1) coefficient of the columns")
    parser.add_argument("--c", type=float, default=0.5, help="aspect ratio p/n")
    parser.add_argument("--dims", type=int, nargs="+", default=[50, 100, 200])
    parser.add_argument("--atoms", type=float, nargs="+", default=[1.0],
                        help="population eigenvalues, equally weighted")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    weight = 1.0 / len(args.atoms)
    law = SpectralModel(atoms=tuple((lam, weight) for lam in args.atoms), c=args.c)
    model = GaussianAR1(rho=args.rho)
    effective = effective_spectral_model(model, law)
    cdf = limit_cdf(effective)

    print(f"{'p':>6s} {'n':>6s} {'ks':>10s} {'seconds':>8s}")
    previous = None
    for p in args.dims:
        n = int(round(p / args.c))
        start = time.perf_counter()
        S = sample_covariance_matrix(model, law, p, n, args.seed)
        ks = kolmogorov_distance(symmetric_eigenvalues(S), cdf)
        elapsed = time.perf_counter() - start
        marker = ""
        if previous is not None and ks >= previous:
            marker = "  (no improvement)"
        print(f"{p:6d} {n:6d} {ks:10.5f} {elapsed:8.2f}{marker}")
        previous = ks
    return 0


if __name__ == "__main__":
    sys.exit(main())
