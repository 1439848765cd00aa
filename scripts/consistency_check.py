#!/usr/bin/env python3
"""Root-n consistency check for both estimation stages.

Doubles the sample size twice and reports the RMSE of the first-stage mean
estimate and of the second-stage initial covariance estimate; each doubling
should shrink the RMSE by roughly 1/sqrt(2).

Example:

    python scripts/consistency_check.py --n 1000 2000 4000 --replications 300
"""

import argparse
import sys

import numpy as np

from rcreg import SecondStage, SimConfig, dgp_sample, true_moments


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[1000, 2000, 4000])
    ap.add_argument("--p", type=int, default=6)
    ap.add_argument("--replications", type=int, default=300)
    ap.add_argument("--seed", type=int, default=18)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"{'n':>8} {'rmse(mu)':>12} {'rmse(init)':>18}")
    prev = None
    for n in args.n:
        cfg = SimConfig(n=n, p=args.p, seed=args.seed, lam=0.0)
        mu_star, sigma_star = true_moments(cfg)
        mu_errs, sig_errs = [], []
        for i in range(args.replications):
            stage = SecondStage.from_data(dgp_sample(cfg, i))
            mu_errs.append(np.sum((stage.mu_hat - mu_star) ** 2))
            sig_errs.append(np.sum((stage.init - sigma_star) ** 2))
        rm, rs = np.sqrt(np.mean(mu_errs)), np.sqrt(np.mean(sig_errs))
        note = ""
        if prev is not None:
            note = f"   ratios {rm / prev[0]:.3f} / {rs / prev[1]:.3f}"
        print(f"{n:>8} {rm:>12.4f} {rs:>18.4f}{note}")
        prev = (rm, rs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
