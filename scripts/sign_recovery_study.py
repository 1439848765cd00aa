#!/usr/bin/env python3
"""Desk-scale sign-recovery study over sample sizes, dimensions and laws.

For every (n, p, covariate law) combination this tunes the penalty on pilot
datasets, runs the Monte Carlo, and prints one row with the tuned penalty,
the sign-recovery rate and the false positive/negative histograms.  A CSV
with the same rows is written when --out is given.

Example:

    python scripts/sign_recovery_study.py --n 2000 5000 10000 --p 6 10 \
        --replications 200 --seed 91 --out study.csv
"""

import argparse
import csv
import sys
import time

from rcreg import CovariateLaw, SimConfig, monte_carlo


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2000, 5000, 10000])
    ap.add_argument("--p", type=int, nargs="+", default=[6])
    ap.add_argument(
        "--law", nargs="+", default=["uniform_interval"],
        choices=[law.value for law in CovariateLaw],
    )
    ap.add_argument("--replications", type=int, default=200)
    ap.add_argument("--pilots", type=int, default=100)
    ap.add_argument("--seed", type=int, default=91)
    ap.add_argument("--out", default=None, help="optional CSV destination")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = []
    header = ("law", "p", "n", "lambda", "recovery_rate", "fp_histogram", "fn_histogram")
    print(" ".join(f"{h:>14}" for h in header[:5]), " fp / fn histograms")
    for law in args.law:
        for p in args.p:
            for n in args.n:
                t0 = time.perf_counter()
                cfg = SimConfig(
                    n=n, p=p, covariate_law=law, lam=None, seed=args.seed,
                    replications=args.replications, pilot_replications=args.pilots,
                )
                report = monte_carlo(cfg)
                rows.append(
                    (law, p, n, report.lambda_used, report.sign_recovery_rate,
                     dict(report.fp_histogram), dict(report.fn_histogram))
                )
                print(
                    f"{law:>14} {p:>14} {n:>14} {report.lambda_used:>14.3f} "
                    f"{report.sign_recovery_rate:>14.3f}  "
                    f"{report.fp_histogram} / {report.fn_histogram}"
                    f"   [{time.perf_counter() - t0:.0f}s]"
                )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
