#!/usr/bin/env python3
"""Genus-scaling experiment on the equal-length chain family.

Computes the network surrogate gap, the Rayleigh upper bound (balanced
central cut), and the Cheeger lower bound across a genus sweep, then
reports the fitted constants for two candidate normalizations of
lambda1 against L1:

    g^2 / L1            (the asymptotic prediction, constants free)
    (2g - 2)^2 / L1     (pants count; flat already at desk scale)

Example:
    python3 scripts/scaling_study.py --genus-list 4,8,16,32,64 \
        --length 0.09 --output scaling.csv
"""
import argparse
import math
import sys

from hypspec.spectral import scaling_rows_to_csv, scaling_study


def geometric_mean(xs):
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus-list", default="4,8,16,32,64")
    ap.add_argument("--length", type=float, default=0.09)
    ap.add_argument("--epsilon", type=float, default=0.05)
    ap.add_argument("--output", default=None, help="write the CSV here")
    args = ap.parse_args(argv)

    genus_list = [int(tok) for tok in args.genus_list.split(",") if tok]
    rows = scaling_study(genus_list, args.length, args.epsilon)
    csv_text = scaling_rows_to_csv(rows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    by_g2 = [r.normalized_gap for r in rows]
    by_pants = [r.network_lambda1 * (2 * r.genus - 2) ** 2 / r.l1 for r in rows]
    print(f"# rows: {len(rows)}  (l = {args.length}, eps = {args.epsilon})",
          file=sys.stderr)
    for label, xs in (("g^2", by_g2), ("(2g-2)^2", by_pants)):
        c = geometric_mean(xs)
        spread = max(xs) / min(xs)
        print(
            f"# lambda1 * {label} / L1: fitted C = {c:.6f}, "
            f"spread (max/min) = {spread:.4f}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
