#!/usr/bin/env python3
"""Sweep the collar Dirichlet eigenvalue toward its 1/4 floor.

For a fixed core length, solves the collar problem over a range of
half-widths and prints lambda1 next to the rigorous lower bound
1/4 + (pi / 2w)^2, showing the slow approach to 1/4 as the collar
widens (the bound makes values inside (0.25, 0.251) impossible until
w is in the tens).

Example:
    python3 scripts/collar_limit_sweep.py --length 0.1 \
        --widths 1,2,4,8,12,24,50,100
"""
import argparse
import math
import sys

from hypspec.spectral import collar_dirichlet_lambda1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=float, default=0.1)
    ap.add_argument(
        "--widths", default="1,2,4,8,12,24,50,100", help="comma-separated half-widths"
    )
    ap.add_argument("--output", default=None)
    args = ap.parse_args(argv)

    widths = [float(tok) for tok in args.widths.split(",") if tok]
    lines = ["half_width,lambda1,floor,excess_over_quarter"]
    for w in widths:
        lam = collar_dirichlet_lambda1(args.length, w)
        floor = 0.25 + (math.pi / (2.0 * w)) ** 2
        lines.append(f"{w:.12g},{lam:.12g},{floor:.12g},{lam - 0.25:.12g}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
