#!/usr/bin/env python3
"""Ratio table and smooth-density decay report.

Builds the exact table comparing the shifted-smooth prime fraction
Pi(z, y)/pi(z) with the smooth-integer fraction Psi(z, y)/z over a grid of
z values, then reports the observed decay exponent of Psi(z, y)/z at
y = round(exp(sqrt(log z))).

Usage: python scripts/conjecture_report.py [--zmax 10^6] [--y-rule hild]
"""

import argparse
import sys
import time

from nc_forge.cli import parse_natural, parse_y_rule
from nc_forge.sieve import build_tables
from nc_forge.smoothness import conjecture_table, hildebrand_report, rows_to_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--zmax", default="10^6", help="largest z (powers of 10 below it are used)")
    ap.add_argument("--y-rule", default="hild", dest="y_rule", help="fixed:y, power:u, or hild")
    args = ap.parse_args()

    zmax = parse_natural(args.zmax)
    rule = parse_y_rule(args.y_rule)
    zs = []
    z = 100
    while z <= zmax:
        zs.append(z)
        z *= 10

    t0 = time.time()
    tables = build_tables(zmax)
    print(f"# tables to {zmax} in {time.time() - t0:.1f}s", file=sys.stderr)

    sys.stdout.write(rows_to_csv(conjecture_table(zs, rule, tables)))

    print("\n# smooth-density decay at y = round(exp(sqrt(log z)))")
    print("z,y,psi,ratio,exponent")
    for row in hildebrand_report(zs, tables):
        print(f"{row.z},{row.y},{row.psi},{row.ratio:.6g},{row.exponent:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
