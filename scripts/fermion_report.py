#!/usr/bin/env python3
"""Report the Stieltjes-Wigert fermion identity data: the x-independent
expansion/oracle constant and the ratio between the moment-determinant
partition function and the q-factorial product formula, for a range of M.

The ratio comes out as the pure power u^(-M^3) = q^(-M^3/2) on every tested
size, quantifying the normalization gap between the two conventions.
"""

import argparse

from schurkernels.painleve import sw_fermion_constant, sw_zm_ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=4)
    ap.add_argument("--n", type=int, default=1)
    args = ap.parse_args()
    if args.n < 0:
        ap.error("--n must be >= 0")

    print(f"{'M':>3s}  {'expansion/oracle constant':30s}  hankel/product ratio")
    for m in range(1, args.max_m + 1):
        const = sw_fermion_constant(m, args.n)
        ratio = sw_zm_ratio(m)
        print(f"{m:3d}  {str(const):30s}  {ratio}")


if __name__ == "__main__":
    main()
