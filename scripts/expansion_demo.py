#!/usr/bin/env python3
"""Print the Schur-expansion coefficient table of a kernel and evaluate the
four representations (expansion / double expansion / Christoffel-Darboux /
Chebyshev) at one rational point pair to display their exact agreement.

Example (the defaults):
    python scripts/expansion_demo.py --ensemble lue --alpha 1 --N 4 --x 3/2 --y 2/3
"""

import argparse
from fractions import Fraction

import mpmath

from schurkernels.ensembles import PARAMS, EnsembleSpec
from schurkernels.kernels import (KernelQuery, expansion_table, k2_chebyshev,
                                  khat_cd, khat_double, khat_schur)
from schurkernels.scalars import DEFAULT_DPS, parse_number, rational_sqrt


def main():
    mpmath.mp.dps = DEFAULT_DPS
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ensemble", default="lue")
    ap.add_argument("--alpha", type=parse_number, default=None,
                    help="default 1 for the kinds that take alpha")
    ap.add_argument("--beta", type=parse_number, default=None)
    ap.add_argument("--N", dest="n_rank", type=int, default=4)
    ap.add_argument("--x", type=parse_number, default=Fraction(3, 2))
    ap.add_argument("--y", type=parse_number, default=Fraction(2, 3))
    args = ap.parse_args()

    kind = args.ensemble.replace("-", "_")
    kwargs = {key: v for key, v in (("alpha", args.alpha), ("beta", args.beta))
              if v is not None}
    if "alpha" in PARAMS.get(kind, ()):
        kwargs.setdefault("alpha", 1)
    try:
        spec = EnsembleSpec(kind, **kwargs)
        q = KernelQuery(spec, args.n_rank, 1, (args.x,), (args.y,))
    except ValueError as exc:
        ap.error(str(exc))

    table = expansion_table(spec, args.n_rank, 1)
    print(f"expansion coefficients <s_lam'> for {spec.kind}, "
          f"N={args.n_rank}, n=1 (rectangle {table.rows} x {table.cols}):")
    for lam, coeff in table.coeffs.items():
        print(f"  {str(list(lam)):12s} -> {coeff}")

    print(f"\nKhat at x={args.x}, y={args.y}:")
    print(f"  schur expansion : {khat_schur(q)}")
    print(f"  double expansion: {khat_double(q)}")
    print(f"  CD determinant  : {khat_cd(q)}")
    xy = args.x * args.y
    if isinstance(xy, (int, Fraction)) and rational_sqrt(xy) is not None:
        print(f"  chebyshev form  : {k2_chebyshev(q)}")
    else:
        print("  chebyshev form  : (xy is not a rational square; skipped)")


if __name__ == "__main__":
    main()
