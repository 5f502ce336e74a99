"""Survey Hausdorff dimension estimates across a family of Cantor products.

Prints the dimension bracket of ``cantor.dimension_estimate`` for each
(branching, contraction) pair and for its snowflake transforms, next to
log n / log(1/theta).  A rational dimension is an exact pair (width 0); an
irrational one is a float bracket 2^-39 wide, relative.
"""

import argparse
from fractions import Fraction
from math import log

from ultrametric import cantor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=10)
    ap.add_argument("--tolerance", type=float, default=1e-8)
    args = ap.parse_args()

    cases = [
        (2, Fraction(1, 2)),
        (2, Fraction(1, 3)),
        (3, Fraction(1, 3)),
        (3, Fraction(1, 5)),
        (5, Fraction(1, 2)),
    ]
    print(f"{'n':>3} {'theta':>6} {'closed form':>12} {'estimate':>22} {'snowflake a=2':>22}")
    for n, theta in cases:
        spec = cantor.ProductSpec.geometric((n,) * args.depth, theta)
        lo, hi = map(float, cantor.dimension_estimate(spec, args.tolerance))
        slo, shi = map(float, cantor.dimension_estimate(cantor.snowflake(spec, 2), args.tolerance))
        exact = log(n) / log(1 / theta)
        print(
            f"{n:>3} {str(theta):>6} {exact:>12.8f} "
            f"[{(lo + hi) / 2:.8f} +/- {(hi - lo) / 2:.1e}] "
            f"[{(slo + shi) / 2:.8f} +/- {(shi - slo) / 2:.1e}]"
        )


if __name__ == "__main__":
    main()
