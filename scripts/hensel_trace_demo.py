"""Show the quadratic convergence of Hensel lifting on a few polynomials.

For each case the residual valuations v_p(f(x_j)) are printed per Newton
step; doubling (or better) per step is the quadratic contraction at work.
The lifted root is cross-checked against the digit-by-digit search oracle.
"""

import argparse

from ultrametric import errors, hensel, padic


CASES = [
    ("x^2 - 17 over Z_2", 2, [-17, 0, 1], 1),
    ("x^2 - 7 over Z_3", 3, [-7, 0, 1], 1),
    ("x^2 - 2 over Z_7", 7, [-2, 0, 1], 3),
    ("x^3 + x - 3 over Z_5", 5, [-3, 1, 0, 1], 4),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prec", type=int, default=20)
    args = ap.parse_args()

    for label, p, coeffs, x0 in CASES:
        f = hensel.ZpPoly.from_rationals(coeffs, p, args.prec)
        point = padic.PAdicInt(p, args.prec, x0)
        try:
            root, trace = hensel.hensel_v1(f, point)
        except errors.HenselPreconditionFailed:
            root, trace = hensel.hensel_v2(f, point)
        oracle = hensel.roots_by_digit_search(f, args.prec, constraint=lambda r: r == x0 % p)
        print(label)
        print(f"  root = {root.residue} mod {p}^{args.prec}")
        print(f"  residual valuations per step: {trace.valuations}")
        print(f"  digit-search oracle agrees: {root.residue in oracle}")


if __name__ == "__main__":
    main()
