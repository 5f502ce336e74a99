"""Randomized audit of the weak-type maximal inequalities.

Draws random (mu, nu) weighted trees and checks the C1 = 1 bound at every
value of M, then contrasts the interval model where the stored three-atom
family refutes C1 = 1 while C1 = 2 survives.  A failed check prints its
threshold and exits 1, also under ``python -O``.

The ratio t mu{M > t} / nu(X) is below 1 at every t > 0, and on every
tree with nu != 0 its supremum over t is exactly 1, approached as t rises
to nu(X) / mu(X); the maximum printed over the values of M is therefore
no sharper constant.
"""

import argparse
import random
import sys
from fractions import Fraction

from ultrametric import cantor, harmonic


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--depth", type=int, default=5)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    spec = cantor.ProductSpec.geometric((2,) * args.depth, Fraction(1, 2))
    leaves = spec.cumulative(spec.depth)
    worst = Fraction(0)
    checks = 0
    for _ in range(args.trials):
        # positive mu and nonnegative nu, numerators up to 8
        mu = tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(leaves))
        nu = tuple(Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for _ in range(leaves))
        tree = harmonic.FiniteUltraTree(spec, mu, nu)
        m = harmonic.maximal_function(tree)
        nu_total = sum(tree.nu, Fraction(0))
        for t in sorted(set(m)):
            if t <= 0:
                continue
            rep = harmonic.weak_type_verify(tree, t)
            if not rep["holds"]:
                print(f"C1 = 1 fails at t = {t}: mu{{M > t}} = {rep['lhs']} > {rep['rhs']}")
                sys.exit(1)
            if nu_total:
                worst = max(worst, rep["lhs"] * t / nu_total)
            checks += 1
    print(f"trees: {args.trials}, threshold checks: {checks}, all pass with C1 = 1")
    print(f"max over the values t of M of mu{{M > t}} t / nu(X) = {worst} "
          "(over all t > 0 the supremum is 1 when nu != 0)")

    g, t = harmonic.adversarial_grid()
    one = harmonic.grid_weak_type(g, t, C1=1)
    two = harmonic.grid_weak_type(g, t, C1=2)
    print(
        f"interval model at t = {t}: C1=1 gives {one['lhs']} <= {one['rhs']} -> {one['holds']}, "
        f"C1=2 gives {two['lhs']} <= {two['rhs']} -> {two['holds']}"
    )


if __name__ == "__main__":
    main()
