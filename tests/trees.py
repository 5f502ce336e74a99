"""Random weighted trees for the randomized tests of the maximal inequalities."""

import random
from fractions import Fraction

from ultrametric.cantor import ProductSpec
from ultrametric.harmonic import FiniteUltraTree


def random_tree(spec: ProductSpec, rng: random.Random) -> FiniteUltraTree:
    """Random positive mu and nonnegative nu, numerators up to 8, for randomized audits."""
    m = spec.cumulative(spec.depth)
    mu = tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(m))
    nu = tuple(Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for _ in range(m))
    return FiniteUltraTree(spec, mu, nu)
