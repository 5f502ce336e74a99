"""Covering lemmas, maximal functions, and conditional expectation.

Everything runs on finite models with exact rational weights: the
ultrametric model is a weighted leaf tree over a ProductSpec (balls are
cylinders), the Euclidean model is a finite rational grid on the line
(balls are contiguous index ranges).  Weak-type inequalities hold with
constant 1 on trees and constant 2 on the grid, and both constants are
verified exactly rather than numerically.

Each tree and grid derives its integer masses once, at construction: its
weights as integers over one common denominator per weight vector
(``d_mu``, ``mu_int``, ``d_nu``, ``nu_int``), which every tree and grid
kernel reads.  Ratios compare by cross-multiplication, and the sums of a
depth are taken by stride, the n children of every block as n strided
slices.  The tree maximal function costs O(nodes) (top-down, one ratio
per node) and the grid maximal function O(m^2) (one sweep of right ends
per left end).  Balls are nested or disjoint, so a weak-type check on a
tree is O(nodes): one signed integer sum per ball and one top-down pass
that marks the leaves under a ball where nu/mu > t.  On the grid it is
O(m^2), deciding M(i) > t on M's integer pair.  Each side of either check
is one Fraction.  The L^p bound takes M(|f|) in O(nodes) from the tree
kernel on the integer masses |f| mu, then one Fraction per distinct value
of M or |f| and one power bracket per value and precision.  The layer
cake costs O(n log n): it sorts integer keys over the lcm of g's
denominators, takes one suffix sum over the jumps and one power per
distinct jump.  Conditional expectations and Doob's inequality cost O(n)
integer work per partition, and each builds one Fraction per distinct
value.  A weighted Fraction sum is O(n) integer work and a balanced sum
over its distinct denominators (``_weighted_sum``), so no term carries
the lcm of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress
from math import gcd, lcm
from operator import add, itemgetter, mul, or_, sub

from .cantor import MAX_ROOT_DEGREE, Cylinder, ProductSpec, check_power_budget, pow_bounds
from .errors import (
    CertificationFailed,
    DegenerateMeasure,
    DegeneratePartition,
    ExponentOutOfRange,
    NotNonnegative,
)

# ---------------------------------------------------------------------------
# weighted trees and the uncentered maximal function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteUltraTree:
    """Leaf weights mu (all ball masses positive) and nu over a ProductSpec.

    The weights are also read once, here, as ints over their lcm
    denominators: mu[i] = mu_int[i] / d_mu and nu[i] = nu_int[i] / d_nu.
    Every kernel reads these; equality, hash and repr ignore them.
    """

    spec: ProductSpec
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    d_mu: int = field(init=False, repr=False, compare=False)
    mu_int: tuple[int, ...] = field(init=False, repr=False, compare=False)
    d_nu: int = field(init=False, repr=False, compare=False)
    nu_int: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.spec.cumulative(self.spec.depth)
        mu, nu = tuple(_fractions(self.mu)), tuple(_fractions(self.nu))
        if len(mu) != m or len(nu) != m:
            raise ValueError(f"need {m} leaf weights")
        _set_integer_masses(self, mu, nu)
        if min(self.mu_int + self.nu_int) < 0:
            raise ValueError("weights must be nonnegative")
        if not all(self.mu_int):  # a leaf's ball is the leaf, its mass its own weight
            raise DegenerateMeasure("a leaf has zero mu-mass")

    @property
    def leaves(self) -> int:
        return len(self.mu)


def _fractions(values) -> list[Fraction]:
    """Each value as a Fraction; a Fraction is passed through as it is."""
    return [x if type(x) is Fraction else Fraction(x) for x in values]


def _masses_by(keys, masses) -> dict:
    """The total of the int masses at each distinct key."""
    at: dict = {}
    for k, w in zip(keys, masses):
        at[k] = at.get(k, 0) + w
    return at


def _weighted_sum(values, weights) -> Fraction:
    """sum x w, exact, for Fractions x = n / d and int weights w: n w is added
    into one int per distinct d, then the (d, total) pairs pairwise, in a
    balanced tree, over lcm(d, e); the sum is reduced once, at the end."""
    ratios = list(map(Fraction.as_integer_ratio, values))
    at = _masses_by(map(itemgetter(1), ratios), map(mul, map(itemgetter(0), ratios), weights))
    terms = list(at.items()) or [(1, 0)]
    while len(terms) > 1:
        terms = [(d // g * e, n * (e // g) + m * (d // g)) for (d, n), (e, m) in
                 zip(terms[::2], terms[1::2]) for g in [gcd(d, e)]] + terms[len(terms) & ~1:]
    return Fraction(terms[0][1], terms[0][0])


def _integer_masses(weights) -> tuple[int, list[int]]:
    """(D, [D * w for w in weights]), D the lcm of the denominators.

    Each Fraction is read once through ``as_integer_ratio``, and D // d is
    taken once per distinct denominator d."""
    ratios = list(map(Fraction.as_integer_ratio, weights))
    dens = set(map(itemgetter(1), ratios))
    D = lcm(*dens)
    scale = {d: D // d for d in dens}
    return D, [n * scale[d] for n, d in ratios]


def _set_integer_masses(measure, mu: tuple, nu: tuple) -> None:
    """Store mu and nu on a frozen measure, with their integer masses over
    d_mu and d_nu; each weight is read once."""
    (d_mu, mu_int), (d_nu, nu_int) = _integer_masses(mu), _integer_masses(nu)
    for name, value in (("mu", mu), ("nu", nu), ("d_mu", d_mu), ("mu_int", tuple(mu_int)),
                        ("d_nu", d_nu), ("nu_int", tuple(nu_int))):
        object.__setattr__(measure, name, value)


def _ball_sums(spec: ProductSpec, level: list[int]) -> list[list[int]]:
    """sums[k][r]: the sum of ``level`` over the depth-k cylinder of rank r,
    depth 0 first.  The n children of each block are n strided slices, so
    each depth is n - 1 builtin ``map(add)`` passes."""
    sums = [level]
    for k in range(spec.depth, 0, -1):
        n = spec.factors[k - 1]
        block = level[::n]
        for i in range(1, n):
            block = map(add, block, level[i::n])
        level = list(block)
        sums.append(level)
    sums.reverse()
    return sums


def _repeat_each(values: list, n: int):
    """Each value n times in a row: the parent of every child of a depth."""
    return chain.from_iterable(zip(*(values,) * n))


def _maximal_pairs(spec: ProductSpec, mu, nu) -> list[tuple[int, int]]:
    """Per leaf, the pair (a, b) = (nu(B), mu(B)) of the ball B above it
    where nu/mu is largest, for int leaf masses mu and nu.

    Top-down in O(nodes): M(child) = max(M(parent), nu/mu(child)), one
    ratio per node, compared by cross-multiplication.
    """
    mu, nu = _ball_sums(spec, mu), _ball_sums(spec, nu)
    best = [(nu[0][0], mu[0][0])]
    for k in range(1, spec.depth + 1):
        parents = _repeat_each(best, spec.factors[k - 1])
        best = [(a, b) if a * p[1] > p[0] * b else p for p, a, b in zip(parents, nu[k], mu[k])]
    return best


def maximal_function(tree: FiniteUltraTree) -> list[Fraction]:
    """M(nu)(leaf) = max over ancestor cylinders of nu(B)/mu(B), exact.

    O(nodes) by ``_maximal_pairs`` on the tree's integer masses; each
    Fraction is built at most once per maximizing ball.
    """
    best = _maximal_pairs(tree.spec, tree.mu_int, tree.nu_int)
    d_mu, d_nu = tree.d_mu, tree.d_nu
    fracs = {pair: Fraction(pair[0] * d_mu, pair[1] * d_nu) for pair in set(best)}
    return [fracs[pair] for pair in best]


def _excess(tree: FiniteUltraTree, t: Fraction) -> list[list[int]]:
    """excess[k][r] > 0 iff nu/mu > t on the depth-k cylinder of rank r.

    nu(B)/mu(B) > t  <=>  nu d_mu t.den - mu t.num d_nu > 0 in the integer
    masses, and that signed integer adds over the leaves of B, so one
    ``_ball_sums`` of its leaf values decides every ball.
    """
    c_nu, c_mu = tree.d_mu * t.denominator, t.numerator * tree.d_nu
    leaf = list(map(sub, map(c_nu.__mul__, tree.nu_int), map(c_mu.__mul__, tree.mu_int)))
    return _ball_sums(tree.spec, leaf)


def _positive_threshold(t) -> Fraction:
    """t as a Fraction; ValueError unless t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    return t


def superlevel_cylinders(tree: FiniteUltraTree, t: Fraction) -> list[Cylinder]:
    """{M(nu) > t} as a disjoint union of maximal cylinders."""
    excess = _excess(tree, Fraction(t))
    out: list[Cylinder] = []

    def rec(depth: int, rank: int, digits: tuple[int, ...]):
        if excess[depth][rank] > 0:
            out.append(Cylinder(digits))
            return
        if depth == tree.spec.depth:
            return
        n = tree.spec.factors[depth]
        for d in range(n):
            rec(depth + 1, rank * n + d, digits + (d,))

    rec(0, 0, ())
    return out


def weak_type_verify(tree: FiniteUltraTree, t: Fraction) -> dict:
    """Check mu{M(nu) > t} <= C1 t^{-1} nu(X); C1 = 1 on trees, 2 on grids.

    Balls are nested or disjoint, so {M(nu) > t} is the union of the balls
    on which nu/mu > t: one signed integer sum per ball (``_excess``) and
    one top-down pass that marks a leaf when some ball above it is
    positive.

    The values v of M(nu), where t -> mu{M > t} jumps, test it with slack:
    {M > v} leaves out {M = v}, and sup t mu{M > t} = v mu{M >= v} over
    (v_prev, v) is approached only as t rises to v."""
    t = _positive_threshold(t)
    excess = _excess(tree, t)
    above = [excess[0][0] > 0]
    for k in range(1, tree.spec.depth + 1):
        parents = _repeat_each(above, tree.spec.factors[k - 1])
        above = list(map(or_, parents, map((0).__lt__, excess[k])))
    lhs = Fraction(sum(compress(tree.mu_int, above)), tree.d_mu)
    rhs = Fraction(sum(tree.nu_int) * t.denominator, tree.d_nu * t.numerator)
    return {"holds": lhs <= rhs, "lhs": lhs, "rhs": rhs, "C1": Fraction(1)}


# ---------------------------------------------------------------------------
# interval grid model on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMeasure:
    """Finite rational grid x_0 < ... < x_{m-1} with point masses; mu and
    nu are read once, as on a tree, into d_mu, mu_int, d_nu and nu_int."""

    points: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]
    d_mu: int = field(init=False, repr=False, compare=False)
    mu_int: tuple[int, ...] = field(init=False, repr=False, compare=False)
    d_nu: int = field(init=False, repr=False, compare=False)
    nu_int: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts, mu, nu = (tuple(_fractions(x)) for x in (self.points, self.mu, self.nu))
        object.__setattr__(self, "points", pts)
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("grid points must be strictly increasing")
        if len(mu) != len(pts) or len(nu) != len(pts):
            raise ValueError(f"need {len(pts)} weights of mu and of nu, one per grid point")
        _set_integer_masses(self, mu, nu)
        if min(self.nu_int, default=0) < 0:
            raise ValueError("nu must be nonnegative")
        if min(self.mu_int, default=1) <= 0:
            raise DegenerateMeasure("mu must be strictly positive on the grid")


def _grid_pairs(g: GridMeasure) -> tuple[list[int], list[int]]:
    """(best_n, best_d): M(i) = (best_n[i] / d_nu) / (best_d[i] / d_mu).

    O(m^2): M(i) is the max over left ends a <= i of a suffix maximum over
    right ends b >= i, so one downward sweep of b per a.  Ratios are
    compared as the grid's integer prefix masses, by cross-multiplication.
    """
    m = len(g.points)
    pm, pn = list(accumulate(g.mu_int, initial=0)), list(accumulate(g.nu_int, initial=0))
    best_n, best_d = [0] * m, [1] * m
    for a in range(m):
        pn_a, pm_a = pn[a], pm[a]
        run_n, run_d = 0, 1
        for b in range(m - 1, a - 1, -1):
            num, den = pn[b + 1] - pn_a, pm[b + 1] - pm_a
            if num * run_d > run_n * den:
                run_n, run_d = num, den
            if run_n * best_d[b] > best_n[b] * run_d:
                best_n[b], best_d[b] = run_n, run_d
    return best_n, best_d


def grid_maximal(g: GridMeasure) -> list[Fraction]:
    """Uncentered maximal function over all subintervals of the grid, in
    O(m^2) by ``_grid_pairs``."""
    d_mu, d_nu = g.d_mu, g.d_nu
    return [Fraction(n * d_mu, d * d_nu) for n, d in zip(*_grid_pairs(g))]


def grid_weak_type(g: GridMeasure, t: Fraction, C1: Fraction = Fraction(2)) -> dict:
    """Check mu{M(nu) > t} <= C1 t^{-1} nu(X) on the grid, for t > 0.

    O(m^2) by ``_grid_pairs``; M(i) > t is decided on its integer pair by
    cross-multiplication, and each side is one Fraction of an int sum."""
    t = _positive_threshold(t)
    # M(i) > t  <=>  best_n d_mu t.den > t.num best_d d_nu
    c_n, c_d = g.d_mu * t.denominator, t.numerator * g.d_nu
    lhs = Fraction(sum(w for w, n, d in zip(g.mu_int, *_grid_pairs(g)) if n * c_n > d * c_d), g.d_mu)
    rhs = Fraction(C1) / t * Fraction(sum(g.nu_int), g.d_nu)
    return {"holds": lhs <= rhs, "lhs": lhs, "rhs": rhs, "C1": Fraction(C1)}


def adversarial_grid() -> tuple[GridMeasure, Fraction]:
    """A stored family where C1 = 1 fails on the line but C1 = 2 holds.

    Three equal atoms with nu concentrated in the middle: every point sees
    the middle atom through some interval, so mu{M > t} = 1 for t just
    below 3/2 while t^{-1} nu(X) = 2/3 < 1.
    """
    g = GridMeasure(
        points=(Fraction(0), Fraction(1), Fraction(2)),
        mu=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        nu=(Fraction(0), Fraction(1), Fraction(0)),
    )
    return g, Fraction(4, 3)


# ---------------------------------------------------------------------------
# covering lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [a, b]."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a > self.b:
            raise ValueError("empty interval")

    def contains(self, x: Fraction) -> bool:
        return self.a <= x <= self.b


def _sample_points(family: list[Interval]) -> list[Fraction]:
    """Endpoints and midpoints of consecutive endpoints; coverage is
    piecewise constant between these, so they decide all interval facts."""
    ends = sorted({iv.a for iv in family} | {iv.b for iv in family})
    return sorted(ends + [(u + v) / 2 for u, v in zip(ends, ends[1:])])


def interval_multiplicity(family: list[Interval]) -> int:
    pts = _sample_points(family)
    return max((sum(1 for iv in family if iv.contains(x)) for x in pts), default=0)


def same_union(fam1: list[Interval], fam2: list[Interval]) -> bool:
    pts = _sample_points(fam1 + fam2)
    return all(
        any(iv.contains(x) for iv in fam1) == any(iv.contains(x) for iv in fam2)
        for x in pts
    )


def interval_reduce(family: list[Interval]) -> list[Interval]:
    """Subfamily with the same union and pointwise multiplicity <= 2.

    Greedy scan: at each still-uncovered sample point pick the interval
    reaching furthest right; a minimal subcover of the line overlaps at
    most twice at any point.
    """
    if not family:
        return []
    pts = _sample_points(family)
    chosen: list[Interval] = []
    for x in pts:
        if any(iv.contains(x) for iv in chosen):
            continue
        candidates = [iv for iv in family if iv.contains(x)]
        if not candidates:
            continue
        chosen.append(max(candidates, key=lambda iv: iv.b))
    if not same_union(chosen, family):
        raise CertificationFailed("interval reduction changed the union")
    if interval_multiplicity(chosen) > 2:
        raise CertificationFailed("interval reduction left multiplicity above 2")
    return chosen


def ultra_ball_reduce(family: list[Cylinder]) -> list[Cylinder]:
    """Maximal-by-inclusion cylinders: same union, pairwise disjoint.

    A member is dropped when a strictly shallower member contains it; of
    equal copies the first is kept.
    """
    out = []
    for c in family:
        if c not in out and not any(o.depth < c.depth and o.contains_prefix(c) for o in family):
            out.append(c)
    return out


@dataclass(frozen=True)
class Ball:
    """Closed ball on the line: [center - radius, center + radius]."""

    center: Fraction
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def intersects(self, other: "Ball") -> bool:
        return abs(self.center - other.center) <= self.radius + other.radius

    def within_dilate(self, other: "Ball") -> bool:
        return abs(self.center - other.center) + self.radius <= 3 * other.radius


def vitali_select(family: list[Ball]) -> tuple[list[Ball], dict[int, int]]:
    """Greedy disjoint subfamily; every ball sits in a 3x dilate of its
    assigned selected ball of at least its radius.

    Ties are broken by (radius descending, input index ascending).
    """
    order = sorted(range(len(family)), key=lambda i: (-family[i].radius, i))
    selected: list[int] = []
    assignment: dict[int, int] = {}
    for i in order:
        hit = next((j for j in selected if family[i].intersects(family[j])), None)
        if hit is None:
            selected.append(i)
            assignment[i] = i
        else:
            assignment[i] = hit
    for i, j in assignment.items():
        if family[j].radius < family[i].radius and i != j:
            raise CertificationFailed(f"ball {i} assigned to the smaller ball {j}")
        if not family[i].within_dilate(family[j]):
            raise CertificationFailed(f"ball {i} is not within 3x ball {j}")
    return [family[j] for j in selected], assignment


# ---------------------------------------------------------------------------
# distribution functions and the L^p maximal bound
# ---------------------------------------------------------------------------


def distribution_identity(g: list[Fraction], mu: list[Fraction], p) -> dict:
    """int g^p dmu against the layer-cake integral over lambda's jumps.

    Exact for integer p: ``lhs`` and ``rhs`` are Fractions and ``equal``
    says they agree.  For fractional p each side is a rational bracket
    (lo, hi) built from ``pow_bounds`` at 2^-64 resolution per power, and
    ``equal`` says the two brackets intersect.  Either way a power that
    ``check_power_budget`` refuses raises ExponentOutOfRange before it is formed.

    Values and masses are integers over the lcm E of g's denominators and
    the lcm D of mu's: points are grouped by integer key, lambda at each
    jump is one suffix sum over the sorted keys, and both sides share the
    one power of each jump, taken of g's own reduced value there.  Each side
    is one ``_weighted_sum``: O(n) integer work and a balanced sum over the
    distinct denominators of the powers.
    """
    g, mu = _fractions(g), _fractions(mu)
    if len(mu) != len(g):
        raise ValueError(f"{len(g)} points but {len(mu)} weights")
    E, keys = _integer_masses(g)
    D, masses = _integer_masses(mu)
    if min(keys, default=0) < 0:
        raise NotNonnegative("g must be nonnegative")
    if min(masses, default=0) < 0:
        raise NotNonnegative("mu must be nonnegative")
    p = Fraction(p)
    if p <= 0:
        raise ExponentOutOfRange("p must be positive")

    at = _masses_by(keys, masses)  # D times the mass of {g = v / E}, for v > 0
    at.pop(0, None)
    value = dict(zip(keys, g))  # the reduced g at each key, so no gcd with E is taken
    keys = sorted(at)
    jumps = [Fraction(0)] + list(map(value.__getitem__, keys))
    mass = list(map(at.__getitem__, keys))
    # lam[i] = D mu{g > jumps[i]}, constant on [jumps[i], jumps[i + 1])
    lam = list(accumulate(reversed(mass)))[::-1]
    if p.denominator == 1:
        k = p.numerator
        for x in jumps[1:]:  # every power is checked before the first is formed
            check_power_budget(x, k)
        powers = [x**k for x in jumps]
        lhs = _weighted_sum(powers[1:], mass) / D
        rhs = _weighted_sum(map(sub, powers[1:], powers), lam) / D
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
    powers = [pow_bounds(t, p) for t in jumps]
    # i = 0 the lower ends, i = 1 the upper: b[i] - a[1 - i] bounds b^p - a^p
    lhs = tuple(_weighted_sum(map(itemgetter(i), powers[1:]), mass) / D for i in (0, 1))
    rhs = tuple(_weighted_sum([b[i] - a[1 - i] for a, b in zip(powers, powers[1:])], lam) / D
                for i in (0, 1))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs[0] <= rhs[1] and rhs[0] <= lhs[1]}


def _power_integral_bounds(at: dict, D: int, p: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Bounds on sum v^p (w / D) over the values v >= 0 and int masses w of ``at``."""
    powers = [pow_bounds(v, p, prec) for v in at]
    return tuple(_weighted_sum(map(itemgetter(i), powers), at.values()) / D for i in (0, 1))


def _lp_exponent(p) -> Fraction:
    """p as a Fraction, checked to be > 1 and a power that ``pow_bounds`` takes."""
    p = Fraction(p)
    if p <= 1:
        raise ExponentOutOfRange("need p > 1")
    if p.denominator > MAX_ROOT_DEGREE:
        raise ExponentOutOfRange(f"p = {p} has a denominator above {MAX_ROOT_DEGREE}")
    return p


def _lp_constant_bounds(p: Fraction, a: Fraction, C1, prec: int) -> tuple[Fraction, Fraction]:
    """Bounds on p C1 (1-a)^{-1} (p-1)^{-1} a^{1-p}, from a 2^-prec bracket on a^{p-1}."""
    c = p * C1 / (1 - a) / (p - 1)
    lo, hi = pow_bounds(a, p - 1, prec)
    return c / hi, c / lo


def _abs_maximal_pairs(f, tree: FiniteUltraTree) -> tuple[int, list[int], list[tuple[int, int]]]:
    """(d_f, F, best): |f| = F / d_f in ints, one per leaf, and per leaf the
    pair (a, b) with M(f) = a / (b d_f), from the leaf masses F mu_int of
    |f| mu over d_f d_mu."""
    f = _fractions(f)
    if len(f) != tree.leaves:
        raise ValueError(f"{len(f)} values but {tree.leaves} leaves")
    d_f, F = _integer_masses(f)
    F = list(map(abs, F))
    return d_f, F, _maximal_pairs(tree.spec, tree.mu_int, list(map(mul, F, tree.mu_int)))


def lp_maximal_bound(
    f: list[Fraction], tree: FiniteUltraTree, p, a, C1: int = 1
) -> dict:
    """Verify int M(f)^p dmu <= p C1 (1-a)^{-1} (p-1)^{-1} a^{1-p} int |f|^p dmu.

    The comparison is exact: for fractional p both sides are bracketed by
    rational bounds, refined until the bracket decides the inequality.
    ``lhs`` and ``rhs`` are the bracket ends that decided it.  M(f) comes
    from ``_maximal_pairs`` on the integer masses |f| mu, and the leaves
    are grouped by int keys (M's pair, |f|'s numerator over d_f), so one
    Fraction is built per distinct value.  An integral is one
    ``pow_bounds`` per distinct value and, per end, O(n) integer work and
    a balanced sum over the distinct denominators (``_weighted_sum``).
    """
    p, a = _lp_exponent(p), Fraction(a)
    if not 0 < a < 1:
        raise ExponentOutOfRange("need 0 < a < 1")
    d_f, F, best = _abs_maximal_pairs(f, tree)
    D, masses = tree.d_mu, tree.mu_int
    # M(f) = n / (d d_f) >= 0 and |f| = F / d_f, grouped by their int keys; a
    # value reached by two pairs is one key once each pair is reduced
    at = _masses_by(best, masses)
    keys = [(n // g, d * d_f // g) for n, d in at for g in [gcd(n, d * d_f)]]
    m_at = {Fraction(*k): w for k, w in _masses_by(keys, at.values()).items()}
    f_at = {Fraction(x, d_f): w for x, w in _masses_by(F, masses).items()}
    for prec in (64, 128, 256, 512):
        c_lo, c_hi = _lp_constant_bounds(p, a, C1, prec)
        lhs_lo, lhs_hi = _power_integral_bounds(m_at, D, p, prec)
        f_lo, f_hi = _power_integral_bounds(f_at, D, p, prec)
        rhs_lo, rhs_hi = c_lo * f_lo, c_hi * f_hi
        if lhs_hi <= rhs_lo:
            return {"holds": True, "lhs": lhs_hi, "rhs": rhs_lo}
        if lhs_lo > rhs_hi:
            return {"holds": False, "lhs": lhs_lo, "rhs": rhs_hi}
    raise CertificationFailed("power bracket did not resolve the comparison")


def lp_best_a(p) -> tuple[Fraction, Fraction]:
    """The point a = j/32 minimizing p (1-a)^{-1} (p-1)^{-1} a^{1-p}, C1 = 1.

    Returns (a, an upper bound on the constant there); comparisons between
    grid points use exact rational brackets.
    """
    p = _lp_exponent(p)
    best = None
    for j in range(1, 32):
        a = Fraction(j, 32)
        hi = _lp_constant_bounds(p, a, 1, 128)[1]
        if best is None or hi < best[1]:
            best = (a, hi)
    return best


def sup_bound_check(f: list[Fraction], tree: FiniteUltraTree) -> bool:
    """sup M(f) <= max |f| (the L^infinity endpoint): a / (b d_f) <= max F / d_f
    for every pair (a, b) of M(f), so a <= b max F."""
    _, F, best = _abs_maximal_pairs(f, tree)
    top = max(F)
    return all(a <= b * top for a, b in best)


# ---------------------------------------------------------------------------
# conditional expectation and the martingale maximal inequality
# ---------------------------------------------------------------------------

Partition = tuple[tuple[int, ...], ...]


def _validate_partition(P: Partition, size: int) -> None:
    seen = sorted(i for block in P for i in block)
    if seen != list(range(size)):
        raise ValueError("not a partition of the leaf set")


def _integer_products(f, mu) -> tuple[int, int, list[int], list[int]]:
    """(d_f, d_mu, fm, m): integers fm[i] = d_f d_mu f_i mu_i, m[i] = d_mu mu_i."""
    if len(mu) != len(f):
        raise ValueError(f"{len(f)} points but {len(mu)} weights")
    d_f, F = _integer_masses(_fractions(f))
    d_mu, m = _integer_masses(_fractions(mu))
    return d_f, d_mu, [x * w for x, w in zip(F, m)], m


def _block_sums(fm: list[int], m: list[int], P: Partition) -> list[tuple[int, int]]:
    """(sum fm, sum m) per block of P: f averages s / (d_f mass) there."""
    _validate_partition(P, len(fm))
    out = []
    for block in P:
        mass = sum(m[i] for i in block)
        if mass == 0:
            raise DegeneratePartition(f"block {block} has zero mass")
        out.append((sum(fm[i] for i in block), mass))
    return out


def cond_expectation(f: list[Fraction], P: Partition, mu: list[Fraction]) -> list[Fraction]:
    """Block-constant averages (1/mu(A)) int_A f dmu, exact."""
    d_f, _, fm, m = _integer_products(f, mu)
    out = [Fraction(0)] * len(m)
    for block, (s, mass) in zip(P, _block_sums(fm, m, P)):
        avg = Fraction(s, d_f * mass)
        for i in block:
            out[i] = avg
    return out


@dataclass(frozen=True)
class Filtration:
    """Partitions coarse to fine: each block of P_j is a union of P_{j+1} blocks."""

    levels: tuple[Partition, ...]

    def __post_init__(self):
        lv = tuple(tuple(tuple(sorted(b)) for b in P) for P in self.levels)
        object.__setattr__(self, "levels", lv)
        for P, Q in zip(lv, lv[1:]):
            fine = {i: blk for blk in Q for i in blk}
            for block in P:
                sub = {fine.get(i) for i in block}
                if None in sub or sorted(i for b in sub for i in b) != list(block):
                    raise ValueError("levels are not nested coarse-to-fine")

    @classmethod
    def dyadic(cls, spec: ProductSpec) -> "Filtration":
        """Cylinder partitions of a product space, depth 1..L."""
        m = spec.modulus
        return cls(tuple(tuple(tuple(range(i, i + m // N)) for i in range(0, m, m // N))
                         for N in spec.prefix[1:]))


def martingale_maximal(
    f: list[Fraction], filtration: Filtration, mu: list[Fraction], t
) -> dict:
    """Doob's inequality mu{f_l^* > t} <= t^{-1} int_{A_l} |f| <= t^{-1} int |f|."""
    t = _positive_threshold(t)
    d_f, d_mu, fm, m = _integer_products(f, mu)
    # |f| mu / t over d_f d_mu, as one Fraction
    scale = Fraction(t.denominator, d_f * d_mu * t.numerator)
    rhs = sum(map(abs, fm)) * scale
    # star[i] = (a, b): f^*(i) = a / b, compared by cross-multiplication; the
    # levels are nested, so it is constant on each block of the last level
    star = [(0, 1)] * len(m)
    fracs: dict[tuple[int, int], Fraction] = {}
    levels = []
    reports = []
    for P in filtration.levels:
        for block, (s, mass) in zip(P, _block_sums(fm, m, P)):
            v, old = (abs(s), d_f * mass), star[block[0]]
            if v[0] * old[1] > old[0] * v[1]:
                for i in block:
                    star[i] = v
        values = set(star)
        fracs.update((v, Fraction(*v)) for v in values if v not in fracs)
        levels.append([fracs[v] for v in star])
        # f^* > t  <=>  a t.den > t.num b, decided once per value
        above = {v for v in values if v[0] * t.denominator > t.numerator * v[1]}
        A = [i for i, v in enumerate(star) if v in above]
        # A is a union of blocks of the current level
        inside = set(A)
        blocks_ok = all(set(block) <= inside or not (set(block) & inside) for block in P)
        lhs = Fraction(sum(m[i] for i in A), d_mu)
        mid = sum(abs(fm[i]) for i in A) * scale
        reports.append(
            {
                "lhs": lhs,
                "restricted": mid,
                "rhs": rhs,
                "holds": lhs <= mid <= rhs,
                "superlevel_is_block_union": blocks_ok,
            }
        )
    return {"levels": levels, "doob": reports, "holds": all(r["holds"] for r in reports)}
