"""Covering lemmas, maximal functions, and conditional expectation.

Everything runs on finite models with exact rational weights: the
ultrametric model is a weighted leaf tree over a ProductSpec (balls are
cylinders), the Euclidean model is a finite rational grid on the line
(balls are contiguous index ranges).  Weak-type inequalities hold with
constant 1 on trees and constant 2 on the grid, and both constants are
verified exactly rather than numerically.

Ball masses are integers over one common denominator per weight vector,
so ratios compare by cross-multiplication.  The tree maximal function
costs O(nodes) (top-down, one ratio per node) and the grid maximal
function O(m^2) (one sweep of right ends per left end).  A weak-type check
on a tree is that pass plus one integer comparison per leaf.  The
layer cake costs O(n log n): points grouped by value, one suffix sum over
the sorted jumps.  Conditional expectations and Doob's inequality cost
O(n) integer work per partition, and each builds one Fraction per
distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .cantor import MAX_POWER_BITS, MAX_ROOT_DEGREE, Cylinder, ProductSpec, pow_bounds
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
    """Leaf weights mu (all ball masses positive) and nu over a ProductSpec."""

    spec: ProductSpec
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]

    def __post_init__(self):
        m = self.spec.cumulative(self.spec.depth)
        mu = tuple(Fraction(w) for w in self.mu)
        nu = tuple(Fraction(w) for w in self.nu)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if len(mu) != m or len(nu) != m:
            raise ValueError(f"need {m} leaf weights")
        if any(w.numerator < 0 for w in mu + nu):
            raise ValueError("weights must be nonnegative")
        if not all(mu):  # a leaf's ball is the leaf, its mass its own weight
            raise DegenerateMeasure("a leaf has zero mu-mass")

    @property
    def leaves(self) -> int:
        return len(self.mu)


def _integer_masses(weights) -> tuple[int, list[int]]:
    """(D, [D * w for w in weights]), D the lcm of the denominators."""
    D = lcm(*(w.denominator for w in weights))
    return D, [w.numerator * (D // w.denominator) for w in weights]


def _ball_masses(spec: ProductSpec, weights) -> tuple[int, list[list[int]]]:
    """(D, masses): masses[k][r] is D times the weight of the depth-k
    cylinder of rank r, an integer over one common denominator D."""
    D, level = _integer_masses(weights)
    masses = [level]
    for k in range(spec.depth, 0, -1):
        n = spec.factors[k - 1]
        level = [sum(level[i : i + n]) for i in range(0, len(level), n)]
        masses.append(level)
    masses.reverse()  # depth 0 first
    return D, masses


def _maximal_pairs(tree: FiniteUltraTree):
    """(d_mu, mu, d_nu, nu, best): the ball masses of ``_ball_masses`` and,
    per leaf, the integer pair (a, b) with M(nu) = (a / d_nu) / (b / d_mu).

    Top-down in O(nodes): M(child) = max(M(parent), nu/mu(child)), one
    ratio per node, compared by cross-multiplication.
    """
    spec = tree.spec
    d_mu, mu = _ball_masses(spec, tree.mu)
    d_nu, nu = _ball_masses(spec, tree.nu)
    best = [(nu[0][0], mu[0][0])]
    for k in range(1, spec.depth + 1):
        n = spec.factors[k - 1]
        parents = (p for p in best for _ in range(n))
        best = [(a, b) if a * p[1] > p[0] * b else p for p, a, b in zip(parents, nu[k], mu[k])]
    return d_mu, mu, d_nu, nu, best


def maximal_function(tree: FiniteUltraTree) -> list[Fraction]:
    """M(nu)(leaf) = max over ancestor cylinders of nu(B)/mu(B), exact.

    O(nodes) by ``_maximal_pairs``; each Fraction is built at most once per
    maximizing ball.
    """
    d_mu, _, d_nu, _, best = _maximal_pairs(tree)
    fracs = {pair: Fraction(pair[0] * d_mu, pair[1] * d_nu) for pair in set(best)}
    return [fracs[pair] for pair in best]


def superlevel_cylinders(tree: FiniteUltraTree, t: Fraction) -> list[Cylinder]:
    """{M(nu) > t} as a disjoint union of maximal cylinders."""
    t = Fraction(t)
    d_mu, mu = _ball_masses(tree.spec, tree.mu)
    d_nu, nu = _ball_masses(tree.spec, tree.nu)
    # nu/mu > t  <=>  a * d_mu * t.den > t.num * b * d_nu
    lhs, rhs = d_mu * t.denominator, t.numerator * d_nu
    out: list[Cylinder] = []

    def rec(depth: int, rank: int, digits: tuple[int, ...]):
        if nu[depth][rank] * lhs > mu[depth][rank] * rhs:
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

    The values v of M(nu), where t -> mu{M > t} jumps, test it with slack:
    {M > v} leaves out {M = v}, and sup t mu{M > t} = v mu{M >= v} over
    (v_prev, v) is approached only as t rises to v."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    d_mu, mu, d_nu, nu, best = _maximal_pairs(tree)
    # M > t  <=>  a * d_mu * t.den > t.num * b * d_nu
    c_a, c_b = d_mu * t.denominator, t.numerator * d_nu
    lhs = Fraction(sum(w for w, (a, b) in zip(mu[-1], best) if a * c_a > b * c_b), d_mu)
    rhs = Fraction(nu[0][0] * t.denominator, d_nu * t.numerator)
    return {"holds": lhs <= rhs, "lhs": lhs, "rhs": rhs, "C1": Fraction(1)}


# ---------------------------------------------------------------------------
# interval grid model on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridMeasure:
    """Finite rational grid x_0 < ... < x_{m-1} with point masses."""

    points: tuple[Fraction, ...]
    mu: tuple[Fraction, ...]
    nu: tuple[Fraction, ...]

    def __post_init__(self):
        pts = tuple(Fraction(x) for x in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "mu", tuple(Fraction(w) for w in self.mu))
        object.__setattr__(self, "nu", tuple(Fraction(w) for w in self.nu))
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("grid points must be strictly increasing")
        if len(self.mu) != len(pts) or len(self.nu) != len(pts):
            raise ValueError(f"need {len(pts)} weights of mu and of nu, one per grid point")
        if any(w < 0 for w in self.nu):
            raise ValueError("nu must be nonnegative")
        if any(w <= 0 for w in self.mu):
            raise DegenerateMeasure("mu must be strictly positive on the grid")


def grid_maximal(g: GridMeasure) -> list[Fraction]:
    """Uncentered maximal function over all subintervals of the grid.

    O(m^2): M(i) is the max over left ends a <= i of a suffix maximum over
    right ends b >= i, so one downward sweep of b per a.  Ratios are
    compared as integer prefix masses over a common denominator.
    """
    m = len(g.points)
    d_mu, mu = _integer_masses(g.mu)
    d_nu, nu = _integer_masses(g.nu)
    pm, pn = list(accumulate(mu, initial=0)), list(accumulate(nu, initial=0))
    best_n, best_d = [0] * m, [1] * m  # M(i) = (best_n[i] / d_nu) / (best_d[i] / d_mu)
    for a in range(m):
        pn_a, pm_a = pn[a], pm[a]
        run_n, run_d = 0, 1
        for b in range(m - 1, a - 1, -1):
            num, den = pn[b + 1] - pn_a, pm[b + 1] - pm_a
            if num * run_d > run_n * den:
                run_n, run_d = num, den
            if run_n * best_d[b] > best_n[b] * run_d:
                best_n[b], best_d[b] = run_n, run_d
    return [Fraction(n * d_mu, d * d_nu) for n, d in zip(best_n, best_d)]


def grid_weak_type(g: GridMeasure, t: Fraction, C1: Fraction = Fraction(2)) -> dict:
    """Check mu{M(nu) > t} <= C1 t^{-1} nu(X) on the grid, for t > 0."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    m = grid_maximal(g)
    lhs = sum((w for w, v in zip(g.mu, m) if v > t), Fraction(0))
    rhs = Fraction(C1) / t * sum(g.nu, Fraction(0))
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
    pts = list(ends)
    for u, v in zip(ends, ends[1:]):
        pts.append((u + v) / 2)
    return sorted(pts)


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
    ``equal`` says the two brackets intersect.  Either way a power past the
    budget of ``pow_bounds`` raises ExponentOutOfRange before it is formed.

    Points are grouped by value on integer masses; lambda at each jump is one
    suffix sum over the sorted values, and both sides share its one power.
    """
    g = [Fraction(x) for x in g]
    mu = [Fraction(w) for w in mu]
    if len(mu) != len(g):
        raise ValueError(f"{len(g)} points but {len(mu)} weights")
    if any(x < 0 for x in g):
        raise NotNonnegative("g must be nonnegative")
    if any(w < 0 for w in mu):
        raise NotNonnegative("mu must be nonnegative")
    p = Fraction(p)
    if p <= 0:
        raise ExponentOutOfRange("p must be positive")

    D, masses = _integer_masses(mu)
    at: dict[Fraction, int] = {}  # D times the mass of {g = x}, for x > 0
    for x, w in zip(g, masses):
        if x > 0:
            at[x] = at.get(x, 0) + w
    jumps = [Fraction(0)] + sorted(at)
    # lam[i] = D mu{g > jumps[i]}, constant on [jumps[i], jumps[i + 1])
    lam = list(accumulate(at[x] for x in reversed(jumps[1:])))[::-1]
    if p.denominator == 1:
        k = p.numerator
        if any(k * max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_POWER_BITS
               for x in jumps[1:] if x != 1):  # the budget of pow_bounds, which is not called
            raise ExponentOutOfRange(f"a power g^{k} passes the {MAX_POWER_BITS}-bit budget")
        powers = [x**k for x in jumps]
        lhs = sum((x * at[v] for v, x in zip(jumps[1:], powers[1:])), Fraction(0)) / D
        rhs = sum((m * (b - a) for m, a, b in zip(lam, powers, powers[1:])), Fraction(0)) / D
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
    powers = [pow_bounds(t, p) for t in jumps]
    # i = 0 the lower ends, i = 1 the upper: b[i] - a[1 - i] bounds b^p - a^p
    lhs = tuple(sum((x[i] * at[v] for v, x in zip(jumps[1:], powers[1:])), Fraction(0)) / D
                for i in (0, 1))
    rhs = tuple(sum((m * (b[i] - a[1 - i]) for m, a, b in zip(lam, powers, powers[1:])),
                    Fraction(0)) / D for i in (0, 1))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs[0] <= rhs[1] and rhs[0] <= lhs[1]}


def _power_integral_bounds(values, mu, p: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Bounds on sum |v|^p w over the nonzero values, one bracket per value."""
    lo = hi = Fraction(0)
    for v, w in zip(values, mu):
        if v != 0:
            v_lo, v_hi = pow_bounds(abs(v), p, prec)
            lo += v_lo * w
            hi += v_hi * w
    return lo, hi


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


def _maximal_of_abs(f, tree: FiniteUltraTree) -> tuple[list[Fraction], list[Fraction]]:
    """(f, M(f)): f as Fractions, one per leaf, and the maximal function of |f| mu."""
    f = [Fraction(x) for x in f]
    if len(f) != tree.leaves:
        raise ValueError(f"{len(f)} values but {tree.leaves} leaves")
    nu = tuple(abs(x) * w for x, w in zip(f, tree.mu))
    return f, maximal_function(FiniteUltraTree(tree.spec, tree.mu, nu))


def lp_maximal_bound(
    f: list[Fraction], tree: FiniteUltraTree, p, a, C1: int = 1
) -> dict:
    """Verify int M(f)^p dmu <= p C1 (1-a)^{-1} (p-1)^{-1} a^{1-p} int |f|^p dmu.

    The comparison is exact: for fractional p both sides are bracketed by
    rational bounds, refined until the bracket decides the inequality.
    ``lhs`` and ``rhs`` are the bracket ends that decided it.
    """
    p, a = _lp_exponent(p), Fraction(a)
    if not 0 < a < 1:
        raise ExponentOutOfRange("need 0 < a < 1")
    f, m = _maximal_of_abs(f, tree)
    for prec in (64, 128, 256, 512):
        c_lo, c_hi = _lp_constant_bounds(p, a, C1, prec)
        lhs_lo, lhs_hi = _power_integral_bounds(m, tree.mu, p, prec)
        f_lo, f_hi = _power_integral_bounds(f, tree.mu, p, prec)
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
    """sup M(f) <= max |f| (the L^infinity endpoint)."""
    f, m = _maximal_of_abs(f, tree)
    return max(m) <= max(abs(x) for x in f)


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
    d_f, F = _integer_masses([Fraction(x) for x in f])
    d_mu, m = _integer_masses([Fraction(w) for w in mu])
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
        m = spec.cumulative(spec.depth)
        levels = []
        for k in range(1, spec.depth + 1):
            width = m // spec.cumulative(k)
            levels.append(
                tuple(
                    tuple(range(i * width, (i + 1) * width))
                    for i in range(spec.cumulative(k))
                )
            )
        return cls(tuple(levels))


def martingale_maximal(
    f: list[Fraction], filtration: Filtration, mu: list[Fraction], t
) -> dict:
    """Doob's inequality mu{f_l^* > t} <= t^{-1} int_{A_l} |f| <= t^{-1} int |f|."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
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
