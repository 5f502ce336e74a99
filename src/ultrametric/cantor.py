"""Finite-depth ultrametric Cantor products.

Points are digit words x = (x_1, ..., x_L) with x_j < n_j; the distance
between distinct points is t_l where l is the length of the common
prefix.  Closed balls are exactly the cylinders fixing a prefix, which
makes Hausdorff contents computable by an exact dynamic program over the
prefix tree.  A cylinder inside the target costs an amount that depends
only on its depth, so the program takes one gauge value per level, one
inside-cost per depth and one step per proper prefix of a target word:
O(L·max n) additions and O(|target|·L·max n) prefix lookups, whatever
the leaf count N_L.

Every power t^alpha of the package comes from ``pow_bounds``: exact when
rational, else a rational bracket verified in integers, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import inf, isqrt, log, log1p
from operator import index

from .errors import (
    ExponentOutOfRange,
    GridMismatch,
    InvalidGauge,
    NotNonnegative,
    OverlappingCylinders,
    ScaleMismatch,
)
from .radic import LevelGrid, check_scales, default_scales


@dataclass(frozen=True)
class ProductSpec(LevelGrid):
    """Factor sizes n_1..n_L and scales t_0 = 1 > t_1 > ... > t_L."""

    scales: tuple[Fraction, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "scales", check_scales(self.scales, self.depth))

    @classmethod
    def geometric(cls, factors, theta) -> "ProductSpec":
        theta = Fraction(theta)
        L = len(factors)
        return cls(tuple(factors), tuple(theta**l for l in range(L + 1)))

    @classmethod
    def reciprocal(cls, factors) -> "ProductSpec":
        """The canonical t_l = 1/N_l scales."""
        return cls(factors, default_scales(LevelGrid(factors)))

    def is_reciprocal(self) -> bool:
        return self.scales == default_scales(self)

    def points(self):
        """All depth-L digit words, lexicographic."""
        return product(*[range(n) for n in self.factors])


@dataclass(frozen=True)
class Cylinder:
    """Digit prefix (x_1..x_k); the closed ball of radius t_k around any extension."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(map(index, self.digits)))

    @property
    def depth(self) -> int:
        return len(self.digits)

    def contains_prefix(self, other: "Cylinder") -> bool:
        return (
            other.depth >= self.depth and other.digits[: self.depth] == self.digits
        )


def _digits_fit(digits: tuple[int, ...], factors: tuple[int, ...]) -> bool:
    """No more digits than factors, and digit j in 0..n_j - 1."""
    return len(digits) <= len(factors) and all(0 <= d < n for d, n in zip(digits, factors))


def validate_cylinder(c: Cylinder, spec: ProductSpec) -> None:
    if not _digits_fit(c.digits, spec.factors):
        raise ValueError(f"cylinder {c.digits} invalid for spec {spec.factors}")


def check_point(x, spec: ProductSpec) -> tuple[int, ...]:
    """x's digits; ValueError unless x has full depth and each digit below its factor."""
    digits = tuple(map(index, x))
    if len(digits) != spec.depth:
        raise ValueError("points must have full depth")
    if not _digits_fit(digits, spec.factors):
        raise ValueError(f"cylinder {digits} invalid for spec {spec.factors}")
    return digits


def match_length(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Number of leading digits x and y share; ValueError unless the
    words have one length."""
    if len(x) != len(y):
        raise ValueError(f"words of lengths {len(x)} and {len(y)}")
    for l, (a, b) in enumerate(zip(x, y)):
        if a != b:
            return l
    return len(x)


def match_and_dist(x, y, spec: ProductSpec) -> tuple[int, Fraction]:
    """(l(x,y), d(x,y) = t_{l(x,y)}); d = 0 for equal words."""
    l = match_length(check_point(x, spec), check_point(y, spec))
    if l == spec.depth:
        return l, Fraction(0)
    return l, spec.scales[l]


@dataclass(frozen=True)
class ProductMeasure:
    """Per-factor probability weights, exact rationals."""

    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        ws = tuple(tuple(Fraction(w) for w in level) for level in self.weights)
        object.__setattr__(self, "weights", ws)
        for level in ws:
            if any(w < 0 for w in level) or sum(level) != 1:
                raise ValueError("each factor weight vector must be a probability vector")

    @classmethod
    def uniform(cls, spec: ProductSpec) -> "ProductMeasure":
        return cls(tuple(tuple(Fraction(1, n) for _ in range(n)) for n in spec.factors))


def ball_measure(B: Cylinder, mu: ProductMeasure) -> Fraction:
    """mu(B_k(x)) = prod_{j<=k} mu_j({x_j}); the whole space has mass 1."""
    sizes = tuple(map(len, mu.weights))
    if not _digits_fit(B.digits, sizes):
        raise ValueError(f"cylinder {B.digits} invalid for weights of lengths {sizes}")
    out = Fraction(1)
    for j, d in enumerate(B.digits):
        out *= mu.weights[j][d]
    return out


@dataclass(frozen=True)
class Gauge:
    """Monotone gauge h on the scale grid: h(t) = t^alpha, or a table of (t, h(t)).

    Made from exactly one of ``table`` and ``alpha``, and checked when made:
    alpha >= 0, stored as a Fraction, or a table with one value per scale,
    monotone in t.  ``value(t)`` is a pair lo <= h(t) <= hi: (v, v) for a
    table value v, and ``pow_bounds`` of t^alpha to 64 significant bits for a
    power gauge.
    """

    table: tuple[tuple[Fraction, object], ...] | None = None
    alpha: Fraction | None = None

    def __post_init__(self):
        if (self.table is None) == (self.alpha is None):
            raise InvalidGauge("a gauge takes exactly one of a table and an exponent alpha")
        if self.table is None:
            object.__setattr__(self, "alpha", Fraction(self.alpha))
            if self.alpha < 0:
                raise InvalidGauge("t^alpha with alpha < 0 decreases, so it is no gauge")
        else:
            object.__setattr__(self, "table", tuple((Fraction(s), v) for s, v in self.table))
            if len({s for s, _ in self.table}) < len(self.table):
                raise InvalidGauge("a gauge table gives each scale one value")
            ordered = sorted(self.table)
            if any(a[1] > b[1] for a, b in zip(ordered, ordered[1:])):
                raise InvalidGauge("gauge must be monotone on the scale grid")

    def value(self, t: Fraction) -> tuple:
        if self.alpha is not None:
            a = self.alpha
            bits = max(0, t.denominator.bit_length() - t.numerator.bit_length() + 1)  # 1/t < 2^bits
            return pow_bounds(t, a, 64 - (-a.numerator * bits // a.denominator))
        for s, v in self.table:
            if s == t:
                return v, v
        raise InvalidGauge(f"gauge has no value at scale {t}")

    @classmethod
    def power(cls, alpha) -> "Gauge":
        return cls(alpha=alpha)


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 plus exactness flag.

    ``math.isqrt`` for k = 2; otherwise integer Newton from 2^ceil(bits/k),
    which is at least the root, so the iterates decrease to the floor.
    n < 0 or k < 1 raises ValueError.
    """
    if n < 0 or k < 1:
        raise ValueError(f"iroot needs n >= 0 and k >= 1, not n = {n}, k = {k}")
    if k == 2:
        x = isqrt(n)
    elif n < 2:
        x = n
    else:
        x = 1 << -(-n.bit_length() // k)
        while True:
            y = ((k - 1) * x + n // x ** (k - 1)) // k
            if y >= x:
                break
            x = y
    return x, x**k == n


MAX_ROOT_DEGREE = 64
MAX_POWER_BITS = 1 << 16


def check_power_budget(x: Fraction, c: int) -> None:
    """Refuse x^c before it is formed if it would pass MAX_POWER_BITS bits; 0^c and 1^c pass."""
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if c * bits > MAX_POWER_BITS and x not in (0, 1):
        raise ExponentOutOfRange(f"({x})^{c} passes the {MAX_POWER_BITS}-bit budget")


def pow_bounds(x: Fraction, p: Fraction, prec_bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational bounds (lo, hi) on x^p for x >= 0, p = c/k > 0: (r, r) when
    x^p is the rational r, else the floor and ceiling k-th roots of
    x^c 2^(k prec) over 2^prec.  k above MAX_ROOT_DEGREE raises before any
    work, since integer Newton takes O(k) steps for a k-th root, and so does
    an x^c that ``check_power_budget`` refuses."""
    p = Fraction(p)
    k = p.denominator
    if k > MAX_ROOT_DEGREE:
        raise ExponentOutOfRange(f"exponent {p} has a denominator above {MAX_ROOT_DEGREE}")
    if x < 0:
        raise NotNonnegative("negative base")
    if x == 0:
        return Fraction(0), Fraction(0)
    if x == 1:
        return Fraction(1), Fraction(1)
    check_power_budget(x, p.numerator)
    q = x**p.numerator
    if k == 1:
        return q, q
    rd, exact = iroot(q.denominator, k)
    if exact:
        rn, exact = iroot(q.numerator, k)
        if exact:
            return Fraction(rn, rd), Fraction(rn, rd)
    S = 1 << prec_bits
    r_lo, _ = iroot(q.numerator * S**k // q.denominator, k)
    r_hi, exact = iroot(-(-q.numerator * S**k // q.denominator), k)  # root of the ceiling
    return Fraction(r_lo, S), Fraction(r_hi + (not exact), S)


def _check_antichain(target: list[Cylinder], spec: ProductSpec):
    """The target's digit words and their proper prefixes; nested pairs raise."""
    for c in target:
        validate_cylinder(c, spec)
    words = {c.digits for c in target}
    prefixes = {c.digits[:k] for c in target for k in range(c.depth)}
    if len(words) < len(target) or not words.isdisjoint(prefixes):
        for i, a in enumerate(target):
            for b in target[i + 1 :]:
                if a.contains_prefix(b) or b.contains_prefix(a):
                    raise OverlappingCylinders(f"{a.digits} and {b.digits} are nested")
    return words, prefixes


def hausdorff_content(
    spec: ProductSpec,
    target: list[Cylinder],
    gauge: Gauge,
    delta: Fraction | None = None,
    closed_threshold: bool = False,
):
    """Exact infimum of sum h(diam B) over cylinder covers of the target.

    ``delta`` restricts covers to balls with diam < delta (or <= delta when
    ``closed_threshold``); None means unrestricted.

    Exact (a Fraction, an int or inf) when every gauge value is; else the
    bracket (lo, hi) of the program run on the lower and the upper ends.

    A node's cost is min(h(t_k), sum of its children's costs), with
    h(t_k) left out at inadmissible levels and inf for an inadmissible
    leaf.  A node inside the target costs inside[k], which depends only
    on its depth; a node disjoint from it costs 0.  So only the proper
    prefixes of target words are visited, deepest first.
    """
    words, prefixes = _check_antichain(target, spec)
    if not target:
        return Fraction(0)
    L = spec.depth

    def allowed(k: int) -> bool:
        if delta is None:
            return True
        diam = spec.scales[k]
        return diam <= delta if closed_threshold else diam < delta

    h = [gauge.value(spec.scales[k]) if allowed(k) else None for k in range(L + 1)]
    order = sorted(prefixes, key=len, reverse=True)

    def solve(h):
        def best(k: int, total):
            return total if h[k] is None else min(h[k], total)

        inside = [inf] * L + [inf if h[L] is None else h[L]]
        for k in range(L - 1, -1, -1):
            inside[k] = best(k, spec.factors[k] * inside[k + 1])
        cost = {w: inside[len(w)] for w in words}
        for prefix in order:  # deepest first, so every child's cost is known
            k = len(prefix)
            children = (cost.get(prefix + (d,)) for d in range(spec.factors[k]))
            cost[prefix] = best(k, sum(c for c in children if c is not None))
        return cost[()]

    lo, hi = ([None if v is None else v[i] for v in h] for i in (0, 1))
    return solve(lo) if lo == hi else (solve(lo), solve(hi))


def hausdorff_measure(spec: ProductSpec, target: list[Cylinder], gauge: Gauge):
    """Depth-limited Hausdorff measure: the content at the finest cover
    scale, delta = t_L closed.  The scales strictly decrease, so that
    admits level L alone."""
    return hausdorff_content(spec, target, gauge, spec.scales[-1], closed_threshold=True)


def _log_ratio(v: int, u: int) -> float:
    """log(v/u) for integers v > u > 0, without cancellation or overflow."""
    if v < 2 * u:
        return log1p((v - u) / u)
    e = v.bit_length() - u.bit_length() - 1  # 1 < v / (u 2^e) < 4
    return e * log(2) + log(v / (u << e))


def dimension_estimate(spec: ProductSpec, tolerance: float = 1e-6) -> tuple:
    """The similarity dimension min_k log N_k / log(1/t_k) (Falconer, ch. 9).

    A rational minimum c/e is a pair of equal Fractions, confirmed in
    integers: N_j^e u_j^c >= v_j^c (t_j = u_j/v_j) at every level j within
    2^-40 relative of the float minimum, with equality at one.  Otherwise
    it is the float minimum widened by 2^-40 relative, far beyond its
    rounding error; a narrower ``tolerance`` raises ValueError."""
    if not tolerance >= 0 or not spec.depth:  # also rejects nan
        raise ValueError(f"need tolerance >= 0 and depth >= 1, got {tolerance}, {spec.depth}")
    levels = sorted((log(N) / _log_ratio(t.denominator, t.numerator), N, t)
                    for N, t in zip(spec.prefix[1:], spec.scales[1:]))
    m = levels[0][0]
    lo, hi = m - m * 2.0**-40, m + m * 2.0**-40
    near = [level for level in levels if level[0] <= hi]
    for a, N, t in near:
        # log N / log(1/t) = c/e in lowest terms forces 1/t = w^e and N = w^c
        r = Fraction(a).limit_denominator(t.denominator.bit_length())
        c, e = r.numerator, r.denominator
        w, exact = iroot(t.denominator, e)
        if t.numerator == 1 and exact and c <= N.bit_length() and w**c == N and all(
            M**e * s.numerator**c >= s.denominator**c for _, M, s in near
        ):
            return r, r
    if hi - lo > tolerance:
        raise ValueError(f"tolerance {tolerance} is below the bracket width {hi - lo:.3g}")
    return lo, hi


def _rank(digits: tuple[int, ...], spec: ProductSpec) -> int:
    """N_k sum_j x_j / N_j for k digits: the integer with mixed-radix digits x."""
    r = 0
    for d, n in zip(digits, spec.factors):
        r = r * n + d
    return r


def monotone_map_point(x, spec: ProductSpec) -> Fraction:
    """f(x) = sum_j x_j / N_j for a point or prefix x, defined for the t_l = 1/N_l scales."""
    if not spec.is_reciprocal():
        raise ScaleMismatch("monotone map needs t_l = 1/N_l scales")
    B = Cylinder(tuple(x))
    validate_cylinder(B, spec)
    return Fraction(_rank(B.digits, spec), spec.cumulative(B.depth))


def monotone_map_cylinder(B: Cylinder, spec: ProductSpec) -> tuple[Fraction, Fraction]:
    """Image interval [f_k(x), f_k(x) + 1/N_k] of the cylinder."""
    lo = monotone_map_point(B.digits, spec)
    return lo, lo + Fraction(1, spec.cumulative(B.depth))


def monotone_map_collides(x, y, spec: ProductSpec) -> bool:
    """Whether the image intervals [f(x), f(x) + 1/N_L] of the points x
    and y touch: |f(x) - f(y)| is 0 or 1/N_L, so their ranks N_L f differ
    by at most 1.  ValueError unless both are points of spec."""
    return abs(_rank(check_point(x, spec), spec) - _rank(check_point(y, spec), spec)) <= 1


def gauge_transform(spec: ProductSpec, sigma) -> ProductSpec:
    """Replace t_l by sigma(t_l) / sigma(t_0); sigma must be strictly
    increasing on the scales, with sigma(t_0) > 0."""
    new_scales = [Fraction(sigma(t)) for t in spec.scales]
    top = new_scales[0]
    if top <= 0:
        raise InvalidGauge(f"sigma(t_0) = {top} is not positive, so t_0 cannot be renormalised to 1")
    new_scales = [t / top for t in new_scales]  # renormalise so t_0 stays 1
    for i in range(len(new_scales) - 1):
        if new_scales[i] <= new_scales[i + 1]:
            raise InvalidGauge("sigma is not strictly increasing on the scales")
    return ProductSpec(spec.factors, tuple(new_scales))


def snowflake(spec: ProductSpec, a) -> ProductSpec:
    """The d -> d^a transform; scales dimension by 1/a.  A scale t^a is
    stored exactly when rational, else as the lower end of its
    ``Gauge.power(a)`` bracket, within 2^-64 relative."""
    a = Fraction(a)
    if a <= 0:
        raise InvalidGauge("snowflake exponent must be positive")
    return ProductSpec(spec.factors, tuple(Gauge.power(a).value(t)[0] for t in spec.scales))


@dataclass(frozen=True)
class ProductJoin:
    """Two Cantor products glued under the max metric."""

    a: ProductSpec
    b: ProductSpec

    def dist(self, x: tuple, y: tuple) -> Fraction:
        da = match_and_dist(x[0], y[0], self.a)[1]
        db = match_and_dist(x[1], y[1], self.b)[1]
        return max(da, db)

    def rect_diam(self, ka: int, kb: int) -> Fraction:
        """Diameter of a product of depth-ka and depth-kb cylinders."""
        if not (0 <= ka <= self.a.depth and 0 <= kb <= self.b.depth):
            raise ValueError(f"depths ({ka}, {kb}) outside 0..{self.a.depth} and 0..{self.b.depth}")
        return max(self.a.scales[ka], self.b.scales[kb])

    def as_product_spec(self) -> ProductSpec:
        if self.a.scales != self.b.scales:
            raise GridMismatch("factors do not share a scale grid")
        return ProductSpec(
            tuple(na * nb for na, nb in zip(self.a.factors, self.b.factors, strict=True)),
            self.a.scales,
        )


def measure_bound_check(
    join: ProductJoin,
    mu_a: ProductMeasure,
    mu_b: ProductMeasure,
    h_a: Gauge,
    h_b: Gauge,
) -> dict:
    """Check mu(A x B) <= h_a(diam) h_b(diam) on all cylinder pairs.

    Valid whenever the per-factor bounds mu_i(A_i) <= h_i(diam A_i) hold,
    since both gauges are monotone and diam(A x B) dominates each factor
    diameter.
    """
    violations = []
    for ka in range(join.a.depth + 1):
        for kb in range(join.b.depth + 1):
            diam = join.rect_diam(ka, kb)
            # lower ends of the gauge values, so a bound that holds is certain
            bound = h_a.value(diam)[0] * h_b.value(diam)[0]
            for cyl_a in cylinders_at_depth(join.a, ka):
                ma = ball_measure(cyl_a, mu_a)
                for cyl_b in cylinders_at_depth(join.b, kb):
                    m = ma * ball_measure(cyl_b, mu_b)
                    if m > bound:
                        violations.append((cyl_a.digits, cyl_b.digits, m, bound))
    return {"holds": not violations, "violations": violations}


def cylinders_at_depth(spec: ProductSpec, k: int) -> list[Cylinder]:
    if not 0 <= k <= spec.depth:
        raise ValueError(f"depth {k} outside 0..{spec.depth}")
    return [Cylinder(digits) for digits in product(*[range(n) for n in spec.factors[:k]])]
