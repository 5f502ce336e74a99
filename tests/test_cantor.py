import random
import time
from fractions import Fraction
from math import inf, log

import pytest

from ultrametric import cantor
from ultrametric.errors import (
    ExponentOutOfRange,
    InvalidGauge,
    OverlappingCylinders,
    ScaleMismatch,
)

BINARY3 = cantor.ProductSpec.geometric((2, 2, 2), Fraction(1, 2))
BINARY3_RECIP = cantor.ProductSpec.reciprocal((2, 2, 2))


def test_match_and_dist_examples():
    assert cantor.match_and_dist((0, 1, 0), (0, 1, 1), BINARY3) == (2, Fraction(1, 4))
    assert cantor.match_and_dist((1, 0, 1), (1, 0, 1), BINARY3)[1] == 0


def test_match_length_against_its_definition():
    rng = random.Random(29)
    for _ in range(2000):
        L = rng.randrange(0, 12)
        x = tuple(rng.randrange(3) for _ in range(L))
        y = tuple(rng.choice((d, rng.randrange(3))) for d in x)
        want = next((l for l in range(L) if x[l] != y[l]), L)
        assert cantor.match_length(x, y) == want
        assert cantor.match_length(x, x) == L
    # words of different lengths are refused whether or not a digit differs
    for x, y in (((0, 1), (0, 1, 0)), ((1,), (0, 0)), ((), (0,)), ((0, 0, 1), (0,))):
        with pytest.raises(ValueError, match="lengths"):
            cantor.match_length(x, y)


def test_ultrametric_exhaustive_depth3():
    pts = list(BINARY3.points())
    for x in pts:
        for y in pts:
            for z in pts:
                dxz = cantor.match_and_dist(x, z, BINARY3)[1]
                dxy = cantor.match_and_dist(x, y, BINARY3)[1]
                dyz = cantor.match_and_dist(y, z, BINARY3)[1]
                assert dxz <= max(dxy, dyz)


def test_ball_nesting():
    # any point of a ball is its center at grid radii
    pts = list(BINARY3.points())
    for x in pts:
        for y in pts:
            for k in range(1, 4):
                r = BINARY3.scales[k - 1]
                if cantor.match_and_dist(x, y, BINARY3)[1] < r:
                    ball_x = {z for z in pts if cantor.match_and_dist(x, z, BINARY3)[1] < r}
                    ball_y = {z for z in pts if cantor.match_and_dist(y, z, BINARY3)[1] < r}
                    assert ball_x == ball_y


def test_ball_measure_examples():
    mu = cantor.ProductMeasure.uniform(BINARY3)
    assert cantor.ball_measure(cantor.Cylinder((0, 1, 0)), mu) == Fraction(1, 8)
    skew = cantor.ProductMeasure(
        ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3)))
    )
    assert cantor.ball_measure(cantor.Cylinder((1, 1)), skew) == Fraction(4, 9)
    assert cantor.ball_measure(cantor.Cylinder(()), mu) == 1


def test_h1_whole_space_is_one():
    gauge = cantor.Gauge.power(1)
    spec = BINARY3
    for delta in (None, Fraction(1, 2), Fraction(1, 8)):
        val = cantor.hausdorff_content(
            spec, [cantor.Cylinder(())], gauge, delta=delta, closed_threshold=True
        )
        assert val == 1
    assert cantor.hausdorff_measure(spec, [cantor.Cylinder(())], gauge) == 1


def test_h1_of_ball_is_diameter():
    gauge = cantor.Gauge.power(1)
    spec = cantor.ProductSpec.reciprocal((2, 3, 2))
    for k in range(1, 4):
        B = cantor.cylinders_at_depth(spec, k)[0]
        val = cantor.hausdorff_measure(spec, [B], gauge)
        assert val == spec.scales[k]


def test_log23_self_similar_content():
    # binary branching with t = 3^-l near the similarity dimension log 2/log 3,
    # from 29/46 just below it to 12/19 just above it: (2 3^-alpha)^6 is near 1
    spec = cantor.ProductSpec.geometric((2,) * 6, Fraction(1, 3))
    for alpha in (Fraction(29, 46), Fraction(12, 19)):
        lo, hi = cantor.hausdorff_content(spec, [cantor.Cylinder(())], cantor.Gauge.power(alpha))
        assert lo <= hi and abs(float(lo) - 1.0) < 1e-2
    # a root of degree 10^6 is refused before any work
    alpha = Fraction(log(2) / log(3)).limit_denominator(10**6)
    with pytest.raises(ExponentOutOfRange):
        cantor.hausdorff_content(spec, [cantor.Cylinder(())], cantor.Gauge.power(alpha))


def test_content_monotone_in_delta_and_additive_when_separated():
    spec = BINARY3
    gauge = cantor.Gauge.power(1)
    target = [cantor.Cylinder((0, 0)), cantor.Cylinder((1, 1))]
    v_inf = cantor.hausdorff_content(spec, target, gauge)
    v_half = cantor.hausdorff_content(spec, target, gauge, delta=Fraction(1, 2))
    v_quarter = cantor.hausdorff_content(spec, target, gauge, delta=Fraction(1, 4))
    assert v_inf <= v_half <= v_quarter
    # the two targets are t_0-separated so content splits exactly
    for delta in (Fraction(1, 2), Fraction(1, 4)):
        a = cantor.hausdorff_content(spec, [target[0]], gauge, delta=delta)
        b = cantor.hausdorff_content(spec, [target[1]], gauge, delta=delta)
        assert a + b == cantor.hausdorff_content(spec, target, gauge, delta=delta)


def test_overlapping_target_rejected():
    with pytest.raises(OverlappingCylinders):
        cantor.hausdorff_content(
            BINARY3,
            [cantor.Cylinder((0,)), cantor.Cylinder((0, 1))],
            cantor.Gauge.power(1),
        )


def test_dimension_estimates():
    spec = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 3))
    lo, hi = cantor.dimension_estimate(spec, 1e-7)
    target = log(2) / log(3)
    assert lo - 1e-7 <= target <= hi + 1e-7
    spec2 = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 2))
    lo2, hi2 = cantor.dimension_estimate(spec2, 1e-7)
    assert lo2 - 1e-7 <= 1.0 <= hi2 + 1e-7


def test_dimension_estimate_tolerance_zero():
    # a rational dimension is exact at any tolerance; an irrational one is a
    # float bracket 2^-39 wide, which a narrower tolerance cannot ask for
    cases = (
        ((2,) * 10, Fraction(1, 2), 1),
        ((2, 2, 2), Fraction(1, 8), Fraction(1, 3)),
        ((4, 2, 8), Fraction(1, 8), Fraction(1, 2)),  # log 8 / log 64 at level 2
    )
    for factors, theta, dim in cases:
        spec = cantor.ProductSpec.geometric(factors, theta)
        assert cantor.dimension_estimate(spec, 0) == (dim, dim)
    spec = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 3))
    for tolerance in (0, 1e-13):
        with pytest.raises(ValueError):
            cantor.dimension_estimate(spec, tolerance)
    lo, hi = cantor.dimension_estimate(spec, 1e-11)
    assert type(lo) is float and lo < log(2) / log(3) < hi
    assert hi - lo == pytest.approx(2.0**-39 * log(2) / log(3))


def test_power_gauge_and_tolerance_reject_values_they_cannot_honour():
    # t^-1 decreases, which Gauge.from_table rejects as non-monotone
    with pytest.raises(InvalidGauge):
        cantor.Gauge.power(-1)
    with pytest.raises(InvalidGauge):
        cantor.Gauge.from_table([(Fraction(1, 2), 2), (Fraction(1), 1)])
    assert cantor.Gauge.power(0).value(Fraction(1, 2)) == (1, 1)
    for tolerance in (float("nan"), -1e-9):
        with pytest.raises(ValueError):
            cantor.dimension_estimate(BINARY3, tolerance)


def test_iroot_against_defining_inequality():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(0, 1 << rng.randrange(1, 700))
        k = rng.randrange(2, 8)
        x, exact = cantor.iroot(n, k)
        assert x**k <= n < (x + 1) ** k
        assert exact == (x**k == n)
    assert cantor.iroot(3**300, 3) == (3**100, True)
    assert cantor.iroot(10**40 - 1, 2) == (10**20 - 1, False)


def test_iroot_refuses_negative_n_and_degree_below_one():
    # -8 once came back as (-8, False) and k = 0 as a ZeroDivisionError
    for n, k in ((-8, 3), (-1, 2), (8, 0), (8, -2)):
        with pytest.raises(ValueError, match="n >= 0 and k >= 1"):
            cantor.iroot(n, k)
    assert cantor.iroot(0, 1) == (0, True) and cantor.iroot(7, 1) == (7, True)


def test_snowflake_halves_dimension():
    spec = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 2))
    flaked = cantor.snowflake(spec, 2)
    lo, hi = cantor.dimension_estimate(flaked, 1e-7)
    assert lo - 1e-7 <= 0.5 <= hi + 1e-7
    # alpha-content of d^a equals (alpha a)-content of d, exactly
    val_flaked = cantor.hausdorff_content(
        flaked, [cantor.Cylinder(())], cantor.Gauge.power(Fraction(1, 2))
    )
    val_orig = cantor.hausdorff_content(
        spec, [cantor.Cylinder(())], cantor.Gauge.power(1)
    )
    assert val_flaked == val_orig == 1


def test_monotone_map():
    spec = BINARY3_RECIP
    assert cantor.monotone_map_point((1, 0, 1), spec) == Fraction(5, 8)
    assert cantor.monotone_map_cylinder(cantor.Cylinder(()), spec) == (0, 1)
    assert cantor.monotone_map_collides((0, 1, 1), (1, 0, 0), spec)
    assert not cantor.monotone_map_collides((0, 1, 0), (1, 0, 0), spec)
    with pytest.raises(ScaleMismatch):
        cantor.monotone_map_point((0, 0, 0), cantor.ProductSpec.geometric((2, 2, 2), Fraction(1, 3)))


def test_monotone_map_collides_exactly_for_neighbouring_images():
    # f(x) = rank(x) / N_L, so x and y touch when equal or one grid step apart;
    # the mixed factors give digit gaps above 1, and both orders of each pair run
    for spec in (BINARY3_RECIP, cantor.ProductSpec.reciprocal((3, 2, 3))):
        step = Fraction(1, spec.modulus)
        pts = list(spec.points())
        for x in pts:
            fx = cantor.monotone_map_point(x, spec)
            for y in pts:
                touch = abs(fx - cantor.monotone_map_point(y, spec)) in (0, step)
                assert cantor.monotone_map_collides(x, y, spec) is touch
    spec = cantor.ProductSpec.reciprocal((3, 2, 3))
    assert cantor.monotone_map_collides((1, 0, 2), (1, 0, 2), spec)
    assert cantor.monotone_map_collides((1, 0, 0), (0, 1, 2), spec)
    assert not cantor.monotone_map_collides((0, 1, 2), (2, 0, 0), spec)


def test_monotone_map_is_one_lipschitz_and_order_preserving():
    spec = BINARY3_RECIP
    pts = list(spec.points())
    for x in pts:
        for y in pts:
            fx = cantor.monotone_map_point(x, spec)
            fy = cantor.monotone_map_point(y, spec)
            assert abs(fx - fy) <= cantor.match_and_dist(x, y, spec)[1]
            if x <= y:
                assert fx <= fy


def test_monotone_map_hits_every_grid_point():
    spec = cantor.ProductSpec.reciprocal((2, 3))
    values = {cantor.monotone_map_point(x, spec) for x in spec.points()}
    N = spec.cumulative(2)
    assert values == {Fraction(i, N) for i in range(N)}


def test_modulus_of_continuity_on_grid():
    # sigma_f(t_k) <= t_k for the monotone map
    spec = BINARY3_RECIP
    pts = list(spec.points())
    for k in range(1, 4):
        t_k = spec.scales[k]
        worst = max(
            abs(cantor.monotone_map_point(x, spec) - cantor.monotone_map_point(y, spec))
            for x in pts
            for y in pts
            if cantor.match_and_dist(x, y, spec)[1] <= t_k
        )
        assert worst <= t_k


def test_gauge_transform():
    spec = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    squared = cantor.gauge_transform(spec, lambda t: t**2)
    assert squared.scales == (1, Fraction(1, 4), Fraction(1, 16))
    # H^(1/2) of the transformed space equals H^1 of the original
    v1 = cantor.hausdorff_measure(spec, [cantor.Cylinder(())], cantor.Gauge.power(1))
    v2 = cantor.hausdorff_measure(
        squared, [cantor.Cylinder(())], cantor.Gauge.power(Fraction(1, 2))
    )
    assert v1 == v2 == 1
    same = cantor.gauge_transform(spec, lambda t: t)
    assert same.scales == spec.scales
    with pytest.raises(InvalidGauge):
        cantor.gauge_transform(spec, lambda t: Fraction(1, 2))
    for sigma in (lambda t: t - 1, lambda t: t - 2):  # sigma(t_0) = 0, then < 0
        with pytest.raises(InvalidGauge, match=r"sigma\(t_0\)"):
            cantor.gauge_transform(cantor.ProductSpec.reciprocal((2, 2)), sigma)


def test_gauge_table_correspondence():
    # h chosen with h(t_l) = 1/N_l makes the gauge content of X equal 1
    spec = cantor.ProductSpec.geometric((2, 3), Fraction(1, 5))
    h = cantor.Gauge.from_table(
        [(spec.scales[k], Fraction(1, spec.cumulative(k))) for k in range(3)]
    )
    assert cantor.hausdorff_content(spec, [cantor.Cylinder(())], h) == 1


def test_product_join():
    a = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    b = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    join = cantor.ProductJoin(a, b)
    # diam of a product rectangle is the max of the factor diameters
    for ka in range(3):
        for kb in range(3):
            assert join.rect_diam(ka, kb) == max(a.scales[ka], b.scales[kb])
    # distances on points
    for xa in a.points():
        for xb in b.points():
            for ya in a.points():
                for yb in b.points():
                    d = join.dist((xa, xb), (ya, yb))
                    assert d == max(
                        cantor.match_and_dist(xa, ya, a)[1],
                        cantor.match_and_dist(xb, yb, b)[1],
                    )
    assert join.as_product_spec().factors == (4, 4)


def test_product_join_grid_mismatch():
    a = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    b = cantor.ProductSpec.geometric((2, 2), Fraction(1, 3))
    from ultrametric.errors import GridMismatch

    with pytest.raises(GridMismatch):
        cantor.ProductJoin(a, b).as_product_spec()


def test_measure_bound_check():
    a = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    join = cantor.ProductJoin(a, a)
    mu = cantor.ProductMeasure.uniform(a)
    rep = cantor.measure_bound_check(join, mu, mu, cantor.Gauge.power(1), cantor.Gauge.power(1))
    assert rep["holds"]
    # with h(t) = t^3 the depth-1 rectangles of mass 1/4 exceed (1/2)^3 (1/2)^3
    h = cantor.Gauge.power(3)
    rep = cantor.measure_bound_check(join, mu, mu, h, h)
    assert not rep["holds"]
    assert rep["violations"][0] == ((0,), (0,), Fraction(1, 4), Fraction(1, 64))
    assert all(m > bound for _, _, m, bound in rep["violations"])


# ---------------------------------------------------------------------------
# the recursive Hausdorff DP, kept as the oracle of hausdorff_content
# ---------------------------------------------------------------------------


def _oracle_target_relation(prefix, target):
    """"disjoint", "inside" (prefix within a target cylinder), or "partial"."""
    node = cantor.Cylinder(prefix)
    inside = any(c.contains_prefix(node) for c in target)
    if inside:
        return "inside"
    if any(node.contains_prefix(c) for c in target):
        return "partial"
    return "disjoint"


def oracle_hausdorff_content(
    spec, target, h, delta=None, closed_threshold=False, measure=False
):
    """Recursion over every node under the target, one gauge value h(t) per node."""
    for c in target:
        cantor.validate_cylinder(c, spec)
    for i, a in enumerate(target):
        for b in target[i + 1 :]:
            if a.contains_prefix(b) or b.contains_prefix(a):
                raise OverlappingCylinders(f"{a.digits} and {b.digits} are nested")
    if not target:
        return Fraction(0)
    L = spec.depth

    def allowed(k):
        if measure:
            return k == L
        if delta is None:
            return True
        diam = spec.scales[k]
        return diam <= delta if closed_threshold else diam < delta

    def cost(prefix, rel):
        k = len(prefix)
        options = []
        if allowed(k):
            options.append(h(spec.scales[k]))
        if k < L:
            total = 0
            for d in range(spec.factors[k]):
                child = prefix + (d,)
                crel = rel if rel == "inside" else _oracle_target_relation(child, target)
                if crel == "disjoint":
                    continue
                total = total + cost(child, crel)
            options.append(total)
        if not options:
            return inf
        return min(options)

    rel0 = _oracle_target_relation((), target)
    if rel0 == "disjoint":
        return Fraction(0)
    return cost((), rel0)


def _random_antichain(rng, factors):
    """1-5 pairwise non-nested cylinders at mixed depths; the root alone at times."""
    if rng.random() < 0.08:
        return [cantor.Cylinder(())]
    words = []
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(1, len(factors))
        w = tuple(rng.randrange(n) for n in factors[:d])
        if not any(w[: len(e)] == e or e[: len(w)] == w for e in words):
            words.append(w)
    return [cantor.Cylinder(w) for w in words]


def _random_case(rng):
    L = rng.randint(1, 7)
    factors = tuple(rng.randint(2, 4) for _ in range(L))
    spec = rng.choice(
        (
            cantor.ProductSpec.reciprocal(factors),
            cantor.ProductSpec.geometric(factors, Fraction(1, rng.randint(2, 5))),
        )
    )
    target = _random_antichain(rng, factors)
    kw = {}
    r = rng.random()
    if r < 0.2:
        kw["measure"] = True
    elif r < 0.8:
        j = rng.randrange(L + 1)
        t = spec.scales[j]
        kw["delta"] = t if j == L or rng.random() < 0.5 else (t + spec.scales[j + 1]) / 2
        kw["closed_threshold"] = rng.random() < 0.5
    return spec, target, kw


def float_power(t: Fraction, alpha: Fraction):
    """t^alpha as an exact Fraction when possible, else a float: the power
    the package took before every power went through ``pow_bounds``."""
    if alpha.denominator == 1:
        return t**alpha.numerator
    if abs(alpha.numerator) > 64 or alpha.denominator > 64:
        return float(t) ** float(alpha)
    base = t**alpha.numerator
    rn, okn = cantor.iroot(base.numerator, alpha.denominator)
    rd, okd = cantor.iroot(base.denominator, alpha.denominator)
    if okn and okd:
        return Fraction(rn, rd)
    return float(base) ** (1.0 / alpha.denominator)


def content(spec, target, gauge, measure=False, **kw):
    """The package's value for a case of ``_random_case``: a ``measure``
    case goes to ``hausdorff_measure``, the others to ``hausdorff_content``."""
    if measure:
        return cantor.hausdorff_measure(spec, target, gauge)
    return cantor.hausdorff_content(spec, target, gauge, **kw)


def end(gauge, i, spec):
    """The scalar gauge t -> i-th end of gauge.value(t), on the scales of spec."""
    return {t: gauge.value(t)[i] for t in spec.scales}.__getitem__


def test_hausdorff_content_against_recursive_oracle():
    # exact gauge values give the recursion's exact value, type for type; an
    # irrational one gives the recursion run on each end of the brackets, and
    # that bracket holds the float recursion up to its rounding error
    rng = random.Random(4)
    alphas = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 7)]
    brackets = 0
    for _ in range(2400):
        spec, target, kw = _random_case(rng)
        alpha = rng.choice(alphas)
        gauge = cantor.Gauge.power(alpha)
        new = content(spec, target, gauge, **kw)
        floats = {t: float_power(t, alpha) for t in spec.scales}
        old = oracle_hausdorff_content(spec, target, floats.__getitem__, **kw)
        if type(new) is not tuple:
            assert type(new) is type(old) and new == old, (spec, target, gauge, kw)
            continue
        lo, hi = new
        assert lo == oracle_hausdorff_content(spec, target, end(gauge, 0, spec), **kw)
        assert hi == oracle_hausdorff_content(spec, target, end(gauge, 1, spec), **kw)
        assert type(lo) is Fraction and lo <= hi <= lo * (1 + Fraction(1, 2**60))
        err = 1e-12 * float(hi)
        assert float(lo) - err <= old <= float(hi) + err
        brackets += 1
    assert brackets > 500  # irrational powers are exercised, not only exact values


def test_hausdorff_content_table_gauge_against_recursive_oracle():
    # integer and rational table values, so int, Fraction and inf results all occur
    rng = random.Random(6)
    for _ in range(600):
        spec, target, kw = _random_case(rng)
        values = sorted(rng.choice((0, 1, 2, Fraction(1, 3), Fraction(5, 2))) for _ in spec.scales)
        gauge = cantor.Gauge.from_table(zip(sorted(spec.scales), values))
        new = content(spec, target, gauge, **kw)
        old = oracle_hausdorff_content(spec, target, end(gauge, 0, spec), **kw)
        assert type(new) is type(old) and new == old, (spec, target, values, kw)


def test_nested_targets_rejected_as_by_the_oracle():
    rng = random.Random(8)
    gauge = cantor.Gauge.power(1)
    for _ in range(300):
        spec, target, _ = _random_case(rng)
        w = rng.choice(target).digits
        # a repeat, a prefix or an extension of a target word, at a random place
        nested = w[: rng.randrange(len(w) + 1)]
        if rng.random() < 0.5:
            nested = w + tuple(rng.randrange(n) for n in spec.factors[len(w) :])
        target.insert(rng.randrange(len(target) + 1), cantor.Cylinder(nested))
        with pytest.raises(OverlappingCylinders) as new:
            cantor.hausdorff_content(spec, target, gauge)
        with pytest.raises(OverlappingCylinders) as old:
            oracle_hausdorff_content(spec, target, end(gauge, 0, spec))
        assert str(new.value) == str(old.value)


def test_wide_factor_brackets_follow_the_recursion_on_each_end():
    # n children inside the target cost n times one child, in exact
    # arithmetic; each end of the bracket is the recursion on that end
    spec = cantor.ProductSpec.geometric((10, 7, 10), Fraction(1, 3))
    gauge = cantor.Gauge.power(Fraction(3, 4))
    for target in ([cantor.Cylinder(())], [cantor.Cylinder((3,)), cantor.Cylinder((4, 1))]):
        lo, hi = cantor.hausdorff_measure(spec, target, gauge)
        for i, value in enumerate((lo, hi)):
            assert value == oracle_hausdorff_content(spec, target, end(gauge, i, spec), measure=True)
        old = oracle_hausdorff_content(
            spec, target, lambda t: float_power(t, Fraction(3, 4)), measure=True
        )
        assert type(old) is float and float(lo) * (1 - 1e-15) <= old <= float(hi) * (1 + 1e-15)


def test_h1_measure_at_depth_128():
    # 2^128 leaves: the cost depends on the depth and the target, not on N_L
    spec = cantor.ProductSpec.reciprocal((2,) * 128)
    gauge = cantor.Gauge.power(1)
    assert cantor.hausdorff_measure(spec, [cantor.Cylinder(())], gauge) == 1
    rng = random.Random(7)
    B = cantor.Cylinder(tuple(rng.randrange(2) for _ in range(100)))
    val = cantor.hausdorff_measure(spec, [B], gauge)
    assert type(val) is Fraction and val == Fraction(1, 2**100)


def test_delta_content_at_depth_128_matches_closed_form():
    # one cylinder of depth j: a ball of depth k <= j covers it at cost t_k,
    # otherwise N_k/N_j balls of depth k do
    factors = (2, 3, 5) * 42 + (2, 3)
    spec = cantor.ProductSpec.geometric(factors, Fraction(1, 3))
    gauge = cantor.Gauge.power(1)
    j = 60
    B = cantor.Cylinder(tuple(n - 1 for n in factors[:j]))
    t = spec.scales
    for delta in (t[40], (t[90] + t[91]) / 2):
        for closed in (False, True):
            want = min(
                max(1, Fraction(spec.cumulative(k), spec.cumulative(j))) * t[k]
                for k in range(len(t))
                if (t[k] <= delta if closed else t[k] < delta)
            )
            val = cantor.hausdorff_content(
                spec, [B], gauge, delta=delta, closed_threshold=closed
            )
            assert type(val) is Fraction and val == want


def test_square_root_gauge_on_4_adic_scales_is_exact_at_depth_100():
    # h(4^-k) = 2^-k exactly, so no value falls back to floats
    spec = cantor.ProductSpec.geometric((4,) * 100, Fraction(1, 4))
    gauge = cantor.Gauge.power(Fraction(1, 2))
    whole = [cantor.Cylinder(())]
    val = cantor.hausdorff_measure(spec, whole, gauge)
    assert type(val) is Fraction and val == 2**100
    # covers by balls of depth k >= 2 cost 4^k 2^-k = 2^k, least at k = 2
    val = cantor.hausdorff_content(spec, whole, gauge, delta=spec.scales[1])
    assert type(val) is Fraction and val == 4
    halves = [cantor.Cylinder((0,) * 50), cantor.Cylinder((1,) * 50)]
    val = cantor.hausdorff_measure(spec, halves, gauge)
    assert type(val) is Fraction and val == 2


# ---------------------------------------------------------------------------
# powers and the dimension without floats, against the float kernels they
# replaced: float_power above and the bisection below
# ---------------------------------------------------------------------------


def test_pow_bounds_is_exact_on_rational_powers_and_caps_the_root_degree():
    assert cantor.pow_bounds(Fraction(1, 9), Fraction(1, 2)) == (Fraction(1, 3),) * 2
    assert cantor.pow_bounds(Fraction(8, 27), Fraction(5, 3), 8) == (Fraction(32, 243),) * 2
    lo, hi = cantor.pow_bounds(Fraction(2), Fraction(1, 64))
    assert lo < hi and lo**64 <= 2 <= hi**64
    start = time.perf_counter()
    for alpha in (Fraction(1, 65), Fraction(100001, 100000)):
        with pytest.raises(ExponentOutOfRange):
            cantor.pow_bounds(Fraction(1, 2), alpha)
    assert time.perf_counter() - start < 0.1


def test_pow_bounds_of_one_is_one_past_the_bit_budget():
    # 1^c = 1 for every c, so the budget on x^c does not apply
    for c in (Fraction(70000), Fraction(3000001, 3), Fraction(10**9)):
        assert cantor.pow_bounds(Fraction(1), c) == (1, 1)


def test_pow_bounds_against_float_power():
    rng = random.Random(15)
    exact = 0
    for _ in range(2000):
        alpha = Fraction(rng.randrange(1, 64), rng.randrange(1, 65))
        t = Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**4))
        if rng.random() < 0.2:  # a perfect power, so t^alpha may be rational
            t = Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) ** alpha.denominator
        lo, hi = cantor.pow_bounds(t, alpha)
        old = float_power(t, alpha)
        if type(old) is Fraction:
            assert lo == hi == old
            exact += 1
        else:
            assert lo < hi and lo**alpha.denominator <= t**alpha.numerator <= hi**alpha.denominator
            assert float(lo) - 1e-12 * old <= old <= float(hi) + 1e-12 * old
    assert exact > 300


def bisection_dimension(spec, tolerance):
    """The float bisection on min_k N_k t_k^alpha >= 1 that dimension_estimate was."""
    L = spec.depth

    def crosses(alpha):
        return min(spec.cumulative(k) * float(spec.scales[k]) ** alpha for k in range(1, L + 1)) >= 1.0

    lo, hi = 0.0, 1.0
    while crosses(hi):
        lo, hi = hi, hi * 2
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if crosses(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _random_spec(rng, max_depth):
    """Geometric, power-of-a-base (often a rational dimension) or arbitrary
    decreasing scales, each ratio at most 1/2; no float underflows."""
    L = rng.randint(1, max_depth)
    kind = rng.randrange(3)
    if kind == 0:
        factors = tuple(rng.randint(2, 6) for _ in range(L))
        return cantor.ProductSpec.geometric(factors, Fraction(1, rng.randint(2, 12)))
    if kind == 1:
        n = rng.choice((2, 3))
        factors = tuple(n ** rng.randint(1, 3) for _ in range(L))
        return cantor.ProductSpec.geometric(factors, Fraction(1, n ** rng.randint(1, 3)))
    factors = tuple(rng.randint(2, 6) for _ in range(L))
    scales = [Fraction(1)]
    for _ in range(L):
        scales.append(scales[-1] * Fraction(rng.randint(1, 5), rng.randint(11, 60)))
    return cantor.ProductSpec(factors, tuple(scales))


def test_dimension_closed_form_against_bisection():
    rng = random.Random(12)
    exact = 0
    for _ in range(300):
        spec = _random_spec(rng, 12)
        lo, hi = cantor.dimension_estimate(spec, 1e-9)
        blo, bhi = bisection_dimension(spec, 1e-12)
        slack = 1e-12 * max(1.0, bhi)
        assert blo - slack <= hi and lo <= bhi + slack, spec
        exact += type(lo) is Fraction
    assert exact > 50


def _side(spec, r):
    """-1 if r is below every alpha_k, +1 if above some alpha_k, 0 if r is
    the minimum, decided in integers: r = c/e < alpha_k iff v^c < N_k^e u^c."""
    c, e = r.numerator, r.denominator
    signs = []
    for k in range(1, spec.depth + 1):
        u, v = spec.scales[k].numerator, spec.scales[k].denominator
        lhs, rhs = v**c, spec.cumulative(k) ** e * u**c
        signs.append((lhs > rhs) - (lhs < rhs))
    return max(signs)


def test_dimension_bracket_against_integer_inequality():
    # every c/e with e <= 20 outside the bracket lies on the side the
    # integers say; an exact pair is the one c/e at which they say 0
    rng = random.Random(13)
    for _ in range(120):
        spec = _random_spec(rng, 6)
        lo, hi = cantor.dimension_estimate(spec, 1e-9)
        for e in range(1, 21):
            for c in range(int(hi * e) + 3):
                r = Fraction(c, e)
                if r < lo:
                    assert _side(spec, r) == -1, (spec, r)
                elif r > hi:
                    assert _side(spec, r) == 1, (spec, r)
                elif lo == hi:
                    assert _side(spec, r) == 0, (spec, r)


def test_snowflake_scales_are_exact_or_lower_ends_in_integers():
    # s = t^a exactly when that is rational; otherwise s^den <= t^num and s
    # is within 2^-64 relative of t^a
    rng = random.Random(14)
    for _ in range(100):
        spec = _random_spec(rng, 8)
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        flaked = cantor.snowflake(spec, a)
        for s, t in zip(flaked.scales, spec.scales):
            num, den = a.numerator, a.denominator
            assert s**den <= t**num < (s * (1 + Fraction(1, 2**63))) ** den
            assert (s**den == t**num) == (type(float_power(t, a)) is Fraction)


def test_deep_products_need_no_float():
    # 16^-300 underflows a float and 5^500 overflows one
    spec = cantor.ProductSpec.geometric((2,) * 300, Fraction(1, 16))
    assert cantor.dimension_estimate(spec) == (Fraction(1, 4), Fraction(1, 4))
    lo, hi = cantor.dimension_estimate(cantor.ProductSpec.geometric((5,) * 500, Fraction(1, 16)))
    assert lo < log(5) / log(16) < hi
    # the cheapest cover finer than t_690 is the 2^691 balls of depth 691,
    # 2^691 3^(-691/2) ~ 1.4667e43, which the float content read as 0.0
    spec = cantor.ProductSpec.geometric((2,) * 700, Fraction(1, 3))
    lo, hi = cantor.hausdorff_content(
        spec, [cantor.Cylinder(())], cantor.Gauge.power(Fraction(1, 2)), delta=spec.scales[690]
    )
    assert lo < hi and lo**2 * 3**691 <= 4**691 <= hi**2 * 3**691
    assert float(lo) == pytest.approx(1.4667e43, rel=1e-4)
    # its float snowflake underflowed into equal scales
    flaked = cantor.snowflake(spec, Fraction(1, 2))
    assert flaked.depth == 700 and flaked.scales[700] == Fraction(1, 3**350)
