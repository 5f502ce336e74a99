import random
from fractions import Fraction
from math import log

import pytest

from ultrametric import cantor
from ultrametric.errors import (
    InvalidGauge,
    OverlappingCylinders,
    ScaleMismatch,
)

BINARY3 = cantor.ProductSpec.geometric((2, 2, 2), Fraction(1, 2))
BINARY3_RECIP = cantor.ProductSpec.reciprocal((2, 2, 2))


def test_match_and_dist_examples():
    assert cantor.match_and_dist((0, 1, 0), (0, 1, 1), BINARY3) == (2, Fraction(1, 4))
    assert cantor.match_and_dist((1, 0, 1), (1, 0, 1), BINARY3)[1] == 0


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
    # binary branching with t = 3^-l at the similarity dimension
    spec = cantor.ProductSpec.geometric((2,) * 6, Fraction(1, 3))
    alpha = Fraction(
        *Fraction(log(2) / log(3)).limit_denominator(10**6).as_integer_ratio()
    )
    val = cantor.hausdorff_content(spec, [cantor.Cylinder(())], cantor.Gauge.power(alpha))
    assert abs(float(val) - 1.0) < 1e-3


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
    # bisection stops at adjacent floats instead of looping forever
    spec = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 3))
    lo, hi = cantor.dimension_estimate(spec, 0)
    assert lo - 1e-12 <= log(2) / log(3) <= hi + 1e-12
    assert 0 < hi - lo <= 4e-16


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
