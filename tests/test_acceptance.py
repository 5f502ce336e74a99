"""Acceptance suite: one test per advertised guarantee.

Each test prints a single "criterion N: PASS/FAIL" line on the real
stdout (bypassing capture) so the gate is readable from any runner.
"""

import random
import sys
from fractions import Fraction
from math import log

import numpy as np

from ultrametric import (
    audit,
    cantor,
    characters,
    harmonic,
    hensel,
    padic,
    radic,
)
from ultrametric.errors import HenselPreconditionFailed

BINARY3 = cantor.ProductSpec.geometric((2, 2, 2), Fraction(1, 2))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_hensel_against_digit_search():
    rng = random.Random(100)
    N = 10
    checked_v1 = 0
    checked_v2 = 0
    # specific anchor: x^2 - 17 over Z_2 lifts to 9 mod 32
    root, _ = hensel.hensel_v2(
        hensel.ZpPoly.from_rationals([-17, 0, 1], 2, 5), padic.PAdicInt(2, 5, 1)
    )
    assert root.residue % 32 == 9
    while checked_v1 < 250:
        p = rng.choice([2, 3, 5, 7])
        coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(2, 6))]
        f = hensel.ZpPoly.from_rationals(coeffs, p, N)
        x0 = rng.randrange(p)
        if f.eval_int(x0, p) % p != 0:
            continue
        point = padic.PAdicInt(p, N, x0)
        if f.derivative().eval_int(x0, p) % p != 0:
            root, trace = hensel.hensel_v1(f, point)
            oracle = hensel.roots_by_digit_search(f, N, constraint=lambda r: r == x0)
            assert oracle == [root.residue]
            for prev, cur in zip(trace.residual_abs, trace.residual_abs[1:]):
                assert cur <= prev**2
            checked_v1 += 1
        else:
            try:
                root, trace = hensel.hensel_v2(f, point)
            except HenselPreconditionFailed:
                continue
            k = padic.vp(f.derivative().eval_int(x0, p**N), p, N)
            cls = [
                r
                for r in hensel.roots_by_digit_search(f, N, constraint=lambda r: r == x0)
                if r % p ** (k + 1) == x0 % p ** (k + 1)
            ]
            assert cls and len({r % p ** (N - k) for r in cls}) == 1
            assert root.residue % p ** (N - k) == cls[0] % p ** (N - k)
            dfa = padic.abs_from_valuation(k, p)
            for prev, cur in zip(trace.residual_abs, trace.residual_abs[1:]):
                assert cur <= prev**2 / dfa**2
            checked_v2 += 1
    report(1, True, f"{checked_v1} v1 and {checked_v2} v2 lifts match the digit-search oracle mod p^10")


def test_criterion_2_hausdorff_exactness():
    gauge = cantor.Gauge.power(1)
    families = [
        (2,) * 12,
        (3,) * 7,
        (2, 3, 2, 3, 2, 3),
        (2, 3, 4, 5),
        (5, 5, 5),
        (7, 2, 7),
    ]
    checks = 0
    for factors in families:
        spec = cantor.ProductSpec.reciprocal(factors)
        assert cantor.hausdorff_measure(spec, [cantor.Cylinder(())], gauge) == 1
        for k in range(1, spec.depth + 1):
            B = cantor.cylinders_at_depth(spec, k)[0]
            assert cantor.hausdorff_measure(spec, [B], gauge) == Fraction(1, spec.cumulative(k))
            checks += 1
    spec = cantor.ProductSpec.geometric((2,) * 10, Fraction(1, 3))
    lo, hi = cantor.dimension_estimate(spec, 1e-8)
    mid = (lo + hi) / 2
    target = log(2) / log(3)
    assert abs(mid - target) <= 1e-6
    half = cantor.snowflake(spec, 2)
    lo2, hi2 = cantor.dimension_estimate(half, 1e-8)
    assert abs((lo2 + hi2) / 2 - target / 2) <= 1e-6
    double = cantor.snowflake(spec, Fraction(1, 2))
    lo3, hi3 = cantor.dimension_estimate(double, 1e-8)
    assert abs((lo3 + hi3) / 2 - 2 * target) <= 1e-6
    report(2, True, f"H^1 exact on {checks} balls across {len(families)} products; dimension and snowflake scaling verified")


def test_criterion_3_weak_type_constants():
    rng = random.Random(300)
    specs = [
        cantor.ProductSpec.geometric((2,) * 6, Fraction(1, 2)),
        cantor.ProductSpec.geometric((2,) * 4, Fraction(1, 3)),
        cantor.ProductSpec.reciprocal((3, 3, 3)),
        cantor.ProductSpec.reciprocal((2, 3, 2)),
    ]
    trees = 0
    for _ in range(1000):
        spec = rng.choice(specs)
        t = harmonic.random_tree(spec, rng)
        m = harmonic.maximal_function(t)
        nu_total = sum(t.nu, Fraction(0))
        for thr in sorted(set(m)):
            if thr <= 0:
                continue
            lhs = sum((w for w, v in zip(t.mu, m) if v > thr), Fraction(0))
            assert lhs <= nu_total / thr
        trees += 1
    for _ in range(200):
        n = rng.randrange(2, 8)
        g = harmonic.GridMeasure(
            points=tuple(Fraction(i) for i in range(n)),
            mu=tuple(Fraction(rng.randrange(1, 6)) for _ in range(n)),
            nu=tuple(Fraction(rng.randrange(0, 6)) for _ in range(n)),
        )
        for thr in sorted(set(harmonic.grid_maximal(g))):
            if thr > 0:
                assert harmonic.grid_weak_type(g, thr, C1=2)["holds"]
    adv, thr = harmonic.adversarial_grid()
    assert not harmonic.grid_weak_type(adv, thr, C1=1)["holds"]
    assert harmonic.grid_weak_type(adv, thr, C1=2)["holds"]
    report(3, True, f"C1=1 exact on {trees} trees, C1=2 on 200 grids, stored family refutes C1=1 on the line")


def test_criterion_4_lp_maximal_bound():
    rng = random.Random(400)
    cases = 0
    for _ in range(25):
        t = harmonic.random_tree(BINARY3, rng)
        f = [Fraction(rng.randrange(-8, 9), rng.choice([1, 2])) for _ in range(8)]
        for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                assert harmonic.lp_maximal_bound(f, t, p, a)["holds"]
                cases += 1
    report(4, True, f"{cases} exact L^p bounds over p in {{3/2,2,3}}, a in {{1/4,1/2,3/4}}")


def test_criterion_5_distribution_identity():
    rng = random.Random(500)
    cases = 0
    for _ in range(500):
        n = rng.randrange(1, 12)
        g = [Fraction(rng.randrange(0, 9), rng.choice([1, 2, 3])) for _ in range(n)]
        mu = [Fraction(rng.randrange(1, 6), rng.choice([1, 2])) for _ in range(n)]
        p = rng.choice([1, 2, 3, 5])
        rep = harmonic.distribution_identity(g, mu, p)
        assert rep["equal"] and rep["lhs"] == rep["rhs"]
        cases += 1
    report(5, True, f"layer-cake identity exact on {cases} randomized nonnegative functions")


def test_criterion_6_martingale_suite():
    rng = random.Random(600)
    filt = harmonic.Filtration.dyadic(BINARY3)
    coarse = ((0, 1, 2, 3), (4, 5, 6, 7))
    fine = ((0, 1), (2, 3), (4, 5), (6, 7))
    doob_cases = 0
    for _ in range(200):
        mu = [Fraction(rng.randrange(1, 5)) for _ in range(8)]
        f = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2])) for _ in range(8)]
        t = Fraction(rng.randrange(1, 9), rng.choice([1, 2]))
        rep = harmonic.martingale_maximal(f, filt, mu, t)
        assert rep["holds"] and all(r["superlevel_is_block_union"] for r in rep["doob"])
        doob_cases += 1
    identity_cases = 0
    for _ in range(1000):
        mu = [Fraction(rng.randrange(1, 5)) for _ in range(8)]
        f = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3])) for _ in range(8)]
        ff = harmonic.cond_expectation(f, fine, mu)
        assert harmonic.cond_expectation(ff, coarse, mu) == harmonic.cond_expectation(f, coarse, mu)
        absb = harmonic.cond_expectation([abs(x) for x in f], fine, mu)
        assert all(abs(a) <= b for a, b in zip(ff, absb))
        sqb = harmonic.cond_expectation([x * x for x in f], fine, mu)
        assert all(a * a <= b for a, b in zip(ff, sqb))
        g0, g1 = Fraction(rng.randrange(-4, 5)), Fraction(rng.randrange(-4, 5))
        g = [g0, g0, g1, g1] * 2
        prod = harmonic.cond_expectation([x * y for x, y in zip(f, g)], fine, mu)
        assert prod == [a * y for a, y in zip(ff, g)]
        identity_cases += 1
    report(6, True, f"Doob exact on {doob_cases} filtrations; tower/contraction/Jensen/pull-out on {identity_cases} instances")


def _ordered_factorizations(n_max: int):
    """All radices (ordered factor tuples, factors >= 2) with product <= n_max."""
    out = []

    def rec(prefix, prod):
        if prefix:
            out.append(tuple(prefix))
        f = 2
        while prod * f <= n_max:
            prefix.append(f)
            rec(prefix, prod * f)
            prefix.pop()
            f += 1

    rec([], 1)
    return out


def test_criterion_7_isometry_and_haar():
    small = _ordered_factorizations(96)
    large = [
        (2,) * 12,
        (4,) * 6,
        (8,) * 4,
        (6, 6, 6, 6),
        (2, 3, 2, 3, 2, 3, 2, 3),
        (4096,),
        (64, 64),
    ]
    count = 0
    for factors in small + large:
        r = radic.Radix(factors)
        rep = audit.build_radic_isometry(r)
        assert rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
        assert rep["pairs_checked"] == r.modulus**2
        for n in range(r.depth + 1):
            assert radic.haar_ball(n, r) == Fraction(1, r.cumulative(n))
        count += 1
    report(7, True, f"exhaustive isometry + uniform Haar pushforward on {count} radices (all with R <= 96 plus 7 with R up to 4096)")


def test_criterion_8_character_tables():
    for n in list(range(1, 65)) + [128, 256, 512, 1024]:
        g = characters.gram_exact(n)
        assert all(g[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
        f = characters.gram_float(n)
        assert np.max(np.abs(f - np.eye(n))) < 1e-12
    pair_count = 0
    for n in range(2, 65):
        # the distance depends only on d = j1 - j2 mod n, so d ranges over
        # all distinct pairs
        for d in range(1, n):
            assert characters.l2_distance_squared(n, d, 0) == 2
            pair_count += 1
    report(8, True, f"gram identity exact+float for n <= 64 and n in {{128,256,512,1024}}; L2 distance 2 on {pair_count} distinct-pair classes")


def test_criterion_9_series_cross_module():
    rng = random.Random(900)
    cases = 0
    while cases < 500:
        p = rng.choice([2, 3, 5, 7])
        N = rng.randrange(4, 9)
        u = rng.randrange(1, p**N)
        x_int = p * u % p**N
        if x_int == 0:
            continue
        scalar = padic.PAdicScalar.from_padic_int(padic.PAdicInt(p, N, x_int))
        g1 = padic.geometric_sum(scalar)
        # sum (p u)^j as the series sum p^j t^j evaluated at the unit t = u
        geo = hensel.ZpSeries(p, N, lambda j: 1, 1)
        g2 = hensel.series_eval(geo, padic.PAdicInt(p, N, u))
        rational = padic.padic_from_rational(Fraction(1, 1 - x_int), p, N)
        r1 = g1.to_padic_int().residue
        r2 = g2.to_padic_int().residue
        assert r1 == r2 == rational.residue
        # Cauchy product of the geometric series with itself gives the
        # coefficients of 1/(1-x)^2; partial sums agree mod p^N
        J = N + 2
        a = [padic.PAdicScalar.from_rational(1, p, N) for _ in range(J)]
        c = padic.cauchy_product(a, a)
        xpow = padic.PAdicScalar.from_rational(1, p, N)
        total = padic.PAdicScalar.zero(p, N)
        for l in range(J):
            total = total + c[l] * xpow
            xpow = xpow * scalar
        sq = padic.padic_from_rational(Fraction(1, (1 - x_int) ** 2), p, N)
        assert total.to_padic_int().residue == sq.residue
        cases += 1
    report(9, True, f"geometric_sum, series_eval, and the Cauchy product agree with rational ground truth on {cases} cases")
