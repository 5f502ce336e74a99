import random
import time
from fractions import Fraction
from itertools import accumulate
from math import isqrt, lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultrametric import harmonic
from ultrametric.cantor import MAX_POWER_BITS, Cylinder, ProductSpec
from ultrametric.errors import (
    DegenerateMeasure,
    DegeneratePartition,
    ExponentOutOfRange,
    NotNonnegative,
)
from trees import random_tree

BINARY3 = ProductSpec.geometric((2, 2, 2), Fraction(1, 2))


def leaf0_tree():
    mu = (Fraction(1, 8),) * 8
    nu = (Fraction(1),) + (Fraction(0),) * 7
    return harmonic.FiniteUltraTree(BINARY3, mu, nu)


def test_maximal_leaf0_example():
    m = harmonic.maximal_function(leaf0_tree())
    assert m == [8, 4, 2, 2, 1, 1, 1, 1]


def test_maximal_nu_equals_mu():
    mu = (Fraction(1, 8),) * 8
    t = harmonic.FiniteUltraTree(BINARY3, mu, mu)
    assert harmonic.maximal_function(t) == [1] * 8


def test_maximal_sublinearity():
    rng = random.Random(2)
    mu = tuple(Fraction(rng.randrange(1, 9)) for _ in range(8))
    for _ in range(100):
        nu1 = tuple(Fraction(rng.randrange(0, 9)) for _ in range(8))
        nu2 = tuple(Fraction(rng.randrange(0, 9)) for _ in range(8))
        both = tuple(a + b for a, b in zip(nu1, nu2))
        m1 = harmonic.maximal_function(harmonic.FiniteUltraTree(BINARY3, mu, nu1))
        m2 = harmonic.maximal_function(harmonic.FiniteUltraTree(BINARY3, mu, nu2))
        m = harmonic.maximal_function(harmonic.FiniteUltraTree(BINARY3, mu, both))
        assert all(x <= a + b for x, a, b in zip(m, m1, m2))


def test_zero_mass_leaf_rejected():
    with pytest.raises(DegenerateMeasure):
        harmonic.FiniteUltraTree(
            BINARY3, (Fraction(0),) + (Fraction(1, 7),) * 7, (Fraction(0),) * 8
        )


def test_superlevel_is_cylinder_union():
    t = leaf0_tree()
    for thr in sorted(set(harmonic.maximal_function(t))) + [Fraction(1, 2), Fraction(3)]:
        cyls = harmonic.superlevel_cylinders(t, thr)
        m = harmonic.maximal_function(t)
        covered = set()
        for c in cyls:
            width = 8 // BINARY3.cumulative(c.depth)
            rank = 0
            for k, d in enumerate(c.digits):
                rank = rank * BINARY3.factors[k] + d
            covered |= set(range(rank * width, (rank + 1) * width))
        assert covered == {i for i, v in enumerate(m) if v > thr}


def test_weak_type_examples():
    t = leaf0_tree()
    rep = harmonic.weak_type_verify(t, Fraction(3))
    assert rep["holds"] and rep["lhs"] == Fraction(1, 4) and rep["rhs"] == Fraction(1, 3)
    big = harmonic.weak_type_verify(t, Fraction(100))
    assert big["lhs"] == 0


def test_weak_type_random_trees():
    rng = random.Random(7)
    specs = [
        BINARY3,
        ProductSpec.geometric((3, 2), Fraction(1, 3)),
        ProductSpec.reciprocal((2, 2, 3)),
    ]
    for _ in range(200):
        spec = rng.choice(specs)
        t = random_tree(spec, rng)
        for thr in sorted(set(harmonic.maximal_function(t))):
            if thr > 0:
                assert harmonic.weak_type_verify(t, thr)["holds"]


def test_grid_weak_type_and_adversarial_family():
    g, thr = harmonic.adversarial_grid()
    m = harmonic.grid_maximal(g)
    # every atom sees the middle mass through some interval
    assert all(v >= Fraction(3, 2) for v in m)
    one = harmonic.grid_weak_type(g, thr, C1=1)
    assert not one["holds"]
    two = harmonic.grid_weak_type(g, thr, C1=2)
    assert two["holds"]
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be positive"):
            harmonic.grid_weak_type(g, t)


def test_grid_measure_checks_its_weights():
    # a mass on no point, a mu too short for the grid, and a negative nu
    for mu, nu in (((1, 1), (0, 1, 5)), ((1,), (0, 1)), ((1, 1), (1, -1))):
        with pytest.raises(ValueError):
            harmonic.GridMeasure((0, 1), mu, nu)
    g = harmonic.GridMeasure((0, 1), (1, 1), (0, 1))
    assert harmonic.grid_weak_type(g, 1, C1=1)["rhs"] == 1


def test_grid_weak_type_c2_random():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randrange(2, 7)
        g = harmonic.GridMeasure(
            points=tuple(Fraction(i) for i in range(n)),
            mu=tuple(Fraction(rng.randrange(1, 6)) for _ in range(n)),
            nu=tuple(Fraction(rng.randrange(0, 6)) for _ in range(n)),
        )
        for thr in sorted(set(harmonic.grid_maximal(g))):
            if thr > 0:
                assert harmonic.grid_weak_type(g, thr)["holds"]


# The per-(leaf, level) maximal function, the Fraction superlevel recursion and
# the cubic grid maximal function that the integer kernels replaced; they are
# the oracles of the tests below.


def level_sums_oracle(spec, weights):
    sums = [list(weights)]
    for k in range(spec.depth, 0, -1):
        n = spec.factors[k - 1]
        prev = sums[-1]
        sums.append([sum(prev[i * n : (i + 1) * n], Fraction(0)) for i in range(len(prev) // n)])
    sums.reverse()
    return sums


def maximal_function_oracle(tree):
    mu_sums = level_sums_oracle(tree.spec, tree.mu)
    nu_sums = level_sums_oracle(tree.spec, tree.nu)
    L = tree.spec.depth
    sizes = [tree.spec.cumulative(L) // tree.spec.cumulative(k) for k in range(L + 1)]
    out = []
    for leaf in range(tree.leaves):
        best = Fraction(0)
        for k in range(L, -1, -1):
            r = leaf // sizes[k]
            ratio = nu_sums[k][r] / mu_sums[k][r]
            if ratio > best:
                best = ratio
        out.append(best)
    return out


def superlevel_cylinders_oracle(tree, t, mu_sums, nu_sums):
    out = []

    def rec(depth, rank, digits):
        if nu_sums[depth][rank] / mu_sums[depth][rank] > t:
            out.append(Cylinder(digits))
            return
        if depth == tree.spec.depth:
            return
        n = tree.spec.factors[depth]
        for d in range(n):
            rec(depth + 1, rank * n + d, digits + (d,))

    rec(0, 0, ())
    return out


def grid_maximal_oracle(g):
    m = len(g.points)
    mu_pref = [Fraction(0)]
    nu_pref = [Fraction(0)]
    for w, v in zip(g.mu, g.nu):
        mu_pref.append(mu_pref[-1] + w)
        nu_pref.append(nu_pref[-1] + v)
    out = []
    for i in range(m):
        best = Fraction(0)
        for a in range(i + 1):
            for b in range(i, m):
                ratio = (nu_pref[b + 1] - nu_pref[a]) / (mu_pref[b + 1] - mu_pref[a])
                if ratio > best:
                    best = ratio
        out.append(best)
    return out


def assert_same(new, old):
    """Equal values of the same types, through dicts, lists and tuples."""
    assert type(new) is type(old)
    if isinstance(old, dict):
        assert new.keys() == old.keys()
        for k in old:
            assert_same(new[k], old[k])
    elif isinstance(old, (list, tuple)):
        assert len(new) == len(old)
        for x, y in zip(new, old):
            assert_same(x, y)
    else:
        assert new == old


# The integer kernels of the tree checks and the layer cake before signed ball
# sums and integer keys, kept as oracles: the (nu, mu) pair of each leaf's
# maximizing ball, the recursion over two ball-mass tables, and the layer cake
# grouped, sorted and summed on Fraction keys.


def integer_masses_oracle(weights):
    D = lcm(*(w.denominator for w in weights))
    return D, [w.numerator * (D // w.denominator) for w in weights]


def ball_masses_oracle(spec, weights):
    D, level = integer_masses_oracle(weights)
    masses = [level]
    for k in range(spec.depth, 0, -1):
        n = spec.factors[k - 1]
        level = [sum(level[i : i + n]) for i in range(0, len(level), n)]
        masses.append(level)
    masses.reverse()  # depth 0 first
    return D, masses


def maximal_pairs_oracle(tree):
    spec = tree.spec
    d_mu, mu = ball_masses_oracle(spec, tree.mu)
    d_nu, nu = ball_masses_oracle(spec, tree.nu)
    best = [(nu[0][0], mu[0][0])]
    for k in range(1, spec.depth + 1):
        n = spec.factors[k - 1]
        parents = (p for p in best for _ in range(n))
        best = [(a, b) if a * p[1] > p[0] * b else p for p, a, b in zip(parents, nu[k], mu[k])]
    return d_mu, mu, d_nu, nu, best


def superlevel_cylinders_tables_oracle(tree, t):
    t = Fraction(t)
    d_mu, mu = ball_masses_oracle(tree.spec, tree.mu)
    d_nu, nu = ball_masses_oracle(tree.spec, tree.nu)
    # nu/mu > t  <=>  a * d_mu * t.den > t.num * b * d_nu
    lhs, rhs = d_mu * t.denominator, t.numerator * d_nu
    out = []

    def rec(depth, rank, digits):
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


def weak_type_verify_pairs_oracle(tree, t):
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    d_mu, mu, d_nu, nu, best = maximal_pairs_oracle(tree)
    # M > t  <=>  a * d_mu * t.den > t.num * b * d_nu
    c_a, c_b = d_mu * t.denominator, t.numerator * d_nu
    lhs = Fraction(sum(w for w, (a, b) in zip(mu[-1], best) if a * c_a > b * c_b), d_mu)
    rhs = Fraction(nu[0][0] * t.denominator, d_nu * t.numerator)
    return {"holds": lhs <= rhs, "lhs": lhs, "rhs": rhs, "C1": Fraction(1)}


def distribution_identity_fraction_keys_oracle(g, mu, p):
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

    D, masses = integer_masses_oracle(mu)
    at = {}  # D times the mass of {g = x}, for x > 0
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
    powers = [harmonic.pow_bounds(t, p) for t in jumps]
    # i = 0 the lower ends, i = 1 the upper: b[i] - a[1 - i] bounds b^p - a^p
    lhs = tuple(sum((x[i] * at[v] for v, x in zip(jumps[1:], powers[1:])), Fraction(0)) / D
                for i in (0, 1))
    rhs = tuple(sum((m * (b[i] - a[1 - i]) for m, a, b in zip(lam, powers, powers[1:])),
                    Fraction(0)) / D for i in (0, 1))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs[0] <= rhs[1] and rhs[0] <= lhs[1]}


def ball_ratios(tree):
    """nu(B)/mu(B) for every ball B: thresholds at which a ball's signed sum is 0."""
    mu_sums = level_sums_oracle(tree.spec, tree.mu)
    nu_sums = level_sums_oracle(tree.spec, tree.nu)
    return sorted({n / m for ns, ms in zip(nu_sums, mu_sums) for n, m in zip(ns, ms)})


def oracle_weights(rng, n, positive):
    """Zero (nu only), integral and fractional weights.  The denominators
    come from a pool of six up to 10^6, so ball sums keep a bounded lcm."""
    pool = [rng.randrange(2, 10**6 + 1) for _ in range(6)]
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0 and not positive:
            out.append(Fraction(0))
        elif kind == 1:
            out.append(Fraction(rng.randrange(1, 10)))
        else:
            out.append(Fraction(rng.randrange(1, 10**4), rng.choice(pool)))
    return tuple(out)


def distinct_denominator_weights(rng, n, positive):
    """Each weight with its own denominator up to 10^6, so the one lcm of
    the integer kernels has about 6n digits: keep n small."""
    lo = 1 if positive else 0
    return tuple(Fraction(rng.randrange(lo, 10**4), rng.randrange(1, 10**6)) for _ in range(n))


def oracle_trees(seed, count, max_leaves):
    """Depth 1..8 in turn, branching 2..4 mixed within a tree, the largest
    factors lowered until the tree has at most max_leaves leaves."""
    rng = random.Random(seed)
    trees = []
    for i in range(count):
        factors = [rng.randrange(2, 5) for _ in range(1 + i % 8)]
        while prod(factors) > max_leaves:
            factors[factors.index(max(factors))] -= 1
        spec = ProductSpec.reciprocal(tuple(factors))
        n = spec.cumulative(spec.depth)
        trees.append(harmonic.FiniteUltraTree(
            spec, oracle_weights(rng, n, True), oracle_weights(rng, n, False)
        ))
    return trees


def test_maximal_function_matches_per_level_oracle():
    trees = oracle_trees(61, 64, 400)
    for t in trees:
        assert_same(harmonic.maximal_function(t), maximal_function_oracle(t))
    zero = harmonic.FiniteUltraTree(BINARY3, leaf0_tree().mu, (Fraction(0),) * 8)
    assert_same(harmonic.maximal_function(zero), maximal_function_oracle(zero))


def zero_nu_trees():
    """nu = 0: every ball's signed sum is -t mu(B) d_nu, never above t."""
    zero = harmonic.FiniteUltraTree(BINARY3, leaf0_tree().mu, (Fraction(0),) * 8)
    t = oracle_trees(68, 4, 256)[-1]
    return [zero, harmonic.FiniteUltraTree(t.spec, t.mu, (Fraction(0),) * t.leaves)]


def test_superlevel_cylinders_and_weak_type_match_oracles():
    rng = random.Random(62)
    for t in oracle_trees(62, 12, 256) + zero_nu_trees():
        mu_sums = level_sums_oracle(t.spec, t.mu)
        nu_sums = level_sums_oracle(t.spec, t.nu)
        M = maximal_function_oracle(t)
        grid = sorted(set(harmonic.maximal_function(t)))
        assert grid == sorted(set(M))
        # a ball's own ratio: its signed sum is 0, so that ball is not above it
        ratios = ball_ratios(t)
        ratios = rng.sample(ratios, min(6, len(ratios)))
        for thr in grid + [grid[0] / 2, grid[-1] + 1] + ratios:
            new = harmonic.superlevel_cylinders(t, thr)
            assert_same(new, superlevel_cylinders_oracle(t, thr, mu_sums, nu_sums))
            assert_same(new, superlevel_cylinders_tables_oracle(t, thr))
        for thr in rng.sample(grid, min(6, len(grid))) + ratios + [Fraction(1, 3)]:
            if thr > 0:
                rep = harmonic.weak_type_verify(t, thr)
                assert rep["lhs"] == sum((w for w, v in zip(t.mu, M) if v > thr), Fraction(0))
                assert rep["holds"]
                assert_same(rep, weak_type_verify_pairs_oracle(t, thr))


def weak_type_verify_oracle(tree, t):
    """The Fraction check over every leaf that the integer pairs replaced."""
    t = Fraction(t)
    m = maximal_function_oracle(tree)
    lhs = sum((w for w, v in zip(tree.mu, m) if v > t), Fraction(0))
    rhs = Fraction(1) / t * sum(tree.nu, Fraction(0))
    return {"holds": lhs <= rhs, "lhs": lhs, "rhs": rhs, "C1": Fraction(1)}


def test_weak_type_verify_matches_fraction_oracle():
    rng = random.Random(66)
    trees = oracle_trees(66, 24, 256)
    for i in range(24):
        factors = [rng.randrange(2, 4) for _ in range(1 + i % 4)]
        n = prod(factors)
        trees.append(harmonic.FiniteUltraTree(
            ProductSpec.reciprocal(tuple(factors)),
            distinct_denominator_weights(rng, n, True),
            distinct_denominator_weights(rng, n, False),
        ))
    for t in trees + zero_nu_trees():
        # values of M, where mu{M > t} jumps, points just below them, and the
        # ratios of balls that do not maximize M, where only their sum is 0
        values = sorted(set(harmonic.maximal_function(t)))
        grid = rng.sample(values, min(4, len(values)))
        thresholds = grid + [v * Fraction(rng.randrange(1, 100), 99) for v in grid]
        ratios = ball_ratios(t)
        thresholds += rng.sample(ratios, min(4, len(ratios)))
        for thr in [x for x in thresholds if x > 0] + [Fraction(rng.randrange(1, 50), 7)]:
            rep = harmonic.weak_type_verify(t, thr)
            assert_same(rep, weak_type_verify_oracle(t, thr))
            assert_same(rep, weak_type_verify_pairs_oracle(t, thr))


def test_grid_maximal_matches_cubic_oracle():
    rng = random.Random(63)
    grids = [harmonic.adversarial_grid()[0]]
    for m in [rng.randrange(1, 40) for _ in range(30)] + [40] * 3:
        grids.append(harmonic.GridMeasure(
            tuple(Fraction(i, 3) for i in range(m)),
            oracle_weights(rng, m, True),
            oracle_weights(rng, m, False) if rng.randrange(5) else (Fraction(0),) * m,
        ))
    for g in grids:
        assert_same(harmonic.grid_maximal(g), grid_maximal_oracle(g))


def test_grid_maximal_m200():
    rng = random.Random(64)
    m = 200
    g = harmonic.GridMeasure(
        tuple(Fraction(i) for i in range(m)),
        tuple(Fraction(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(m)),
        tuple(Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for _ in range(m)),
    )
    start = time.perf_counter()
    M = harmonic.grid_maximal(g)
    assert time.perf_counter() - start < 2  # the cubic scan took 11 s
    whole = sum(g.nu) / sum(g.mu)
    assert all(v >= nu / mu and v >= whole for v, mu, nu in zip(M, g.mu, g.nu))
    assert max(M) == max(nu / mu for mu, nu in zip(g.mu, g.nu))


def test_maximal_function_2_to_the_14_leaves():
    rng = random.Random(65)
    t = random_tree(ProductSpec.reciprocal((2,) * 14), rng)
    spec, n = t.spec, t.leaves
    start = time.perf_counter()
    M = harmonic.maximal_function(t)
    assert time.perf_counter() - start < 5
    whole = sum(t.nu) / sum(t.mu)
    assert len(M) == n
    assert all(v >= nu / mu and v >= whole for v, mu, nu in zip(M, t.mu, t.nu))
    thr = sorted(M)[n // 2]
    covered = 0
    for c in harmonic.superlevel_cylinders(t, thr):
        covered += n // spec.cumulative(c.depth)
    assert covered == sum(1 for v in M if v > thr)


def test_interval_reduce_example():
    fam = [
        harmonic.Interval(Fraction(0), Fraction(2)),
        harmonic.Interval(Fraction(1), Fraction(3)),
        harmonic.Interval(Fraction(3, 2), Fraction(5, 2)),
    ]
    out = harmonic.interval_reduce(fam)
    assert {(iv.a, iv.b) for iv in out} == {(0, 2), (1, 3)}
    single = [harmonic.Interval(Fraction(0), Fraction(1))]
    assert harmonic.interval_reduce(single) == single
    disjoint = [
        harmonic.Interval(Fraction(0), Fraction(1)),
        harmonic.Interval(Fraction(2), Fraction(3)),
    ]
    assert set(harmonic.interval_reduce(disjoint)) == set(disjoint)
    assert harmonic.interval_reduce([]) == []


def test_interval_reduce_random_families():
    rng = random.Random(21)
    for _ in range(60):
        fam = []
        for _ in range(rng.randrange(1, 20)):
            a = Fraction(rng.randrange(0, 40), rng.choice([1, 2, 4]))
            fam.append(harmonic.Interval(a, a + Fraction(rng.randrange(1, 12), 2)))
        out = harmonic.interval_reduce(fam)
        assert harmonic.same_union(out, fam)
        assert harmonic.interval_multiplicity(out) <= 2


def test_ultra_ball_reduce():
    top = Cylinder((0,))
    mid = Cylinder((0, 1))
    bottom = Cylinder((0, 1, 1))
    other = Cylinder((1, 0))
    out = harmonic.ultra_ball_reduce([bottom, mid, top, other])
    assert set(out) == {top, other}
    anti = [Cylinder((0, 0)), Cylinder((0, 1)), Cylinder((1,))]
    assert set(harmonic.ultra_ball_reduce(anti)) == set(anti)
    assert harmonic.ultra_ball_reduce([mid, top]) == [top]


def test_vitali_example_and_ties():
    B = harmonic.Ball
    fam = [B(Fraction(0), Fraction(2)), B(Fraction(1), Fraction(1)), B(Fraction(5), Fraction(1))]
    selected, assignment = harmonic.vitali_select(fam)
    assert [b.center for b in selected] == [0, 5]
    assert assignment[1] == 0  # B(1,1) charged to B(0,2), inside its 3x dilate
    single, _ = harmonic.vitali_select([B(Fraction(0), Fraction(1))])
    assert len(single) == 1
    tie, amap = harmonic.vitali_select([B(Fraction(0), Fraction(1)), B(Fraction(1), Fraction(1))])
    assert [b.center for b in tie] == [0] and amap[1] == 0


def test_vitali_random_families():
    rng = random.Random(5)
    for _ in range(40):
        fam = [
            harmonic.Ball(
                Fraction(rng.randrange(-30, 31), rng.choice([1, 2])),
                Fraction(rng.randrange(1, 9), rng.choice([1, 2])),
            )
            for _ in range(rng.randrange(1, 30))
        ]
        selected, assignment = harmonic.vitali_select(fam)
        for i, b1 in enumerate(selected):
            for b2 in selected[i + 1 :]:
                assert not b1.intersects(b2)
        assert set(assignment) == set(range(len(fam)))


def test_distribution_identity():
    g = [1, 1, 1, 1, 0, 0, 0, 0]
    mu = [Fraction(1, 8)] * 8
    rep = harmonic.distribution_identity(g, mu, 2)
    assert rep["equal"] and rep["lhs"] == Fraction(1, 2)
    assert harmonic.distribution_identity([0] * 4, mu[:4], 3)["lhs"] == 0
    const = harmonic.distribution_identity([Fraction(3, 2)] * 4, [Fraction(1, 4)] * 4, 2)
    assert const["equal"] and const["lhs"] == Fraction(9, 4)
    frac = harmonic.distribution_identity(g, mu, Fraction(3, 2))
    assert frac["equal"]
    with pytest.raises(NotNonnegative):
        harmonic.distribution_identity([-1], [Fraction(1)], 2)
    with pytest.raises(ExponentOutOfRange):
        harmonic.distribution_identity([1], [Fraction(1)], 0)


def test_distribution_identity_random_integer_p():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = [Fraction(rng.randrange(0, 8), rng.choice([1, 2, 3])) for _ in range(n)]
        mu = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
        for p in (1, 2, 3):
            assert harmonic.distribution_identity(g, mu, p)["equal"]


def layer_cake_floats(g, mu, p):
    """The float sums that distribution_identity compared at 1e-12 before it
    bracketed fractional powers; kept as the oracle."""
    jumps = [Fraction(0)] + sorted({x for x in g if x > 0})

    def lam(t):
        return sum((w for x, w in zip(g, mu) if x > t), Fraction(0))

    lhs = sum(float(x) ** float(p) * float(w) for x, w in zip(g, mu))
    rhs = sum(
        float(lam(jumps[i])) * (float(jumps[i + 1]) ** float(p) - float(jumps[i]) ** float(p))
        for i in range(len(jumps) - 1)
    )
    return lhs, rhs


def test_distribution_identity_fractional_p_brackets():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 12)
        g = [Fraction(rng.randrange(0, 9), rng.choice([1, 2, 3])) for _ in range(n)]
        mu = [Fraction(rng.randrange(0, 6), rng.choice([1, 2])) for _ in range(n)]
        p = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)])
        rep = harmonic.distribution_identity(g, mu, p)
        assert rep["equal"]
        for (lo, hi), oracle in zip((rep["lhs"], rep["rhs"]), layer_cake_floats(g, mu, p)):
            assert type(lo) is type(hi) is Fraction
            # each power is bracketed to 2^-64, so the bracket is narrow
            assert 0 <= hi - lo <= Fraction(4 * n * (1 + sum(mu)), 1 << 64)
            # the float sum lies in the bracket up to its own rounding error
            err = 1e-12 * max(1.0, abs(oracle))
            assert lo - err <= oracle <= hi + err
    with pytest.raises(NotNonnegative):
        harmonic.distribution_identity([1, 2], [Fraction(1), Fraction(-1)], Fraction(3, 2))


def distribution_identity_oracle(g, mu, p):
    """The layer cake that rescanned every point once per jump."""
    g = [Fraction(x) for x in g]
    mu = [Fraction(w) for w in mu]
    p = Fraction(p)
    jumps = [Fraction(0)] + sorted({x for x in g if x > 0})
    lam = [sum((w for x, w in zip(g, mu) if x > t), Fraction(0)) for t in jumps[:-1]]
    if p.denominator == 1:
        k = p.numerator
        lhs = sum((x**k * w for x, w in zip(g, mu)), Fraction(0))
        rhs = sum((m * (b**k - a**k) for m, a, b in zip(lam, jumps, jumps[1:])), Fraction(0))
        return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
    # one bracket per point, where distribution_identity takes one per jump
    brackets = [(harmonic.pow_bounds(x, p), w) for x, w in zip(g, mu)]
    lhs = (sum((b[0] * w for b, w in brackets), Fraction(0)),
           sum((b[1] * w for b, w in brackets), Fraction(0)))
    powers = [harmonic.pow_bounds(t, p) for t in jumps]
    rhs = (
        sum((m * (b[0] - a[1]) for m, a, b in zip(lam, powers, powers[1:])), Fraction(0)),
        sum((m * (b[1] - a[0]) for m, a, b in zip(lam, powers, powers[1:])), Fraction(0)),
    )
    return {"lhs": lhs, "rhs": rhs, "equal": lhs[0] <= rhs[1] and rhs[0] <= lhs[1]}


def test_distribution_identity_matches_per_jump_oracle():
    rng = random.Random(67)
    for i in range(300):
        n = rng.randrange(0, 40)
        # repeated values share a jump; every third case has a denominator per weight
        values = [Fraction(rng.randrange(0, 12), rng.choice([1, 2, 3, 7])) for _ in range(4)]
        g = [rng.choice(values) if rng.randrange(2) else
             Fraction(rng.randrange(0, 10**3), rng.randrange(1, 10**3)) for _ in range(n)]
        if i % 3:
            mu = [Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for _ in range(n)]
        else:
            mu = list(distinct_denominator_weights(rng, n, False))
        for p in (1, 2, 3, 5, Fraction(3, 2)) if i % 10 == 0 else (1, 2, 3, 5):
            rep = harmonic.distribution_identity(g, mu, p)
            assert_same(rep, distribution_identity_oracle(g, mu, p))
            assert_same(rep, distribution_identity_fraction_keys_oracle(g, mu, p))
            assert rep["equal"]
    # 256 points, every value and weight with its own denominator: the lcm
    # input, on which each partial sum of a running Fraction sum grows
    g = list(distinct_denominator_weights(rng, 256, False))
    mu = list(distinct_denominator_weights(rng, 256, False))
    for p in (1, 2, 3, Fraction(3, 2)):
        rep = harmonic.distribution_identity(g, mu, p)
        assert_same(rep, distribution_identity_oracle(g, mu, p))
        assert_same(rep, distribution_identity_fraction_keys_oracle(g, mu, p))
        assert rep["equal"]


fraction_terms = st.lists(st.tuples(
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6),
    st.integers(-10**9, 10**9)), max_size=40)


@given(terms=fraction_terms)
def test_weighted_sum_matches_a_running_fraction_sum(terms):
    xs, ws = [x for x, _ in terms], [w for _, w in terms]
    got = harmonic._weighted_sum(xs, ws)
    assert_same(got, sum((x * w for x, w in terms), Fraction(0)))


def test_weighted_sum_edge_cases():
    rng = random.Random(79)
    cases = [
        ([], []),  # empty: Fraction(0)
        ([Fraction(3, 7), Fraction(-5, 2)], [0, 0]),  # zero weights
        ([Fraction(k, 9) for k in range(-20, 20)], list(range(40))),  # one denominator
        ([Fraction(rng.randrange(-10**4, 10**4), d) for d in range(1, 300)],  # all distinct
         [rng.randrange(-10**6, 10**6) for _ in range(299)]),
        ([Fraction(1, 3), Fraction(-1, 3), Fraction(1, 6)], [2, 2, -4]),  # terms that cancel
        ([Fraction(-7, 4), Fraction(-1, 4), Fraction(5, 12)], [1, 3, -2]),  # negative terms
    ]
    for xs, ws in cases:
        assert_same(harmonic._weighted_sum(xs, ws), sum(map(Fraction.__mul__, xs, ws), Fraction(0)))
        assert_same(harmonic._weighted_sum(iter(xs), iter(ws)), harmonic._weighted_sum(xs, ws))


def test_layer_cake_refuses_an_integer_power_past_the_budget():
    # (5/3)^(10^6) has millions of bits; it is refused before it is formed, as
    # pow_bounds refuses it for a fractional p of that size
    start = time.perf_counter()
    for p in (10**6, Fraction(10**6 + 1, 2)):
        with pytest.raises(ExponentOutOfRange, match="bit budget"):
            harmonic.distribution_identity([Fraction(3, 2), Fraction(5, 3)], [1, 1], p)
    assert time.perf_counter() - start < 1
    # 1^k and 0^k cost nothing at any k, and (3/2)^k is taken up to the budget
    assert harmonic.distribution_identity([0, 1], [1, 1], 10**9)["lhs"] == 1
    k = MAX_POWER_BITS // 2
    rep = harmonic.distribution_identity([Fraction(3, 2)], [1], k)
    assert rep["equal"] and rep["lhs"] == Fraction(3, 2) ** k
    with pytest.raises(ExponentOutOfRange):
        harmonic.distribution_identity([Fraction(3, 2)], [1], k + 1)


def test_weights_must_match_points():
    # zip would cut the points down to the weights, or the weights to the points
    with pytest.raises(ValueError):
        harmonic.distribution_identity([1, 2, 3], [1], 2)
    with pytest.raises(ValueError):
        harmonic.distribution_identity([1], [1, 1], Fraction(3, 2))
    P = ((0, 1), (2, 3))
    for mu in ([1] * 3, [1] * 5):
        with pytest.raises(ValueError):
            harmonic.cond_expectation([1, 3, 5, 7], P, mu)
        with pytest.raises(ValueError):
            harmonic.martingale_maximal([1, 3, 5, 7], harmonic.Filtration((P,)), mu, 1)
    # zip would drop the values past the tree's leaves: from both sides of
    # the L^p bound, and from the left side only of the sup bound
    t = harmonic.FiniteUltraTree(BINARY3, [Fraction(1, 8)] * 8, [0] * 8)
    with pytest.raises(ValueError):
        harmonic.lp_maximal_bound([1] * 8 + [1000], t, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        harmonic.sup_bound_check([0] * 8 + [1000], t)


def test_pow_bounds_brackets():
    for x in (Fraction(1, 3), Fraction(7, 2), Fraction(1)):
        for p in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 3)):
            lo, hi = harmonic.pow_bounds(x, p)
            assert lo <= hi
            assert float(lo) <= float(x) ** float(p) + 1e-9
            assert float(hi) >= float(x) ** float(p) - 1e-9
            assert hi - lo <= Fraction(1, 2**60)
    assert harmonic.pow_bounds(Fraction(0), Fraction(1, 2)) == (0, 0)
    assert harmonic.pow_bounds(Fraction(4), Fraction(1, 2)) == (2, 2)


def test_pow_bounds_refuses_powers_past_the_bit_budget():
    # 2^c has c + 1 bits; x = 2 has bit length 2, so c = MAX_POWER_BITS / 2 is the last allowed
    c = MAX_POWER_BITS // 2
    assert harmonic.pow_bounds(Fraction(2), Fraction(c)) == (2**c, 2**c)
    start = time.perf_counter()
    for x, p in ((Fraction(2), c + 1), (Fraction(1, 3), Fraction(3000001, 3)), (Fraction(3), 10**9)):
        with pytest.raises(ExponentOutOfRange, match="bit budget"):
            harmonic.pow_bounds(x, Fraction(p))
    assert time.perf_counter() - start < 0.5  # refused before x^c is formed


def test_pow_bounds_brackets_in_integers():
    # lo <= x^(num/den) <= hi  iff  lo^den <= x^num <= hi^den, compared exactly
    rng = random.Random(11)
    for i in range(1200):
        if i % 2:
            x = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        else:
            x = Fraction(rng.randrange(1, 40), rng.randrange(1, 8))
        den = rng.randrange(2, 8)
        p = Fraction(rng.choice([n for n in range(1, 4 * den) if n % den]), den)
        prec = rng.choice((64, 128, 256))
        lo, hi = harmonic.pow_bounds(x, p, prec)
        assert lo**p.denominator <= x**p.numerator <= hi**p.denominator
        assert 0 <= hi - lo <= Fraction(1, 2**prec)


def test_pow_bounds_512_bits_is_fast():
    start = time.perf_counter()
    for prec in (64, 128, 256, 512):
        lo, hi = harmonic.pow_bounds(Fraction(3, 7), Fraction(3, 2), prec)
        assert lo**2 <= Fraction(3, 7) ** 3 <= hi**2
    assert time.perf_counter() - start < 0.5


def test_lp_maximal_bound_refines_past_64_bits():
    # f = 1 on a uniform tree makes both integrals 1, so the inequality reads
    # 1 <= 6 C1 sqrt(2) at p = 3/2, a = 1/2; C1 within 2^-100 of 1/(6 sqrt 2)
    # puts the verdict below the 64-bit bracket of sqrt(2)
    t = harmonic.FiniteUltraTree(BINARY3, (Fraction(1, 8),) * 8, (Fraction(1, 8),) * 8)
    p, a = Fraction(3, 2), Fraction(1, 2)
    root = isqrt(2 << 200)  # floor(sqrt(2) 2^100)
    lo64, hi64 = harmonic.pow_bounds(a, Fraction(1, 2), 64)  # brackets sqrt(1/2)
    for C1, holds in ((Fraction(root + 1, 12 << 100), True), (Fraction(root, 12 << 100), False)):
        assert 6 * C1 / hi64 < 1 < 6 * C1 / lo64  # undecided at 64 bits
        assert harmonic.lp_maximal_bound([1] * 8, t, p, a, C1)["holds"] is holds


def test_lp_maximal_bound_constant_8_example():
    t = leaf0_tree()
    f = [Fraction(8), 0, 0, 0, 0, 0, 0, 0]
    rep = harmonic.lp_maximal_bound(f, t, 2, Fraction(1, 2))
    assert rep["holds"]
    # the constant p C1 (1-a)^{-1} (p-1)^{-1} a^{1-p} evaluates to 8 here
    a, p = Fraction(1, 2), Fraction(2)
    assert p / (1 - a) / (p - 1) * a ** (1 - p) == 8


def test_lp_maximal_bound_zero_and_errors():
    t = leaf0_tree()
    assert harmonic.lp_maximal_bound([0] * 8, t, 2, Fraction(1, 2))["holds"]
    with pytest.raises(ExponentOutOfRange):
        harmonic.lp_maximal_bound([1] * 8, t, 1, Fraction(1, 2))
    with pytest.raises(ExponentOutOfRange):
        harmonic.lp_maximal_bound([1] * 8, t, 2, Fraction(3, 2))


def test_lp_exponent_with_a_deep_root_is_refused_by_name():
    # p = 100001/100000 would need a 100000th root of a^(1 - p); the error
    # names p itself, and comes before any root is taken
    t = leaf0_tree()
    p = Fraction(100001, 100000)
    start = time.perf_counter()
    with pytest.raises(ExponentOutOfRange, match="p = 100001/100000"):
        harmonic.lp_maximal_bound([1] * 8, t, p, Fraction(1, 2))
    with pytest.raises(ExponentOutOfRange, match="p = 100001/100000"):
        harmonic.lp_best_a(p)
    assert time.perf_counter() - start < 0.5
    # the deepest root allowed still decides the bound
    assert harmonic.lp_maximal_bound([1] * 8, t, Fraction(65, 64), Fraction(1, 2))["holds"]


def test_filtration_rejects_a_finer_level_that_misses_a_point():
    # point 1 of the coarse block is in no fine block
    with pytest.raises(ValueError, match="not nested"):
        harmonic.Filtration((((0, 1),), ((0,),)))


def test_lp_maximal_bound_randomized():
    rng = random.Random(3)
    for _ in range(20):
        t = random_tree(BINARY3, rng)
        f = [Fraction(rng.randrange(-6, 7)) for _ in range(8)]
        for p in (Fraction(3, 2), Fraction(2), Fraction(3)):
            for a in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                assert harmonic.lp_maximal_bound(f, t, p, a)["holds"]


def power_integral_bounds_oracle(values, mu, p, prec):
    """The per-leaf sum that lp_maximal_bound took before it grouped the
    leaves by |v|: one bracket per nonzero value, summed as Fractions."""
    lo = hi = Fraction(0)
    for v, w in zip(values, mu):
        if v != 0:
            v_lo, v_hi = harmonic.pow_bounds(abs(v), p, prec)
            lo += v_lo * w
            hi += v_hi * w
    return lo, hi


def lp_maximal_bound_oracle(f, tree, p, a, C1=1):
    p, a = Fraction(p), Fraction(a)
    f = [Fraction(x) for x in f]
    nu = tuple(abs(x) * w for x, w in zip(f, tree.mu))
    m = maximal_function_oracle(harmonic.FiniteUltraTree(tree.spec, tree.mu, nu))
    for prec in (64, 128, 256, 512):
        c = p * C1 / (1 - a) / (p - 1)
        a_lo, a_hi = harmonic.pow_bounds(a, p - 1, prec)
        lhs_lo, lhs_hi = power_integral_bounds_oracle(m, tree.mu, p, prec)
        f_lo, f_hi = power_integral_bounds_oracle(f, tree.mu, p, prec)
        rhs_lo, rhs_hi = c / a_hi * f_lo, c / a_lo * f_hi
        if lhs_hi <= rhs_lo:
            return {"holds": True, "lhs": lhs_hi, "rhs": rhs_lo}
        if lhs_lo > rhs_hi:
            return {"holds": False, "lhs": lhs_lo, "rhs": rhs_hi}
    raise AssertionError("undecided at 512 bits")


def test_lp_maximal_bound_matches_per_leaf_oracle():
    # M(f) repeats over balls and f repeats |f|, so the grouped sums take one
    # bracket per distinct |v|; every third tree has a denominator per weight
    rng = random.Random(83)
    a_values = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for i in range(201):
        # depth 1..4, branching 2 or 3: up to 81 leaves
        spec = ProductSpec.reciprocal(tuple(rng.randrange(2, 4) for _ in range(1 + i % 4)))
        n = spec.cumulative(spec.depth)
        weights = distinct_denominator_weights if i % 3 == 0 else oracle_weights
        t = harmonic.FiniteUltraTree(spec, weights(rng, n, True), oracle_weights(rng, n, False))
        pool = [Fraction(0)] + [Fraction(rng.randrange(1, 20), rng.randrange(1, 5))
                                for _ in range(rng.randrange(1, 5))]
        f = [rng.choice(pool) * rng.choice((1, -1)) for _ in range(t.leaves)]
        for p in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5, 2)):
            a = a_values[(i + int(2 * p)) % 3]  # every (p, a) pair occurs as i runs
            assert_same(harmonic.lp_maximal_bound(f, t, p, a), lp_maximal_bound_oracle(f, t, p, a))
    # a C1 that makes the bound fail returns the other pair of bracket ends
    t = leaf0_tree()
    f = [Fraction(8), 0, Fraction(-8), 0, 0, 0, 0, 0]
    rep = harmonic.lp_maximal_bound(f, t, 2, Fraction(1, 2), Fraction(1, 100))
    assert rep["holds"] is False
    assert_same(rep, lp_maximal_bound_oracle(f, t, 2, Fraction(1, 2), Fraction(1, 100)))


def test_lp_best_a():
    a, bound = harmonic.lp_best_a(2)
    assert Fraction(1, 32) <= a <= Fraction(31, 32)
    # at p = 2 the constant 2 (1-a)^{-1} a^{-1} is minimized at a = 1/2
    assert a == Fraction(1, 2) and bound == 8


def test_sup_bound():
    rng = random.Random(31)
    for _ in range(50):
        t = random_tree(BINARY3, rng)
        f = [Fraction(rng.randrange(-9, 10)) for _ in range(8)]
        if any(f):
            assert harmonic.sup_bound_check(f, t)


def test_cond_expectation_examples():
    mu = [Fraction(1, 4)] * 4
    f = [1, 3, 5, 7]
    P = ((0, 1), (2, 3))
    assert harmonic.cond_expectation(f, P, mu) == [2, 2, 6, 6]
    assert harmonic.cond_expectation(f, ((0, 1, 2, 3),), mu) == [4] * 4
    assert harmonic.cond_expectation(f, ((0,), (1,), (2,), (3,)), mu) == f
    with pytest.raises(DegeneratePartition):
        harmonic.cond_expectation(f, P, [0, 0, Fraction(1, 2), Fraction(1, 2)])


def test_cond_expectation_defining_identity():
    rng = random.Random(23)
    for _ in range(200):
        n = 8
        mu = [Fraction(rng.randrange(1, 5)) for _ in range(n)]
        f = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3])) for _ in range(n)]
        cut = sorted(rng.sample(range(1, n), rng.randrange(0, 3)))
        edges = [0] + cut + [n]
        P = tuple(tuple(range(a, b)) for a, b in zip(edges, edges[1:]))
        fb = harmonic.cond_expectation(f, P, mu)
        for block in P:
            assert sum(fb[i] * mu[i] for i in block) == sum(f[i] * mu[i] for i in block)


def _random_filtration_instance(rng, n=8):
    mu = [Fraction(rng.randrange(1, 5)) for _ in range(n)]
    f = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2])) for _ in range(n)]
    filt = harmonic.Filtration.dyadic(BINARY3)
    return f, filt, mu


def test_filtration_nesting_enforced():
    with pytest.raises(ValueError):
        harmonic.Filtration((((0, 1), (2, 3)), ((0, 2), (1, 3))))
    harmonic.Filtration((((0, 1), (2, 3)), ((0,), (1,), (2,), (3,))))


def test_martingale_leaf0_example():
    mu = [Fraction(1, 8)] * 8
    f = [8, 0, 0, 0, 0, 0, 0, 0]
    filt = harmonic.Filtration.dyadic(BINARY3)
    rep = harmonic.martingale_maximal(f, filt, mu, 3)
    # conditional means on leaf 0 double per level: 2, 4, 8
    assert [rep["levels"][j][0] for j in range(3)] == [2, 4, 8]
    last = rep["doob"][-1]
    assert last["lhs"] == Fraction(1, 4) and last["rhs"] == Fraction(1, 3)
    assert rep["holds"] and all(r["superlevel_is_block_union"] for r in rep["doob"])


def test_martingale_constant_function():
    mu = [Fraction(1, 8)] * 8
    filt = harmonic.Filtration.dyadic(BINARY3)
    rep = harmonic.martingale_maximal([5] * 8, filt, mu, 5)
    assert all(all(v == 5 for v in level) for level in rep["levels"])
    assert rep["doob"][-1]["lhs"] == 0


def test_martingale_random_and_sublinearity():
    rng = random.Random(29)
    filt = harmonic.Filtration.dyadic(BINARY3)
    for _ in range(100):
        f, _, mu = _random_filtration_instance(rng)
        g, _, _ = _random_filtration_instance(rng)
        t = Fraction(rng.randrange(1, 9), rng.choice([1, 2]))
        rep = harmonic.martingale_maximal(f, filt, mu, t)
        assert rep["holds"]
        fg = harmonic.martingale_maximal(
            [a + b for a, b in zip(f, g)], filt, mu, t
        )
        rg = harmonic.martingale_maximal(g, filt, mu, t)
        for lf, lg, lfg in zip(rep["levels"], rg["levels"], fg["levels"]):
            assert all(c <= a + b for a, b, c in zip(lf, lg, lfg))


def test_tower_contraction_jensen_pullout():
    rng = random.Random(41)
    n = 8
    coarse = ((0, 1, 2, 3), (4, 5, 6, 7))
    fine = ((0, 1), (2, 3), (4, 5), (6, 7))
    for _ in range(200):
        mu = [Fraction(rng.randrange(1, 5)) for _ in range(n)]
        f = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3])) for _ in range(n)]
        ff = harmonic.cond_expectation(f, fine, mu)
        assert harmonic.cond_expectation(ff, coarse, mu) == harmonic.cond_expectation(
            f, coarse, mu
        )
        fb = harmonic.cond_expectation(f, fine, mu)
        absb = harmonic.cond_expectation([abs(x) for x in f], fine, mu)
        assert all(abs(a) <= b for a, b in zip(fb, absb))
        sqb = harmonic.cond_expectation([x * x for x in f], fine, mu)
        assert all(a * a <= b for a, b in zip(fb, sqb))
        g = [Fraction(rng.randrange(-4, 5))] * 2 + [Fraction(rng.randrange(-4, 5))] * 2
        g = g + g  # block-constant on the fine partition
        prod = harmonic.cond_expectation([x * y for x, y in zip(f, g)], fine, mu)
        assert prod == [a * y for a, y in zip(fb, g)]


def test_lp_norm_contraction():
    rng = random.Random(43)
    fine = ((0, 1), (2, 3), (4, 5), (6, 7))
    for _ in range(100):
        mu = [Fraction(rng.randrange(1, 5)) for _ in range(8)]
        f = [Fraction(rng.randrange(-9, 10)) for _ in range(8)]
        fb = harmonic.cond_expectation(f, fine, mu)
        assert sum(abs(a) * w for a, w in zip(fb, mu)) <= sum(
            abs(x) * w for x, w in zip(f, mu)
        )
        assert sum(a * a * w for a, w in zip(fb, mu)) <= sum(
            x * x * w for x, w in zip(f, mu)
        )
        assert max(abs(a) for a in fb) <= max(abs(x) for x in f)


def cond_expectation_oracle(f, P, mu):
    """The Fraction block averages that the integer block sums replaced."""
    f = [Fraction(x) for x in f]
    mu = [Fraction(w) for w in mu]
    if sorted(i for block in P for i in block) != list(range(len(f))):
        raise ValueError("not a partition of the leaf set")
    out = [Fraction(0)] * len(f)
    for block in P:
        mass = sum((mu[i] for i in block), Fraction(0))
        if mass == 0:
            raise DegeneratePartition(f"block {block} has zero mass")
        avg = sum((f[i] * mu[i] for i in block), Fraction(0)) / mass
        for i in block:
            out[i] = avg
    return out


def martingale_maximal_oracle(f, filtration, mu, t):
    """Doob's inequality in Fractions, one cond_expectation per level."""
    t = Fraction(t)
    f = [Fraction(x) for x in f]
    mu = [Fraction(w) for w in mu]
    star = [Fraction(0)] * len(f)
    levels = []
    reports = []
    total = sum((abs(x) * w for x, w in zip(f, mu)), Fraction(0))
    for P in filtration.levels:
        fj = cond_expectation_oracle(f, P, mu)
        star = [max(s, abs(v)) for s, v in zip(star, fj)]
        levels.append(list(star))
        A = [i for i, s in enumerate(star) if s > t]
        blocks_ok = all(set(block) <= set(A) or not (set(block) & set(A)) for block in P)
        lhs = sum((mu[i] for i in A), Fraction(0))
        mid = sum((abs(f[i]) * mu[i] for i in A), Fraction(0)) / t
        reports.append({
            "lhs": lhs, "restricted": mid, "rhs": total / t,
            "holds": lhs <= mid <= total / t, "superlevel_is_block_union": blocks_ok,
        })
    return {"levels": levels, "doob": reports, "holds": all(r["holds"] for r in reports)}


def random_filtration(rng):
    """The cylinder partitions of a mixed-radix product (at most 36 points),
    with the points relabelled by a random permutation."""
    factors = [rng.randrange(2, 4) for _ in range(rng.randrange(1, 5))]
    while prod(factors) > 36:
        factors.pop()
    n = prod(factors)
    perm = rng.sample(range(n), n)
    dyadic = harmonic.Filtration.dyadic(ProductSpec.reciprocal(tuple(factors)))
    return n, harmonic.Filtration(tuple(
        tuple(tuple(perm[i] for i in block) for block in P) for P in dyadic.levels
    ))


def random_values(rng, n, distinct):
    if distinct:
        return [Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 10**6)) for _ in range(n)]
    return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n)]


def test_cond_expectation_and_doob_match_fraction_oracles():
    rng = random.Random(68)
    for i in range(200):
        n, filt = random_filtration(rng)
        distinct = i % 3 == 0
        f = random_values(rng, n, distinct)
        mu = (list(distinct_denominator_weights(rng, n, True)) if distinct
              else [Fraction(rng.randrange(1, 9), rng.randrange(1, 4)) for _ in range(n)])
        for P in filt.levels:
            assert_same(harmonic.cond_expectation(f, P, mu), cond_expectation_oracle(f, P, mu))
        averages = {abs(v) for P in filt.levels for v in cond_expectation_oracle(f, P, mu)}
        for t in rng.sample(sorted(averages - {0}), min(3, len(averages - {0}))) + [
            Fraction(rng.randrange(1, 20), rng.randrange(1, 7))
        ]:
            new = harmonic.martingale_maximal(f, filt, mu, t)
            assert_same(new, martingale_maximal_oracle(f, filt, mu, t))
            assert new["holds"]


def test_cond_expectation_zero_mass_blocks_match_oracle():
    rng = random.Random(69)
    for _ in range(200):
        n = rng.randrange(1, 12)
        labels = [rng.randrange(4) for _ in range(n)]
        P = tuple(
            b for b in (tuple(i for i in range(n) if labels[i] == c) for c in range(4)) if b
        )
        f = random_values(rng, n, rng.randrange(2) == 0)
        mu = [Fraction(rng.randrange(0, 3), rng.randrange(1, 4)) for _ in range(n)]
        try:
            want = cond_expectation_oracle(f, P, mu)
        except DegeneratePartition:
            with pytest.raises(DegeneratePartition):
                harmonic.cond_expectation(f, P, mu)
            with pytest.raises(DegeneratePartition):
                harmonic.martingale_maximal(f, harmonic.Filtration((P,)), mu, 1)
        else:
            assert_same(harmonic.cond_expectation(f, P, mu), want)


_BROKEN_CERTIFICATES = """
import sys
from fractions import Fraction
from unittest import mock
from ultrametric import cantor, characters, harmonic, hensel, linalg, padic
from ultrametric.errors import CertificationFailed

print(sys.flags.optimize)
fam = [harmonic.Interval(0, 2), harmonic.Interval(1, 3)]
balls = [harmonic.Ball(0, 2), harmonic.Ball(1, 1)]
f = hensel.ZpPoly.from_rationals([Fraction(-17), Fraction(0), Fraction(1)], 2, 8)
x0 = padic.PAdicInt(2, 8, 1)
quarter = (Fraction(1, 4),) * 4
tree = harmonic.FiniteUltraTree(cantor.ProductSpec.reciprocal((2, 2)), quarter, quarter)


class NeverEqual(characters.Counter):
    def __eq__(self, other):
        return False


cases = [
    (linalg, "op_norm", lambda T: Fraction(0),
     lambda: linalg.det_abs(linalg.UltraMatrix(2, ((1, 0), (0, 1))))),
    (harmonic, "same_union", lambda a, b: False, lambda: harmonic.interval_reduce(fam)),
    (harmonic, "interval_multiplicity", lambda f: 3, lambda: harmonic.interval_reduce(fam)),
    # visiting the balls in input order assigns the larger to the smaller
    (harmonic, "sorted", lambda it, key: list(it),
     lambda: harmonic.vitali_select(balls[::-1])),
    (harmonic.Ball, "within_dilate", lambda s, o, factor=3: False,
     lambda: harmonic.vitali_select(balls)),
    # the orbit's step valuations, capped at the working precision
    # 8 + 2 v_2(f'(1)) + 2 = 12, stop growing
    (hensel, "vp", lambda n, p, cap=None: 0 if cap == 12 else padic.vp(n, p, cap),
     lambda: hensel.contraction_solve(f, x0)),
    # the isometry cross-check computes T.v in integers
    (linalg, "_int_apply", lambda rows, w: [0] * len(w),
     lambda: linalg.zp_invertibility(linalg.UltraMatrix(2, ((1, 0), (0, 1))))),
    (characters, "Counter", NeverEqual, lambda: characters.gram_exact(4)),
    (characters, "_shift_invariant", lambda numerators, n: False,
     lambda: characters.l2_distance_squared(4, 0, 1)),
    # a bracket (1/4, 4) around every power never decides 1 <= 4
    (harmonic, "pow_bounds", lambda x, e, prec: (Fraction(1, 4), Fraction(4)),
     lambda: harmonic.lp_maximal_bound([1] * 4, tree, 2, Fraction(1, 2))),
    # a mod-p seed off by one has no correct digit: 3 * (5 + 1) = 4 mod 7
    (padic, "pow", lambda base, exp, mod: (pow(base, exp, mod) + 1) % mod,
     lambda: padic.PAdicInt(7, 8, 3).invert()),
    # an inverse that never moves x leaves f(x) != 0 mod p^N after N steps
    (hensel, "unit_inverse", lambda u, p, n, seed=None: 0,
     lambda: hensel.hensel_v1(hensel.ZpPoly(7, 8, (-2, 0, 1)), padic.PAdicInt(7, 8, 3))),
]
for owner, name, broken, call in cases:
    # undone after each case, so a check is never caught by an earlier break
    with mock.patch.object(owner, name, broken, create=True):
        try:
            call()
            print("unchecked", name)
        except CertificationFailed:
            print("caught", name)
"""


def test_certificates_raise_typed_errors_under_python_O():
    # each check is an explicit test, so stripping asserts does not skip it
    import os
    import subprocess
    import sys

    import ultrametric

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_CERTIFICATES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    assert out[0] == "1"
    assert out[1:] == [
        "caught op_norm",
        "caught same_union",
        "caught interval_multiplicity",
        "caught sorted",
        "caught within_dilate",
        "caught vp",
        "caught _int_apply",
        "caught Counter",
        "caught _shift_invariant",
        "caught pow_bounds",
        "caught pow",
        "caught unit_inverse",
        "",
    ]


def test_ultra_ball_reduce_keeps_one_of_equal_copies():
    c = Cylinder((0,))
    out = harmonic.ultra_ball_reduce([c, Cylinder((0,))])
    assert out == [c] and out[0] is c


def test_ultra_ball_reduce_random_families_against_leaf_sets():
    # seeded families with equal copies and nested members; the leaf sets
    # are computed by brute force over every leaf of a small spec
    spec = ProductSpec.reciprocal((2, 3, 2))
    leaves = list(spec.points())
    prefixes = sorted({x[:k] for x in leaves for k in range(spec.depth + 1)})

    def leaf_set(family):
        return {x for x in leaves if any(x[: c.depth] == c.digits for c in family)}

    rng = random.Random(31)
    for _ in range(400):
        family = [Cylinder(rng.choice(prefixes)) for _ in range(rng.randrange(1, 7))]
        family += [Cylinder(c.digits) for c in rng.sample(family, rng.randrange(len(family) + 1))]
        rng.shuffle(family)
        out = harmonic.ultra_ball_reduce(family)
        assert leaf_set(out) == leaf_set(family)
        for i, a in enumerate(out):
            for b in out[i + 1 :]:
                assert not leaf_set([a]) & leaf_set([b])
