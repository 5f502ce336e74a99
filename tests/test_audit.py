import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from ultrametric import audit, cantor, radic
from ultrametric.errors import EmptySet

BINARY3 = cantor.ProductSpec.geometric((2, 2, 2), Fraction(1, 2))


def test_classify_level_permutations():
    phi = audit.DigitMapFamily.from_level_permutations([(1, 0), (0, 1), (1, 0)])
    rep = audit.classify_map(phi, BINARY3)
    assert rep["one_lipschitz"] and rep["isometry"] and rep["onto"]


def test_classify_constant_map():
    phi = audit.DigitMapFamily.constant((0, 0, 0))
    rep = audit.classify_map(phi, BINARY3)
    assert rep["one_lipschitz"] and not rep["isometry"] and not rep["onto"]


def test_classify_forward_dependence_refuted():
    # level-2 output copies digit 3: depends on the future, not 1-Lipschitz
    maps = (
        lambda prefix: prefix[0],
        lambda prefix: prefix[1],
        lambda prefix: prefix[2],
    )

    class Cheat(audit.DigitMapFamily):
        def apply(self, x):
            return (x[0], x[2], x[2])

    rep = audit.classify_map(Cheat(maps), BINARY3)
    assert not rep["one_lipschitz"]
    assert rep["witness"] is not None


def test_classify_agrees_with_brute_force():
    phi = audit.DigitMapFamily(
        (
            lambda prefix: prefix[0],
            lambda prefix: (prefix[0] + prefix[1]) % 2,
            lambda prefix: prefix[2],
        )
    )
    rep = audit.classify_map(phi, BINARY3)
    # structural 1-Lipschitz maps always pass the semantic check
    assert rep["one_lipschitz"]
    assert rep["isometry"]  # each level separates first differences


def test_radic_isometry_2_3():
    rep = audit.build_radic_isometry(radic.Radix((2, 3)))
    assert rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
    assert rep["pairs_checked"] == 36


def test_radic_isometry_single_level_and_binary():
    assert audit.build_radic_isometry(radic.Radix((5,)))["isometric"]
    rep = audit.build_radic_isometry(radic.Radix((2, 2)))
    psi = rep["map"]
    assert psi(3) == (1, 1)  # binary digits of 3 mod 4, least significant first
    assert rep["isometric"]


def test_radic_isometry_first_factor_above_cap():
    # the sampled path checks bijectivity on no prefix level here, not on an empty max
    rep = audit.build_radic_isometry(radic.Radix((5000, 3)))
    assert rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
    assert rep["pairs_checked"] == 2000


def test_radic_isometry_roundtrip():
    r = radic.Radix((3, 2, 2))
    rep = audit.build_radic_isometry(r)
    psi = rep["map"]
    inverse = {psi(a): a for a in range(r.modulus)}
    assert all(inverse[psi(a)] == a for a in range(r.modulus))


def test_radic_isometry_refutes_a_broken_digit_map(monkeypatch):
    digits = audit.mixed_radix_digits
    monkeypatch.setattr(audit, "mixed_radix_digits", lambda a, radix: digits(a - a % 2, radix))
    for factors, pairs in (((2, 3), 36), ((4, 5, 10, 25, 20), 2000)):
        rep = audit.build_radic_isometry(radic.Radix(factors))
        assert not (rep["bijective"] or rep["isometric"] or rep["pushforward_uniform"])
        assert rep["pairs_checked"] == pairs
    # dropping digit 4 changes none of the R_3 = 200 enumerated points, so
    # only the sampled pairs can refute it
    monkeypatch.setattr(
        audit, "mixed_radix_digits", lambda a, r: digits(a, r)[:3] + (0, digits(a, r)[4])
    )
    rep = audit.build_radic_isometry(radic.Radix((4, 5, 10, 25, 20)))
    assert rep["bijective"] and rep["pushforward_uniform"] and not rep["isometric"]


def oracle_isometric(words, radix) -> bool:
    """The pairwise R x R check, in blocks of rows: for every pair a, b the
    number of levels l with R_l | b - a equals the number of leading digits
    words[a] and words[b] share."""
    R = len(words)
    a = np.arange(R)
    d = np.arange(-(R - 1), R)
    levels = sum((d % radix.cumulative(l) == 0).astype(np.int8) for l in range(1, radix.depth + 1))
    digits = np.array(words, dtype=np.int64)
    for lo in range(0, R, 256):
        rows = slice(lo, lo + 256)
        lvl = levels[a[None, :] - a[rows, None] + R - 1]
        still = np.ones(lvl.shape, dtype=bool)
        acc = np.zeros(lvl.shape, dtype=np.int8)
        for k in range(radix.depth):
            still &= digits[None, :, k] == digits[rows, None, k]
            acc += still
        if not np.array_equal(lvl, acc):
            return False
    return True


def _random_radix(rng):
    while True:
        fs = tuple(rng.randrange(2, 9) for _ in range(rng.randrange(1, 9)))
        if radic.Radix(fs).modulus <= 4096:
            return radic.Radix(fs)


def test_per_level_check_against_numpy_oracle():
    rng = random.Random(17)
    radices = [radic.Radix((2,) * 12), radic.Radix((4, 4, 4, 8, 8))]
    radices += [_random_radix(rng) for _ in range(30)]
    for r in radices:
        R = r.modulus
        canonical = [audit.mixed_radix_digits(a, r) for a in range(R)]
        unit = next(u for u in range(R // 2 + 1, 2 * R) if gcd(u, R) == 1)
        perms = [rng.sample(range(n), n) for n in r.factors]
        # r-adic isometries: the digit map itself, after multiplying by a
        # unit, and followed by a digit permutation at every level
        isometries = [
            canonical,
            [canonical[unit * a % R] for a in range(R)],
            [tuple(s[d] for s, d in zip(perms, w)) for w in canonical],
        ]
        # most-significant digit first: bijective, and not isometric as soon
        # as 0 and 1 share their leading digit
        msd_first = [w[::-1] for w in canonical]
        # a leading digit that also carries the second one: each prefix has
        # one residue mod R_1, but past depth 1 there are R_2 prefixes
        finer = [(a % r.cumulative(min(2, r.depth)),) + w[1:] for a, w in enumerate(canonical)]
        shuffled = rng.sample(canonical, R)
        collapsed = [canonical[a - a % 2] for a in range(R)]
        for words in isometries:
            assert audit._per_level_check(words, r) == (True, True)
            assert oracle_isometric(words, r)
        for words in (msd_first, finer, shuffled, collapsed):
            assert audit._per_level_check(words, r)[0] == oracle_isometric(words, r)
        # only even points have images, so prefixes carry no uniform mass
        assert audit._per_level_check(collapsed, r) == (False, False)
        if r.depth >= 2:
            assert not audit._per_level_check(msd_first, r)[0]
            assert not audit._per_level_check(finer, r)[0]


def test_doubling_metric_examples():
    spec = cantor.ProductSpec.geometric((2,) * 5, Fraction(1, 2))
    rep = audit.doubling_metric(spec)
    assert rep.verdict and rep.constant["factor_bound"] == 2
    growing = cantor.ProductSpec.reciprocal((3, 4, 5, 6))
    refuted = audit.doubling_metric(growing, candidate=4)
    assert not refuted.verdict and refuted.witness["kind"] == "factor"
    slow = cantor.ProductSpec(
        (2,) * 5, tuple(Fraction(1, l + 1) for l in range(6))
    )
    rep2 = audit.doubling_metric(slow, candidate=3)
    assert not rep2.verdict and rep2.witness["kind"] == "scale-census"


def test_doubling_measure():
    spec = cantor.ProductSpec.geometric((2,) * 4, Fraction(1, 2))
    mu = cantor.ProductMeasure.uniform(spec)
    rep = audit.doubling_measure(spec, mu)
    assert rep.verdict
    assert audit.ratio_c2(spec, mu) == 2
    skew = cantor.ProductMeasure(
        tuple(
            (Fraction(1, j + 2), 1 - Fraction(1, j + 2))
            for j in range(4)
        )
    )
    refuted = audit.doubling_measure(spec, skew, candidate=4)
    assert not refuted.verdict and refuted.witness["kind"] == "weight"


def test_doubling_measure_degenerate():
    spec = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    mu = cantor.ProductMeasure(((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))))
    rep = audit.doubling_measure(spec, mu)
    assert rep.degenerate and not rep.verdict
    assert audit.ratio_c2(spec, mu) is None


def test_ratio_c2_uniform():
    for n in (2, 3, 5):
        spec = cantor.ProductSpec.geometric((n, n), Fraction(1, n))
        mu = cantor.ProductMeasure.uniform(spec)
        assert audit.ratio_c2(spec, mu) == n
        assert audit.ratio_c2(spec, mu) >= 1


def test_measure_doubling_implies_metric_doubling():
    specs = [
        cantor.ProductSpec.geometric((2,) * 4, Fraction(1, 2)),
        cantor.ProductSpec.reciprocal((2, 3, 2)),
        cantor.ProductSpec.geometric((4, 4), Fraction(1, 5)),
    ]
    for spec in specs:
        mu = cantor.ProductMeasure.uniform(spec)
        m_rep = audit.doubling_measure(spec, mu, candidate=8)
        if m_rep.verdict:
            assert audit.doubling_metric(spec, candidate=8).verdict


def test_uniform_distribution_check():
    spec = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    uni = audit.uniform_distribution_check(spec, cantor.ProductMeasure.uniform(spec))
    assert uni["uniform"]
    assert uni["profile"][str(Fraction(1, 4))] == Fraction(1, 4)
    skew = cantor.ProductMeasure(
        ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)))
    )
    rep = audit.uniform_distribution_check(spec, skew)
    assert not rep["uniform"] and rep["witness"] is not None


def test_dist_local_constancy():
    spec = BINARY3
    A = [cantor.Cylinder((0, 0, 0))]
    rep = audit.dist_local_constancy(spec, A, samples=400)
    assert rep["locally_constant"] and rep["one_lipschitz"]
    assert audit.dist_to_set((1, 1, 1), [cantor.Cylinder(())], spec) == 0
    with pytest.raises(EmptySet):
        audit.dist_to_set((0, 0, 0), [], spec)


def test_dist_example_opposite_half():
    spec = BINARY3
    A = [cantor.Cylinder((0, 0, 0))]
    x, y = (1, 0, 0), (1, 0, 1)  # d(x, y) = t_2 < dist = t_0
    dx = audit.dist_to_set(x, A, spec)
    dy = audit.dist_to_set(y, A, spec)
    assert dx == dy == spec.scales[0]
