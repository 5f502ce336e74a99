import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import numpy as np
import pytest

from digit_maps import digits, lift
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


def oracle_classify(phi, spec) -> dict:
    """The pairwise check in Fractions: d(phi x, phi y) against d(x, y) for
    all N^2 / 2 pairs; the witness is the last violating pair."""
    pts = list(spec.points())
    images = {x: phi.apply(x) for x in pts}
    one_lipschitz = True
    isometry = True
    witness = None
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            dx = cantor.match_and_dist(x, y, spec)[1]
            dimg = cantor.match_and_dist(images[x], images[y], spec)[1]
            if dimg > dx:
                one_lipschitz = False
                isometry = False
                witness = (x, y)
            elif dimg != dx:
                isometry = False
    onto = len(set(images.values())) == len(pts)
    return {"one_lipschitz": one_lipschitz, "isometry": isometry, "onto": onto, "witness": witness}


def table_map(table):
    """A map read from a table of whole words, which need not be causal."""

    class TableMap(audit.DigitMapFamily):
        def apply(self, x):
            return table[x]

    return TableMap(())


def _random_map(rng, spec):
    pts = list(spec.points())
    kind = rng.randrange(5)
    if kind == 0:
        return audit.DigitMapFamily.from_level_permutations(
            [rng.sample(range(n), n) for n in spec.factors])
    if kind == 1:
        return audit.DigitMapFamily.constant([rng.randrange(n) for n in spec.factors])
    if kind == 2:
        # causal: digit k of the image is a table of the first k digits; per
        # prefix a permutation of the last digit, or arbitrary digits
        tables = []
        for k, n in enumerate(spec.factors):
            table = {}
            for head in itertools.product(*map(range, spec.factors[:k])):
                last = rng.sample(range(n), n) if rng.random() < 0.5 else [
                    rng.randrange(n) for _ in range(n)]
                table.update({head + (d,): last[d] for d in range(n)})
            tables.append(table)
        return audit.DigitMapFamily(tuple(table.__getitem__ for table in tables))
    if kind == 3:
        return table_map(dict(zip(pts, rng.sample(pts, len(pts)))))
    # collapse: images drawn from a few words, or a permutation of all points
    # that merges one pair
    if rng.random() < 0.5:
        pool = rng.sample(pts, rng.randrange(1, len(pts)))
        return table_map({x: rng.choice(pool) for x in pts})
    images = rng.sample(pts, len(pts))
    images[rng.randrange(len(pts))] = images[rng.randrange(len(pts))]
    return table_map(dict(zip(pts, images)))


def test_classify_map_against_pairwise_oracle():
    rng = random.Random(8)
    shapes = Counter()
    for _ in range(2000):
        # depths 1-6 and factors 2-4; at most max(24, 2^depth) points and
        # few deep maps keep the pairwise oracle cheap
        depth = rng.choices(range(1, 7), weights=(4, 4, 4, 4, 3, 1))[0]
        factors = []
        for k in range(depth):
            room = max(24, 2**depth) // (prod(factors) * 2 ** (depth - k - 1))
            factors.append(rng.randrange(2, min(4, room) + 1))
        spec = cantor.ProductSpec.reciprocal(tuple(factors))
        phi = _random_map(rng, spec)
        rep = audit.classify_map(phi, spec)
        want = oracle_classify(phi, spec)
        # the lemma classify_map rests on, read off the pairwise oracle alone
        assert want["isometry"] == (want["one_lipschitz"] and want["onto"])
        verdict = (rep["one_lipschitz"], rep["isometry"], rep["onto"])
        assert verdict == (want["one_lipschitz"], want["isometry"], want["onto"])
        shapes[verdict] += 1
        assert (rep["witness"] is None) == rep["one_lipschitz"]
        if rep["witness"] is not None:
            x, y = rep["witness"]
            assert x < y
            d = cantor.match_and_dist(x, y, spec)[1]
            assert cantor.match_and_dist(phi.apply(x), phi.apply(y), spec)[1] > d
    assert set(shapes) == {
        (True, True, True), (True, False, False), (False, False, True), (False, False, False)
    }
    assert min(shapes.values()) >= 100, shapes


def classify_map_by_slices(phi, spec) -> dict:
    """The dict-per-level classification that slices every prefix, O(N * L^2)."""
    pts = list(spec.points())
    images = [phi.apply(x) for x in pts]
    if any(len(w) != spec.depth for w in images):
        raise ValueError("points must have full depth")
    onto = len(set(images)) == len(pts)
    isometry = True
    for k in range(1, spec.depth + 1):
        first: dict[tuple[int, ...], tuple] = {}  # k-prefix of x -> (x, k-prefix of phi(x))
        for x, w in zip(pts, images):
            y, v = first.setdefault(x[:k], (x, w[:k]))
            if v != w[:k]:
                return {"one_lipschitz": False, "isometry": False, "onto": onto, "witness": (y, x)}
        isometry = isometry and len({v for _, v in first.values()}) == len(first)
    return {"one_lipschitz": True, "isometry": isometry, "onto": onto, "witness": None}


def test_classify_map_against_slicing_kernel():
    rng = random.Random(23)
    shapes = Counter()
    for _ in range(1500):
        depth = rng.randrange(1, 7)
        factors = [rng.randrange(2, 5) for _ in range(depth)]
        while prod(factors) > 1024:
            factors[factors.index(max(factors))] -= 1
        spec = cantor.ProductSpec.reciprocal(tuple(factors))
        phi = _random_map(rng, spec)
        rep = audit.classify_map(phi, spec)
        want = classify_map_by_slices(phi, spec)
        assert rep == want
        assert [type(v) for v in rep.values()] == [type(v) for v in want.values()]
        if want["witness"] is not None:
            assert [type(v) for v in rep["witness"]] == [tuple, tuple]
        shapes[rep["one_lipschitz"], rep["isometry"], rep["onto"]] += 1
    assert min(shapes.values()) >= 100 and len(shapes) == 4, shapes


def test_classify_rejects_images_of_the_wrong_length():
    pts = list(BINARY3.points())
    for image in ((0, 0), (0, 0, 0, 0)):
        table = {x: x for x in pts}
        table[pts[5]] = image
        with pytest.raises(ValueError, match="full depth"):
            audit.classify_map(table_map(table), BINARY3)


def test_radic_isometry_2_3():
    rep = audit.build_radic_isometry(radic.Radix((2, 3)))
    assert rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
    assert rep["pairs_checked"] == 36


def test_radic_isometry_report_holds_no_scales():
    # the verdict compares match lengths, so no scale sequence enters it
    rep = audit.build_radic_isometry(radic.Radix((2, 3)))
    assert set(rep) == {"bijective", "isometric", "pushforward_uniform", "pairs_checked"}


def test_radic_isometry_single_level_and_binary():
    assert audit.build_radic_isometry(radic.Radix((5,)))["isometric"]
    r = radic.Radix((2, 2))
    # binary digits of 3 mod 4, least significant first
    assert audit.mixed_radix_digits(3, r) == (1, 1)
    assert audit.build_radic_isometry(r)["isometric"]


def test_radic_isometry_first_factor_above_cap():
    # the sampled path checks bijectivity on no prefix level here, not on an empty max
    rep = audit.build_radic_isometry(radic.Radix((5000, 3)))
    assert rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
    assert rep["pairs_checked"] == 2000


def test_radic_isometry_roundtrip():
    r = radic.Radix((3, 2, 2))
    assert audit.build_radic_isometry(r)["bijective"]
    inverse = {audit.mixed_radix_digits(a, r): a for a in range(r.modulus)}
    assert all(inverse[audit.mixed_radix_digits(a, r)] == a for a in range(r.modulus))


def test_radic_isometry_refutes_a_broken_digit_map(monkeypatch):
    monkeypatch.setattr(audit, "_digit_columns", lift(lambda a, radix: digits(a - a % 2, radix)))
    for factors, pairs in (((2, 3), 36), ((4, 5, 10, 25, 20), 2000)):
        rep = audit.build_radic_isometry(radic.Radix(factors))
        assert not (rep["bijective"] or rep["isometric"] or rep["pushforward_uniform"])
        assert rep["pairs_checked"] == pairs
    # dropping digit 4 changes none of the R_3 = 200 enumerated points, so
    # only the sampled pairs can refute it
    monkeypatch.setattr(
        audit, "_digit_columns", lift(lambda a, r: digits(a, r)[:3] + (0, digits(a, r)[4]))
    )
    rep = audit.build_radic_isometry(radic.Radix((4, 5, 10, 25, 20)))
    assert rep["bijective"] and rep["pushforward_uniform"] and not rep["isometric"]


def test_sampled_path_refuses_fewer_than_one_sample():
    r = radic.Radix((4, 5, 10, 25, 20))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples >= 1"):
            audit.build_radic_isometry(r, samples=samples)
    # below the cap every pair is checked and samples plays no part
    rep = audit.build_radic_isometry(radic.Radix((2, 3)), samples=0)
    assert rep["isometric"] and rep["pairs_checked"] == 36
    assert audit.build_radic_isometry(r, samples=1)["pairs_checked"] == 1


def seeded_pairs(radix, seed, samples):
    """The isometry's sampled pairs (x, y), drawn through randrange: pair i
    is two independent draws, then y moved to agree with x mod R_k, k = i
    mod L."""
    rng = random.Random(seed)
    for i in range(samples):
        x, y = rng.randrange(radix.modulus), rng.randrange(radix.modulus)
        R_k = radix.cumulative(i % radix.depth)
        yield x, y // R_k * R_k + x % R_k


def oracle_sampled_pairs(psi, radix, t, seed, samples) -> list[tuple[int, int, bool, bool]]:
    """The seeded pairs (x, y, holds, collides), each compared in the metric,
    in Fractions: radic_dist against t at the match length of the images, 0
    for equal words.  A pair collides when x != y share a word."""
    pairs = []
    for x, y in seeded_pairs(radix, seed, samples):
        l = cantor.match_length(psi(x), psi(y))
        holds = radic.radic_dist(x, y, radix, t) == (Fraction(0) if l == radix.depth else t[l])
        pairs.append((x, y, holds, x != y and psi(x) == psi(y)))
    return pairs


def test_sampled_pairs_against_fraction_oracle(monkeypatch):
    # exhaustive_cap=1 enumerates one point, so the per-level check is vacuous;
    # with samples = 1..L, "isometric" is the integer verdict on the first
    # pairs, which together share a residue mod every R_k, k < L
    maps = {
        "digit map": digits,
        "collapse": lambda a, r: digits(a - a % 2, r),
        "drop digit 4": lambda a, r: digits(a, r)[:3] + (0,) + digits(a, r)[4:],
        "drop the last digit": lambda a, r: digits(a, r)[:-1] + (0,),
    }
    rng = random.Random(5)
    outcomes = Counter()
    for _ in range(12):
        fs = [rng.randrange(2, rng.choice((3, 5))) for _ in range(rng.randrange(4, 8))]
        r = radic.Radix(tuple(fs))
        scales = [Fraction(1)]
        for _ in r.factors:
            scales.append(scales[-1] * Fraction(rng.randrange(1, 6), 6))
        t = tuple(scales)
        for a in (rng.randrange(r.modulus) for _ in range(50)):
            # the closed form theta_k(a) = (a div R_{k-1}) mod r_k
            assert digits(a, r) == tuple(a // r.cumulative(k) % f for k, f in enumerate(fs))
        for name, psi in maps.items():
            monkeypatch.setattr(audit, "_digit_columns", lift(psi))
            for seed in range(100):
                pairs = oracle_sampled_pairs(lambda a: psi(a, r), r, t, seed, r.depth)
                for samples in range(1, r.depth + 1):
                    rep = audit.build_radic_isometry(
                        r, exhaustive_cap=1, samples=samples, seed=seed)
                    failed = [p for p in pairs[:samples] if not p[2]]
                    assert rep["isometric"] is not failed
                    # the first failing pair ends the check
                    assert rep["bijective"] is not (failed and failed[0][3])
                    assert rep["pushforward_uniform"] and rep["pairs_checked"] == samples
                    outcomes[name, not failed] += 1
                outcomes["x = y"] += pairs[0][0] == pairs[0][1]
                outcomes[name, "collides"] += any(p[3] for p in pairs)
    assert outcomes["digit map", False] == 0 and outcomes["digit map", "collides"] == 0
    for name in ("collapse", "drop digit 4", "drop the last digit"):
        assert outcomes[name, False] > 0 and outcomes[name, "collides"] > 0
    assert outcomes["x = y"] > 0  # the saturated valuation, read as depth L


def test_sampled_path_refutes_a_last_digit_collapse(monkeypatch):
    # 20 points share each word; the R_3 = 200 enumerated points cannot see
    # it, and two uniform points share their first four digits with chance
    # 1/5000, but every fifth pair agrees mod R_4
    monkeypatch.setattr(audit, "_digit_columns", lift(lambda a, r: digits(a, r)[:4] + (0,)))
    r = radic.Radix((4, 5, 10, 25, 20))
    for seed in range(50):
        rep = audit.build_radic_isometry(r, seed=seed)
        assert not rep["bijective"] and not rep["isometric"], seed
        # the masses are checked on the enumerated levels only
        assert rep["pushforward_uniform"] and rep["pairs_checked"] == 2000


_BROKEN_DIGIT_MAPS = """
import sys
from digit_maps import digits, lift
from ultrametric import audit, radic

print(sys.flags.optimize)
broken = {
    "a - a % 2": lambda a, r: digits(a - a % 2, r),
    "last digit": lambda a, r: digits(a, r)[:-1] + (0,),
}
for name, psi in broken.items():
    audit._digit_columns = lift(psi)
    for fs in ((2, 3, 4), (4, 5, 10, 25, 20)):
        rep = audit.build_radic_isometry(radic.Radix(fs))
        print(name, fs, rep["bijective"], rep["isometric"])
"""


def test_isometry_certificate_refutes_under_python_O():
    # each verdict is an explicit test, so stripping asserts does not skip it
    import os
    import subprocess
    import sys

    import ultrametric

    path = [os.path.dirname(os.path.dirname(ultrametric.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_DIGIT_MAPS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split("\n")
    assert out == [
        "1",
        "a - a % 2 (2, 3, 4) False False",
        "a - a % 2 (4, 5, 10, 25, 20) False False",
        "last digit (2, 3, 4) False False",
        "last digit (4, 5, 10, 25, 20) False False",
        "",
    ]


def build_radic_isometry_by_pairs(radix, exhaustive_cap=4096, samples=2000, seed=0,
                                  psi=digits) -> dict:
    """The isometry check one sampled pair at a time, psi(a, radix) the word
    of a: both words of each pair in full, lr_valuation(x - y) against
    their match length, and the first failing pair ends the check."""
    R = radix.modulus
    if R > exhaustive_cap and samples < 1:
        raise ValueError(f"the sampled check needs samples >= 1, got {samples}")

    enum_bound = max((R_k for R_k in radix.prefix if R_k <= exhaustive_cap), default=1)
    words = [psi(a, radix) for a in range(enum_bound)]
    bijective = len(set(words)) == enum_bound
    _, isometric, pushforward_uniform = audit._per_level_check(zip(*words), enum_bound, radix)
    if R <= exhaustive_cap:
        pairs_checked = R * R
    else:
        getrandbits = random.Random(seed).getrandbits
        bits = R.bit_length()
        L = radix.depth
        pairs_checked = samples
        for i in range(samples):
            # randrange(R) without its call overhead: CPython draws R.bit_length()
            # bits until they fall below R, so the pairs are the same
            x = getrandbits(bits)
            while x >= R:
                x = getrandbits(bits)
            y = getrandbits(bits)
            while y >= R:
                y = getrandbits(bits)
            R_k = radix.prefix[i % L]
            y += x % R_k - y % R_k  # pair i agrees mod R_k, k = i mod L
            wx, wy = psi(x, radix), psi(y, radix)
            l = radic.lr_valuation(x - y, radix)
            if (L if l is None else l) != cantor.match_length(wx, wy):
                isometric = False
                bijective = bijective and wx != wy
                break
    return {
        "bijective": bijective,
        "isometric": isometric,
        "pushforward_uniform": pushforward_uniform,
        "pairs_checked": pairs_checked,
    }


# the broken maps of the tests above, each at every depth it keeps: at
# depth 5 "drop digit 4" and "drop the last digit" are the two maps the
# (4, 5, 10, 25, 20) tests patch in
SWEEP_MAPS = {
    "digit map": None,  # the routine itself, unpatched
    "collapse": lambda a, r: digits(a - a % 2, r),
    "drop digit 4": lambda a, r: digits(a, r)[:3] + (0,) + digits(a, r)[4:],
    "drop the last digit": lambda a, r: digits(a, r)[:-1] + (0,),
}


def assert_same_report(got, want, case):
    assert got == want, case
    assert list(got) == list(want), case
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()], case


def test_level_sweep_equals_the_pair_by_pair_check(monkeypatch):
    unpatched = audit._digit_columns
    rng = random.Random(32)
    outcomes = Counter()
    for case in range(2000):
        fs = [rng.randrange(2, rng.choice((3, 5, 7))) for _ in range(rng.randrange(1, 8))]
        cap = rng.choice((1, 64, 4096))
        if case % 20 == 0:
            fs[0] = cap + rng.randrange(1, 50)  # B = 1: no prefix level is enumerated
        r = radic.Radix(tuple(fs))
        samples = 1024 + case % 3 - 1 if case % 40 == 1 else rng.randrange(1, 301)
        seed = rng.randrange(10**6)
        name = rng.choice([n for n in SWEEP_MAPS if n != "drop digit 4" or r.depth >= 4])
        psi = SWEEP_MAPS[name]
        monkeypatch.setattr(audit, "_digit_columns", unpatched if psi is None else lift(psi))
        got = audit.build_radic_isometry(r, cap, samples, seed)
        want = build_radic_isometry_by_pairs(r, cap, samples, seed, psi or digits)
        assert_same_report(got, want, (fs, cap, samples, seed, name))
        sampled = r.modulus > cap
        outcomes[name, sampled, got["isometric"], got["bijective"]] += 1
        if sampled:
            outcomes["samples", samples - 1024] += 1
            outcomes["first factor above the cap"] += fs[0] > cap
            outcomes["x = y"] += any(x == y for x, y in seeded_pairs(r, seed, samples))
    assert outcomes["digit map", True, True, True] > 0
    assert all(not key[0] == "digit map" or key[2:] == (True, True) for key in outcomes)
    for name in ("collapse", "drop digit 4", "drop the last digit"):
        assert outcomes[name, True, False, False] > 0
    # a failing pair of two words leaves ``bijective`` to the enumeration
    assert outcomes["collapse", True, False, True] > 0
    assert outcomes["drop digit 4", True, False, True] > 0
    assert all(outcomes["samples", d] > 0 for d in (-1, 0, 1))
    assert outcomes["first factor above the cap"] > 0 and outcomes["x = y"] > 0


def test_level_sweep_finds_the_first_failing_pair_across_chunks(monkeypatch):
    # a map broken at the one value x of pair i, x != y and in no earlier
    # pair, fails first at pair i: i = 0 mod L draws y apart from x, so every
    # other i has x = y mod r_1, and digit 1 of x + 1 tells them apart.
    # Pairs on both sides of 1024 and of 2048
    r = radic.Radix((4, 5, 10, 25, 20))
    R = r.modulus
    checked = 0
    for seed in range(4):
        pairs = list(seeded_pairs(r, seed, 2 * 1024 + 2))
        for i in (1024 - 1, 1024, 1024 + 2, 2 * 1024, 2 * 1024 + 1):
            assert i % r.depth
            bad, y = pairs[i]
            if bad == y or any(bad in p for p in pairs[:i]):
                continue

            def psi(a, radix, bad=bad):
                return digits((a + 1) % R if a == bad else a, radix)

            monkeypatch.setattr(audit, "_digit_columns", lift(psi))
            for samples in (i, i + 1, 2 * 1024 + 2):
                got = audit.build_radic_isometry(r, samples=samples, seed=seed)
                want = build_radic_isometry_by_pairs(r, samples=samples, seed=seed, psi=psi)
                assert_same_report(got, want, (seed, i, samples))
                assert got["isometric"] is (samples <= i), (seed, i, samples)
            checked += 1
    assert checked >= 15


def test_level_sweep_reports_the_lowest_failing_pair_not_the_deepest(monkeypatch):
    # pair i fails at level 1 with two words (x moved to the word of x + 1),
    # the later pair j at a deeper level with one word (x moved to the word
    # of y): the report is pair i's, so ``bijective`` stands.  Both moved
    # values lie past the R_3 = 200 enumerated points
    r = radic.Radix((4, 5, 10, 25, 20))
    checked = 0
    for seed in range(20):
        pairs = list(seeded_pairs(r, seed, 10))
        (xi, yi), (xj, yj) = pairs[3], pairs[7]
        if (len({xi, yi, xj, yj}) < 4 or min(xi, xj) < r.cumulative(3)
                or any({xi, xj} & set(p) for p in pairs[:3])):
            continue
        moved = {xi: xi + 1, xj: yj}

        def psi(a, radix, moved=moved):
            return digits(moved.get(a, a), radix)

        monkeypatch.setattr(audit, "_digit_columns", lift(psi))
        for samples in (4, 8, 10):
            got = audit.build_radic_isometry(r, samples=samples, seed=seed)
            want = build_radic_isometry_by_pairs(r, samples=samples, seed=seed, psi=psi)
            assert_same_report(got, want, (seed, samples))
            assert not got["isometric"] and got["bijective"]
        checked += 1
    assert checked >= 10


def test_sampled_pairs_are_the_randrange_pairs():
    # one batch of getrandbits is the stream randrange(R) reads
    for fs in ((2, 3), (4, 5, 10, 25, 20), (7,), (3,) * 40):
        r = radic.Radix(fs)
        for seed in range(3):
            for samples in (1, 1024, 1024 + 5):
                xs, ys = audit._sampled_pairs(r, samples, seed)
                assert list(zip(xs, ys)) == list(seeded_pairs(r, seed, samples))


def test_digit_columns_keep_the_masked_values():
    r = radic.Radix((3, 4, 5))
    values = [0, 7, 59, 13, 42]
    columns = audit._digit_columns(values, r)
    assert next(columns) == [digits(a, r)[0] for a in values]
    keep = [True, False, True, True, False]
    kept = [a for a, k in zip(values, keep) if k]
    assert columns.send(keep) == [digits(a, r)[1] for a in kept]
    assert next(columns) == [digits(a, r)[2] for a in kept]
    assert next(columns, None) is None
    assert audit.mixed_radix_digits(59, r) == digits(59, r) == (2, 3, 4)


def test_enumeration_reads_no_column_past_the_distinct_prefixes(monkeypatch):
    # B = R_12 = 4096 of R = 2^64: the canonical words are distinct from
    # level 12 on, so the sweep stops at level 13, the first past the checked
    # levels; the collapse shares each word between a and a + 1, and only
    # the last level can show that no deeper one splits them
    r = radic.Radix((2,) * 64)
    for psi, read in ((None, 13), (lambda a, radix: digits(a - a % 2, radix), 64)):
        routine = audit._digit_columns if psi is None else lift(psi)
        calls = []

        def counted(values, radix, routine=routine, calls=calls):
            calls.append([values, 0])
            columns = routine(values, radix)
            keep = None
            while True:
                try:
                    column = columns.send(keep)
                except StopIteration:
                    return
                calls[-1][1] += 1
                keep = yield column

        monkeypatch.setattr(audit, "_digit_columns", counted)
        got = audit.build_radic_isometry(r, samples=1)
        assert calls[0] == [range(4096), read]
        want = build_radic_isometry_by_pairs(r, samples=1, psi=psi or digits)
        assert_same_report(got, want, read)
        assert all(got.values()) is (psi is None)


def test_per_level_check_reads_bijectivity_off_the_last_level():
    # the sweep stops reading columns once the prefixes are distinct; its
    # verdict must still be the word set's, on every block of leading words
    rng = random.Random(33)
    outcomes = Counter()
    for _ in range(100):
        r = _random_radix(rng)
        R = r.modulus
        canonical = [audit.mixed_radix_digits(a, r) for a in range(R)]
        b, c = rng.sample(range(R), 2)
        families = (
            canonical,
            [w[::-1] for w in canonical],
            rng.sample(canonical, R),
            [canonical[a - a % 2] for a in range(R)],
            [canonical[c] if a == b else w for a, w in enumerate(canonical)],
        )
        for words in families:
            for n in {*r.prefix[1:], rng.randrange(1, R + 1)}:
                got = audit._per_level_check(zip(*words[:n]), n, r)[0]
                assert got is (len(set(words[:n])) == n), (r, n)
                outcomes[got] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


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
            assert audit._per_level_check(zip(*words), R, r) == (True, True, True)
            assert oracle_isometric(words, r)
        for words in (msd_first, finer, shuffled, collapsed):
            assert audit._per_level_check(zip(*words), R, r)[1] == oracle_isometric(words, r)
        # only even points have images, so prefixes carry no uniform mass
        assert audit._per_level_check(zip(*collapsed), R, r) == (False, False, False)
        if r.depth >= 2:
            assert not audit._per_level_check(zip(*msd_first), R, r)[1]
            assert not audit._per_level_check(zip(*finer), R, r)[1]


def per_level_check_by_slices(words, radix) -> tuple[bool, bool]:
    """The residue and mass dicts of every sliced k-prefix, O(n * L^2)."""
    n = len(words)
    isometric = pushforward_uniform = True
    for k in range(1, radix.depth + 1):
        R_k = radix.cumulative(k)
        if n % R_k:
            break
        residue: dict[tuple[int, ...], int] = {}
        mass: dict[tuple[int, ...], int] = {}
        for a, w in enumerate(words):
            prefix = w[:k]
            if residue.setdefault(prefix, a % R_k) != a % R_k:
                isometric = False
            mass[prefix] = mass.get(prefix, 0) + 1
        isometric = isometric and len(residue) == R_k
        pushforward_uniform = pushforward_uniform and all(c * R_k == n for c in mass.values())
    return isometric, pushforward_uniform


def test_per_level_check_against_slicing_kernel():
    rng = random.Random(29)
    outcomes = Counter()
    for _ in range(150):
        r = _random_radix(rng)
        R = r.modulus
        canonical = [audit.mixed_radix_digits(a, r) for a in range(R)]
        unit = next(u for u in range(R // 2 + 1, 2 * R) if gcd(u, R) == 1)
        perms = [rng.sample(range(n), n) for n in r.factors]
        b, c = rng.sample(range(R), 2)
        families = {
            "isometry": [canonical[unit * a % R] for a in range(R)],
            "permuted digits": [tuple(s[d] for s, d in zip(perms, w)) for w in canonical],
            "msd_first": [w[::-1] for w in canonical],
            "finer": [(a % r.cumulative(min(2, r.depth)),) + w[1:]
                      for a, w in enumerate(canonical)],
            # not periodic, yet every prefix keeps its mass: counted masses
            "shuffled": rng.sample(canonical, R),
            "collapsed": [canonical[a - a % 2] for a in range(R)],
            # one word repeated in place of another: one mass too many
            "merged": [canonical[c] if a == b else w for a, w in enumerate(canonical)],
        }
        for name, words in families.items():
            # every prefix of n = R_k words for each k, and a block of words
            # whose length some R_k does not divide
            for n in {*r.prefix[1:], rng.randrange(1, R + 1)}:
                got = audit._per_level_check(zip(*words[:n]), n, r)[1:]
                want = per_level_check_by_slices(words[:n], r)
                assert got == want and type(got) is tuple
                assert [type(v) for v in got] == [bool, bool]
                outcomes[name, got] += 1
    for key in (("isometry", (True, True)), ("shuffled", (False, True)),
                ("collapsed", (False, False)), ("merged", (False, False)),
                ("msd_first", (False, True)), ("finer", (False, False))):
        assert outcomes[key] > 0, (key, outcomes)


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


def doubling_metric_oracle(spec, candidate=None):
    """The O(L^2) census: for every level l, count the j >= l with t_j >= t_l / 2."""
    factor_bound = max(spec.factors)
    census = 0
    census_witness = None
    for l in range(spec.depth + 1):
        half = spec.scales[l] / 2
        count = sum(1 for j in range(l, spec.depth + 1) if spec.scales[j] >= half)
        if count > census:
            census = count
            census_witness = l
    constant = {"factor_bound": factor_bound, "scale_census": census}
    if candidate is not None:
        if factor_bound > candidate:
            level = spec.factors.index(factor_bound) + 1
            return audit.DoublingReport(False, constant, {"kind": "factor", "level": level})
        if census > candidate:
            return audit.DoublingReport(
                False, constant, {"kind": "scale-census", "level": census_witness}
            )
    return audit.DoublingReport(True, constant)


def doubling_measure_oracle(spec, mu, candidate=None):
    """The per-weight check: level j fails when some 1/w exceeds the candidate."""
    c2 = audit.ratio_c2(spec, mu)
    if c2 is None:
        return audit.DoublingReport(False, {"min_weight": 0}, degenerate=True)
    metric = doubling_metric_oracle(spec, candidate)
    verdict, witness = metric.verdict, metric.witness
    if candidate is not None and verdict:
        for j, level in enumerate(mu.weights):
            if max(Fraction(1) / w for w in level) > candidate:
                verdict = False
                witness = {"kind": "weight", "level": j + 1}
                break
    return audit.DoublingReport(verdict, {"min_weight": 1 / c2, "metric": metric.constant},
                                witness)


def test_doubling_audits_against_quadratic_oracles():
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(2400):
        depth = rng.randrange(1, 31)
        top = rng.randrange(2, 9)
        factors = tuple(rng.randrange(2, top + 1) for _ in range(depth))
        # ratios k/6 (3/6 puts scales at exact halves) or k/100
        den = rng.choice((6, 100))
        scales = [Fraction(1)]
        for _ in factors:
            k = rng.randrange(1, den)
            scales.append(scales[-1] * Fraction(rng.choice((k, den // 2, den - 1, den - 1)), den))
        spec = cantor.ProductSpec(factors, tuple(scales))
        zero_level = rng.randrange(depth) if rng.random() < 0.1 else None
        weights = []
        for j, n in enumerate(factors):
            w = [rng.randrange(0 if j == zero_level else 1, 6) for _ in range(n)]
            if j == zero_level:
                w[rng.randrange(n)] = 0
                w[rng.randrange(n)] += 1
            weights.append(tuple(Fraction(x, sum(w)) for x in w))
        mu = cantor.ProductMeasure(tuple(weights))
        candidate = rng.choice((None, *range(1, 13)))
        want = doubling_metric_oracle(spec, candidate).to_json()
        assert audit.doubling_metric(spec, candidate).to_json() == want
        got = audit.doubling_measure(spec, mu, candidate).to_json()
        assert got == doubling_measure_oracle(spec, mu, candidate).to_json()
        outcomes["metric", want["verdict"], (want["witness"] or {}).get("kind")] += 1
        outcomes["measure", got["verdict"], (got["witness"] or {}).get("kind")] += 1
        outcomes["degenerate"] += got["degenerate"]
    # every verdict and witness kind occurs, the degenerate path included
    for key in (("metric", True, None), ("metric", False, "factor"),
                ("metric", False, "scale-census"), ("measure", True, None),
                ("measure", False, "weight"), ("measure", False, "scale-census")):
        assert outcomes[key] >= 100, (key, outcomes)
    assert outcomes["degenerate"] >= 100


def test_doubling_metric_is_linear_in_depth():
    L = 5000
    start = time.perf_counter()
    halving = audit.doubling_metric(cantor.ProductSpec.geometric((2,) * L, Fraction(1, 2)), 3)
    # t_l = 1/(l+1): the scales >= t_l / 2 are t_l .. t_min(2l+1, L), so the
    # census is max_l min(l + 2, L - l + 1) = 2501, first reached at l = 2499
    slow = cantor.ProductSpec((2,) * L, tuple(Fraction(1, l + 1) for l in range(L + 1)))
    harmonic_census = audit.doubling_metric(slow, 3)
    elapsed = time.perf_counter() - start
    assert halving.verdict and halving.constant == {"factor_bound": 2, "scale_census": 2}
    assert harmonic_census.constant == {"factor_bound": 2, "scale_census": 2501}
    assert harmonic_census.witness == {"kind": "scale-census", "level": 2499}
    assert elapsed < 2.0, elapsed


def test_measure_must_have_one_weight_per_digit():
    spec = cantor.ProductSpec.geometric((2, 2), Fraction(1, 2))
    half, third = (Fraction(1, 2),) * 2, (Fraction(1, 3),) * 3
    for weights in ((half,), (half, half, half), (half, third), (third, half)):
        mu = cantor.ProductMeasure(weights)
        for check in (audit.doubling_measure, audit.ratio_c2, audit.uniform_distribution_check):
            with pytest.raises(ValueError, match="do not fit factors"):
                check(spec, mu)


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


def oracle_uniform_distribution(spec, mu):
    """The enumeration the per-level check replaced: every cylinder mass at
    every depth, as (uniform, profile of the uniform depths, masses by depth)."""
    masses, profile, uniform = [{(): Fraction(1)}], {}, True
    for k in range(1, spec.depth + 1):
        masses.append({
            prefix + (d,): m * mu.weights[k - 1][d]
            for prefix, m in masses[-1].items()
            for d in range(spec.factors[k - 1])
        })
        values = set(masses[-1].values())
        uniform = uniform and len(values) == 1
        if uniform:
            profile[str(spec.scales[k])] = values.pop()
    return uniform, profile, masses


def test_uniform_distribution_check_against_enumeration():
    rng = random.Random(15)
    outcomes = Counter()
    for _ in range(2000):
        factors = tuple(rng.randrange(2, 4) for _ in range(rng.randrange(1, 6)))
        spec = cantor.ProductSpec.reciprocal(factors)
        weights = []
        for n in factors:
            if rng.random() < 0.7:
                weights.append((Fraction(1, n),) * n)
            else:
                raw = [rng.randrange(0, 4) for _ in range(n)]
                raw[0] += sum(raw) == 0
                weights.append(tuple(Fraction(w, sum(raw)) for w in raw))
        mu = cantor.ProductMeasure(tuple(weights))
        rep = audit.uniform_distribution_check(spec, mu)
        uniform, profile, masses = oracle_uniform_distribution(spec, mu)
        assert rep["uniform"] is uniform and rep["profile"] == profile
        outcomes[uniform] += 1
        if uniform:
            assert rep["witness"] is None
        else:
            x, y = rep["witness"]
            # the witness sits at the first depth whose masses differ
            k = len(profile) + 1
            assert len(x) == len(y) == k and masses[k][x] != masses[k][y]
    assert min(outcomes.values()) >= 200, outcomes


def test_uniform_distribution_witness_and_cost():
    spec = cantor.ProductSpec.reciprocal((3, 2))
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    mu = cantor.ProductMeasure(((quarter, quarter, half), (half, half)))
    rep = audit.uniform_distribution_check(spec, mu)
    assert rep == {"uniform": False, "profile": {}, "witness": ((0,), (2,))}
    spec = cantor.ProductSpec.reciprocal((2,) * 18)
    start = time.perf_counter()
    rep = audit.uniform_distribution_check(spec, cantor.ProductMeasure.uniform(spec))
    assert time.perf_counter() - start < 0.5  # 2^18 leaves, never enumerated
    assert rep["uniform"] and rep["profile"][str(spec.scales[18])] == Fraction(1, 2**18)


def test_dist_local_constancy():
    # by the ball lemmas dist(., A) is locally constant off A and 1-Lipschitz
    # for every A: if d(x, y) < dist(x, A), each a in A has d(y, a) = d(x, a).
    # Every pair of small products, against the least distance to a point of A
    rng = random.Random(26)
    for case in range(120):
        while True:  # at most 81 points
            factors = tuple(rng.randrange(2, 6) for _ in range(rng.randrange(1, 5)))
            if prod(factors) <= 81:
                break
        spec = (cantor.ProductSpec.reciprocal(factors) if case % 2 else
                cantor.ProductSpec.geometric(factors, Fraction(1, rng.randrange(2, 5))))
        A = []
        for _ in range(rng.randrange(1, 4)):
            depth = rng.randrange(len(factors) + 1)
            A.append(cantor.Cylinder(tuple(rng.randrange(n) for n in factors[:depth])))
        pts = list(spec.points())
        in_A = [a for a in pts if any(a[: c.depth] == c.digits for c in A)]
        dist = {x: audit.dist_to_set(x, A, spec) for x in pts}
        for x in pts:
            assert dist[x] == min(cantor.match_and_dist(x, a, spec)[1] for a in in_A)
            for y in pts:
                d = cantor.match_and_dist(x, y, spec)[1]
                assert dist[y] == dist[x] or d >= dist[x]
                assert abs(dist[x] - dist[y]) <= d
    assert audit.dist_to_set((1, 1, 1), [cantor.Cylinder(())], BINARY3) == 0
    with pytest.raises(EmptySet):
        audit.dist_to_set((0, 0, 0), [], BINARY3)


def test_dist_example_opposite_half():
    spec = BINARY3
    A = [cantor.Cylinder((0, 0, 0))]
    x, y = (1, 0, 0), (1, 0, 1)  # d(x, y) = t_2 < dist = t_0
    dx = audit.dist_to_set(x, A, spec)
    dy = audit.dist_to_set(y, A, spec)
    assert dx == dy == spec.scales[0]
