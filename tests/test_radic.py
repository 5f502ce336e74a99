import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultrametric import padic, radic
from ultrametric.errors import InvalidResidue, NotComparable, RadixMismatch

small_radix = st.lists(st.integers(2, 6), min_size=1, max_size=4).map(
    lambda xs: radic.Radix(tuple(xs))
)


def test_lr_and_abs_examples():
    r = radic.Radix((2, 3, 2))
    t = (1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 12))
    assert radic.lr_and_abs(6, r, t) == (2, Fraction(1, 6))
    assert radic.lr_and_abs(0, r, t) == (None, 0)
    r2 = radic.Radix((2, 2, 2))
    assert radic.lr_and_abs(12, r2)[0] == 2


@given(r=small_radix, a=st.integers(-500, 500))
def test_lr_and_abs_default_is_the_reciprocal_scales(r, a):
    assert radic.lr_and_abs(a, r) == radic.lr_and_abs(a, r, radic.default_scales(r))


def test_lr_and_abs_refuses_scales_of_the_wrong_length():
    r = radic.Radix((2, 3, 4))
    for t in ((1, Fraction(1, 2)), radic.default_scales(r) + (Fraction(1, 48),)):
        with pytest.raises(ValueError, match="need 4 scales"):
            radic.lr_and_abs(6, r, t)
    with pytest.raises(ValueError, match="strictly decreasing"):
        radic.lr_and_abs(6, r, (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)))


def test_embed_examples():
    r = radic.Radix((2, 3))
    assert radic.embed_q(7, r) == (1, 1)
    assert radic.embed_q(0, r) == (0, 0)
    t = (1, Fraction(1, 2), Fraction(1, 6))
    assert radic.radic_dist(5, 7, r, t) == Fraction(1, 2)


def test_coherence():
    r = radic.Radix((2, 3))
    assert radic.coherence_check((1, 1), r)
    assert not radic.coherence_check((1, 2), r)
    assert radic.coherence_check((0, 0), r)
    with pytest.raises(InvalidResidue):
        radic.coherence_check((0, 7), r)


@given(r=small_radix, a=st.integers(-500, 500))
def test_embed_is_coherent(r, a):
    assert radic.coherence_check(radic.embed_q(a, r), r)


@given(r=small_radix, a=st.integers(-300, 300), b=st.integers(-300, 300))
def test_embed_isometry_and_homomorphism(r, a, b):
    t = radic.default_scales(r)
    seq_a, seq_b = radic.embed_q(a, r), radic.embed_q(b, r)
    # d(q(a), q(b)) at full depth equals d_r(a, b)
    l = next(
        (i for i in range(r.depth) if seq_a[i] != seq_b[i]),
        None,
    )
    d_seq = Fraction(0) if l is None else t[l]
    assert d_seq == radic.radic_dist(a, b, r, t)
    # ring homomorphism on residues
    xa, xb = radic.RadicInt(r, a), radic.RadicInt(r, b)
    assert (xa + xb).residue == (a + b) % r.modulus
    assert (xa * xb).residue == a * b % r.modulus


def test_arith_examples():
    r = radic.Radix((2, 3))
    assert (radic.RadicInt(r, 4) + radic.RadicInt(r, 5)).residue == 3
    x = radic.RadicInt(r, 4)
    assert (x * radic.RadicInt(r, 1)).residue == 4
    with pytest.raises(RadixMismatch):
        x + radic.RadicInt(radic.Radix((2, 2)), 1)
    with pytest.raises(RadixMismatch):
        x * radic.RadicInt(radic.Radix((2, 2)), 1)
    assert (-x).residue == 2 and (-(-x)).residue == 4
    assert (x - radic.RadicInt(r, 5)).residue == 5 and (x - x).residue == 0
    with pytest.raises(RadixMismatch):
        x - radic.RadicInt(radic.Radix((2, 2)), 1)


def lr_valuation_oracle(a, radix):
    """The definition: max{l : R_l | a}, None when R_L | a."""
    l = max(l for l in range(radix.depth + 1) if a % radix.cumulative(l) == 0)
    return None if l == radix.depth else l


def test_lr_valuation_against_its_definition():
    rng = random.Random(23)
    levels = Counter()
    for _ in range(400):
        r = radic.Radix(tuple(rng.randrange(2, 13) for _ in range(rng.randrange(1, 9))),
                        periodic=rng.random() < 0.2)
        R = r.modulus
        inputs = [0, 1, -1, R, -R, 7 * R, -7 * R, rng.randrange(-R, R)]
        for R_l in r.prefix:
            k = rng.randrange(1, 50)
            inputs += [R_l, -R_l, k * R_l, -k * R_l, k * R_l + R * rng.randrange(-3, 4)]
        inputs += [rng.randrange(-(R**3), R**3) for _ in range(10)]
        for a in inputs:
            want = lr_valuation_oracle(a, r)
            assert radic.lr_valuation(a, r) == want, (r, a)
            levels[want] += 1
    assert levels[None] > 0 and levels[0] > 0 and len(levels) >= 9


@given(r=small_radix)
def test_valuation_superadditivity(r):
    # exhaustive at small radices: l_r(a+b) >= min, l_r(ab) >= max
    L = r.depth
    for a in range(-20, 21, 7):
        for b in range(-20, 21, 9):
            la = radic.lr_valuation(a, r)
            lb = radic.lr_valuation(b, r)
            lab = radic.lr_valuation(a + b, r)
            lprod = radic.lr_valuation(a * b, r)
            sat = L + 1
            la_, lb_ = (sat if v is None else v for v in (la, lb))
            assert (sat if lab is None else lab) >= min(la_, lb_)
            assert (sat if lprod is None else lprod) >= min(max(la_, lb_), L)


@given(
    r=small_radix,
    a=st.integers(-200, 200),
    b=st.integers(-200, 200),
    c=st.integers(-200, 200),
)
def test_ultrametric_and_translation_invariance(r, a, b, c):
    t = radic.default_scales(r)
    d = radic.radic_dist
    assert d(a, c, r, t) <= max(d(a, b, r, t), d(b, c, r, t))
    assert d(a + c, b + c, r, t) == d(a, b, r, t)


@given(r=small_radix, periodic=st.booleans())
def test_cumulative_matches_product_of_factors(r, periodic):
    r = radic.Radix(r.factors, periodic)
    top = 3 * r.depth if periodic else r.depth
    for l in range(top + 1):
        expect = 1
        for j in range(l):
            expect *= r.factors[j % r.depth]
        assert r.cumulative(l) == expect
    if not periodic:
        with pytest.raises(ValueError):
            r.cumulative(r.depth + 1)


def test_radix_value_semantics():
    r = radic.Radix([2, 3])
    assert r == radic.Radix((2, 3)) and hash(r) == hash(radic.Radix((2, 3)))
    assert r != radic.Radix((2, 3), periodic=True)
    assert repr(r) == "Radix(factors=(2, 3), periodic=False)"
    for bad in ((), (2, 1)):
        with pytest.raises(ValueError):
            radic.Radix(bad)
    with pytest.raises(ValueError):
        radic.check_scales((1, Fraction(1, 2), Fraction(1, 2)), 2)


def test_haar_ball():
    r = radic.Radix((2, 3))
    assert radic.haar_ball(2, r) == Fraction(1, 6)
    assert radic.haar_ball(0, r) == 1
    assert radic.haar_ball(2, radic.Radix((10, 10))) == Fraction(1, 100)


def test_preceq_powers_of_two():
    r = radic.Radix((2,) * 4, periodic=True)
    rp = radic.Radix((4,) * 4, periodic=True)
    w1 = radic.preceq(r, rp)
    w2 = radic.preceq(rp, r)
    assert w1.witnesses and w2.witnesses


def test_preceq_coprime_refuted():
    r = radic.Radix((2, 2), periodic=True)
    rp = radic.Radix((3, 3), periodic=True)
    with pytest.raises(NotComparable) as exc:
        radic.preceq(r, rp)
    assert exc.value.reason == "coprime"
    assert (exc.value.level, exc.value.modulus) == (1, 2)


def test_preceq_search_exhausted():
    # 2^5 divides no 12^n ... it does; use depth bound instead: 2^9 needs n >= 5
    r = radic.Radix((2,) * 9)
    rp = radic.Radix((4, 4))  # truncation too shallow
    with pytest.raises(NotComparable) as exc:
        radic.preceq(r, rp)
    assert exc.value.reason == "search-exhausted"
    assert (exc.value.level, exc.value.modulus) == (5, 32)


def test_preceq_alternating_equivalence():
    r = radic.Radix((2, 3, 2, 3), periodic=True)
    rp = radic.Radix((6, 6), periodic=True)
    assert radic.preceq(r, rp).witnesses
    assert radic.preceq(rp, r).witnesses


def test_project_commutes_with_embedding():
    r = radic.Radix((2, 3))
    rp = radic.Radix((6, 6))
    for a in range(-40, 40):
        xp = radic.RadicInt(rp, a)
        assert radic.project(xp, r).residue == a % r.modulus


def test_project_is_ring_homomorphism_and_surjective():
    r = radic.Radix((2, 3))
    rp = radic.Radix((6, 6))
    images = set()
    for a in range(rp.modulus):
        for b in range(0, rp.modulus, 5):
            xa, xb = radic.RadicInt(rp, a), radic.RadicInt(rp, b)
            assert radic.project(xa + xb, r).residue == (
                radic.project(xa, r) + radic.project(xb, r)
            ).residue
            assert radic.project(xa * xb, r).residue == (
                radic.project(xa, r) * radic.project(xb, r)
            ).residue
        images.add(radic.project(radic.RadicInt(rp, a), r).residue)
    assert images == set(range(r.modulus))


def test_depth_monotonicity():
    # deepening the truncation refines, never contradicts, shallow answers
    deep = radic.Radix((2, 3, 4, 5))
    shallow = radic.Radix((2, 3))
    for a in range(-50, 50, 3):
        assert radic.embed_q(a, deep)[: shallow.depth] == radic.embed_q(a, shallow)
        l_deep = radic.lr_valuation(a, deep)
        l_shallow = radic.lr_valuation(a, shallow)
        if l_shallow is not None and l_shallow < shallow.depth:
            assert l_deep == l_shallow


def test_preceq_scans_forward_once():
    # n(l) = l at every one of 3000 levels; a search that restarts at n = 0
    # for each level forms O(L^2) products of up to L factors
    start = time.perf_counter()
    w = radic.preceq(radic.Radix((2,) * 3000), radic.Radix((2,), periodic=True), 5000)
    assert time.perf_counter() - start < 1
    assert w.witnesses == {l: l for l in range(1, 3001)}


# The comparison and projection before the forward scan: a search from
# n = 0 for every level, and the primes of r' by trial division.  Kept as
# the oracle of preceq and project.
def cycle_primes_oracle(radix):
    out = set()
    for r in radix.factors:
        d = 2
        while d * d <= r:
            if r % d == 0:
                out.add(d)
                r //= d ** padic.vp(r, d)
            d += 1
        if r > 1:
            out.add(r)
    return out


def preceq_oracle(r, r_prime, search_depth=64):
    max_n = search_depth if r_prime.periodic else min(search_depth, r_prime.depth)
    witness = radic.PrecedenceWitness()
    primes_rp = cycle_primes_oracle(r_prime)
    for l in range(1, r.depth + 1):
        R_l = r.cumulative(l)
        found = None
        for n in range(max_n + 1):
            if r_prime.cumulative(n) % R_l == 0:
                found = n
                break
        if found is None:
            rem = R_l
            for q in primes_rp:
                rem //= q ** padic.vp(rem, q)
            reason = "coprime" if rem > 1 else "search-exhausted"
            raise NotComparable(
                f"R_{l} = {R_l} divides no R'_n for n <= {max_n} ({reason})",
                reason, max_n, l, R_l,
            )
        witness.witnesses[l] = found
    return witness


def project_oracle(x_prime, r, search_depth=64):
    truncated = radic.Radix(x_prime.radix.factors)
    w = preceq_oracle(r, truncated, min(search_depth, truncated.depth))
    n_top = w.witnesses[r.depth]
    residue = x_prime.residue % truncated.cumulative(n_top) % r.modulus
    return radic.RadicInt(r, residue)


def outcome(f, *args):
    """The value of f, or the whole NotComparable it raised."""
    try:
        return f(*args)
    except NotComparable as e:
        return (str(e), e.reason, e.search_depth, e.level, e.modulus)


FACTORS = (*range(2, 13), 15, 30)


def test_preceq_against_the_oracle():
    rng = random.Random(18)
    seen = Counter()
    for _ in range(10_000):
        pool = rng.sample(FACTORS, rng.randrange(1, 5))
        r = radic.Radix(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 7))),
                        periodic=rng.random() < 0.3)
        pool += rng.sample(FACTORS, rng.randrange(0, 3))
        r_prime = radic.Radix(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 6))),
                              periodic=rng.random() < 0.5)
        search_depth = rng.randrange(-1, 13)
        got = outcome(radic.preceq, r, r_prime, search_depth)
        want = outcome(preceq_oracle, r, r_prime, search_depth)
        if isinstance(want, tuple):
            assert got == want, (r, r_prime, search_depth)
            seen[want[1]] += 1
        else:
            assert isinstance(got, radic.PrecedenceWitness), (r, r_prime, search_depth)
            assert got.witnesses == want.witnesses, (r, r_prime, search_depth)
            seen["witness"] += 1
    assert min(seen["witness"], seen["coprime"], seen["search-exhausted"]) >= 1000, seen


def test_project_against_the_oracle():
    # r from regrouping a prefix of r': merge runs of factors, split some
    # in two, so that R_L = R'_n; a few unrelated r refute
    rng = random.Random(19)
    projected = 0
    for _ in range(3_000):
        fp = tuple(rng.choice(FACTORS) for _ in range(rng.randrange(1, 6)))
        r_prime = radic.Radix(fp, periodic=rng.random() < 0.3)
        if rng.random() < 0.15:
            fs = [rng.choice(FACTORS) for _ in range(rng.randrange(1, 5))]
        else:
            fs, i, top = [], 0, rng.randrange(1, len(fp) + 1)
            while i < top:
                k = rng.randrange(1, 3)
                f = 1
                for x in fp[i:i + k]:
                    f *= x
                i += k
                d = next((d for d in range(2, f) if f % d == 0), None)
                fs += [d, f // d] if d and rng.random() < 0.4 else [f]
        r = radic.Radix(tuple(fs))
        R = r_prime.modulus
        for residue in (0, -1, rng.randrange(-R * R, R * R)):
            x = radic.RadicInt(r_prime, residue)
            search_depth = rng.randrange(-1, 8)
            got = outcome(radic.project, x, r, search_depth)
            want = outcome(project_oracle, x, r, search_depth)
            assert got == want, (r, r_prime, residue, search_depth)
            projected += isinstance(want, radic.RadicInt)
    assert projected >= 4000


def test_cumulative_refuses_negative_depth():
    for r in (radic.Radix((2, 3)), radic.Radix((2, 3), periodic=True)):
        with pytest.raises(ValueError, match="negative"):
            r.cumulative(-1)
        with pytest.raises(ValueError, match="negative"):
            radic.haar_ball(-1, r)
