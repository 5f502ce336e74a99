import cmath
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from ultrametric import characters as ch
from ultrametric.characters import TurnValue
from ultrametric.errors import CertificationFailed, PrecisionMismatch
from ultrametric.padic import PAdicInt, PAdicScalar
from ultrametric.radic import Radix


def test_cyclic_examples():
    assert ch.CyclicCharacter(4, 1).eval(1).turn == Fraction(1, 4)
    assert ch.CyclicCharacter(4, 1).eval(1).complex() == pytest.approx(1j)
    assert all(ch.CyclicCharacter(5, 0).eval(a).is_one() for a in range(5))
    assert ch.CyclicCharacter(2, 1).eval(1).turn == Fraction(1, 2)


def test_order_below_one_rejected():
    for n in (0, -1):
        for check in (ch.character_table, ch.gram_exact, ch.gram_float):
            with pytest.raises(ValueError):
                check(n)


def test_cyclic_homomorphism_law():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 30)
        chi = ch.CyclicCharacter(n, rng.randrange(n))
        a, b = rng.randrange(100), rng.randrange(100)
        assert chi.eval(a + b).turn == (chi.eval(a) * chi.eval(b)).turn


def test_ep_eval_examples():
    half = PAdicScalar.from_rational(Fraction(1, 2), 2, 6)
    assert ch.ep_eval(half).turn == Fraction(1, 2)
    five = PAdicScalar.from_rational(5, 2, 6)
    assert ch.ep_eval(five).is_one()
    x = PAdicScalar.from_rational(Fraction(5, 4), 2, 6)
    assert ch.ep_eval(x).turn == Fraction(1, 4)


def test_ep_homomorphism():
    rng = random.Random(3)
    p, N = 3, 8
    for _ in range(200):
        a = Fraction(rng.randrange(-40, 41), p ** rng.randrange(0, 4))
        b = Fraction(rng.randrange(-40, 41), p ** rng.randrange(0, 4))
        if a == 0 or b == 0 or a + b == 0:
            continue
        ea = ch.ep_eval(PAdicScalar.from_rational(a, p, N))
        eb = ch.ep_eval(PAdicScalar.from_rational(b, p, N))
        eab = ch.ep_eval(PAdicScalar.from_rational(a + b, p, N))
        assert eab.turn == (ea * eb).turn


def test_phi_y_kernel():
    # |y|_2 = 2, i.e. y = 1/2: kernel on Z_2 is 2 Z_2, checked mod 2^3
    y = ch.PadicCharacter(2, 1, 1)
    assert y.kernel_exponent() == 1
    for r in range(8):
        val = y.eval_int(r)
        assert val.is_one() == (r % 2 == 0)
    trivial = ch.PadicCharacter(5, 0, 0)
    assert trivial.trivial
    assert all(trivial.eval_int(r).is_one() for r in range(25))
    # y in Z_p: phi_y restricted to Z_p is identically 1
    x = PAdicScalar.from_padic_int(PAdicInt(2, 6, 13))
    assert ch.phi_y(ch.PadicCharacter(2, 0, 0), x).is_one()


def test_phi_y_matches_ep_of_product():
    rng = random.Random(7)
    p, N = 2, 10
    for _ in range(200):
        k = rng.randrange(0, 4)
        y_res = rng.randrange(p**k) if k else 0
        y = ch.PadicCharacter(p, k, y_res)
        xq = Fraction(rng.randrange(1, 200))
        x = PAdicScalar.from_rational(xq, p, N)
        yq = Fraction(y_res, p**k)
        expected = ch.ep_eval(PAdicScalar.from_rational(xq * yq, p, N)) if xq * yq else ch.ONE
        assert ch.phi_y(y, x).turn == expected.turn


def test_turn_sum_lemma():
    assert ch.turn_sum_is_zero([Fraction(a, 5) for a in range(5)])
    assert not ch.turn_sum_is_zero([Fraction(0), Fraction(0)])
    assert ch.turn_sum_is_zero([Fraction(0), Fraction(1, 2)])


def test_gram_identity():
    for n in (1, 2, 4, 7, 12):
        g = ch.gram_exact(n)
        assert all(
            g[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )
        f = ch.gram_float(n)
        assert np.max(np.abs(f - np.eye(n))) < 1e-12


# The per-cell character table, the per-d Gram certificate, the exp-of-outer
# float Gram matrix and the root-table matrix product that the per-residue,
# per-divisor and FFT kernels replaced; they are the oracles of the tests below.


def character_table_oracle(n):
    return [[ch.CyclicCharacter(n, j).eval(a) for a in range(n)] for j in range(n)]


def gram_exact_oracle(n):
    entry = [Fraction(1)]
    for d in range(1, n):
        bag = Counter(a * d % n for a in range(n))
        certified = any(
            Counter((t + s) % n for t in bag.elements()) == bag for s in bag if s != 0
        )
        if not certified:
            raise CertificationFailed("sum lemma failed to certify vanishing")
        entry.append(Fraction(0))
    return [[entry[(j - jp) % n] for jp in range(n)] for j in range(n)]


def gram_float_oracle(n):
    j = np.arange(n)
    W = np.exp(2j * np.pi * np.outer(j, j) / n)
    return W @ W.conj().T / n


def gram_float_matmul_oracle(n):
    j = np.arange(n)
    W = np.exp(2j * np.pi * j / n)[np.outer(j, j) % n]
    return W @ W.conj().T / n


def test_character_table_matches_per_cell_oracle():
    for n in range(1, 49):
        new, old = ch.character_table(n), character_table_oracle(n)
        assert len(new) == n and all(len(row) == n for row in new)
        for row_new, row_old in zip(new, old):
            for x, y in zip(row_new, row_old):
                assert type(x) is TurnValue and type(x.turn) is Fraction and x == y


def test_gram_exact_matches_per_d_oracle():
    for n in range(1, 129):
        # the lemma behind one certificate per divisor: {a d mod n} is the
        # multiset {a gcd(d, n) mod n}
        for d in range(1, n):
            g = gcd(d, n)
            assert Counter(a * d % n for a in range(n)) == Counter(a * g % n for a in range(n))
        new, old = ch.gram_exact(n), gram_exact_oracle(n)
        assert len(new) == n
        for row_new, row_old in zip(new, old):
            assert len(row_new) == n
            assert all(type(x) is Fraction and x == y for x, y in zip(row_new, row_old))


def test_gram_exact_certifies_once_per_proper_divisor(monkeypatch):
    bags = []

    class Recording(Counter):
        def __init__(self, items):
            super().__init__(items)
            bags.append(self)

    monkeypatch.setattr(ch, "Counter", Recording)
    for n in (1, 7, 12, 64, 90):
        bags.clear()
        ch.gram_exact(n)
        proper = [g for g in range(1, n) if n % g == 0]
        # per divisor: the bag of numerators and the one shift that certifies it
        assert len(bags) == 2 * len(proper)
        assert [min(k for k in b if k) for b in bags[::2]] == proper


def test_gram_float_matches_exp_of_outer_oracle():
    # the FFT kernel against both matrix products it replaced: small n, every
    # prime below 100 (a prime length has no radix to split by), every
    # power of two up to 1024, and random n
    rng = random.Random(5)
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
    sizes = [1, 2, 3] + primes + [2**k for k in range(11)] + rng.sample(range(4, 1025), 12)
    for n in sorted(set(sizes)):
        new = ch.gram_float(n)
        assert new.shape == (n, n) and new.dtype == np.complex128
        for oracle in (gram_float_matmul_oracle, gram_float_oracle):
            assert np.max(np.abs(new - oracle(n))) < 1e-12, (n, oracle.__name__)


def test_gram_float_1024_error():
    # the roots are indexed by j j' mod n, so no angle exceeds one turn: the
    # error is about 2e-16, where exp of the full angles left 7.6e-14
    n = 1024
    assert np.max(np.abs(ch.gram_float(n) - np.eye(n))) < 1e-14


def test_gram_float_error_at_table_cap():
    # the largest table: 4096^2 = 2^24 entries, one FFT per row
    n = ch.TABLE_CAP
    g = ch.gram_float(n)
    g[np.diag_indices(n)] -= 1
    assert max(np.abs(rows).max() for rows in np.split(g, 16)) < 1e-14


def test_table_cap_and_n1():
    t = ch.character_table(1)
    assert len(t) == 1 and t[0][0].is_one()
    with pytest.raises(ValueError):
        ch.character_table(ch.TABLE_CAP + 1)


def test_gram_cap_is_checked_before_any_work(monkeypatch):
    # gram_exact certifies through Counter and gram_float needs numpy, so a
    # refusal that reaches neither has built nothing
    def no_work(*args):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(ch, "Counter", no_work)
    monkeypatch.setitem(sys.modules, "numpy", None)
    for gram in (ch.gram_exact, ch.gram_float):
        with pytest.raises(ValueError, match="exceeds cap"):
            gram(ch.TABLE_CAP + 1)


def test_l2_distance_is_two():
    for n in (2, 3, 8, 15):
        for j1 in range(n):
            for j2 in range(n):
                d = ch.l2_distance_squared(n, j1, j2)
                assert d == (0 if j1 == j2 else 2)


def test_sup_distance_exceeds_one():
    for n in range(2, 65):
        for j2 in range(1, n):
            assert ch.sup_distance_exceeds_one(n, 0, j2)
    assert not ch.sup_distance_exceeds_one(6, 2, 2)


def sup_distance_exceeds_one_cmath(n, j1, j2, margin=1e-9):
    """The floating test the integer one replaced; the oracle below."""
    if j1 % n == j2 % n:
        return False
    d = (j1 - j2) % n
    best = max(abs(1 - cmath.exp(2j * cmath.pi * a * d / n)) for a in range(n))
    return best > 1 + margin


def test_sup_distance_matches_cmath_oracle():
    for n in range(1, 65):
        for j1 in range(n):
            for j2 in range(n):
                want = sup_distance_exceeds_one_cmath(n, j1, j2)
                assert ch.sup_distance_exceeds_one(n, j1, j2) is want


def test_padic_character_count_and_kernels():
    for p, k in ((2, 3), (3, 2), (5, 1), (7, 0)):
        chars = ch.padic_characters(p, k)
        assert len(chars) == p**k
        tables = {tuple(c.eval_int(a).turn for a in range(p**k)) for c in chars}
        assert len(tables) == p**k  # pairwise distinct
        for c in chars:
            ke = c.kernel_exponent()
            pk = p**k
            for r in range(min(pk, 64)):
                if r % p**ke == 0:
                    assert c.eval_int(r).is_one()


def test_padic_characters_trivial_on_conductor_ball():
    p, k = 3, 2
    for c in ch.padic_characters(p, k):
        for a in range(0, 5 * p**k, p**k):
            assert c.eval_int(a).is_one()


def test_span_dimension_of_level_k_characters():
    # the p^k characters restricted to Z/p^kZ form an orthogonal basis,
    # so level-k locally constant functions have character-span dimension p^k
    p, k = 2, 3
    n = p**k
    assert all(
        ch.gram_exact(n)[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


def test_radic_characters_via_projection():
    r = Radix((2, 3, 2))
    n = 2
    R = r.cumulative(n)  # 6
    chars = [ch.radic_character(r, n, j) for j in range(R)]
    # trivial on Y_n = R_n Z_r: value 1 on multiples of R_n
    for chi in chars:
        for m in range(0, 5 * R, R):
            assert chi(m).is_one()
    tables = {tuple(chi(a).turn for a in range(R)) for chi in chars}
    assert len(tables) == R
    # homomorphism law on representatives
    rng = random.Random(11)
    for _ in range(100):
        j = rng.randrange(R)
        a, b = rng.randrange(100), rng.randrange(100)
        chi = ch.radic_character(r, n, j)
        assert chi(a + b).turn == (chi(a) * chi(b)).turn


def test_product_characters_z2_z3():
    assert ch.all_product_characters_match([2, 3])
    assert ch.all_product_characters_match([2, 2])
    assert ch.all_product_characters_match([4, 2])


def test_product_character_trivial_and_law():
    trivial = ch.product_character([lambda d: ch.ONE, lambda d: ch.ONE])
    assert trivial((1, 2)).is_one()
    chis = [ch.CyclicCharacter(2, 1).eval, ch.CyclicCharacter(3, 2).eval]
    phi = ch.product_character(chis)
    for a0 in range(2):
        for a1 in range(3):
            for b0 in range(2):
                for b1 in range(3):
                    x, y = (a0, a1), (b0, b1)
                    z = ((a0 + b0) % 2, (a1 + b1) % 3)
                    assert phi(z).turn == (phi(x) * phi(y)).turn


def test_orthogonality_integral_zero():
    # int phi dH = 0 for nontrivial characters, via the exact sum lemma
    for n in (2, 3, 6, 10):
        for j in range(1, n):
            turns = [ch.CyclicCharacter(n, j).eval(a).turn for a in range(n)]
            assert ch.turn_sum_is_zero(turns)


def turn_sum_is_zero_fraction_oracle(turns):
    """The Fraction shift certificate that the integer kernel replaced."""
    bag = Counter(Fraction(t) % 1 for t in turns)
    shifts = {t for t in bag if t != 0}
    for s in shifts:
        if Counter((t + s) % 1 for t in bag.elements()) == bag:
            return True
    return False


def test_turn_sum_matches_fraction_oracle():
    # unions of cosets c + K of subgroups K of Q/Z that contain one subgroup
    # H = (1/m) Z / Z, with repeats and offsets outside [0, 1), so H fixes
    # the multiset; H itself is a member half the time, which gives the
    # certificate a shift to find; then each union with one turn moved
    rng = random.Random(23)
    verdicts = Counter()
    assert ch.turn_sum_is_zero([]) is turn_sum_is_zero_fraction_oracle([]) is False
    for _ in range(2000):
        m = rng.randrange(1, 5)
        offsets = [Fraction(rng.randrange(-12, 24), 12) for _ in range(rng.randrange(1, 3))]
        turns = [Fraction(a, m) for a in range(m)] if rng.randrange(2) else []
        for c in offsets:
            k = m * rng.randrange(1, 3)
            turns += [c + Fraction(a, k) for a in range(k)] * rng.randrange(1, 3)
        rng.shuffle(turns)
        moved = list(turns)
        moved[rng.randrange(len(moved))] += Fraction(rng.randrange(1, 12), rng.choice((12, 35)))
        for case in (turns, moved):
            want = turn_sum_is_zero_fraction_oracle(case)
            assert ch.turn_sum_is_zero(case) is want, case
            verdicts[want] += 1
    # both verdicts are exercised, each many times
    assert min(verdicts.values()) > 1000, verdicts


def test_distances_refuse_bad_orders_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the order check")

    monkeypatch.setattr(ch, "Counter", no_work)
    for n in (0, -3, ch.TABLE_CAP + 1, 10**6):
        for distance in (ch.l2_distance_squared, ch.sup_distance_exceeds_one):
            with pytest.raises(ValueError):
                distance(n, 1, 0)


def test_cyclic_character_refuses_order_below_one():
    for n in (0, -2):
        with pytest.raises(ValueError, match="not a group order"):
            ch.CyclicCharacter(n, 1)


def test_padic_character_refuses_non_int_conductor():
    for k in (1.5, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="conductor must be an int"):
            ch.PadicCharacter(2, k, 1)
    assert ch.PadicCharacter(2, 1, 1).eval_int(1).turn == Fraction(1, 2)


def test_padic_character_eval_reads_the_residue():
    y = ch.PadicCharacter(2, 5, 3)
    for r in range(64):
        assert y.eval(PAdicInt(2, 6, r)) == y.eval_int(r) == ch.TurnValue(Fraction(3 * r, 32))


def test_padic_characters_refuse_a_point_of_another_prime():
    # both once returned a value of no character: e(1/9) and e(1/2)
    y = ch.PadicCharacter(2, 1, 1)
    with pytest.raises(PrecisionMismatch):
        ch.phi_y(y, PAdicScalar.from_rational(Fraction(1, 3), 3, 6))
    with pytest.raises(PrecisionMismatch):
        y.eval(PAdicInt(3, 5, 1))
    with pytest.raises(PrecisionMismatch):
        ch.phi_y(ch.PadicCharacter(2, 0, 0), PAdicScalar.zero(3, 6))


def test_padic_characters_refuse_a_point_known_below_the_conductor():
    # 1 and 9 agree mod 2^3, but phi_y reads x mod 2^5: e(1/32) against e(9/32)
    y = ch.PadicCharacter(2, 5, 1)
    with pytest.raises(PrecisionMismatch):
        y.eval(PAdicInt(2, 3, 1))
    assert y.eval(PAdicInt(2, 5, 9)).turn == Fraction(9, 32)
    # x = 2 u known mod 2^4, and a zero known mod 2^4
    for x in (PAdicScalar(2, 3, 1, 1), PAdicScalar.zero(2, 4)):
        with pytest.raises(PrecisionMismatch):
            ch.phi_y(y, x)
    assert ch.phi_y(y, PAdicScalar(2, 4, 1, 1)).turn == Fraction(1, 16)
    assert ch.phi_y(y, PAdicScalar.zero(2, 5)).is_one()
    # a trivial character reads no digit
    trivial = ch.PadicCharacter(2, 5, 0)
    assert trivial.eval(PAdicInt(2, 3, 1)).is_one()
    assert ch.phi_y(trivial, PAdicScalar.zero(2, 1)).is_one()


def test_ep_eval_refuses_a_point_not_known_mod_z_p():
    # a unit known mod 4 at 2^-5 is x mod 2^-3: its class mod Z_2 is unknown
    with pytest.raises(PrecisionMismatch):
        ch.ep_eval(PAdicScalar(2, 2, -5, 1))
    assert ch.ep_eval(PAdicScalar(2, 5, -5, 1)).turn == Fraction(1, 32)
    assert ch.ep_eval(PAdicScalar(2, 3, -3, 5)).turn == Fraction(5, 8)


def test_radic_character_refuses_negative_level():
    with pytest.raises(ValueError):
        ch.radic_character(Radix((2, 3)), -1, 1)


def test_product_characters_refuse_orders_below_one():
    for ns in ([2, 0], [-3], [3, -1]):
        with pytest.raises(ValueError, match="group orders"):
            ch.all_product_characters_match(ns)
