import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrametric import padic
from ultrametric.errors import (
    CertificationFailed,
    DivergentSeries,
    InvalidPrime,
    NotAUnit,
    NotPAdicInteger,
    PrecisionMismatch,
)

PRIMES = [2, 3, 5, 7, 11, 13, 97]
# the primes of the Hensel oracle tests and of the benchmark's lifts
LIFT_PRIMES = [2, 3, 5, 7, 13, 31, 10**6 + 3, 2**61 - 1]

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=200
)


def test_abs_examples():
    assert padic.abs_p(12, 2) == Fraction(1, 4)
    assert padic.abs_p(0, 5) == 0
    assert padic.abs_p(Fraction(3, 10), 5) == 5


def test_abs_rejects_composite():
    with pytest.raises(InvalidPrime):
        padic.abs_p(12, 4)


# psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson & Webster 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_strong_pseudoprimes_and_accepts_mersenne_61():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not padic.is_prime(PSI_12)
    assert padic.is_prime(2**61 - 1)
    assert not padic.is_prime(PSI_13 - 2)
    with pytest.raises(InvalidPrime, match="certified only below psi_13"):
        padic.is_prime(PSI_13)
    with pytest.raises(InvalidPrime, match="certified only below psi_13"):
        padic.check_prime(2**127 - 1)


def test_is_prime_agrees_with_trial_division():
    for n in range(-5, 5000):
        assert padic.is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))


def test_prime_cache_is_bounded():
    assert padic.is_prime.cache_info().maxsize is not None


@pytest.mark.parametrize("p", [7.0, True, "7", None])
def test_check_prime_rejects_non_integers(p):
    # bool is an int subclass; True == 1 is not prime
    with pytest.raises(InvalidPrime):
        padic.check_prime(p)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_valuations_refuse_bases_below_two(p):
    with pytest.raises(ValueError):
        padic.vp(10, p)
    with pytest.raises(ValueError):
        padic.rational_valuation(Fraction(1, 5), p)
    with pytest.raises(InvalidPrime):
        padic.PAdicScalar.from_rational(Fraction(1, 5), p, 4)


@given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
def test_ultrametric_inequality(x, y, p):
    ax, ay, axy = padic.abs_p(x, p), padic.abs_p(y, p), padic.abs_p(x + y, p)
    assert axy <= max(ax, ay)
    if ax != ay:
        assert axy == max(ax, ay)


@given(x=rationals, y=rationals, p=st.sampled_from(PRIMES))
def test_multiplicativity(x, y, p):
    assert padic.abs_p(x * y, p) == padic.abs_p(x, p) * padic.abs_p(y, p)


def test_from_rational_examples():
    assert padic.padic_from_rational(Fraction(1, 3), 2, 4).residue == 11
    assert padic.padic_from_rational(7, 3, 2).residue == 7
    assert padic.padic_from_rational(-1, 2, 4).residue == 15


def test_from_rational_rejects_p_in_denominator():
    with pytest.raises(NotPAdicInteger):
        padic.padic_from_rational(Fraction(1, 10), 5, 3)


@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_rational_residue_against_pow(p):
    rng = random.Random(p)
    for N in range(1, 401):
        m = p**N
        x = Fraction(rng.randrange(-(p**3), p**3), rng.randrange(1, p**2) * rng.choice((1, 1, p)))
        if x.denominator % p:
            assert padic.rational_residue(x, p, N) == x.numerator * pow(x.denominator, -1, m) % m
        else:
            with pytest.raises(NotPAdicInteger):
                padic.rational_residue(x, p, N)


def test_modulus_is_checked_for_every_pair_and_cached():
    assert padic.modulus.cache_info().maxsize is not None
    assert padic.modulus(7, 3) == padic.PAdicInt(7, 3, 1).modulus == 343
    # a valid pair in the cache lets no invalid one through
    for make in (
        lambda: padic.PAdicInt(4, 3, 1),
        lambda: padic.PAdicInt(7.0, 3, 1),
        lambda: padic.PAdicScalar(4, 3, 0, 1),
        lambda: padic.padic_from_rational(1, 4, 3),
        lambda: padic.PAdicScalar.from_rational(1, 4, 3),
    ):
        with pytest.raises(InvalidPrime):
            make()
    padic.modulus(7, 2)
    for make in (
        lambda: padic.modulus(7, 2.0),
        lambda: padic.PAdicInt(7, 2.0, 3),
        lambda: padic.PAdicScalar(7, 2.5, 0, 3),
        lambda: padic.padic_from_rational(3, 7, -2),
        lambda: padic.padic_from_rational(3, 7, 0),
        lambda: padic.PAdicScalar.from_rational(3, 7, 0),
        lambda: padic.rational_residue(3, 7, "2"),
    ):
        with pytest.raises(ValueError, match="precision must be a positive int"):
            make()


def test_non_int_exponents_and_residues_are_refused():
    # a float exponent gave a float |x|_p; a float unit residue failed in
    # unit_inverse with AttributeError
    for make, value in (
        (lambda: padic.PAdicScalar(7, 2, 0.5, 3).abs(), "exponent must be an int, not 0.5"),
        (lambda: padic.haar_measure(0.5, 7), "valuation must be an int, not 0.5"),
        (lambda: padic.PAdicScalar(7, 4, 0, 3.0).invert(), "unit residue must be an int, not 3.0"),
    ):
        with pytest.raises(ValueError, match=value):
            make()
    assert padic.PAdicScalar(7, 2, -1, 3).abs() == 7
    assert padic.haar_measure(-2, 7) == 49
    assert padic.abs_from_valuation(None, 7) == 0


def test_inverses_and_absolute_values_live_in_padic():
    """pow(_, -1, _) and Fraction(_) ** -_ appear only in padic.py."""
    src = pathlib.Path(padic.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "padic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "pow"
                and len(node.args) == 3
                and ast.unparse(node.args[1]) == "-1"
            ):
                found.append(f"{path.name}:{node.lineno}")
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", None) == "Fraction"
                and isinstance(node.right, ast.UnaryOp)
                and isinstance(node.right.op, ast.USub)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


@given(x=rationals, p=st.sampled_from([2, 3, 5]), N=st.integers(1, 8))
def test_from_rational_roundtrip(x, p, N):
    if x.denominator % p == 0:
        return
    r = padic.padic_from_rational(x, p, N)
    assert padic.abs_p(x - r.residue, p) <= Fraction(p) ** (-N)


def test_ring_ops():
    x = padic.PAdicInt(2, 4, 11)
    assert x.invert().residue == 3
    assert (x * padic.PAdicInt(2, 4, 0)).residue == 0
    with pytest.raises(NotAUnit):
        padic.PAdicInt(2, 4, 2).invert()
    with pytest.raises(PrecisionMismatch):
        x + padic.PAdicInt(2, 5, 1)
    with pytest.raises(PrecisionMismatch):
        x * padic.PAdicInt(3, 4, 1)


def test_int_operands_act_as_their_residues():
    x = padic.PAdicInt(3, 4, 50)
    for n in (0, 7, -7, 3**4 + 2, -(3**9)):
        y = padic.PAdicInt(3, 4, n)
        assert x + n == x + y and x - n == x - y and x * n == x * y
    with pytest.raises(PrecisionMismatch):
        x + padic.PAdicInt(3, 5, 1)


@given(
    a=st.integers(0, 10**6),
    b=st.integers(0, 10**6),
    p=st.sampled_from([2, 3, 5]),
)
def test_ring_axioms_mod_pn(a, b, p):
    N = 6
    x, y = padic.PAdicInt(p, N, a), padic.PAdicInt(p, N, b)
    assert (x + y).residue == (a + b) % p**N
    assert (x * y).residue == a * b % p**N
    if y.is_unit():
        assert (y * y.invert()).residue == 1


@pytest.mark.parametrize("p,l", [(2, 3), (3, 4), (5, 3), (7, 4), (97, 2)])
def test_quotient_isomorphism_exhaustive(p, l):
    # Z/p^l Z -> reductions of PAdicInt values is a ring isomorphism
    if p**l > 10**4:
        pytest.skip("cap")
    N = l + 2
    m = p**l
    for a in range(0, m, max(1, m // 300)):
        for b in (1, a, m - 1):
            xa, xb = padic.PAdicInt(p, N, a), padic.PAdicInt(p, N, b)
            assert (xa + xb).reduce(l) == (a + b) % m
            assert (xa * xb).reduce(l) == a * b % m


def test_reduce_takes_an_int_level_from_0_to_N():
    x = padic.PAdicInt(3, 4, 10)
    assert [x.reduce(l) for l in range(5)] == [0, 1, 1, 10, 10]
    for l in (-1, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="int l >= 0"):
            x.reduce(l)
    with pytest.raises(PrecisionMismatch):
        x.reduce(5)


def test_geometric_sum_examples():
    y = padic.PAdicScalar.from_rational(2, 2, 5)
    s = padic.geometric_sum(y)
    assert s.to_padic_int().residue == 31  # = -1 = 1/(1-2)
    z = padic.PAdicScalar.zero(2, 5)
    assert padic.geometric_sum(z).to_padic_int().residue == 1
    y3 = padic.PAdicScalar.from_rational(3, 3, 3)
    assert padic.geometric_sum(y3).to_padic_int().residue == 13
    with pytest.raises(DivergentSeries):
        padic.geometric_sum(padic.PAdicScalar.from_rational(1, 2, 5))


@given(
    p=st.sampled_from([2, 3, 5]),
    e=st.integers(1, 4),
    u=st.integers(1, 200),
)
def test_geometric_sum_inverts_one_minus_y(p, e, u):
    N = 8
    if u % p == 0:
        u += 1
    y = padic.PAdicScalar(p, N, e, u)
    s = padic.geometric_sum(y)
    one = padic.PAdicScalar.from_rational(1, p, N)
    assert ((one - y) * s - one).is_zero


def test_geometric_sum_holds_at_the_precision_of_y():
    rng = random.Random(1913)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 7, 31, 10**6 + 3, 2**61 - 1))
        N = rng.randrange(1, 60)
        m = p**N
        e = rng.randrange(1, N + 2)
        u = rng.randrange(1, m)
        if u % p == 0:
            u += 1
        y = padic.PAdicScalar(p, N, e, u) if rng.randrange(8) else padic.PAdicScalar.zero(p, N)
        s = padic.geometric_sum(y)
        y_res = 0 if y.is_zero else u * p**e % m
        assert (s.p, s.precision, s.exponent) == (p, N, 0)
        assert s.unit_residue * (1 - y_res) % m == 1
    # 1/(1 - 3/5) = 5/2, to every one of the five digits of 3/5 mod 3^5
    s = padic.geometric_sum(padic.PAdicScalar.from_rational(Fraction(3, 5), 3, 5))
    assert s.unit_residue == padic.rational_residue(Fraction(5, 2), 3, 5)


def test_ultrametric_sum_bound():
    p, N = 3, 6
    terms = [padic.PAdicScalar.from_rational(3**j * (j + 1), p, N) for j in range(5)]
    total, holds = padic.ultrametric_sum(terms)
    assert holds


def test_cauchy_product_matches_brute_force():
    import random

    rng = random.Random(7)
    p, N = 2, 8
    for _ in range(30):
        la, lb = rng.randrange(1, 9), rng.randrange(1, 9)
        a_ints = [rng.randrange(0, 2**6) * p**j for j in range(la)]
        b_ints = [rng.randrange(0, 2**6) * p**j for j in range(lb)]
        a = [padic.PAdicScalar.from_rational(x, p, N) for x in a_ints]
        b = [padic.PAdicScalar.from_rational(x, p, N) for x in b_ints]
        c = padic.cauchy_product(a, b)
        m = p**N
        for l in range(la + lb - 1):
            expect = sum(
                a_ints[j] * b_ints[l - j]
                for j in range(max(0, l - lb + 1), min(l + 1, la))
            )
            got = c[l]
            got_res = 0 if got.is_zero else got.unit_residue * p**got.exponent
            assert got_res % m == expect % m


def test_cauchy_product_annihilation():
    p, N = 2, 6
    a = [padic.PAdicScalar.from_rational(3, p, N)]
    b = [padic.PAdicScalar.zero(p, N)] * 3
    assert all(c.is_zero for c in padic.cauchy_product(a, b))


def test_haar_measure():
    assert padic.haar_measure(3, 2) == Fraction(1, 8)
    assert padic.haar_measure(-2, 3) == 9
    # |aE| = |a|_p |E|, here with E = 4 Z_2
    assert padic.abs_p(1, 2) * padic.haar_measure(2, 2) == Fraction(1, 4)
    assert padic.abs_p(2, 2) * padic.haar_measure(2, 2) == Fraction(1, 8) == padic.haar_measure(3, 2)


def test_vp():
    assert padic.vp(48, 2) == 4 and padic.vp(-48, 2) == 4 and padic.vp(7, 2) == 0
    assert padic.vp(3**40 * 5, 3) == 40
    assert padic.vp(3**40 * 5, 3, 12) == 12  # v_p(n mod p^cap)
    assert padic.vp(0, 5, 7) == 7
    with pytest.raises(ValueError):
        padic.vp(0, 5)
    assert padic.rational_valuation(Fraction(-9, 8), 2) == -3
    assert padic.rational_valuation(Fraction(50, 3), 5) == 2


def vp_oracle(n: int, p: int, cap: int | None = None) -> int:
    """The one-division-per-digit loop that ``padic.vp`` replaced."""
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, not {p}")
    if n == 0:
        if cap is None:
            raise ValueError("v_p(0) is infinite")
        return cap
    v = 0
    while v != cap and n % p == 0:
        n //= p
        v += 1
    return v


def test_vp_against_one_division_loop():
    rng = random.Random(17)
    bases = LIFT_PRIMES + [4, 10, 12]
    for _ in range(4000):
        p = rng.choice(bases)
        # cofactors with 2s and 3s divide by part of a composite p
        n = (rng.choice((-1, 1)) * p ** rng.randrange(0, 600 if p < 100 else 60)
             * 2 ** rng.randrange(4) * 3 ** rng.randrange(4) * rng.randrange(1, 10**6))
        cap = rng.choice((None, rng.randrange(0, 401)))
        assert padic.vp(n, p, cap) == vp_oracle(n, p, cap), (n, p, cap)
    for p in bases:
        for cap in range(0, 401, 7):
            assert padic.vp(0, p, cap) == cap
            assert padic.vp(p**cap, p, cap) == cap == padic.vp(-(p ** (cap + 1)), p, cap)
    with pytest.raises(ValueError):
        padic.vp(10, 1)


def test_vp_small_residue_and_ladder_against_one_division_loop():
    # v < 4 is read from n mod p^4, larger v from the ladder p^4, p^8, ...;
    # valuations around those switches, and caps on both sides of them
    rng = random.Random(41)
    for p in (2, 3, 7, 10**6 + 3, 2**61 - 1):
        for _ in range(1500):
            v = rng.choice((rng.randrange(0, 10), rng.randrange(0, 300 if p < 10 else 30)))
            unit = rng.randrange(1, 10 ** rng.randrange(1, 40))
            unit += unit % p == 0
            n = rng.choice((-1, 1)) * p**v * unit
            for cap in (None, rng.randrange(0, 12), rng.randrange(0, v + 3), v, v + 1):
                assert padic.vp(n, p, cap) == vp_oracle(n, p, cap), (n, p, cap)


def _random_unit(rng, p, m):
    u = rng.randrange(m)
    return u + 1 if u % p == 0 else u


@pytest.mark.parametrize("p", LIFT_PRIMES)
def test_unit_inverse_against_pow(p):
    rng = random.Random(p)
    for n in range(1, 401):
        m = p**n
        u = _random_unit(rng, p, m)
        y = padic.unit_inverse(u, p, n)
        # the identity fixes y; pow, quadratic in the digits, is sampled past 2000 bits
        assert 0 <= y < m and u * y % m == 1
        if n * p.bit_length() <= 2000 or n % 40 == 0:
            assert y == pow(u, -1, m)
        # a seed right to j <= n digits lifts to the same inverse
        j = rng.randrange(1, n + 1)
        assert padic.unit_inverse(u + m * rng.randrange(-3, 4), p, n, y % p**j) == y


def test_unit_inverse_refuses_non_units_and_wrong_seeds():
    with pytest.raises(NotAUnit):
        padic.unit_inverse(14, 7, 5)
    with pytest.raises(NotAUnit):
        padic.PAdicInt(7, 5, 7**3).invert()
    with pytest.raises(NotAUnit):
        padic.PAdicScalar.zero(7, 5).invert()
    # 3 * 4 = 12 = 5 mod 7: the seed has no correct digit
    with pytest.raises(CertificationFailed):
        padic.unit_inverse(3, 7, 5, seed=4)
    assert padic.unit_inverse(3, 7, 5, seed=5) == pow(3, -1, 7**5)
    assert padic.PAdicScalar(7, 5, -2, 3).invert().unit_residue == pow(3, -1, 7**5)


def test_valuation_saturation():
    z = padic.PAdicInt(2, 5, 0)
    assert z.valuation == 5
    assert z.valuation_saturated
    nz = padic.PAdicInt(2, 5, 16)
    assert nz.valuation == 4
    assert not nz.valuation_saturated


def test_json_roundtrip():
    x = padic.PAdicInt(7, 3, 123)
    assert padic.PAdicInt.from_json(x.to_json()) == x
