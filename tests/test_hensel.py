import random
import re
from fractions import Fraction

import pytest

from ultrametric import hensel, padic
from ultrametric.errors import (
    CertificationFailed,
    HenselPreconditionFailed,
    KMismatch,
    NotPAdicInteger,
    PrecisionMismatch,
)

LIFT_PRIMES = (2, 3, 5, 7, 13, 31, 10**6 + 3, 2**61 - 1)


def poly(coeffs, p, N):
    return hensel.ZpPoly.from_rationals(coeffs, p, N)


def test_from_rationals_keeps_integers_and_reads_fractions_with_headroom():
    for p in LIFT_PRIMES:
        den, m = (5 if p == 3 else 3), p ** (8 + 64)
        f = poly([-(p**100), Fraction(2, den), 7], p, 8)
        assert f.coeffs == (-(p**100), 2 * pow(den, -1, m) % m, 7)
    with pytest.raises(NotPAdicInteger):
        poly([Fraction(1, 3), 1], 3, 8)


def test_eval_and_derivative():
    f = poly([-17, 0, 1], 2, 6)
    x = padic.PAdicInt(2, 6, 1)
    assert f.eval_int(x.residue, x.modulus) == (-16) % 64 == 48
    assert f.derivative().eval_int(x.residue, x.modulus) == 2
    const = poly([5], 2, 6)
    assert const.derivative().coeffs == (0,)


def test_taylor_residual_bound():
    # |f(x+h) - f(x) - f'(x) h|_p <= |h|_p^2
    rng = random.Random(3)
    p, N = 2, 10
    m = p**N
    for _ in range(200):
        coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(2, 6))]
        f = poly(coeffs, p, N)
        df = f.derivative()
        x, h = rng.randrange(m), rng.randrange(1, m)
        lhs = (f.eval_int(x + h, m) - f.eval_int(x, m) - df.eval_int(x, m) * h) % m
        vh = padic.vp(h, p, N)
        assert padic.vp(lhs, p, N) >= min(2 * vh, N)


def test_hensel_v1_examples():
    root, trace = hensel.hensel_v1(poly([-7, 0, 1], 3, 3), padic.PAdicInt(3, 3, 1))
    assert root.residue == 13 and 13**2 % 27 == 7
    root2, _ = hensel.hensel_v1(poly([-2, 0, 1], 7, 2), padic.PAdicInt(7, 2, 3))
    assert root2.residue == 10 and 100 % 49 == 2
    a = 5
    root3, _ = hensel.hensel_v1(poly([-a, 1], 7, 4), padic.PAdicInt(7, 4, a))
    assert root3.residue == a


def test_hensel_v1_preconditions():
    with pytest.raises(HenselPreconditionFailed):
        hensel.hensel_v1(poly([1, 0, 1], 3, 3), padic.PAdicInt(3, 3, 1))
    with pytest.raises(HenselPreconditionFailed):
        # f = x^2 - 4 at x0 = 2: root mod p but derivative not a unit at p=2
        hensel.hensel_v1(poly([-4, 0, 1], 2, 5), padic.PAdicInt(2, 5, 0))


def test_hensel_v1_quadratic_trace():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(2, 6))]
            f = poly(coeffs, p, 10)
            for x0 in range(p):
                if f.eval_int(x0, p) % p != 0:
                    continue
                if f.derivative().eval_int(x0, p) % p == 0:
                    continue
                root, trace = hensel.hensel_v1(f, padic.PAdicInt(p, 10, x0))
                assert f.eval_int(root.residue, p**10) == 0
                assert root.residue % p == x0
                for prev, cur in zip(trace.residual_abs, trace.residual_abs[1:]):
                    assert cur <= prev**2


def test_hensel_v2_example():
    root, trace = hensel.hensel_v2(poly([-17, 0, 1], 2, 5), padic.PAdicInt(2, 5, 1))
    assert root.residue % 16 == 9
    assert root.residue % 4 == 1
    assert root.residue**2 % 32 == 17
    # v_2(1 - 17) = 4, then 0 mod 2^5 saturates to None, whose |.|_2 is 0
    assert trace.valuations == [4, None]
    assert trace.residual_abs == [Fraction(1, 16), 0]


def test_hensel_v2_precondition_failure():
    with pytest.raises(HenselPreconditionFailed):
        hensel.hensel_v2(poly([-2, 0, 1], 2, 5), padic.PAdicInt(2, 5, 0))


def test_hensel_v2_already_root():
    # the trace starts at x0, as hensel_v1's does, and ends there
    f = poly([0, 1], 5, 4)
    x0 = padic.PAdicInt(5, 4, 0)
    root, trace = hensel.hensel_v2(f, x0)
    assert root == x0 and trace.iterates == [x0] and trace.valuations == [None]


def test_hensel_v2_step_bound():
    # |f(x_j)| <= |f'(x0)|^-2 |f(x_{j-1})|^2
    root, trace = hensel.hensel_v2(poly([-17, 0, 1], 2, 12), padic.PAdicInt(2, 12, 1))
    dfx0_abs = Fraction(1, 2)
    for prev, cur in zip(trace.residual_abs, trace.residual_abs[1:]):
        assert cur <= prev**2 / dfx0_abs**2


def test_contraction_agrees_with_v2():
    f = poly([-17, 0, 1], 2, 5)
    x0 = padic.PAdicInt(2, 5, 1)
    root_v2, _ = hensel.hensel_v2(f, x0)
    root_c = hensel.contraction_solve(f, x0)
    k = 1
    assert root_v2.residue % 2 ** (5 - k) == root_c.residue % 2 ** (5 - k)
    assert (root_c.residue - 1) % 4 == 0  # fixed point lands in 4 Z_2


def test_contraction_agrees_randomized():
    rng = random.Random(5)
    found = 0
    N = 10
    while found < 50:
        p = rng.choice([2, 3, 5])
        coeffs = [rng.randrange(-20, 21) for _ in range(rng.randrange(2, 6))]
        x0r = rng.randrange(p**2)
        f = poly(coeffs, p, N)
        x0 = padic.PAdicInt(p, N, x0r)
        try:
            r1, _ = hensel.hensel_v2(f, x0)
            r2 = hensel.contraction_solve(f, x0)
        except HenselPreconditionFailed:
            continue
        k = padic.vp(f.derivative().eval_int(x0r, p**N), p, N)
        assert r1.residue % p ** (N - k) == r2.residue % p ** (N - k)
        found += 1


def test_local_scaling():
    rep = hensel.local_scaling_check(poly([0, 0, 1], 3, 8), padic.PAdicInt(3, 8, 1), 0)
    assert rep["holds"] and rep["scale"] == 1
    rep2 = hensel.local_scaling_check(poly([0, 0, 1], 2, 8), padic.PAdicInt(2, 8, 1), 1)
    assert rep2["holds"]
    rep3 = hensel.local_scaling_check(poly([0, 1], 2, 8), padic.PAdicInt(2, 8, 0), 0)
    assert rep3["holds"]
    with pytest.raises(KMismatch):
        hensel.local_scaling_check(poly([0, 0, 1], 2, 8), padic.PAdicInt(2, 8, 1), 0)
    # with k + 1 >= N every sampled x - y is 0 mod p^N, so no pair is checked
    for N, k in ((2, 1), (1, 0), (3, 2)):
        with pytest.raises(ValueError, match="no pair"):
            hensel.local_scaling_check(poly([0, 0, 1], 2, N), padic.PAdicInt(2, N, 1), k)
    with pytest.raises(PrecisionMismatch):
        hensel.local_scaling_check(poly([0, 0, 1], 3, 8), padic.PAdicInt(3, 9, 1), 0)


def test_local_scaling_zero_derivative_is_not_reported_as_a_valuation():
    # f'(0) = 0 for x^3 over Z_2 and x^2 over Z_3: vp saturates at the probe
    # exponent N + k + 1 = 10, which the message once printed as p^-10
    for p, coeffs in ((2, (0, 0, 0, 1)), (3, (0, 0, 1))):
        with pytest.raises(KMismatch) as e:
            hensel.local_scaling_check(hensel.ZpPoly(p, 8, coeffs), padic.PAdicInt(p, 8, 0), 1)
        assert str(e.value) == "f'(x0) = 0 mod p^10, expected |f'(x0)|_p = p^-1"


def scaling_holds_on_every_pair(f, x0, k):
    """|f(x) - f(y)|_p = p^-k |x - y|_p over every pair of the ball x0 + p^(k+1) Z_p
    mod p^N, f read mod p^(N+k) so that a difference of valuation N + k - 1 shows."""
    p, N = f.p, f.precision
    work = p ** (N + k)
    ball = [(x, f.eval_int(x, work)) for x in range(x0 % p ** (k + 1), p**N, p ** (k + 1))]
    return all(padic.vp(fx - fy, p, N + k) == padic.vp(x - y, p) + k
               for x, fx in ball for y, fy in ball if x != y), len(ball) * (len(ball) - 1)


def test_local_scaling_check_against_every_pair_of_the_ball():
    # the check reads one valuation, v_p(f'(x0)) = k; on each random (f, x0)
    # it certifies exactly the k for which every pair of the ball obeys the identity
    rng = random.Random(25)
    certified = refused = pairs = 0
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        N = rng.randrange(2, {2: 7, 3: 5, 5: 4}[p])
        f = hensel.ZpPoly(p, N, tuple(rng.randrange(-40, 41) for _ in range(rng.randrange(2, 6))))
        x0 = padic.PAdicInt(p, N, rng.randrange(p**N))
        for k in range(N - 1):
            holds, n = scaling_holds_on_every_pair(f, x0.residue, k)
            try:
                rep = hensel.local_scaling_check(f, x0, k)
            except KMismatch:
                assert not holds
                refused += 1
                continue
            assert holds and rep == {"holds": True, "scale": Fraction(1, p**k)}
            certified += 1
            pairs += n
    assert certified > 200 and refused > 200 and pairs > 10**4


def test_lipschitz_bounds_on_zp():
    # |f(x+h) - f(x)|_p <= |h|_p for integral coefficients
    rng = random.Random(9)
    p, N = 3, 8
    m = p**N
    for _ in range(100):
        f = poly([rng.randrange(-9, 10) for _ in range(4)], p, N)
        df = f.derivative()
        x, h = rng.randrange(m), rng.randrange(1, m)
        vh = padic.vp(h, p, N)
        assert padic.vp(f.eval_int(x + h, m) - f.eval_int(x, m), p, N) >= vh
        assert padic.vp(df.eval_int(x + h, m) - df.eval_int(x, m), p, N) >= vh


def test_series_eval_matches_geometric_sum():
    p, N = 2, 5
    s = hensel.ZpSeries(p, N, lambda j: 1, 1)
    x = padic.PAdicInt(p, N, 1)
    val = hensel.series_eval(s, x)
    geo = padic.geometric_sum(padic.PAdicScalar.from_rational(2, p, N))
    assert val.unit_residue == geo.unit_residue and val.exponent == geo.exponent


def test_series_zero_and_poly_embedding():
    p, N = 3, 4
    zero = hensel.ZpSeries(p, N, lambda j: 0, 1)
    assert hensel.series_eval(zero, padic.PAdicInt(p, N, 2)).is_zero
    # 1 + 6x + 3x^2 as p^ceil(j/2) coeff(j): a series of finite support
    s = hensel.ZpSeries(p, N, lambda j: (1, 2, 1)[j] if j < 3 else 0, Fraction(1, 2))
    f = poly([1, 2 * 3, 3], p, N)
    cs = s.to_poly().coeffs
    assert cs[:3] == f.coeffs and not any(cs[3:])
    x = padic.PAdicInt(p, N, 5)
    got = hensel.series_eval(s, x)
    want = f.eval_int(5, p**N)
    got_res = 0 if got.is_zero else got.unit_residue * p**got.exponent
    assert got_res % p**N == want


def _ceil(a, b):
    return -(-a // b)


def test_series_eval_against_the_untruncated_sum():
    # a lone coefficient at j = 16: 2^4 x^16 for s = 1/4, 2^6 x^16 = 0 mod 2^5 for s = 1/3
    spike = hensel.ZpSeries(2, 5, lambda j: 1 if j == 16 else 0, Fraction(1, 4))
    assert spike.to_poly().coeffs[16] == 2**4
    assert hensel.series_eval(spike, padic.PAdicInt(2, 5, 1)).to_padic_int().residue == 16
    spike = hensel.ZpSeries(2, 5, lambda j: 1 if j == 16 else 0, Fraction(1, 3))
    assert hensel.series_eval(spike, padic.PAdicInt(2, 5, 1)).is_zero
    rng = random.Random(2101)
    for _ in range(1500):
        p, N = rng.choice((2, 3, 5, 7)), rng.randrange(1, 12)
        a, b = rng.randrange(1, 9), rng.randrange(1, 9)
        J = next(j for j in range(N * b + 1) if _ceil(a * j, b) >= N)
        terms = 4 * J + 17
        support = {rng.randrange(terms): rng.randrange(-(p**20), p**20)
                   for _ in range(rng.randrange(4))}
        if rng.randrange(4) == 0:
            support = {16: rng.choice((1, -1, p + 1))}
        s = hensel.ZpSeries(p, N, lambda j: support.get(j, 0), Fraction(a, b))
        x = rng.randrange(p**N)
        want = sum(p ** _ceil(a * j, b) * c * x**j for j, c in support.items()) % p**N
        assert len(s.to_poly().coeffs) == J
        assert hensel.series_eval(s, padic.PAdicInt(p, N, x)).to_padic_int().residue == want


def test_series_refuses_a_slope_not_above_0_and_a_callable_slope():
    for slope in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            hensel.ZpSeries(2, 5, lambda j: 1, slope)
    with pytest.raises(TypeError):  # an index J(m) = m in place of the slope
        hensel.ZpSeries(2, 5, lambda j: 2**j, lambda m: m)
    with pytest.raises(ValueError):
        hensel.ZpSeries(2, 0, lambda j: 0, 1)


def test_series_accepted_by_hensel():
    p, N = 2, 5
    # 1/(1 - 2x) - 3, the series sum (2x)^j - 3, has the root 1/3 with
    # |f'(1/3)|_2 = 1/2, so the root is known mod 2^(N - 1)
    s = hensel.ZpSeries(p, N, lambda j: -2 if j == 0 else 1, 1)
    root, _ = hensel.hensel_v2(s.to_poly(), padic.PAdicInt(p, N, 3))
    assert (3 * root.residue - 1) % 2 ** (N - 1) == 0


def test_digit_search_oracle_matches_lift():
    for p in (2, 3, 5, 7):
        f = poly([-(p * p + p + 1) if p != 3 else -7, 0, 1], p, 6)
        for x0 in range(p):
            try:
                root, _ = hensel.hensel_v1(f, padic.PAdicInt(p, 6, x0))
            except HenselPreconditionFailed:
                continue
            oracle = hensel.roots_by_digit_search(f, 6, constraint=lambda r: r == x0)
            assert root.residue in oracle


def hensel_v1_oracle(f, x0, N=None):
    """The lift before unit_inverse: an extended-Euclid inverse mod p^N per step."""
    p = f.p
    if N is None:
        N = f.precision
    m = p**N
    x = x0.residue % m
    if f.eval_int(x, p) % p != 0:
        raise HenselPreconditionFailed("f(x0) != 0 mod p")
    df = f.derivative()
    if df.eval_int(x, p) % p == 0:
        raise HenselPreconditionFailed("|f'(x0)|_p < 1")
    trace = hensel.LiftTrace()
    trace.record(padic.PAdicInt(p, N, x), padic.vp(f.eval_int(x, m), p, N))
    for _ in range(N):
        fx = f.eval_int(x, m)
        if fx == 0:
            break
        x = (x - fx * pow(df.eval_int(x, m), -1, m)) % m
        trace.record(padic.PAdicInt(p, N, x), padic.vp(f.eval_int(x, m), p, N))
    return padic.PAdicInt(p, N, x), trace


def hensel_v2_oracle(f, x0, N=None):
    """The relaxed lift before unit_inverse: an inverse mod p^work per step."""
    p = f.p
    if N is None:
        N = f.precision
    k, work = hensel._v2_params(f, x0)
    x = x0.residue
    mw = p**work
    df = f.derivative()
    trace = hensel.LiftTrace()
    trace.record(padic.PAdicInt(p, N, x), padic.vp(f.eval_int(x, mw), p, N))
    for _ in range(N):
        fx = f.eval_int(x, mw)
        if fx % p**N == 0:
            break
        unit = df.eval_int(x, mw) // p**k
        x = (x - (fx // p**k) * pow(unit, -1, mw) % mw) % mw
        trace.record(padic.PAdicInt(p, N, x), padic.vp(f.eval_int(x, mw), p, N))
    return padic.PAdicInt(p, N, x), trace


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _unit(rng, p):
    u = rng.randrange(1, max(p, 21))
    return u + 1 if u % p == 0 else u


def _lift_case(rng, p, N):
    """(variant, coefficients, x0): a simple root mod p for v1, and
    v_p(f(x0)) > 2 v_p(f'(x0)) = 2k, k in {1, 2, 3}, for v2; one case in
    eight starts at an exact root, and one in eight at a random point."""
    shape = rng.randrange(8)
    if shape == 0:
        return rng.choice((1, 2)), [rng.randrange(-20, 21) for _ in range(4)], rng.randrange(p**2)
    rho = rng.randrange(p * p)
    h = [rng.randrange(-20, 21) for _ in range(rng.randrange(3))] + [_unit(rng, p)]
    if sum(c * rho**i for i, c in enumerate(h)) % p == 0:
        h[0] += 1
    if rng.randrange(2):
        f = _poly_mul([-rho, 1], h)
        if shape != 1:
            f = [c + p * rng.randrange(-20, 21) for c in f]
        return 1, f, rho + (0 if shape == 1 else p * rng.randrange(p**2))
    k = rng.randrange(1, 4)
    f = _poly_mul(_poly_mul([-rho, 1], [-rho - p**k * _unit(rng, p), 1]), h)
    return 2, f, rho + (0 if shape == 1 else p ** (k + 1) * _unit(rng, p))


def test_lifts_against_per_step_inverse_oracles():
    rng = random.Random(1303)
    precisions = (1, 2, 3, 4, 5, 8, 13, 20, 40, 80, 160, 320)
    lifted = early = deep = refused = 0
    for case in range(1400):
        p = LIFT_PRIMES[case % len(LIFT_PRIMES)]
        N = rng.choice([n for n in precisions if n <= (320 if p < 100 else 80)])
        variant, coeffs, x0 = _lift_case(rng, p, N)
        f = poly(coeffs, p, N)
        new, old = (hensel.hensel_v1, hensel_v1_oracle) if variant == 1 else (
            hensel.hensel_v2, hensel_v2_oracle)
        try:
            want_root, want = old(f, padic.PAdicInt(p, N, x0))
        except HenselPreconditionFailed as e:
            with pytest.raises(HenselPreconditionFailed, match=re.escape(str(e))):
                new(f, padic.PAdicInt(p, N, x0))
            refused += 1
            continue
        root, trace = new(f, padic.PAdicInt(p, N, x0))
        assert root == want_root
        assert trace.iterates == want.iterates
        assert trace.valuations == want.valuations
        assert f.eval_int(root.residue, p**N) == 0
        lifted += 1
        early += len(trace.iterates) <= 1
        deep += len(trace.iterates) >= 4
        if p <= 7 and N <= 4:
            constraint = (lambda r: r == x0 % p) if variant == 1 else None
            assert root.residue in hensel.roots_by_digit_search(f, N, constraint)
    assert lifted >= 1000 and early >= 100 and deep >= 300 and refused >= 100


def test_lifts_certify_the_root(monkeypatch):
    # a lift whose inverse never moves x runs out of steps and is refused
    monkeypatch.setattr(hensel, "unit_inverse", lambda u, p, n, seed=None: 0)
    with pytest.raises(CertificationFailed):
        hensel.hensel_v1(poly([-2, 0, 1], 7, 8), padic.PAdicInt(7, 8, 3))
    with pytest.raises(CertificationFailed):
        hensel.hensel_v2(poly([-17, 0, 1], 2, 8), padic.PAdicInt(2, 8, 1))


def test_every_lift_refuses_a_point_at_another_p_or_N():
    f = poly([-17, 0, 1], 2, 5)
    s = hensel.ZpSeries(2, 5, lambda j: 1, 1)
    calls = (
        lambda x: hensel.hensel_v1(f, x),
        lambda x: hensel.hensel_v2(f, x),
        lambda x: hensel.contraction_solve(f, x),
        lambda x: hensel.series_eval(s, x),
    )
    for call in calls:
        for x in (padic.PAdicInt(3, 5, 1), padic.PAdicInt(2, 6, 1), padic.PAdicInt(2, 4, 1)):
            with pytest.raises(PrecisionMismatch):
                call(x)


def _prime_to(rng, p, hi=30):
    d = rng.randrange(1, hi)
    return d + 1 if d % p == 0 else d


def _rational_case(rng, p):
    """(Fraction coefficients, x0): a simple root rho mod p with x0 = rho
    mod p for hensel_v1, or v_p(f(x0)) = 2k + 1 > 2 v_p(f'(x0)) = 2k for
    hensel_v2; rho and every coefficient have denominators prime to p.
    One case in eight has random coefficients and a random x0."""
    if rng.randrange(8) == 0:
        coeffs = [Fraction(rng.randrange(-20, 21), _prime_to(rng, p)) for _ in range(4)]
        return coeffs, rng.randrange(p**2)
    rho = Fraction(rng.randrange(-50, 51), _prime_to(rng, p))
    h = [Fraction(rng.randrange(-20, 21), _prime_to(rng, p)) for _ in range(rng.randrange(3))]
    h.append(Fraction(_prime_to(rng, p), _prime_to(rng, p)))
    if sum(c * rho**i for i, c in enumerate(h)).numerator % p == 0:
        h[0] += 1
    if rng.randrange(2):
        x0 = padic.rational_residue(rho, p, 1) + p * rng.randrange(p)
        return _poly_mul([-rho, 1], h), x0
    k = rng.randrange(1, 4)
    f = _poly_mul(_poly_mul([-rho, 1], [-rho - p**k * _prime_to(rng, p), 1]), h)
    return f, padic.rational_residue(rho, p, k + 2) + p ** (k + 1) * _prime_to(rng, p)


def test_roots_of_rational_polynomials_hold_at_their_precision():
    # f(root) is computed in Fractions from the true coefficients, so a
    # digit of a fraction that the polynomial does not store would show
    rng = random.Random(1907)
    lifted = {hensel.hensel_v1: 0, hensel.hensel_v2: 0, hensel.contraction_solve: 0}
    polys = 0
    for case in range(400):
        p = LIFT_PRIMES[case % len(LIFT_PRIMES)]
        N = rng.choice((1, 2, 3, 5, 8, 13, 20, 40, 80))
        coeffs, x0 = _rational_case(rng, p)
        f = poly(coeffs, p, N)
        point = padic.PAdicInt(p, N, x0)
        found = False
        for lift in lifted:
            try:
                out = lift(f, point)
            except HenselPreconditionFailed:
                continue
            root = out if lift is hensel.contraction_solve else out[0]
            assert (root.p, root.precision) == (p, N)
            value = sum(c * Fraction(root.residue) ** i for i, c in enumerate(coeffs))
            assert value == 0 or padic.rational_valuation(value, p) >= N
            lifted[lift] += 1
            found = True
        polys += found
    assert polys >= 200 and min(lifted.values()) >= 100
    # the 1/3 of x - 1/3 is stored mod 2^(5 + 64); the root holds mod 2^5
    root, _ = hensel.hensel_v1(poly([Fraction(-1, 3), 1], 2, 5), padic.PAdicInt(2, 5, 1))
    assert root.modulus == 2**5 and padic.vp(3 * root.residue - 1, 2) >= 5
