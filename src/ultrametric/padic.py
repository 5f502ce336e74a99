"""Exact p-adic integer and scalar arithmetic at fixed finite precision.

Values are truncated residues mod p^N.  Absolute values and ball measures
are exact ``Fraction`` objects; no floats appear anywhere in this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index

from .errors import (
    CertificationFailed,
    DivergentSeries,
    InvalidPrime,
    NotAUnit,
    NotPAdicInteger,
    PrecisionMismatch,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson & Webster, Math. Comp. 86 (2017)): below it the test is exact
_PSI_13 = 3317044064679887385961981


@functools.lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, certified for n < psi_13.

    Every n below psi_13 = 3317044064679887385961981 (about 3.3 * 10^24)
    is decided exactly; a larger n raises InvalidPrime, since no answer
    there is certified.  The last 256 answers are cached, so a prime used
    over and over is tested once.
    """
    if n < 2:
        return False
    if n >= _PSI_13:
        raise InvalidPrime(f"primality is certified only below psi_13 = {_PSI_13}, not for {n}")
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    s = vp(n - 1, 2)
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    return p


@functools.lru_cache(maxsize=256, typed=True)
def modulus(p: int, N: int) -> int:
    """p^N for a prime p and an int N >= 1, checked and formed once per pair:
    the last 256 pairs are cached, typed so that 2.0 is not taken for 2."""
    check_prime(p)
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"precision must be a positive int, not {N!r}")
    return p**N


def vp(n: int, p: int, cap: int | None = None) -> int:
    """Exponent of p in the integer n, saturating at ``cap``.

    With a cap this is v_p(n mod p^cap), so n = 0 gives cap; without one,
    n must be nonzero.  p need not be prime, but it must be at least 2.
    For p = 2 it reads the lowest set bit.  Otherwise v = 0 costs one
    n % p, and v < 4 is read from the small residue n mod p^4.  Past it
    the quotient is divided by the squaring ladder p^4, p^8, ... while
    each divides and stays within the cap, then by the same powers in
    reverse, and the last digits come from the residue mod p^4 again, so
    a valuation v costs O(log v) divisions.
    """
    if p < 2:
        raise ValueError(f"v_p needs p >= 2, not {p}")
    if n == 0:
        if cap is None:
            raise ValueError("v_p(0) is infinite")
        return cap
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v if cap is None or v < cap else cap
    if cap == 0 or n % p:
        return 0
    p2 = p * p
    p4 = p2 * p2
    r = n % p4
    v = 0
    if not r:
        if cap is None:
            cap = n.bit_length()  # p^v <= |n| < 2^cap, so this cap never binds
        n, v, q, e = n // p4, 4, p4, 4
        ladder = [(q, e)]  # (p^e, e) for e = 4, 8, 16, ..., each dividing out once
        while v + 2 * e <= cap:
            q, e = q * q, 2 * e
            n2, r = divmod(n, q)
            if r:
                break
            n, v = n2, v + e
            ladder.append((q, e))
        for q, e in reversed(ladder):
            if v + e <= cap and n % q == 0:
                n, v = n // q, v + e
        r = n % p4
    v += 0 if r % p else 1 if r % p2 else 2 if r % (p2 * p) else 3
    return v if cap is None or v < cap else cap


def unit_inverse(u: int, p: int, n: int, seed: int | None = None) -> int:
    """u^-1 mod p^n for a unit u.

    With no seed given, a u below 2^64 mod p^n is (1 - k p^n) / u for
    k = (p^n)^-1 mod u: one inverse mod u and O(n) word operations.  Any
    other u takes Newton's iteration y <- y (2 - u y) from the seed, by
    default ``pow(u % p, -1, p)``.  Its correct digits are read once, as
    e = v_p(u y - 1) capped at n, from one product at full size; a seed
    is worth only those e digits, so it is cut to y mod p^e.  Each step
    doubles e, since 1 - u y' = (1 - u y)^2, and runs on u mod p^e and y
    at that precision, so only the last step, from e >= n/2 to n, works
    at p^n: O(log(n/e)) products, where the extended Euclid of
    ``pow(u, -1, p^n)`` takes O(n log p) division steps at full size.
    CertificationFailed if u does not divide 1 - k p^n, or if e = 0.
    """
    m = modulus(p, n)
    if seed is None:
        if u % p == 0:
            raise NotAUnit(f"{u} is divisible by {p}")
        u %= m
        if u.bit_length() <= 64:
            y, r = divmod(1 - pow(m % u, -1, u) * m, u)
            if r:
                raise CertificationFailed(f"{u} does not divide 1 - k p^n")
            return y % m
        seed = pow(u % p, -1, p)
    e = vp(u * seed - 1, p, n)
    if e == 0:
        raise CertificationFailed(f"{seed} is not an inverse of {u} mod {p}")
    u %= m
    y = seed % p**e
    while e < n:
        e = min(2 * e, n)
        q = p**e
        y = y * (2 - u % q * y) % q
    return y


def rational_valuation(x: Fraction, p: int) -> int | None:
    """Exponent of p in x, or None for x = 0."""
    if x == 0:
        return None
    return vp(x.numerator, p) - vp(x.denominator, p)


def abs_from_valuation(v: int | None, p: int) -> Fraction:
    """p^-v, the absolute value of an x with v_p(x) = v; None (x = 0) gives 0.
    v is read through ``operator.index``: a float raises TypeError, so no float p^-v comes out."""
    if v is None:
        return Fraction(0)
    return Fraction(p) ** -index(v)


def abs_p(x, p: int) -> Fraction:
    """p-adic absolute value |x|_p = p^(-l) where p^l exactly divides x."""
    check_prime(p)
    return abs_from_valuation(rational_valuation(Fraction(x), p), p)


def rational_residue(x, p: int, N: int) -> int:
    """a * b^-1 mod p^N for x = a/b, b inverted by ``unit_inverse``;
    NotPAdicInteger when p divides b, i.e. when |x|_p > 1."""
    m = modulus(p, N)
    x = Fraction(x)
    if x.denominator % p == 0:
        raise NotPAdicInteger(f"{x} has |x|_{p} > 1")
    return x.numerator * unit_inverse(x.denominator, p, N) % m


def _cleared(values) -> tuple[int, list[int]]:
    """(m, [x m for x in values]) for a sequence of Fractions, m the lcm of
    their denominators: the one routine of the arithmetic modules that
    clears denominators.  ``harmonic._integer_masses`` keeps its own, so
    that ``maximal`` loads no ``padic``."""
    m = lcm(*(x.denominator for x in values))
    return m, [x.numerator * (m // x.denominator) for x in values]


_Pair = tuple[int, int | None]  # (exponent, unit residue), unit None for zero


def _normal(p: int, e: int, s: int) -> _Pair:
    """p^e * s for a residue s mod p^N as the pair (e + v, s / p^v), v = v_p(s);
    the zero pair (0, None) when s = 0 mod p^N."""
    if s == 0:
        return 0, None
    v = vp(s, p)
    return e + v, s // p**v


def _add(p: int, m: int, x: _Pair, y: _Pair) -> _Pair:
    """x + y for (exponent, unit) pairs mod m = p^N, unit None for zero: the
    one add rule of ``PAdicScalar``, in which ``ultrametric_sum`` and
    ``cauchy_product`` fold their partial sums as plain ints.  A zero
    returns the other pair as it stands; otherwise s = u + w p^(f - e)
    mod p^N for e <= f, so every partial sum keeps the N digits from its
    lowest exponent on, and the fold order decides the digits kept when
    terms cancel."""
    (e, u), (f, w) = x, y
    if u is None:
        return y
    if w is None:
        return x
    if f < e:
        e, u, f, w = f, w, e, u
    # s = 0 mod p^N is cancellation below the working precision
    return _normal(p, e, (u + w * p ** (f - e)) % m)


class _Residues:
    """The modulus and the (p, N) check of a value with fields p and precision:
    the two number types here, and hensel's polynomials and series."""

    @property
    def modulus(self) -> int:
        return modulus(self.p, self.precision)

    def _check_compatible(self, other) -> None:
        if self.p != other.p or self.precision != other.precision:
            raise PrecisionMismatch(
                f"cannot combine mod {self.p}^{self.precision} with "
                f"mod {other.p}^{other.precision}"
            )


@dataclass(frozen=True)
class PAdicInt(_Residues):
    """Residue mod p^N standing for a p-adic integer known to N digits."""

    p: int
    precision: int
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", index(self.residue) % modulus(self.p, self.precision))

    @property
    def valuation(self) -> int:
        """Largest l <= N with p^l | residue; saturates at N for residue 0."""
        return vp(self.residue, self.p, self.precision)

    def abs(self) -> Fraction:
        """|x|_p of the residue; 0 for the (saturated) zero residue."""
        return abs_from_valuation(None if self.residue == 0 else self.valuation, self.p)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def _operand(self, other) -> int:
        """The residue of a PAdicInt of the same p and N, or an int read
        through ``operator.index``: each operator builds one PAdicInt."""
        if isinstance(other, PAdicInt):
            self._check_compatible(other)
            return other.residue
        return index(other)

    def __add__(self, other):
        return PAdicInt(self.p, self.precision, self.residue + self._operand(other))

    def __neg__(self):
        return PAdicInt(self.p, self.precision, -self.residue)

    def __sub__(self, other):
        return PAdicInt(self.p, self.precision, self.residue - self._operand(other))

    def __mul__(self, other):
        return PAdicInt(self.p, self.precision, self.residue * self._operand(other))

    def invert(self) -> "PAdicInt":
        # unit_inverse raises NotAUnit for a residue divisible by p
        inverse = unit_inverse(self.residue, self.p, self.precision)
        return PAdicInt(self.p, self.precision, inverse)

    def reduce(self, l: int) -> int:
        """Image in Z/p^l Z for an int 0 <= l <= N."""
        l = index(l)
        if l < 0:
            raise ValueError(f"reduce needs l >= 0, got {l}")
        if l > self.precision:
            raise PrecisionMismatch(f"cannot reduce mod p^{l} at precision {self.precision}")
        return self.residue % self.p**l

    def __repr__(self):
        return f"{self.residue} mod {self.p}^{self.precision}"


def padic_from_rational(x, p: int, N: int) -> PAdicInt:
    """Residue r with b*r = a mod p^N for x = a/b, b coprime to p."""
    return PAdicInt(p, N, rational_residue(x, p, N))


@dataclass(frozen=True)
class PAdicScalar(_Residues):
    """Element of Q_p as p^exponent * unit, or zero.

    The unit part has valuation 0; |x|_p = p^(-exponent).  Zero is flagged
    by ``unit = None``.
    """

    p: int
    precision: int
    exponent: int
    unit_residue: int | None

    def __post_init__(self):
        m = modulus(self.p, self.precision)
        object.__setattr__(self, "exponent", index(self.exponent))
        if self.unit_residue is not None:
            u = index(self.unit_residue) % m
            if u % self.p == 0:
                raise ValueError("unit part must have valuation 0")
            object.__setattr__(self, "unit_residue", u)

    @classmethod
    def zero(cls, p: int, N: int) -> "PAdicScalar":
        return cls(p, N, 0, None)

    @classmethod
    def from_rational(cls, x, p: int, N: int) -> "PAdicScalar":
        modulus(p, N)  # checks p and N before v_p uses them
        x = Fraction(x)
        v = rational_valuation(x, p)
        if v is None:
            return cls.zero(p, N)
        # x |x|_p is a unit
        return cls(p, N, v, rational_residue(x * abs_from_valuation(v, p), p, N))

    @classmethod
    def from_padic_int(cls, x: PAdicInt) -> "PAdicScalar":
        return cls(x.p, x.precision, *_normal(x.p, 0, x.residue))

    @property
    def is_zero(self) -> bool:
        return self.unit_residue is None

    @property
    def _pair(self) -> _Pair:
        return self.exponent, self.unit_residue

    def abs(self) -> Fraction:
        return abs_from_valuation(None if self.is_zero else self.exponent, self.p)

    def to_padic_int(self) -> PAdicInt:
        """Reduction to a residue mod p^N; requires exponent >= 0."""
        if self.is_zero:
            return PAdicInt(self.p, self.precision, 0)
        if self.exponent < 0:
            raise NotPAdicInteger(f"|x|_{self.p} = {self.abs()} > 1")
        return PAdicInt(
            self.p, self.precision, self.unit_residue * self.p**self.exponent
        )

    def __mul__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return PAdicScalar.zero(self.p, self.precision)
        return PAdicScalar(
            self.p,
            self.precision,
            self.exponent + other.exponent,
            self.unit_residue * other.unit_residue,
        )

    def __neg__(self) -> "PAdicScalar":
        if self.is_zero:
            return self
        return PAdicScalar(self.p, self.precision, self.exponent, -self.unit_residue)

    def __add__(self, other: "PAdicScalar") -> "PAdicScalar":
        self._check_compatible(other)
        return PAdicScalar(self.p, self.precision, *_add(
            self.p, self.modulus, self._pair, other._pair))

    def __sub__(self, other: "PAdicScalar") -> "PAdicScalar":
        return self + (-other)

    def invert(self) -> "PAdicScalar":
        if self.is_zero:
            raise NotAUnit("cannot invert zero")
        return PAdicScalar(
            self.p,
            self.precision,
            -self.exponent,
            unit_inverse(self.unit_residue, self.p, self.precision),
        )

    def __repr__(self):
        if self.is_zero:
            return f"0 (p={self.p})"
        return f"{self.p}^{self.exponent} * ({self.unit_residue} mod {self.p}^{self.precision})"


def geometric_sum(y: PAdicScalar) -> PAdicScalar:
    """Exact 1/(1-y) mod p^N for |y|_p < 1, as the limit of the partial sums."""
    if not y.is_zero and y.exponent <= 0:
        raise DivergentSeries(f"|y|_p = {y.abs()} >= 1")
    one = PAdicScalar(y.p, y.precision, 0, 1)
    return (one - y).invert()


def ultrametric_sum(terms: list[PAdicScalar]) -> tuple[PAdicScalar, bool]:
    """Sum of the terms plus the check |sum|_p <= max |a_j|_p.

    The terms are folded left to right in (exponent, unit) int pairs by
    ``_add``, after one (p, N) check each, and one scalar is built."""
    if not terms:
        raise ValueError("empty term list")
    first = terms[0]
    p, m = first.p, first.modulus
    total = first._pair
    for t in terms[1:]:
        first._check_compatible(t)
        total = _add(p, m, total, t._pair)
    total = PAdicScalar(p, first.precision, *total)
    bound = max(t.abs() for t in terms)
    return total, total.abs() <= bound


def cauchy_product(a: list[PAdicScalar], b: list[PAdicScalar]) -> list[PAdicScalar]:
    """c_l = sum_{j<=l} a_j b_{l-j}, indexwise exact.

    Each input is checked against the (p, N) of a_0 once; the products of
    units are ints mod p^N, each c_l is folded over j ascending by ``_add``
    and built as one scalar: O(len(a) len(b)) int products and additions."""
    if not a or not b:
        raise ValueError("empty term list")
    first = a[0]
    for x in (*a, *b):
        first._check_compatible(x)
    p, N, m = first.p, first.precision, first.modulus
    A = [x._pair for x in a]
    B = [x._pair for x in b]
    out = []
    for l in range(len(a) + len(b) - 1):
        c = (0, None)
        for j in range(max(0, l - len(b) + 1), min(l + 1, len(a))):
            (e, u), (f, w) = A[j], B[l - j]
            c = _add(p, m, c, (0, None) if u is None or w is None else (e + f, u * w % m))
        out.append(PAdicScalar(p, N, *c))
    return out


def haar_measure(l: int, p: int) -> Fraction:
    """|p^l Z_p| = p^(-l); l may be negative."""
    check_prime(p)
    return abs_from_valuation(l, p)
