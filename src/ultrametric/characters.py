"""Exact character tables via unit-circle values stored as turn fractions.

A character value is a root of unity held as an exact element of Q/Z
("turns"); complex numbers only appear in reports and in the floating
cross-check of the Gram matrix.  Every value comes from one kernel,
``_turn(a, m)`` = e(a/m).  The exact orthogonality path rests on the
root-of-unity sum lemma: a finite sum invariant under multiplication by a
nontrivial root of unity vanishes, which ``_shift_invariant`` checks as a
shift symmetry of integer numerators over one common denominator.

Costs: ``character_table(n)`` builds n turn values and indexes them by
j a mod n; ``gram_exact(n)`` runs the shift certificate once per proper
divisor of n, O(n) Counter work each, and slices its rows from one entry
list; ``l2_distance_squared`` runs it once; ``gram_float(n)`` takes n
complex roots, indexes them by j j' mod n, reduced in integers, and applies
the inverse DFT to each conjugated row by FFT, O(n^2 log n) against O(n^3)
for the matrix product it equals.  The float check stays independent of
the table: the FFT brings its own kernel.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import index

from .errors import CertificationFailed, PrecisionMismatch
from .padic import PAdicInt, PAdicScalar, _cleared, check_prime, vp

TABLE_CAP = 4096


@dataclass(frozen=True)
class TurnValue:
    """Exact fraction of a full turn; value exp(2 pi i turn)."""

    turn: Fraction

    def __post_init__(self):
        object.__setattr__(self, "turn", Fraction(self.turn) % 1)

    def __mul__(self, other: "TurnValue") -> "TurnValue":
        return TurnValue(self.turn + other.turn)

    def complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.turn))

    def is_one(self) -> bool:
        return self.turn == 0

    def __repr__(self):
        return f"e({self.turn})"


ONE = TurnValue(Fraction(0))


def _turn(a: int, m: int) -> TurnValue:
    """e(a/m) for integers a and m >= 1: the one kernel of every character value."""
    return TurnValue(Fraction(a % m, m))


@dataclass(frozen=True)
class CyclicCharacter:
    """a -> w^(j a) on Z/nZ, w the first n-th root of unity."""

    n: int
    j: int

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise ValueError(f"n = {self.n} is not a group order")
        object.__setattr__(self, "j", index(self.j) % self.n)

    def eval(self, a: int) -> TurnValue:
        return _turn(self.j * a, self.n)


def _known_digits(x: PAdicInt | PAdicScalar) -> int:
    """d with x known mod p^d: N for a residue mod p^N or a zero, e + N for p^e u."""
    return x.precision if isinstance(x, PAdicInt) or x.is_zero else x.exponent + x.precision


def ep_eval(x: PAdicScalar) -> TurnValue:
    """E_p(x) = e(x') where x' in Z[1/p] carries the negative-exponent digits.

    Trivial exactly on Z_p; an x not known mod Z_p raises PrecisionMismatch.
    """
    d = _known_digits(x)
    if d < 0:
        raise PrecisionMismatch(f"E_p reads x mod Z_p, but x is known mod {x.p}^{d}")
    if x.is_zero or x.exponent >= 0:
        return ONE
    return _turn(x.unit_residue, x.p**-x.exponent)


@dataclass(frozen=True)
class PadicCharacter:
    """phi_y(x) = E_p(x y) with y in p^{-k} Z_p stored as a residue mod p^k."""

    p: int
    conductor: int
    y_residue: int

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "conductor", index(self.conductor))
        if self.conductor < 0:
            raise ValueError("conductor must be nonnegative")
        object.__setattr__(self, "y_residue", index(self.y_residue) % self.p**self.conductor)

    @property
    def trivial(self) -> bool:
        return self.y_residue == 0

    def eval_int(self, x: int) -> TurnValue:
        """Value at x in Z_p (any integer representative)."""
        return _turn(x * self.y_residue, self.p**self.conductor)

    def _check_point(self, x: PAdicInt | PAdicScalar) -> None:
        """Refuse an x of another prime, or one known to fewer digits than the
        conductor, which a nontrivial phi_y reads."""
        d = _known_digits(x)
        if x.p != self.p or d < self.conductor and not self.trivial:
            raise PrecisionMismatch(
                f"phi_y reads x mod {self.p}^{self.conductor}, but x is known mod {x.p}^{d}")

    def eval(self, x: PAdicInt | PAdicScalar) -> TurnValue:
        """phi_y(x) = E_p(x y) for x in Z_p, or for x = p^e u in Q_p with a finite tail."""
        self._check_point(x)
        if isinstance(x, PAdicInt):
            return self.eval_int(x.residue)
        # x y = y_residue u / p^(k - e), which is in Z_p unless k > e
        if x.is_zero or self.conductor <= x.exponent:
            return ONE
        return _turn(self.y_residue * x.unit_residue, self.p ** (self.conductor - x.exponent))

    def kernel_exponent(self) -> int:
        """phi_y is trivial exactly on p^k Z_p, k = conductor - v_p(y_residue)."""
        if self.trivial:
            return 0
        return self.conductor - vp(self.y_residue, self.p)


def _shift_invariant(numerators, n: int) -> bool:
    """The sum lemma on the turns a/n, a in ``numerators``.

    If the multiset {a mod n} is invariant under adding some nonzero member
    s, the sum S of the e(a/n) satisfies S = e(s/n) S with e(s/n) != 1,
    hence S = 0.
    """
    bag = Counter(a % n for a in numerators)
    return any(Counter((t + s) % n for t in bag.elements()) == bag for s in bag if s)


def turn_sum_is_zero(turns: list[Fraction]) -> bool:
    """Exact vanishing certificate for sums of roots of unity: the shift
    certificate on the turns cleared to one common denominator."""
    m, numerators = _cleared([Fraction(t) for t in turns])
    return _shift_invariant(numerators, m)


def _check_order(n: int) -> None:
    """Refuse n before any work: not a group order, or past ``TABLE_CAP``."""
    if n < 1:
        raise ValueError(f"n = {n} is not a group order")
    if n > TABLE_CAP:
        raise ValueError(f"n = {n} exceeds cap {TABLE_CAP}")


def character_table(n: int) -> list[list[TurnValue]]:
    """Row j, column a: value of the j-th character of Z/nZ at a."""
    _check_order(n)
    roots = [_turn(k, n) for k in range(n)]
    return [[roots[j * a % n] for a in range(n)] for j in range(n)]


def gram_exact(n: int) -> list[list[Fraction]]:
    """<chi_j, chi_j'> under normalized counting measure, by the sum lemma.

    The entry is (1/n) sum_a e(a d/n) with d = j - j' mod n: n/n = 1 on the
    diagonal and an exactly-certified 0 off it.  The multiset {a d mod n}
    depends only on g = gcd(d, n): a -> a d is onto the multiples of g, each
    hit g times.  So one certificate per proper divisor g of n covers every
    d in 1..n-1.
    """
    _check_order(n)
    for g in range(1, n):
        if n % g == 0 and not _shift_invariant(range(0, n * g, g), n):
            raise CertificationFailed("sum lemma failed to certify vanishing")
    entry = [Fraction(1)] + [Fraction(0)] * (n - 1)
    # row j is entry[(j - j') mod n] over j': a slice of the reversed list
    rev = entry[::-1] * 2
    return [rev[n - 1 - j : 2 * n - 1 - j] for j in range(n)]


def gram_float(n: int):
    """Numerical Gram matrix (1/n) W W* of the character table W, a complex128
    n x n numpy array, for the 1e-12 cross-check; the one function of the
    package that uses numpy.  j j' mod n indexes a table of n roots, so no
    angle exceeds one turn; j j' < 2^31 for n <= TABLE_CAP, so int32 holds it.

    Entry (j, j') is (1/n) sum_a e(j a/n) conj(W[j', a]): entry j of the
    inverse DFT of row j' of conj(W), so one FFT per row gives the matrix in
    O(n^2 log n).  W stays the data and the transform supplies the true
    kernel e(j a/n), so the check is as independent of W as the product was:
    a wrong entry W[j', a] moves row j' of conj(W) and, the DFT being
    invertible, moves column j' of the result off the identity.
    """
    _check_order(n)
    import numpy as np

    j = np.arange(n, dtype=np.int32)
    W = np.exp(2j * np.pi * j / n)[np.outer(j, j) % n]
    # conjugate and transform in place: one n x n array at a time
    np.conjugate(W, out=W)
    return np.fft.ifft(W, axis=1, out=W).T


def l2_distance_squared(n: int, j1: int, j2: int) -> Fraction:
    """int |chi_j1 - chi_j2|^2 dH = 2 for distinct characters, exactly.

    |phi - psi|^2 = 2 - 2 Re(phi conj(psi)); the cross term averages to 0
    by the sum lemma, on {a gcd(j1 - j2, n)} as in ``gram_exact``.
    """
    _check_order(n)
    if j1 % n == j2 % n:
        return Fraction(0)
    g = gcd(j1 - j2, n)
    if not _shift_invariant(range(0, n * g, g), n):
        raise CertificationFailed("sum lemma failed to certify vanishing")
    return Fraction(2)


def sup_distance_exceeds_one(n: int, j1: int, j2: int) -> bool:
    """Distinct characters are more than 1 apart in the supremum metric.

    |1 - e(theta)| > 1 exactly when theta mod 1 lies in (1/6, 5/6), so the
    test at theta = a d / n is n < 6 (a d mod n) < 5 n, in integers.
    """
    _check_order(n)
    if j1 % n == j2 % n:
        return False
    d = (j1 - j2) % n
    return any(n < 6 * (a * d % n) < 5 * n for a in range(n))


def padic_characters(p: int, k: int) -> list[PadicCharacter]:
    return [PadicCharacter(p, k, y) for y in range(p**k)]


def radic_character(radix, n: int, j: int):
    """Character on Z_r trivial on Y_n, for r a ``radic.Radix``: the character
    j of Z/R_nZ, which reduces its integer argument mod R_n."""
    return CyclicCharacter(radix.cumulative(n), j).eval


def product_character(factors: list) -> object:
    """Pointwise product of per-factor characters on a finite product.

    Each factor is a callable digit -> TurnValue; the result takes a tuple.
    """

    def phi(x: tuple) -> TurnValue:
        out = ONE
        for chi, d in zip(factors, x, strict=True):
            out = out * chi(d)
        return out

    return phi


def all_product_characters_match(ns: list[int]) -> bool:
    """Every character of G = prod Z/n_iZ factors through the coordinates.

    Characters are orthonormal, so G has at most |G| of them.  The |G|
    products of per-factor characters are certified to obey phi(x + y) =
    phi(x) phi(y) on every pair, in integers over one denominator, and to
    have pairwise distinct tables; so they are all of them.  O(|G|^3).
    """
    if any(n < 1 for n in ns):
        raise ValueError(f"{ns} are not all group orders")
    elements = list(product(*[range(n) for n in ns]))
    index = {x: i for i, x in enumerate(elements)}
    sums = [(i, j, index[tuple((a + b) % n for a, b, n in zip(x, y, ns))])  # x_i + x_j = x_s
            for i, x in enumerate(elements) for j, y in enumerate(elements)]
    tables = set()
    for js in elements:  # the j_i range over Z/n_iZ, as the elements do
        phi = product_character([CyclicCharacter(n, j).eval for n, j in zip(ns, js)])
        m, a = _cleared([phi(x).turn for x in elements])
        if any((a[i] + a[j] - a[s]) % m for i, j, s in sums):  # e(a_i/m) e(a_j/m) = e(a_s/m)
            return False
        tables.add((m, *a))
    return len(tables) == len(elements)
