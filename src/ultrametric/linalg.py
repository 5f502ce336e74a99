"""Vectors and matrices over Q_p with the max ultranorm.

Entries are kept as exact rationals; p-adic absolute values of entries,
norms, and determinants are therefore exact.  Norms are minima of the
integer valuations v_p(numerator) - v_p(denominator), turned into one
``Fraction`` at the end.  Determinants are computed exactly, by Bareiss
elimination on the rows cleared of their denominators, never over
truncated residues, because the valuation of a determinant is
precision-fragile mod p^N.
"""

from __future__ import annotations

import random  # zp_invertibility's seeded probes; bench/workloads.py passes the seed
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import CertificationFailed, PrecisionMismatch, UltrametricError
from .padic import _cleared, abs_from_valuation, check_prime, rational_valuation

MAX_DIM = 64


def _min_valuation(entries, p: int) -> int | None:
    """min v_p over the nonzero entries, Fractions or ints; None when all are 0."""
    return min((rational_valuation(e, p) for e in entries if e), default=None)


def _check_same_space(a, b) -> None:
    """Refuse to combine two vectors or matrices of different primes or dimensions."""
    if a.p != b.p:
        raise PrecisionMismatch(f"cannot combine {a.p}-adic with {b.p}-adic")
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class UltraVector:
    p: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))
        if not self.entries:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def norm(self) -> Fraction:
        """The max ultranorm max(|v_1|_p, ..., |v_n|_p) = p^(-min v_p(v_j))."""
        return abs_from_valuation(_min_valuation(self.entries, self.p), self.p)

    def scale(self, t) -> "UltraVector":
        t = Fraction(t)
        return UltraVector(self.p, tuple(t * e for e in self.entries))

    def __add__(self, other: "UltraVector") -> "UltraVector":
        _check_same_space(self, other)
        return UltraVector(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))


@dataclass(frozen=True)
class UltraMatrix:
    p: int
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        if n > MAX_DIM:
            raise UltrametricError(f"dimension {n} exceeds cap {MAX_DIM}")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def apply(self, v: UltraVector) -> UltraVector:
        _check_same_space(self, v)
        return UltraVector(
            self.p,
            tuple(sum(a * x for a, x in zip(row, v.entries)) for row in self.rows),
        )

    def compose(self, other: "UltraMatrix") -> "UltraMatrix":
        """Matrix of self after other."""
        _check_same_space(self, other)
        n = self.dim
        return UltraMatrix(
            self.p,
            tuple(
                tuple(
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                    for j in range(n)
                )
                for i in range(n)
            ),
        )

    def det(self) -> Fraction:
        """Exact determinant by Bareiss elimination on integer rows.

        Row i is multiplied by the lcm D_i of its denominators, so
        det T = det A / (D_1 ... D_n) for the integer matrix A.  Bareiss's
        fraction-free elimination divides each new entry exactly by the
        previous pivot, so every intermediate is a minor of A, of at most
        n (b + log2 n) bits for entries of b bits by Hadamard's inequality:
        O(n^3) integer products and exact divisions, and one gcd at the end.
        """
        dens, a = zip(*map(_cleared, self.rows))
        return Fraction(_bareiss(list(a)), prod(dens))


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the integer matrix a, which is overwritten."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k, akk = a[k], a[k][k]
        for row in a[k + 1:]:
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def op_norm(T: UltraMatrix) -> Fraction:
    """Entrywise max of |a_{j,k}|_p; the operator norm for the max ultranorm."""
    return abs_from_valuation(_min_valuation((e for row in T.rows for e in row), T.p), T.p)


def det_abs(T: UltraMatrix) -> Fraction:
    """|det T|_p, with the bound |det T|_p <= ||T||_op^n checked."""
    value = abs_from_valuation(rational_valuation(T.det(), T.p), T.p)
    if not value <= op_norm(T) ** T.dim:
        raise CertificationFailed("|det T|_p exceeds ||T||_op^n")
    return value


def _int_apply(rows: list[list[int]], w: list[int]) -> list[int]:
    """The integer matrix-vector product rows . w."""
    return [sum(a * x for a, x in zip(row, w)) for row in rows]


def zp_invertibility(T: UltraMatrix, seed: int = 0) -> dict:
    """Decide invertibility over Z_p, equivalently whether T is an isometry.

    T is invertible over Z_p iff every entry lies in Z_p and |det T|_p = 1;
    that in turn is equivalent to ||Tv|| = ||v|| for all v, which is
    cross-checked on the basis vectors and 20 seeded random rational vectors.  The
    cross-check runs in integers: each row of T times the lcm of its own
    denominators, which is a p-adic unit once T is integral and so changes no
    valuation of T v, applied to p^2 v, whose entries are integers;
    ||Tv|| = ||v|| iff both sides have the same minimum valuation.
    """
    p = T.p
    entries_integral = all(e.denominator % p for row in T.rows for e in row)
    invertible = entries_integral and det_abs(T) == 1
    verdict = {"invertible_over_zp": invertible, "isometry": invertible}
    if invertible:
        rng = random.Random(seed)
        n = T.dim
        rows = [_cleared(row)[1] for row in T.rows]
        # p^2 times the probes: the basis vectors and entries a / p^k, k < 3
        probes = [[p * p * (i == j) for j in range(n)] for i in range(n)]
        for _ in range(20):
            probes.append(
                [rng.randrange(-50, 51) * p ** (2 - rng.randrange(3)) for _ in range(n)]
            )
        for w in probes:
            v = _min_valuation(w, p)
            if v is not None and _min_valuation(_int_apply(rows, w), p) != v:
                raise CertificationFailed("isometry cross-check failed")
    return verdict
