"""Vectors and matrices over Q_p with the max ultranorm.

Entries are kept as exact rationals; p-adic absolute values of entries,
norms, and determinants are therefore exact.  Determinants are computed
over the rationals, never over truncated residues, because the valuation
of a determinant is precision-fragile mod p^N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificationFailed, UltrametricError
from .padic import abs_p, check_prime

MAX_DIM = 64


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
        """The max ultranorm max(|v_1|_p, ..., |v_n|_p)."""
        return max(abs_p(e, self.p) for e in self.entries)

    def scale(self, t) -> "UltraVector":
        t = Fraction(t)
        return UltraVector(self.p, tuple(t * e for e in self.entries))

    def __add__(self, other: "UltraVector") -> "UltraVector":
        return UltraVector(
            self.p, tuple(a + b for a, b in zip(self.entries, other.entries, strict=True))
        )


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
        if v.dim != self.dim:
            raise ValueError("dimension mismatch")
        return UltraVector(
            self.p,
            tuple(sum(a * x for a, x in zip(row, v.entries)) for row in self.rows),
        )

    def compose(self, other: "UltraMatrix") -> "UltraMatrix":
        """Matrix of self after other."""
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
        """Exact determinant by Gaussian elimination over Q."""
        n = self.dim
        a = [list(row) for row in self.rows]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                factor = a[r][col] * inv
                if factor:
                    for c in range(col, n):
                        a[r][c] -= factor * a[col][c]
        return det


def op_norm(T: UltraMatrix) -> Fraction:
    """Entrywise max of |a_{j,k}|_p; the operator norm for the max ultranorm."""
    return max(abs_p(e, T.p) for row in T.rows for e in row)


def det_abs(T: UltraMatrix) -> Fraction:
    """|det T|_p, with the bound |det T|_p <= ||T||_op^n checked."""
    value = abs_p(T.det(), T.p)
    if not value <= op_norm(T) ** T.dim:
        raise CertificationFailed("|det T|_p exceeds ||T||_op^n")
    return value


def zp_invertibility(T: UltraMatrix, samples: int = 20, seed: int = 0) -> dict:
    """Decide invertibility over Z_p, equivalently whether T is an isometry.

    T is invertible over Z_p iff every entry lies in Z_p and |det T|_p = 1;
    that in turn is equivalent to ||Tv|| = ||v|| for all v, which is
    cross-checked on basis vectors and random rational vectors.
    """
    p = T.p
    entries_integral = all(abs_p(e, p) <= 1 for row in T.rows for e in row)
    invertible = entries_integral and det_abs(T) == 1
    verdict = {"invertible_over_zp": invertible, "isometry": invertible}
    if invertible:
        rng = random.Random(seed)
        n = T.dim
        probes = [
            UltraVector(p, tuple(Fraction(int(i == j)) for j in range(n)))
            for i in range(n)
        ]
        for _ in range(samples):
            probes.append(
                UltraVector(
                    p,
                    tuple(
                        Fraction(rng.randrange(-50, 51), p ** rng.randrange(3))
                        for _ in range(n)
                    ),
                )
            )
        for v in probes:
            if v.norm() != 0 and T.apply(v).norm() != v.norm():
                raise CertificationFailed("isometry cross-check failed")
    return verdict


def matrix_from_strings(rows: list[list[str]], p: int) -> UltraMatrix:
    """Row-major rational-string input, as used by the JSON interface."""
    return UltraMatrix(p, tuple(tuple(Fraction(e) for e in row) for row in rows))
