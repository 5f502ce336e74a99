import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultrametric import linalg
from ultrametric.errors import CertificationFailed, PrecisionMismatch
from ultrametric.padic import abs_p

entries = st.fractions(
    min_value=Fraction(-64), max_value=Fraction(64), max_denominator=32
)


def test_ultranorm_examples():
    v = linalg.UltraVector(2, (1, 2, 4))
    assert v.norm() == 1
    assert linalg.UltraVector(2, (0, 0)).norm() == 0
    assert v.scale(2).norm() == Fraction(1, 2)


@given(v=st.lists(entries, min_size=1, max_size=4), t=entries)
def test_norm_homogeneity_and_triangle(v, t):
    p = 3
    vec = linalg.UltraVector(p, tuple(v))
    assert vec.scale(t).norm() == abs_p(t, p) * vec.norm()
    w = linalg.UltraVector(p, tuple(reversed(v)))
    assert (vec + w).norm() <= max(vec.norm(), w.norm())


def test_op_norm_examples():
    assert linalg.op_norm(linalg.UltraMatrix(2, ((1, 2), (3, 4)))) == 1
    assert linalg.op_norm(linalg.UltraMatrix(2, ((1, 0), (0, 1)))) == 1
    assert linalg.op_norm(linalg.UltraMatrix(2, ((2, 0), (0, 4)))) == Fraction(1, 2)


def test_det_abs_examples():
    assert linalg.det_abs(linalg.UltraMatrix(2, ((1, 2), (3, 4)))) == Fraction(1, 2)
    assert linalg.det_abs(linalg.UltraMatrix(2, ((1, 0), (0, 1)))) == 1
    assert linalg.det_abs(linalg.UltraMatrix(2, ((2, 0), (0, 2)))) == Fraction(1, 4)


def test_zp_invertibility_examples():
    assert linalg.zp_invertibility(linalg.UltraMatrix(2, ((1, 0), (0, 3)))) == {
        "invertible_over_zp": True,
        "isometry": True,
    }
    assert not linalg.zp_invertibility(linalg.UltraMatrix(2, ((1, 2), (3, 4))))[
        "invertible_over_zp"
    ]
    perm = linalg.UltraMatrix(5, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert linalg.zp_invertibility(perm)["isometry"]


def _random_matrix(rng, p, n):
    return linalg.UltraMatrix(
        p,
        tuple(
            tuple(Fraction(rng.randrange(-40, 41), rng.choice([1, 1, 1, p])) for _ in range(n))
            for _ in range(n)
        ),
    )


def test_operator_bound_and_submultiplicativity():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        T = _random_matrix(rng, p, n)
        S = _random_matrix(rng, p, n)
        v = linalg.UltraVector(
            p, tuple(Fraction(rng.randrange(-20, 21)) for _ in range(n))
        )
        assert T.apply(v).norm() <= linalg.op_norm(T) * v.norm()
        assert linalg.op_norm(T.compose(S)) <= linalg.op_norm(T) * linalg.op_norm(S)
        assert linalg.det_abs(T) <= linalg.op_norm(T) ** n


def test_op_norm_attained_on_basis_vector():
    rng = random.Random(8)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        T = _random_matrix(rng, p, n)
        basis_norms = [
            T.apply(linalg.UltraVector(p, tuple(Fraction(int(i == j)) for j in range(n)))).norm()
            for i in range(n)
        ]
        assert max(basis_norms) == linalg.op_norm(T)


def test_isometry_exhaustive_small_vectors():
    # invertible over Z_p implies norm preservation on a small exhaustive set
    p = 2
    T = linalg.UltraMatrix(p, ((1, 2), (0, 1)))
    assert linalg.zp_invertibility(T)["isometry"]
    vals = [Fraction(a, p**s) for a in range(p) for s in range(3)]
    for x in vals:
        for y in vals:
            if x == y == 0:
                continue
            v = linalg.UltraVector(p, (x, y))
            assert T.apply(v).norm() == v.norm()


def test_matrix_from_strings():
    T = linalg.UltraMatrix(2, [["1/2", "3"], ["0", "5"]])
    assert T.rows[0][0] == Fraction(1, 2)


# The Fraction kernels that the integer ones replaced, kept as oracles.


def _det_oracle(T):
    """Gaussian elimination over Q."""
    n = T.dim
    a = [list(row) for row in T.rows]
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


def _norm_oracle(v):
    return max(abs_p(e, v.p) for e in v.entries)


def _op_norm_oracle(T):
    return max(abs_p(e, T.p) for row in T.rows for e in row)


def _zp_invertibility_oracle(T, samples=20, seed=0):
    """Fraction probes through UltraMatrix.apply, norms through abs_p."""
    p = T.p
    entries_integral = all(abs_p(e, p) <= 1 for row in T.rows for e in row)
    invertible = entries_integral and abs_p(_det_oracle(T), p) == 1
    if invertible:
        rng = random.Random(seed)
        n = T.dim
        probes = [
            linalg.UltraVector(p, tuple(Fraction(int(i == j)) for j in range(n)))
            for i in range(n)
        ]
        for _ in range(samples):
            probes.append(
                linalg.UltraVector(
                    p,
                    tuple(
                        Fraction(rng.randrange(-50, 51), p ** rng.randrange(3))
                        for _ in range(n)
                    ),
                )
            )
        for v in probes:
            if _norm_oracle(v) != 0 and _norm_oracle(T.apply(v)) != _norm_oracle(v):
                raise CertificationFailed("isometry cross-check failed")
    return {"invertible_over_zp": invertible, "isometry": invertible}


ORACLE_PRIMES = (2, 3, 5, 7, 2**61 - 1)


def _oracle_matrix(rng, p, n, kind):
    """A random n x n matrix of one of the shapes the kernels must agree on."""
    rows = [
        [Fraction(rng.randrange(-12, 13), rng.choice([1, 1, 1, 2, 3, p, p * p])) for _ in range(n)]
        for _ in range(n)
    ]
    if kind == "integral":
        rows = [[Fraction(e.numerator) for e in row] for row in rows]
    elif kind == "unit":
        # unit upper-triangular times a permutation: det is +-1
        rows = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randrange(-9, 10))
                 for j in range(n)] for i in range(n)]
        rng.shuffle(rows)
    elif kind == "singular" and n > 1:
        rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1 % n])]
    elif kind == "zero_pivot":
        rows[0][0] = Fraction(0)
        if n > 1:
            rows[1][0] = Fraction(0)
    return linalg.UltraMatrix(p, tuple(tuple(r) for r in rows))


KINDS = ("integral", "unit", "singular", "zero_pivot", "fraction")


def test_integer_kernels_agree_with_fraction_oracles():
    rng = random.Random(12)
    seen = set()
    for kind, p, n, _ in itertools.product(KINDS, ORACLE_PRIMES, range(1, 7), range(4)):
        T = _oracle_matrix(rng, p, n, kind)
        det = T.det()
        assert det == _det_oracle(T)
        assert linalg.op_norm(T) == _op_norm_oracle(T)
        assert linalg.det_abs(T) == abs_p(det, p)
        seed = rng.randrange(10**6)
        verdict = linalg.zp_invertibility(T, seed=seed)
        assert verdict == _zp_invertibility_oracle(T, seed=seed)
        for row in T.rows:
            v = linalg.UltraVector(p, row)
            assert v.norm() == _norm_oracle(v)
        seen.add((det == 0, verdict["isometry"]))
    # singular, invertible and merely nonsingular matrices all occurred
    assert seen == {(True, False), (False, True), (False, False)}


def test_det_zero_leading_pivots_and_p_in_denominators():
    T = linalg.UltraMatrix(3, ((0, 1, 2), (0, Fraction(1, 3), 5), (7, 8, Fraction(2, 9))))
    assert T.det() == _det_oracle(T) != 0
    zero_column = linalg.UltraMatrix(2, ((0, 1), (0, Fraction(1, 3))))
    assert zero_column.det() == 0
    assert linalg.det_abs(zero_column) == 0
    assert linalg.op_norm(linalg.UltraMatrix(2**61 - 1, ((0, 0), (0, 0)))) == 0


def test_mixed_primes_refused():
    v2, v3 = linalg.UltraVector(2, (1, 2)), linalg.UltraVector(3, (1, 2))
    I2 = linalg.UltraMatrix(2, ((1, 0), (0, 1)))
    I3 = linalg.UltraMatrix(3, ((1, 0), (0, 1)))
    for combine in (lambda: v2 + v3, lambda: I2.apply(v3), lambda: I2.compose(I3)):
        with pytest.raises(PrecisionMismatch):
            combine()


def test_mixed_dimensions_refused():
    v2, v1 = linalg.UltraVector(2, (1, 2)), linalg.UltraVector(2, (1,))
    I2 = linalg.UltraMatrix(2, ((1, 0), (0, 1)))
    I1 = linalg.UltraMatrix(2, ((1,),))
    for combine in (
        lambda: v2 + v1,
        lambda: I2.apply(v1),
        lambda: I2.compose(I1),
        lambda: I1.compose(I2),
    ):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine()
