import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ultrametric import linalg

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
    from ultrametric.padic import abs_p

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
    T = linalg.matrix_from_strings([["1/2", "3"], ["0", "5"]], 2)
    assert T.rows[0][0] == Fraction(1, 2)
