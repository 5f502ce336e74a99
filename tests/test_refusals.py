"""Typed refusals of invalid input, one row per check, across the modules."""

from fractions import Fraction

import pytest

from ultrametric import cantor, characters, harmonic, hensel, linalg, padic, radic
from ultrametric.errors import (
    DegenerateMeasure,
    InvalidGauge,
    InvalidResidue,
    NotNonnegative,
    NotPAdicInteger,
    UltrametricError,
)

SPEC = cantor.ProductSpec.reciprocal((2, 2))
QUARTER = (Fraction(1, 4),) * 4

REFUSALS = [
    ("padic: a unit part divisible by p", lambda: padic.PAdicScalar(3, 4, 0, 6),
     ValueError, "valuation 0"),
    ("padic: Z_p holds no x with |x|_p > 1", lambda: padic.PAdicScalar(3, 4, -1, 1).to_padic_int(),
     NotPAdicInteger, "> 1"),
    ("padic: a sum of no terms", lambda: padic.ultrametric_sum([]), ValueError, "empty"),
    ("padic: a product of no terms",
     lambda: padic.cauchy_product([], [padic.PAdicScalar.zero(3, 4)]), ValueError, "empty"),
    ("cantor: a digit past its factor", lambda: cantor.validate_cylinder(cantor.Cylinder((2,)), SPEC),
     ValueError, "invalid for spec"),
    ("cantor: a cylinder deeper than the space",
     lambda: cantor.validate_cylinder(cantor.Cylinder((0, 0, 0)), SPEC), ValueError, "invalid"),
    ("cantor: a point short of full depth", lambda: cantor.match_and_dist((0,), (0, 1), SPEC),
     ValueError, "full depth"),
    ("cantor: weights summing to 5/6", lambda: cantor.ProductMeasure(((Fraction(1, 2), Fraction(1, 3)),)),
     ValueError, "probability vector"),
    ("cantor: a negative weight", lambda: cantor.ProductMeasure(((Fraction(3, 2), Fraction(-1, 2)),)),
     ValueError, "probability vector"),
    # every Gauge is checked when it is made, not only through power
    ("cantor: a gauge t^-1", lambda: cantor.Gauge(alpha=-1), InvalidGauge, "alpha < 0"),
    ("cantor: a gauge of neither table nor alpha", lambda: cantor.Gauge(), InvalidGauge, "exactly one"),
    ("cantor: a gauge of both table and alpha",
     lambda: cantor.Gauge(table=((1, 1),), alpha=1), InvalidGauge, "exactly one"),
    ("cantor: a gauge table that decreases",
     lambda: cantor.Gauge(table=((Fraction(1, 2), 1), (1, 0))), InvalidGauge, "monotone"),
    # value(1/2) read whichever pair came first: (2, 2) in this order, (1, 1) in the other
    ("cantor: a gauge table with two values at one scale",
     lambda: cantor.Gauge(table=[(Fraction(1, 2), 2), (Fraction(1, 2), 1), (1, 2)]),
     InvalidGauge, "one value"),
    ("cantor: a table gauge off its scales",
     lambda: cantor.Gauge(table=[(1, 1)]).value(Fraction(1, 2)), InvalidGauge, "no value"),
    ("cantor: a power of a negative base", lambda: cantor.pow_bounds(Fraction(-1), Fraction(1, 2)),
     NotNonnegative, "negative base"),
    ("cantor: a snowflake exponent of 0", lambda: cantor.snowflake(SPEC, 0), InvalidGauge, "positive"),
    # an integer field takes operator.index: int(1.7) once read the digit 1
    ("cantor: a digit of 1.7", lambda: cantor.Cylinder((1.7,)), TypeError, "float"),
    ("cantor: a factor of 2.9", lambda: cantor.ProductSpec.reciprocal((2.9, 2)), TypeError, "float"),
    ("radic: a factor of 2.5", lambda: radic.Radix((2.5, 3)), TypeError, "float"),
    ("radic: a residue of 1.5", lambda: radic.RadicInt(radic.Radix((2, 3)), 1.5), TypeError, "float"),
    ("padic: a residue of 1/2", lambda: padic.PAdicInt(3, 4, Fraction(1, 2)), TypeError, "Fraction"),
    ("hensel: a coefficient of 1.9", lambda: hensel.ZpPoly(2, 5, (1.9, 1)), TypeError, "float"),
    # j = 1/2 once gave the value e(1/8) of no character of Z/4Z, and y = 3/2 gave e(3/4)
    ("characters: a character index of 1/2",
     lambda: characters.CyclicCharacter(4, Fraction(1, 2)), TypeError, "Fraction"),
    ("characters: a y residue of 3/2",
     lambda: characters.PadicCharacter(2, 1, Fraction(3, 2)), TypeError, "Fraction"),
    # n = 4.0 once built the character with j = 1.0, which failed only at eval
    ("characters: a group order of 4.0",
     lambda: characters.CyclicCharacter(4.0, 1), TypeError, "float"),
    # an operand that is no PAdicInt is read as an int, never truncated
    ("padic: an operand of 1.5", lambda: padic.PAdicInt(3, 4, 50) + 1.5, TypeError, "float"),
    ("harmonic: three leaf weights for four leaves",
     lambda: harmonic.FiniteUltraTree(SPEC, QUARTER[:3], QUARTER[:3]), ValueError, "4 leaf weights"),
    ("harmonic: a negative nu",
     lambda: harmonic.FiniteUltraTree(SPEC, QUARTER, (Fraction(-1, 4),) + QUARTER[1:]),
     ValueError, "nonnegative"),
    # the sign and zero-mass checks read the integer masses a tree or grid stores
    ("harmonic: a negative mu",
     lambda: harmonic.FiniteUltraTree(SPEC, (Fraction(-1, 4),) + QUARTER[1:], QUARTER),
     ValueError, "weights must be nonnegative"),
    ("harmonic: a leaf of no mu-mass",
     lambda: harmonic.FiniteUltraTree(SPEC, (Fraction(0),) + QUARTER[1:], QUARTER),
     DegenerateMeasure, "a leaf has zero mu-mass"),
    ("harmonic: a grid with one nu weight for two points",
     lambda: harmonic.GridMeasure((0, 1), (1, 1), (0,)), ValueError, "need 2 weights"),
    ("harmonic: a negative grid nu",
     lambda: harmonic.GridMeasure((0, 1), (1, 1), (0, Fraction(-1, 3))), ValueError,
     "nu must be nonnegative"),
    ("harmonic: grid points out of order",
     lambda: harmonic.GridMeasure((1, 0), (1, 1), (0, 0)), ValueError, "strictly increasing"),
    ("harmonic: a grid point of no mu-mass",
     lambda: harmonic.GridMeasure((0, 1), (1, 0), (0, 0)), DegenerateMeasure, "strictly positive"),
    ("harmonic: an interval [2, 1]", lambda: harmonic.Interval(2, 1), ValueError, "empty interval"),
    ("harmonic: a ball of radius 0", lambda: harmonic.Ball(0, 0), ValueError, "radius"),
    ("harmonic: blocks that miss a point",
     lambda: harmonic.cond_expectation([1, 2, 3], ((0, 1),), [1, 1, 1]), ValueError, "not a partition"),
    ("characters: a negative conductor", lambda: characters.PadicCharacter(2, -1, 0),
     ValueError, "nonnegative"),
    ("radic: scales that start below 1", lambda: radic.check_scales((Fraction(1, 2), Fraction(1, 4)), 1),
     ValueError, "t_0 must equal 1"),
    ("radic: one residue for two levels", lambda: radic.coherence_check((1,), radic.Radix((2, 3))),
     InvalidResidue, "expected 2 residues"),
    ("linalg: a vector of dimension 0", lambda: linalg.UltraVector(2, ()), ValueError, "dimension"),
    ("linalg: a 1 x 2 matrix", lambda: linalg.UltraMatrix(2, ((1, 2),)), ValueError, "square"),
    ("linalg: a matrix past the dimension cap",
     lambda: linalg.UltraMatrix(2, tuple((0,) * 65 for _ in range(65))), UltrametricError, "cap"),
]


@pytest.mark.parametrize("call, error, match", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_invalid_input_is_refused_with_a_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
