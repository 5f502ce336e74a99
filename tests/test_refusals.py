"""Typed refusals of invalid input, one row per check, across the modules."""

from fractions import Fraction

import pytest

from ultrametric import audit, cantor, characters, cli, harmonic, hensel, linalg, padic, radic
from ultrametric.errors import (
    DegenerateMeasure,
    InvalidGauge,
    InvalidResidue,
    NotNonnegative,
    NotPAdicInteger,
    UltrametricError,
)

SPEC = cantor.ProductSpec.reciprocal((2, 2))
SPEC23 = cantor.ProductSpec.reciprocal((2, 3))
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
    # a word outside X once gave a distance: 0, 1 and (0, 1) for these three
    ("audit: a point deeper than the space",
     lambda: audit.dist_to_set((0, 0, 7, 7), [cantor.Cylinder((0, 0))], SPEC), ValueError, "full depth"),
    ("audit: a cylinder digit past its factor",
     lambda: audit.dist_to_set((0, 0), [cantor.Cylinder((5,))], SPEC), ValueError, "invalid for spec"),
    ("cantor: a point digit past its factor", lambda: cantor.match_and_dist((9, 9), (0, 0), SPEC),
     ValueError, "invalid for spec"),
    # digit -1 once read the last weight, and a level past the last an IndexError
    ("cantor: a ball of digit -1",
     lambda: cantor.ball_measure(cantor.Cylinder((0, -1)), cantor.ProductMeasure.uniform(SPEC23)),
     ValueError, "invalid for weights"),
    ("cantor: a ball deeper than the measure",
     lambda: cantor.ball_measure(cantor.Cylinder((0, 0, 0)), cantor.ProductMeasure.uniform(SPEC23)),
     ValueError, "invalid for weights"),
    # k = -1 once gave the depth-1 cylinders and k = 5 the depth-2 ones
    ("cantor: cylinders at depth -1", lambda: cantor.cylinders_at_depth(SPEC23, -1), ValueError, "depth -1"),
    ("cantor: cylinders past the depth", lambda: cantor.cylinders_at_depth(SPEC23, 5), ValueError, "depth 5"),
    ("cantor: a rectangle of depth -1", lambda: cantor.ProductJoin(SPEC23, SPEC23).rect_diam(-1, 2),
     ValueError, "outside"),
    # f((5, 5)) once read 15/4, outside [0, 1]
    ("cantor: a monotone image of a digit past its factor",
     lambda: cantor.monotone_map_point((5, 5), SPEC), ValueError, "invalid for spec"),
    ("cantor: a collision test of short words",
     lambda: cantor.monotone_map_collides((0,), (1,), SPEC23), ValueError, "full depth"),
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


# A modifier next to an operation that does not read it: exit 2, naming the
# operations that read it, one row per modifier of cli._MODIFIERS.  Once
# each exited 0 with the report of the plain operation.
UNREAD_MODIFIERS = [
    ("padic --prime 3 --abs 9 --prec 4", "--prec is read only by --geom or --add or --mul, not by --abs"),
    ("radic --radix 2,3 --embed 5 --periodic --residue 3",
     "--periodic is read only by --preceq, not by --embed"),
    ("radic --radix 2,3 --preceq 6 --residue 3", "--residue is read only by --project, not by --preceq"),
    ("radic --radix 2,3 --abs 0 --depth 3", "--depth is read only by --preceq or --project, not by --abs"),
    ("hausdorff --factors 2,2 --dimension --alpha 1/2",
     "--alpha is read only by the content, not by --dimension"),
    ("hausdorff --factors 2,2 --delta 1/4 --dimension",
     "--delta is read only by the content, not by --dimension"),
    ("hausdorff --factors 2,2 --tolerance 1e-3", "--tolerance is read only by --dimension, not by the content"),
    ("audit --isometry 2,3 --scales geometric:1/2", "--scales is read only by --factors, not by --isometry"),
    ("audit --isometry 2,3 --candidate 1", "--candidate is read only by --factors, not by --isometry"),
    ("audit --isometry 2,3 --measure-weights 1/2,1/2;1/2,1/2",
     "--measure-weights is read only by --factors, not by --isometry"),
    ("audit --factors 2,2 --seed 7", "--seed is read only by --isometry, not by --factors"),
]


@pytest.mark.parametrize("argv, message", UNREAD_MODIFIERS, ids=[r[0] for r in UNREAD_MODIFIERS])
def test_a_modifier_the_operation_does_not_read_exits_2(capsys, argv, message):
    assert cli.main(argv.split()) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == message + "\n"


def test_every_modifier_has_a_refusal_row_and_reaches_its_readers(capsys):
    rows = {(argv.split()[0], message.split()[0]) for argv, message in UNREAD_MODIFIERS}
    declared = {(command, "--" + dest.replace("_", "-"))
                for command, modifiers in cli._MODIFIERS.items() for dest in modifiers}
    assert rows == declared
    # the FOUND example with both modifiers names the first in declaration order
    assert cli.main("audit --isometry 2,3 --candidate 1 --scales geometric:1/2".split()) == 2
    assert capsys.readouterr().err.startswith("--scales is read only by --factors")
    # next to an operation that reads them, modifiers keep working
    for argv in ("radic --radix 8 --preceq 2 --periodic --depth 3",
                 "radic --radix 2,2 --project 2,2,2 --residue 5 --depth 8",
                 "hausdorff --factors 2,2 --dimension --tolerance 1e-3",
                 "hausdorff --factors 2,2 --alpha 1/2 --delta 1/4",
                 "padic --prime 3 --prec 4 --geom 3",
                 "audit --factors 2,2 --candidate 2 --scales geometric:1/2"
                 " --measure-weights 1/2,1/2;1/2,1/2",
                 "audit --isometry 2,3 --seed 7"):
        assert cli.main(argv.split()) == 0, argv
    capsys.readouterr()


def test_an_unread_modifier_is_refused_before_any_module_loads():
    import os
    import subprocess
    import sys

    import ultrametric

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    child = ("import sys\nfrom ultrametric import cli\ncode = cli.main(sys.argv[1:])\n"
             "print(code, sorted(m for m in sys.modules if m.startswith('ultrametric.')))\n")
    for argv in ("radic --radix 2,3 --embed 5 --periodic --residue 3",
                 "audit --isometry 2,3 --candidate 1 --scales geometric:1/2"):
        out = subprocess.run([sys.executable, "-c", child, *argv.split()], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "2 ['ultrametric.cli', 'ultrametric.errors']\n", argv
