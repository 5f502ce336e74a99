"""Command-line front end: wires JSON/flag configs to the module operations.

Exit codes: 0 = verified or solved, 1 = a property was refuted (the report
carries a witness), 2 = invalid input.

Each ``cmd_*`` returns ``(exit_code, report)``, and ``main`` prints the
report through ``encode``, the one place where a value becomes JSON.  Each
``cmd_*`` imports the modules it calls, so one invocation loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf, isfinite

from .errors import NotComparable, UltrametricError

SCHEMA = "1"
# the largest modulus p^N a subcommand forms, in bits, counted as N * bitlength(p):
# a quadratic lift mod 5^21845 takes about a second
MODULUS_BITS_CAP = 1 << 16


def encode(value):
    """A report value as JSON data.

    A Fraction becomes "a/b" (an integral one its decimal digits), a finite
    float a JSON number and inf the string "inf"; tuples and lists become
    lists and dict keys strings; bool, int, str and None pass through.
    Anything else raises TypeError, so a new value type fails a test instead
    of printing as a repr.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if isfinite(value):
            return value
        if value == inf:
            return "inf"
    elif isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    elif isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    raise TypeError(f"a report cannot hold {type(value).__name__} {value!r}")


def _emit(report: dict) -> None:
    print(json.dumps(encode({"schema": SCHEMA, **report}), sort_keys=True))


class InvalidRational(argparse.ArgumentTypeError, ValueError):
    """Printed as it stands by argparse; outside argparse ``main`` catches it."""


# value types: argparse exits 2 naming the flag ("argument --x0: invalid int value: 'a'")
def rational(text) -> Fraction:
    """Fraction(text) for outside input, quoted without ``_mark_dash_values``'s space."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError):  # OverflowError: JSON's Infinity
        raise InvalidRational(f"invalid rational value: {str(text).strip()!r}") from None


def rationals(s: str) -> tuple[Fraction, ...]:
    return tuple(rational(x) for x in s.split(","))


def ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(","))


def weight_levels(s: str) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(rationals(level) for level in s.split(";"))


def _check_modulus(p: int, N: int) -> None:
    """Refuse --prec before p^N is formed, so its cost is bounded."""
    if N * p.bit_length() > MODULUS_BITS_CAP:
        raise ValueError(f"--prec {N} makes p^N up to {N * p.bit_length()} bits, "
                         f"above the cap of {MODULUS_BITS_CAP}")


def cmd_hensel(args) -> tuple[int, dict]:
    from . import hensel, padic

    _check_modulus(args.prime, args.prec)
    f = hensel.ZpPoly.from_rationals(args.coeffs, args.prime, args.prec)
    x0 = padic.PAdicInt(args.prime, args.prec, args.x0)
    lift = hensel.hensel_v1 if args.variant == "v1" else hensel.hensel_v2
    root, trace = lift(f, x0)
    return 0, {
        "root": f"{root.residue} mod {root.modulus}",
        "residue": str(root.residue),
        "modulus": str(root.modulus),
        "trace_exponents": trace.valuations,
    }


def cmd_padic(args) -> tuple[int, dict]:
    from . import padic

    if args.abs is not None:
        return 0, {"abs": padic.abs_p(args.abs, args.prime)}
    _check_modulus(args.prime, args.prec)
    if args.geom is not None:
        y = padic.PAdicScalar.from_rational(args.geom, args.prime, args.prec)
        return 0, {"geometric_sum": repr(padic.geometric_sum(y))}
    a, b = (padic.padic_from_rational(x, args.prime, args.prec) for x in args.add or args.mul)
    if args.add:
        return 0, {"sum": str((a + b).residue), "modulus": str(a.modulus)}
    return 0, {"product": str((a * b).residue), "modulus": str(a.modulus)}


def cmd_radic(args) -> tuple[int, dict]:
    from . import radic

    r = radic.Radix(args.radix)
    if args.embed is not None:
        return 0, {"sequence": [str(x) for x in radic.embed_q(args.embed, r)]}
    if args.abs is not None:
        l, a = radic.lr_and_abs(args.abs, r)
        return 0, {"valuation": "saturated" if l is None else l, "abs": a}
    if args.preceq is not None:
        r2 = radic.Radix(args.preceq, periodic=args.periodic)
        try:
            w = radic.preceq(r, r2, args.depth)
        except NotComparable as e:
            return 1, {"holds": False, "reason": e.reason, "search_depth": e.search_depth,
                       "level": e.level, "modulus": str(e.modulus)}
        return 0, {"holds": True, "witness": w.witnesses}
    x = radic.RadicInt(radic.Radix(args.project), args.residue)
    y = radic.project(x, r, args.depth)
    return 0, {"residue": str(y.residue), "modulus": str(r.modulus)}


def _spec_from_args(args) -> cantor.ProductSpec:
    from . import cantor

    if args.scales == "reciprocal":
        return cantor.ProductSpec.reciprocal(args.factors)
    if args.scales.startswith("geometric:"):
        return cantor.ProductSpec.geometric(args.factors, rational(args.scales.split(":", 1)[1]))
    return cantor.ProductSpec(args.factors, rationals(args.scales))


def cmd_hausdorff(args) -> tuple[int, dict]:
    from . import cantor

    spec = _spec_from_args(args)
    if args.dimension:
        lo, hi = cantor.dimension_estimate(spec, args.tolerance)
        return 0, {"dimension_interval": [float(lo), float(hi)]}
    gauge = cantor.Gauge.power(args.alpha)
    value = cantor.hausdorff_content(spec, [cantor.Cylinder(())], gauge, delta=args.delta)
    if isinstance(value, tuple):
        # some t^alpha is irrational, so the content is a bracket (lo, hi)
        return 0, {"content": value, "exact": False}
    return 0, {"content": value}


def cmd_audit(args) -> tuple[int, dict]:
    from . import audit, cantor, radic

    if args.isometry is not None:
        rep = audit.build_radic_isometry(radic.Radix(args.isometry), seed=args.seed)
        keys = ("bijective", "isometric", "pushforward_uniform")
        out = {k: rep[k] for k in keys}
        code = 0 if all(out.values()) else 1
        return code, {**out, "pairs_checked": rep["pairs_checked"], "seed": args.seed}
    spec = _spec_from_args(args)
    if args.measure_weights is None:
        rep = audit.doubling_metric(spec, args.candidate)
        return (0 if rep.verdict else 1), rep.to_json()
    mu = cantor.ProductMeasure(args.measure_weights)
    rep = audit.doubling_measure(spec, mu, args.candidate)
    c2 = audit.ratio_c2(spec, mu)
    out = {**rep.to_json(), "ratio_c2": "infinite" if c2 is None else c2}
    return (0 if rep.verdict else 1), out


def _tree_from_json(path: str) -> harmonic.FiniteUltraTree:
    from . import cantor, harmonic

    with open(path) as fh:
        obj = json.load(fh)
    try:
        factors = tuple(obj["spec"]["factors"])
        scales, mu, nu = (
            tuple(rational(x) for x in xs) for xs in (obj["spec"]["scales"], obj["mu"], obj["nu"])
        )
    except (KeyError, TypeError):
        raise ValueError(
            f'{path}: expected {{"spec": {{"factors": [...], "scales": [...]}}, '
            '"mu": [...], "nu": [...]}'
        ) from None
    return harmonic.FiniteUltraTree(cantor.ProductSpec(factors, scales), mu, nu)


def cmd_maximal(args) -> tuple[int, dict]:
    from . import harmonic

    tree = _tree_from_json(args.tree)
    f = [nu / mu for nu, mu in zip(tree.nu, tree.mu)]
    if args.weak_type is not None:
        rep = harmonic.weak_type_verify(tree, args.weak_type)
    elif args.lp is not None:
        rep = harmonic.lp_maximal_bound(f, tree, *args.lp)
    elif args.doob is not None:
        filt = harmonic.Filtration.dyadic(tree.spec)
        doob = harmonic.martingale_maximal(f, filt, list(tree.mu), args.doob)
        rep = {"holds": doob["holds"]}
    else:
        return 0, {"maximal": harmonic.maximal_function(tree)}
    return (0 if rep["holds"] else 1), rep


def cmd_characters(args) -> tuple[int, dict]:
    from . import characters

    if args.gram is not None:
        n = args.gram
        g = characters.gram_exact(n)
        identity = all(g[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))
        return (0 if identity else 1), {"gram_is_identity": identity, "n": n}
    table = characters.character_table(args.table)
    return 0, {"n": args.table, "table": [[v.turn for v in row] for row in table]}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ultrametric")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hensel", help="root lifting over Z_p")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--coeffs", type=rationals, required=True,
                   help="constant term first, comma separated")
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--prec", type=int, default=10)
    p.add_argument("--variant", choices=("v1", "v2"), default="v2")
    p.set_defaults(func=cmd_hensel)

    p = sub.add_parser("padic", help="p-adic absolute values, arithmetic, series")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--prec", type=int, default=10)
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--abs", type=rational)
    op.add_argument("--geom", type=rational)
    op.add_argument("--add", type=rational, nargs=2)
    op.add_argument("--mul", type=rational, nargs=2)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("radic", help="mixed-radix integers")
    p.add_argument("--radix", type=ints, required=True)
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--embed", type=int)
    op.add_argument("--abs", type=int)
    op.add_argument("--preceq", type=ints)
    op.add_argument("--project", type=ints)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--depth", type=int, default=64)
    p.set_defaults(func=cmd_radic)

    p = sub.add_parser("hausdorff", help="contents and dimension on Cantor products")
    p.add_argument("--factors", type=ints, required=True)
    p.add_argument("--scales", default="reciprocal")
    p.add_argument("--alpha", type=rational, default="1")
    p.add_argument("--delta", type=rational)
    p.add_argument("--dimension", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("audit", help="doubling and isometry audits")
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--factors", type=ints)
    op.add_argument("--isometry", type=ints, help="radix digits, comma separated")
    p.add_argument("--scales", default="reciprocal")
    p.add_argument("--candidate", type=int)
    p.add_argument("--measure-weights", type=weight_levels, help='per level "a/b,c/d;..."')
    p.add_argument("--seed", type=int, default=0, help="of the isometry's sampled pairs")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("maximal", help="maximal functions on weighted trees")
    p.add_argument("--tree", required=True, help="JSON file {spec, mu, nu}")
    op = p.add_mutually_exclusive_group()
    op.add_argument("--weak-type", type=rational)
    op.add_argument("--lp", type=rational, nargs=2, metavar=("P", "A"))
    op.add_argument("--doob", type=rational)
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("characters", help="character tables and Gram matrices")
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--table", type=int)
    op.add_argument("--gram", type=int)
    p.set_defaults(func=cmd_characters)

    return top


# flags whose values may be negative numbers, with the number of values each takes
_NUMERIC_FLAGS = {"--coeffs": 1, "--abs": 1, "--geom": 1, "--delta": 1, "--alpha": 1,
                  "--add": 2, "--mul": 2, "--weak-type": 1, "--lp": 2, "--doob": 1}


def _mark_dash_values(argv: list[str]) -> list[str]:
    """Prefix a space to flag values that begin with a dash (such as
    --coeffs -17,0,1 or --add -3/5 1): argparse reads a token holding a
    space as a value, never as an option, and int() and Fraction() ignore
    the space."""
    out = []
    i = 0
    while i < len(argv):
        out.append(argv[i])
        n = _NUMERIC_FLAGS.get(argv[i], 0)
        i += 1
        for value in argv[i : i + n]:
            if value.startswith("--"):
                break
            out.append(" " + value if value.startswith("-") else value)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_mark_dash_values(list(argv)))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code, report = args.func(args)
        # a report integer past Python's int-to-str limit raises ValueError here
        _emit(report)
    except (UltrametricError, ValueError, OSError) as e:  # JSONDecodeError is a ValueError
        print(str(e), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
