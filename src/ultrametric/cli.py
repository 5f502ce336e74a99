"""Command-line front end: wires JSON/flag configs to the module operations.

Exit codes: 0 = verified or solved, 1 = a property was refuted (the report
carries a witness), 2 = invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf

from . import audit, cantor, characters, harmonic, hensel, padic, radic
from .errors import NotComparable, UltrametricError

SCHEMA = "1"
DEFAULT_SEED = 0


def _frac(s: str) -> Fraction:
    return Fraction(s)


def _emit(report: dict, fmt: str = "json") -> None:
    report = {"schema": SCHEMA, **report}
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")


def _parse_coeffs(s: str) -> list[Fraction]:
    return [Fraction(c.strip()) for c in s.split(",")]


def cmd_hensel(args) -> int:
    f = hensel.ZpPoly.from_rationals(_parse_coeffs(args.coeffs), args.prime, args.prec)
    x0 = padic.PAdicInt(args.prime, args.prec, args.x0)
    if args.variant == "v1":
        root, trace = hensel.hensel_v1(f, x0, args.prec)
    else:
        root, trace = hensel.hensel_v2(f, x0, args.prec)
    _emit(
        {
            "root": f"{root.residue} mod {args.prime ** args.prec}",
            "residue": str(root.residue),
            "modulus": str(args.prime**args.prec),
            "trace_exponents": trace.residual_exponents(args.prime),
        },
        args.format,
    )
    return 0


def cmd_padic(args) -> int:
    if args.abs is not None:
        _emit({"abs": str(padic.abs_p(Fraction(args.abs), args.prime))}, args.format)
        return 0
    if args.geom is not None:
        y = padic.PAdicScalar.from_rational(Fraction(args.geom), args.prime, args.prec)
        s = padic.geometric_sum(y)
        _emit({"geometric_sum": repr(s)}, args.format)
        return 0
    if args.add:
        a, b = (padic.padic_from_rational(Fraction(x), args.prime, args.prec) for x in args.add)
        _emit({"sum": str((a + b).residue), "modulus": str(a.modulus)}, args.format)
        return 0
    if args.mul:
        a, b = (padic.padic_from_rational(Fraction(x), args.prime, args.prec) for x in args.mul)
        _emit({"product": str((a * b).residue), "modulus": str(a.modulus)}, args.format)
        return 0
    raise UltrametricError("no padic operation requested")


def cmd_radic(args) -> int:
    r = radic.Radix(tuple(int(x) for x in args.radix.split(",")))
    if args.embed is not None:
        seq = radic.embed_q(args.embed, r)
        _emit({"sequence": [str(x) for x in seq]}, args.format)
        return 0
    if args.abs is not None:
        l, a = radic.lr_and_abs(args.abs, r)
        _emit({"valuation": "saturated" if l is None else l, "abs": str(a)}, args.format)
        return 0
    if args.preceq is not None:
        r2 = radic.Radix(tuple(int(x) for x in args.preceq.split(",")), periodic=args.periodic)
        try:
            w = radic.preceq(r, r2, args.depth)
        except NotComparable as e:
            _emit({"holds": False, "reason": e.reason, "search_depth": e.search_depth,
                   "level": e.level, "modulus": str(e.modulus)}, args.format)
            return 1
        _emit({"holds": True, "witness": {str(k): v for k, v in w.witnesses.items()}}, args.format)
        return 0
    if args.project is not None:
        r2 = radic.Radix(tuple(int(x) for x in args.project.split(",")))
        x = radic.RadicInt(r2, args.residue)
        y = radic.project(x, r, args.depth)
        _emit({"residue": str(y.residue), "modulus": str(r.modulus)}, args.format)
        return 0
    raise UltrametricError("no radic operation requested")


def _spec_from_args(args) -> cantor.ProductSpec:
    factors = tuple(int(x) for x in args.factors.split(","))
    if args.scales == "reciprocal":
        return cantor.ProductSpec.reciprocal(factors)
    if args.scales.startswith("geometric:"):
        return cantor.ProductSpec.geometric(factors, Fraction(args.scales.split(":", 1)[1]))
    scales = tuple(Fraction(s) for s in args.scales.split(","))
    return cantor.ProductSpec(factors, scales)


def cmd_hausdorff(args) -> int:
    spec = _spec_from_args(args)
    if args.dimension:
        lo, hi = cantor.dimension_estimate(spec, args.tolerance)
        _emit({"dimension_interval": [lo, hi]}, args.format)
        return 0
    gauge = cantor.Gauge.power(Fraction(args.alpha))
    value = cantor.hausdorff_content(
        spec,
        [cantor.Cylinder(())],
        gauge,
        delta=None if args.delta is None else Fraction(args.delta),
    )
    report = {"content": str(value)}
    if isinstance(value, float) and value != inf:
        # some t^alpha fell back to a float, so the DP summed floats
        report["exact"] = False
    _emit(report, args.format)
    return 0


def cmd_audit(args) -> int:
    if args.isometry is not None:
        r = radic.Radix(tuple(int(x) for x in args.isometry.split(",")))
        rep = audit.build_radic_isometry(r, seed=args.seed)
        ok = rep["bijective"] and rep["isometric"] and rep["pushforward_uniform"]
        _emit(
            {
                "seed": args.seed,
                "bijective": rep["bijective"],
                "isometric": rep["isometric"],
                "pushforward_uniform": rep["pushforward_uniform"],
                "pairs_checked": rep["pairs_checked"],
            },
            args.format,
        )
        return 0 if ok else 1
    if args.factors is None:
        raise UltrametricError("audit needs --factors or --isometry")
    spec = _spec_from_args(args)
    if args.measure_weights:
        weights = tuple(
            tuple(Fraction(w) for w in level.split(","))
            for level in args.measure_weights.split(";")
        )
        mu = cantor.ProductMeasure(weights)
        rep = audit.doubling_measure(spec, mu, args.candidate)
        c2 = audit.ratio_c2(spec, mu)
        out = rep.to_json()
        out["ratio_c2"] = "infinite" if c2 is None else str(c2)
        out["seed"] = args.seed
        _emit(out, args.format)
    else:
        rep = audit.doubling_metric(spec, args.candidate)
        out = rep.to_json()
        out["seed"] = args.seed
        _emit(out, args.format)
    return 0 if rep.verdict else 1


def _tree_from_json(path: str) -> harmonic.FiniteUltraTree:
    with open(path) as fh:
        obj = json.load(fh)
    spec = cantor.ProductSpec(
        tuple(obj["spec"]["factors"]), tuple(Fraction(s) for s in obj["spec"]["scales"])
    )
    return harmonic.FiniteUltraTree(
        spec,
        tuple(Fraction(w) for w in obj["mu"]),
        tuple(Fraction(w) for w in obj["nu"]),
    )


def _verdict(rep: dict) -> dict:
    """A report with ``holds`` as a boolean and every other value as a string."""
    return {k: v if k == "holds" else str(v) for k, v in rep.items()}


def cmd_maximal(args) -> int:
    tree = _tree_from_json(args.tree)
    if args.weak_type is not None:
        rep = harmonic.weak_type_verify(tree, Fraction(args.weak_type))
        _emit(_verdict(rep), args.format)
        return 0 if rep["holds"] else 1
    if args.lp is not None:
        p, a = (Fraction(x) for x in args.lp)
        f = [nu / mu for nu, mu in zip(tree.nu, tree.mu)]
        rep = harmonic.lp_maximal_bound(f, tree, p, a)
        _emit(_verdict(rep), args.format)
        return 0 if rep["holds"] else 1
    if args.doob is not None:
        f = [nu / mu for nu, mu in zip(tree.nu, tree.mu)]
        filt = harmonic.Filtration.dyadic(tree.spec)
        rep = harmonic.martingale_maximal(f, filt, list(tree.mu), Fraction(args.doob))
        _emit({"holds": rep["holds"]}, args.format)
        return 0 if rep["holds"] else 1
    values = harmonic.maximal_function(tree)
    _emit({"maximal": [str(v) for v in values]}, args.format)
    return 0


def cmd_characters(args) -> int:
    if args.table is None and args.gram is None:
        raise UltrametricError("characters needs --table or --gram")
    if args.gram is not None:
        g = characters.gram_exact(args.gram)
        identity = all(
            g[i][j] == (1 if i == j else 0) for i in range(args.gram) for j in range(args.gram)
        )
        _emit({"gram_is_identity": identity, "n": args.gram}, args.format)
        return 0 if identity else 1
    table = characters.character_table(args.table)
    _emit(
        {"n": args.table, "table": [[str(v.turn) for v in row] for row in table]},
        args.format,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ultrametric")
    top.add_argument("--format", choices=("json", "table"), default="json")
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hensel", help="root lifting over Z_p")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--coeffs", required=True, help="constant term first, comma separated")
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--prec", type=int, default=10)
    p.add_argument("--variant", choices=("v1", "v2"), default="v2")
    p.set_defaults(func=cmd_hensel)

    p = sub.add_parser("padic", help="p-adic absolute values, arithmetic, series")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--prec", type=int, default=10)
    p.add_argument("--abs")
    p.add_argument("--geom")
    p.add_argument("--add", nargs=2)
    p.add_argument("--mul", nargs=2)
    p.set_defaults(func=cmd_padic)

    p = sub.add_parser("radic", help="mixed-radix integers")
    p.add_argument("--radix", required=True)
    p.add_argument("--embed", type=int)
    p.add_argument("--abs", type=int)
    p.add_argument("--preceq")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--project")
    p.add_argument("--residue", type=int, default=0)
    p.add_argument("--depth", type=int, default=64)
    p.set_defaults(func=cmd_radic)

    p = sub.add_parser("hausdorff", help="contents and dimension on Cantor products")
    p.add_argument("--factors", required=True)
    p.add_argument("--scales", default="reciprocal")
    p.add_argument("--alpha", default="1")
    p.add_argument("--delta")
    p.add_argument("--dimension", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("audit", help="doubling and isometry audits")
    p.add_argument("--factors")
    p.add_argument("--scales", default="reciprocal")
    p.add_argument("--candidate", type=int)
    p.add_argument("--measure-weights", help='per level "a/b,c/d;..." weights')
    p.add_argument("--isometry", help="radix digits, comma separated")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("maximal", help="maximal functions on weighted trees")
    p.add_argument("--tree", required=True, help="JSON file {spec, mu, nu}")
    p.add_argument("--weak-type")
    p.add_argument("--lp", nargs=2, metavar=("P", "A"))
    p.add_argument("--doob")
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("characters", help="character tables and Gram matrices")
    p.add_argument("--table", type=int)
    p.add_argument("--gram", type=int)
    p.set_defaults(func=cmd_characters)

    return top


# flags whose values may be negative numbers, with the number of values each takes
_NUMERIC_FLAGS = {
    "--coeffs": 1, "--abs": 1, "--geom": 1, "--delta": 1, "--alpha": 1, "--add": 2, "--mul": 2,
}


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
        return args.func(args)
    except (UltrametricError, ValueError, OSError, json.JSONDecodeError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
