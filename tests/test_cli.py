import argparse
import ast
import json
import time
from dataclasses import dataclass
from math import log
from fractions import Fraction
from math import inf

import pytest

from ultrametric import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def test_hensel_example(capsys):
    code, out, _ = run(
        capsys, "hensel", "--prime", "2", "--coeffs", "-17,0,1", "--x0", "1", "--prec", "5"
    )
    assert code == 0
    rep = last_json(out)
    assert rep["root"] == "9 mod 32"
    assert rep["schema"] == "1"


def test_hensel_invalid_prime(capsys):
    code, _, err = run(
        capsys, "hensel", "--prime", "4", "--coeffs", "-17,0,1", "--x0", "1"
    )
    assert code == 2
    assert "4" in err


def test_hensel_zero_derivative_is_not_reported_as_a_valuation(capsys):
    # f = x^2 - 2 at x0 = 0: f'(0) = 0, which the capped valuation once
    # printed as |f'(x0)|_p^2 = p^-22 (p^-62 at --prec 30)
    for prec, probe in (((), 11), (("--prec", "30"), 31)):
        code, out, err = run(
            capsys, "hensel", "--prime", "2", "--coeffs", "-2,0,1", "--x0", "0", *prec
        )
        assert code == 2 and out == ""
        assert f"f'(x0) = 0 mod p^{probe}" in err
        assert f"p^-{2 * probe}" not in err


def test_padic_abs(capsys):
    code, out, _ = run(capsys, "padic", "--prime", "2", "--abs", "12")
    assert code == 0
    assert last_json(out)["abs"] == "1/4"


def test_padic_add_mul(capsys):
    code, out, _ = run(capsys, "padic", "--prime", "3", "--prec", "2", "--add", "4", "7")
    assert code == 0
    assert last_json(out)["sum"] == "2"
    code, out, _ = run(capsys, "padic", "--prime", "3", "--prec", "2", "--mul", "4", "7")
    assert last_json(out)["product"] == str(28 % 9)


def test_padic_negative_operands(capsys):
    code, out, _ = run(capsys, "padic", "--prime", "3", "--prec", "2", "--add", "-3/5", "1")
    assert code == 0
    assert last_json(out)["sum"] == str(2 * pow(5, -1, 9) % 9)
    code, out, _ = run(capsys, "padic", "--prime", "3", "--prec", "2", "--mul", "-4", "-1/2")
    assert code == 0
    assert last_json(out)["product"] == str(2)


def test_padic_no_operation(capsys):
    code, _, err = run(capsys, "padic", "--prime", "3")
    assert code == 2


def test_radic_embed_and_abs(capsys):
    code, out, _ = run(capsys, "radic", "--radix", "2,3,2", "--embed", "7")
    assert code == 0
    assert last_json(out)["sequence"] == ["1", "1", "7"]
    code, out, _ = run(capsys, "radic", "--radix", "2,3,2", "--abs", "6")
    rep = last_json(out)
    assert rep["valuation"] == 2 and rep["abs"] == "1/6"


def test_radic_preceq_and_project(capsys):
    code, out, _ = run(
        capsys, "radic", "--radix", "2,2", "--preceq", "4,4", "--depth", "8"
    )
    assert code == 0 and last_json(out)["holds"]
    code, out, _ = run(
        capsys,
        "radic",
        "--radix",
        "2,2",
        "--project",
        "2,2,2",
        "--residue",
        "5",
        "--depth",
        "8",
    )
    assert code == 0
    assert last_json(out) == {"schema": "1", "residue": "1", "modulus": "4"}


def test_radic_preceq_refuted_exits_1_with_witness(capsys):
    # 5 divides no prefix product of 2,3
    code, out, err = run(capsys, "radic", "--radix", "2,3", "--preceq", "5,5")
    assert code == 1 and err == ""
    assert last_json(out) == {
        "schema": "1", "holds": False, "reason": "coprime", "search_depth": 2,
        "level": 1, "modulus": "2",
    }
    # R_1 = 8 needs three periods of 2; a search of depth 2 runs out first
    code, out, _ = run(
        capsys, "radic", "--radix", "8", "--preceq", "2", "--periodic", "--depth", "2"
    )
    assert code == 1
    assert last_json(out) == {
        "schema": "1", "holds": False, "reason": "search-exhausted", "search_depth": 2,
        "level": 1, "modulus": "8",
    }
    code, out, _ = run(
        capsys, "radic", "--radix", "8", "--preceq", "2", "--periodic", "--depth", "3"
    )
    assert code == 0 and last_json(out)["witness"] == {"1": 3}


def test_hausdorff_content_and_dimension(capsys):
    code, out, _ = run(
        capsys, "hausdorff", "--factors", "2,2,2", "--scales", "geometric:1/2"
    )
    assert code == 0 and last_json(out)["content"] == "1"
    code, out, _ = run(
        capsys,
        "hausdorff",
        "--factors",
        "2,2,2,2,2,2,2,2,2,2",
        "--scales",
        "geometric:1/2",
        "--dimension",
    )
    lo, hi = (float(x) for x in last_json(out)["dimension_interval"])
    assert lo <= 1.0 <= hi + 1e-6


def test_hausdorff_dimension_of_deep_products(capsys):
    # 16^-300 underflowed the float bisection to [0.0, 9.5e-07], and 5^500
    # overflowed it into a traceback
    twos, fives = ",".join(["2"] * 300), ",".join(["5"] * 500)
    code, out, _ = run(capsys, "hausdorff", "--factors", twos, "--scales", "geometric:1/16",
                       "--dimension")
    assert code == 0 and last_json(out)["dimension_interval"] == [0.25, 0.25]
    code, out, _ = run(capsys, "hausdorff", "--factors", fives, "--scales", "geometric:1/16",
                       "--dimension")
    lo, hi = last_json(out)["dimension_interval"]
    assert code == 0 and lo < log(5) / log(16) < hi


def test_hausdorff_report_says_when_content_is_a_bracket(capsys):
    # (1/3)^(3/4) is irrational: the content 8 3^(-9/4) (eight balls of
    # depth 3) is a rational bracket, and the report says it is not exact
    code, out, _ = run(
        capsys, "hausdorff", "--factors", "2,2,2", "--scales", "geometric:1/3",
        "--alpha", "3/4",
    )
    assert code == 0
    rep = last_json(out)
    assert rep["exact"] is False
    lo, hi = map(Fraction, rep["content"])
    assert lo < hi and lo**4 * 3**9 <= 8**4 <= hi**4 * 3**9
    # exact contents, and the infinite content of a cover-free delta, keep
    # the report without the key
    code, out, _ = run(
        capsys, "hausdorff", "--factors", "2,2,2", "--scales", "geometric:1/9",
        "--alpha", "1/2",
    )
    assert code == 0
    assert out == '{"content": "8/27", "schema": "1"}'
    code, out, _ = run(capsys, "hausdorff", "--factors", "2,2,2", "--delta", "0")
    assert code == 0
    assert out == '{"content": "inf", "schema": "1"}'


def test_audit_metric_verdicts(capsys):
    code, out, _ = run(
        capsys, "audit", "--factors", "2,2,2", "--scales", "geometric:1/2"
    )
    assert code == 0 and last_json(out)["verdict"]
    code, out, _ = run(
        capsys,
        "audit",
        "--factors",
        "3,4,5,6",
        "--scales",
        "reciprocal",
        "--candidate",
        "4",
    )
    assert code == 1
    assert not last_json(out)["verdict"]


def test_audit_isometry(capsys):
    code, out, _ = run(capsys, "audit", "--isometry", "2,3")
    assert code == 0
    rep = last_json(out)
    assert rep["isometric"] and rep["pairs_checked"] == 36


def test_audit_measure(capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--factors",
        "2,2",
        "--scales",
        "geometric:1/2",
        "--measure-weights",
        "1/2,1/2;1/2,1/2",
    )
    assert code == 0
    assert last_json(out)["ratio_c2"] == "2"


TREE = {
    "spec": {
        "factors": [2, 2, 2],
        "scales": ["1", "1/2", "1/4", "1/8"],
    },
    "mu": ["1/8"] * 8,
    "nu": ["1", "0", "0", "0", "0", "0", "0", "0"],
}
# fractional weights on mixed branching
TREE2 = {
    "spec": {"factors": [2, 3], "scales": ["1", "1/2", "1/6"]},
    "mu": ["1/12", "1/6", "1/4", "1/12", "1/4", "1/6"],
    "nu": ["1/3", "0", "2/5", "1", "0", "3/7"],
}


def tree_file(tmp_path, obj=TREE, name="tree.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_maximal_and_weak_type(capsys, tmp_path):
    path = tree_file(tmp_path)
    code, out, _ = run(capsys, "maximal", "--tree", path)
    assert code == 0
    assert last_json(out)["maximal"] == ["8", "4", "2", "2", "1", "1", "1", "1"]
    code, out, _ = run(capsys, "maximal", "--tree", path, "--weak-type", "3")
    assert code == 0 and last_json(out)["holds"] is True
    code, out, _ = run(capsys, "maximal", "--tree", path, "--lp", "2", "1/2")
    assert code == 0
    code, out, _ = run(capsys, "maximal", "--tree", path, "--doob", "3")
    assert code == 0 and last_json(out)["holds"]


def test_maximal_missing_file(capsys):
    code, _, err = run(capsys, "maximal", "--tree", "/nonexistent/tree.json")
    assert code == 2


def test_characters_table_and_gram(capsys):
    code, out, _ = run(capsys, "characters", "--gram", "4")
    assert code == 0 and last_json(out)["gram_is_identity"]
    code, out, _ = run(capsys, "characters", "--table", "2")
    rep = last_json(out)
    assert rep["table"] == [["0", "0"], ["0", "1/2"]]


def test_characters_no_operation(capsys):
    code, out, err = run(capsys, "characters")
    assert code == 2 and out == "" and "one of the arguments --table --gram is required" in err


def test_audit_no_operation(capsys):
    code, out, err = run(capsys, "audit")
    assert code == 2 and out == "" and "one of the arguments --factors --isometry is required" in err


@pytest.mark.parametrize("argv, message", [
    # two operations: the first in code order once ran and the other was dropped
    ("padic --prime 7 --abs 3 --geom 7", "argument --geom: not allowed with argument --abs"),
    ("radic --radix 2,3 --embed 5 --abs 6", "argument --abs: not allowed with argument --embed"),
    ("audit --isometry 2,3 --factors 2,2", "argument --factors: not allowed with argument --isometry"),
    ("characters --gram 4 --table 3", "argument --table: not allowed with argument --gram"),
    ("maximal --tree {tree} --weak-type 3 --doob 3", "argument --doob: not allowed with argument"),
    # no operation
    ("padic --prime 3", "one of the arguments --abs --geom --add --mul is required"),
    ("radic --radix 2,3", "one of the arguments --embed --abs --preceq --project is required"),
    ("audit", "one of the arguments --factors --isometry is required"),
    ("characters", "one of the arguments --table --gram is required"),
])
def test_each_invocation_runs_exactly_one_operation(capsys, tmp_path, argv, message):
    code, out, err = run(capsys, *argv.format(tree=tree_file(tmp_path)).split())
    assert code == 2 and out == ""
    assert message in err


def test_numeric_flags_cover_every_rational_flag(capsys, tmp_path):
    # a flag typed rational must be in _NUMERIC_FLAGS with its count of values,
    # or argparse reads a negative value such as -1/2 as an option
    top = cli.build_parser()
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    rational_flags = {
        flag: action.nargs or 1
        for parser in subparsers.choices.values() for action in parser._actions
        if action.type in (cli.rational, cli.rationals) for flag in action.option_strings
    }
    assert {"--coeffs", "--weak-type", "--lp", "--doob"} <= rational_flags.keys()
    assert rational_flags.items() <= cli._NUMERIC_FLAGS.items()
    # so a negative value reaches the check that refuses it
    path = tree_file(tmp_path)
    for flag, message in (("--weak-type", "t must be positive"), ("--doob", "t must be positive")):
        code, out, err = run(capsys, "maximal", "--tree", path, flag, "-1/2")
        assert code == 2 and out == "" and err == message
    code, _, err = run(capsys, "maximal", "--tree", path, "--lp", "2", "-1/2")
    assert code == 2 and err == "need 0 < a < 1"


def test_bad_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_only_audit_takes_a_seed(capsys):
    # the isometry's sampled pairs are the one draw a subcommand makes
    top = cli.build_parser()
    subparsers = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    takers = {name for name, parser in subparsers.choices.items()
              if any("--seed" in action.option_strings for action in parser._actions)}
    assert takers == {"audit"}
    for argv in ("--seed 3 padic --prime 3 --abs 9", "padic --prime 3 --abs 9 --seed 3"):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "" and err


def test_reports_deterministic(capsys, tmp_path):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "audit", "--isometry", "2,3,2")
        runs.append(out)
    assert runs[0] == runs[1]


# The modules of the package that one invocation of each subcommand loads,
# besides the package and cli: each cmd_* imports only the modules it calls.
SUBCOMMAND_MODULES = [
    ("hensel --prime 2 --coeffs -17,0,1 --x0 1 --prec 5", {"errors", "padic", "hensel"}),
    ("padic --prime 2 --abs 12", {"errors", "padic"}),
    ("radic --radix 2,3 --preceq 5,5", {"errors", "radic"}),
    ("hausdorff --factors 2,2,2 --scales geometric:1/3", {"errors", "radic", "cantor"}),
    ("audit --isometry 2,3", {"errors", "radic", "cantor", "audit"}),
    ("maximal --tree {tree} --doob 3", {"errors", "radic", "cantor", "harmonic"}),
    ("characters --gram 4", {"errors", "padic", "characters"}),
]


def test_each_subcommand_loads_only_its_modules(tmp_path):
    # one fresh process per subcommand; only characters.gram_float needs
    # numpy, and it imports it when called
    import os
    import subprocess
    import sys

    import ultrametric

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    child = (
        "import json, sys\n"
        "from ultrametric import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('ultrametric.')),"
        " 'numpy' in sys.modules]))\n"
    )
    assert sorted(argv.split()[0] for argv, _ in SUBCOMMAND_MODULES) == sorted(
        name[4:] for name in vars(cli) if name.startswith("cmd_")
    )
    for argv, modules in SUBCOMMAND_MODULES:
        out = subprocess.run(
            [sys.executable, "-c", child, *argv.format(tree=tree_file(tmp_path)).split()],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        code, loaded, numpy = json.loads(out.splitlines()[-1])
        assert code in (0, 1), argv
        assert set(loaded) == {"ultrametric.cli"} | {f"ultrametric.{m}" for m in modules}, argv
        assert not numpy, argv


def test_values_are_refused_before_any_module_loads():
    # every value is typed in build_parser, so a refused one never reaches the
    # cmd_* imports
    import os
    import subprocess
    import sys

    import ultrametric

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    child = (
        "import sys\n"
        "from ultrametric import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('ultrametric.')))\n"
    )
    for argv in ("padic --prime 2 --abs 1/0", "audit --factors 2,x", "characters --table 3 --gram 4"):
        out = subprocess.run([sys.executable, "-c", child, *argv.split()], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "2 ['ultrametric.cli', 'ultrametric.errors']\n", argv


def test_report_past_the_int_to_str_limit_exits_2_without_a_traceback(capsys):
    # the content 8*3^-15000 has more than 4300 digits, Python's default
    # limit for int-to-str; exit 1 would read as "refuted"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "hausdorff", "--factors", "2,2,2", "--scales", "geometric:1/3", "--alpha", "5000"
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "limit" in err and "integer string conversion" in err


# Where the package may hold a float or take a float logarithm: the dimension
# in closed form, the numerical Gram cross-check, complex character values and
# the CLI's report formatting.  Everything else is exact or a rational bracket.
FLOAT_ALLOWED = {
    "cantor.dimension_estimate",
    "cantor._log_ratio",
    "characters.gram_float",
    "characters.TurnValue.complex",
}


def float_uses(source: str, module: str) -> set[str]:
    """Scopes (module.Class.function) that name ``float`` or a math log."""
    tree = ast.parse(source)
    logs = {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "math"
            for a in node.names if a.name.startswith("log")}
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if (isinstance(node, ast.Name) and (node.id == "float" or node.id in logs)
                or isinstance(node, ast.Attribute) and node.attr.startswith("log")
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_no_float_outside_the_allow_list():
    # the float power and the float bisection are gone; keep them out
    import pathlib

    import ultrametric

    found = set()
    for path in pathlib.Path(ultrametric.__file__).parent.glob("*.py"):
        if path.stem != "cli":
            found |= float_uses(path.read_text(), path.stem)
    assert found <= FLOAT_ALLOWED
    assert {"cantor.dimension_estimate", "characters.TurnValue.complex"} <= found
    assert float_uses("import math\ndef f(x):\n    return math.log(x)", "m") == {"m.f"}
    assert float_uses("from math import log1p as l\nclass C:\n    y = l(1)", "m") == {"m.C"}


def raised_names(source: str) -> set[str]:
    """Names of the exception types that the ``raise`` statements of source raise."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_type_is_raised():
    # an error type that no code raises is API that no caller can meet
    import pathlib

    import ultrametric
    from ultrametric import errors

    raised = set()
    for path in pathlib.Path(ultrametric.__file__).parent.glob("*.py"):
        raised |= raised_names(path.read_text())
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.UltrametricError)
             and obj is not errors.UltrametricError and obj.__module__ == errors.__name__}
    assert "CertificationFailed" in types and not types - raised, types - raised
    source = "def f():\n    raise errors.A('x') from None\n    raise B\n    raise\n"
    assert raised_names(source) == {"A", "B"}


def unused_imports(source: str) -> set[str]:
    """Names that an import in the body of the module or of a function binds
    and that nothing in that module or function reads."""
    tree = ast.parse(source)
    found = set()
    for scope in [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for stmt in scope.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(
                    stmt, "module", None) != "__future__":
                found |= {a.asname or a.name.split(".")[0] for a in stmt.names} - read
    return found


def private_names_never_read(sources: list[str]) -> set[str]:
    """Private functions, classes and module constants (one leading underscore)
    defined in the sources that no source reads, by name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
        defined |= {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
                    for t in stmt.targets if isinstance(t, ast.Name)}
    return {n for n in defined - read if n.startswith("_") and not n.startswith("__")}


def test_every_import_is_used_and_every_private_helper_is_called():
    # what a deletion tends to leave behind: an import of what it deleted,
    # and a helper whose one caller it deleted
    import pathlib

    import ultrametric

    sources = {path.stem: path.read_text()
               for path in pathlib.Path(ultrametric.__file__).parent.glob("*.py")}
    assert {stem: unused_imports(s) for stem, s in sources.items() if unused_imports(s)} == {}
    assert private_names_never_read(list(sources.values())) == set()
    source = ("from __future__ import annotations\nimport os.path\nfrom math import lcm, prod\n"
              "_CAP = 3\ndef f():\n    from . import padic\n    return lcm(os.sep)\n"
              "def _g():\n    return _CAP\n")
    assert unused_imports(source) == {"prod", "padic"}
    assert private_names_never_read([source]) == {"_g"}


def imports_module(source: str, module: str) -> bool:
    """Whether an import anywhere in the source loads the module or a submodule."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            return True
    return False


def test_random_is_imported_only_by_the_two_samplers_the_benchmark_pins():
    # a sampled check belongs in the tests; the two left in src/ are the
    # isometry's pairs, whose count bench/checks.py pins, and the probes of
    # linalg.zp_invertibility, whose seed bench/workloads.py passes
    import pathlib

    import ultrametric

    importers = {path.stem for path in pathlib.Path(ultrametric.__file__).parent.glob("*.py")
                 if imports_module(path.read_text(), "random")}
    assert importers == {"audit", "linalg"}
    for source in ("import random", "def f():\n    from random import Random",
                   "import os, random.x"):
        assert imports_module(source, "random")
    for source in ("import randomness", "from . import random", "from numpy import random"):
        assert not imports_module(source, "random")


# Exit code and stdout of each subcommand branch, as printed before every
# report went through cli.encode; the two --lp reports differ, whose lhs and
# rhs were floats and are now the exact bracket ends, and so do the --alpha
# 3/4 content, a float once and now a rational bracket, and the two
# --dimension intervals, once a float bisection and now the closed form.
# The --preceq rows with --depth 100000 and with the prime 10^18 + 3 pin
# refutations that must neither search nor factor.
# "{tree}" and "{tree2}" name files holding TREE and TREE2.
GOLDEN = [
    ('hensel --prime 7 --coeffs -2,0,1 --x0 3 --prec 6 --variant v1', 0,
     '{"modulus": "117649", "residue": "38181", "root": "38181 mod 117649", "schema": "1", "trace_exponents": [1, 2, 4, null]}'),
    ('hensel --prime 2 --coeffs -17,0,1 --x0 1 --prec 5', 0,
     '{"modulus": "32", "residue": "9", "root": "9 mod 32", "schema": "1", "trace_exponents": [4, null]}'),
    ('hensel --prime 2 --coeffs -17,0,1 --x0 1 --prec 5 --variant v1', 2,
     ''),
    ('hensel --prime 2 --coeffs -2,0,1 --x0 0', 2,
     ''),
    ('padic --prime 2 --abs 12', 0,
     '{"abs": "1/4", "schema": "1"}'),
    ('padic --prime 3 --abs -5/18', 0,
     '{"abs": "9", "schema": "1"}'),
    ('padic --prime 3 --prec 6 --geom 3/2', 0,
     '{"geometric_sum": "3^0 * (727 mod 3^6)", "schema": "1"}'),
    ('padic --prime 5 --prec 4 --geom -5', 0,
     '{"geometric_sum": "5^0 * (521 mod 5^4)", "schema": "1"}'),
    ('padic --prime 3 --prec 2 --add 4 7', 0,
     '{"modulus": "9", "schema": "1", "sum": "2"}'),
    ('padic --prime 3 --prec 2 --add -3/5 1', 0,
     '{"modulus": "9", "schema": "1", "sum": "4"}'),
    ('padic --prime 3 --prec 2 --mul -4 -1/2', 0,
     '{"modulus": "9", "product": "2", "schema": "1"}'),
    ('radic --radix 2,3,2 --embed 7', 0,
     '{"schema": "1", "sequence": ["1", "1", "7"]}'),
    ('radic --radix 2,3,2 --abs 6', 0,
     '{"abs": "1/6", "schema": "1", "valuation": 2}'),
    ('radic --radix 2,3,2 --abs 0', 0,
     '{"abs": "0", "schema": "1", "valuation": "saturated"}'),
    ('radic --radix 2,3,2 --abs 24', 0,
     '{"abs": "0", "schema": "1", "valuation": "saturated"}'),
    ('radic --radix 2,2,2,2,2,2,2,2,2,2,2,2 --preceq 4,4,4,4,4,4,4', 0,
     '{"holds": true, "schema": "1", "witness": {"1": 1, "10": 5, "11": 6, "12": 6, "2": 1, "3": 2, "4": 2, "5": 3, "6": 3, "7": 4, "8": 4, "9": 5}}'),
    ('radic --radix 2,3 --preceq 5,5', 1,
     '{"holds": false, "level": 1, "modulus": "2", "reason": "coprime", "schema": "1", "search_depth": 2}'),
    ('radic --radix 8 --preceq 2 --periodic --depth 2', 1,
     '{"holds": false, "level": 1, "modulus": "8", "reason": "search-exhausted", "schema": "1", "search_depth": 2}'),
    ('radic --radix 2,3 --preceq 2 --periodic --depth 100000', 1,
     '{"holds": false, "level": 2, "modulus": "6", "reason": "coprime", "schema": "1", "search_depth": 100000}'),
    ('radic --radix 2 --preceq 1000000000000000003', 1,
     '{"holds": false, "level": 1, "modulus": "2", "reason": "coprime", "schema": "1", "search_depth": 1}'),
    ('radic --radix 2,2 --project 2,2,2 --residue 5 --depth 8', 0,
     '{"modulus": "4", "residue": "1", "schema": "1"}'),
    ('hausdorff --factors 2,2,2 --scales geometric:1/2', 0,
     '{"content": "1", "schema": "1"}'),
    ('hausdorff --factors 2,2,2 --scales geometric:1/9 --alpha 1/2', 0,
     '{"content": "8/27", "schema": "1"}'),
    ('hausdorff --factors 2,2,2 --scales geometric:1/3 --alpha 3/4', 0,
     '{"content": ["12459106161143598759/18446744073709551616", "24918212322287197519/36893488147419103232"], "exact": false, "schema": "1"}'),
    ('hausdorff --factors 2,2 --scales 1,1/9,1/81 --alpha 1/2', 0,
     '{"content": "4/9", "schema": "1"}'),
    ('hausdorff --factors 2,2,2 --delta 0', 0,
     '{"content": "inf", "schema": "1"}'),
    ('hausdorff --factors 2,3,2 --delta 1/6', 0,
     '{"content": "1", "schema": "1"}'),
    ('hausdorff --factors 2,2,2,2,2,2,2,2,2,2 --scales geometric:1/2 --dimension', 0,
     '{"dimension_interval": [1.0, 1.0], "schema": "1"}'),
    ('hausdorff --factors 2,3,2 --scales geometric:1/5 --dimension --tolerance 1e-9', 0,
     '{"dimension_interval": [0.4306765580730013, 0.4306765580737847], "schema": "1"}'),
    ('audit --factors 2,2,2 --scales geometric:1/2', 0,
     '{"constant": "{\'factor_bound\': 2, \'scale_census\': 2}", "degenerate": false, "schema": "1", "verdict": true, "witness": null}'),
    ('audit --factors 3,4,5,6 --candidate 4', 1,
     '{"constant": "{\'factor_bound\': 6, \'scale_census\': 1}", "degenerate": false, "schema": "1", "verdict": false, "witness": {"kind": "factor", "level": 4}}'),
    ('audit --factors 2,2 --scales geometric:1/2 --measure-weights 1/2,1/2;1/2,1/2', 0,
     '{"constant": "{\'min_weight\': Fraction(1, 2), \'metric\': {\'factor_bound\': 2, \'scale_census\': 2}}", "degenerate": false, "ratio_c2": "2", "schema": "1", "verdict": true, "witness": null}'),
    ('audit --factors 2,2 --scales geometric:1/2 --measure-weights 1/3,2/3;1/2,1/2 --candidate 2', 1,
     '{"constant": "{\'min_weight\': Fraction(1, 3), \'metric\': {\'factor_bound\': 2, \'scale_census\': 2}}", "degenerate": false, "ratio_c2": "3", "schema": "1", "verdict": false, "witness": {"kind": "weight", "level": 1}}'),
    ('audit --factors 2,2 --measure-weights 1,0;1/2,1/2', 1,
     '{"constant": "{\'min_weight\': 0}", "degenerate": true, "ratio_c2": "infinite", "schema": "1", "verdict": false, "witness": null}'),
    ('audit --isometry 2,3', 0,
     '{"bijective": true, "isometric": true, "pairs_checked": 36, "pushforward_uniform": true, "schema": "1", "seed": 0}'),
    ('audit --isometry 2,4,8,16,8 --seed 7', 0,
     '{"bijective": true, "isometric": true, "pairs_checked": 2000, "pushforward_uniform": true, "schema": "1", "seed": 7}'),
    ('maximal --tree {tree}', 0,
     '{"maximal": ["8", "4", "2", "2", "1", "1", "1", "1"], "schema": "1"}'),
    ('maximal --tree {tree2}', 0,
     '{"maximal": ["4", "227/105", "227/105", "12", "20/7", "20/7"], "schema": "1"}'),
    ('maximal --tree {tree} --weak-type 3', 0,
     '{"C1": "1", "holds": true, "lhs": "1/4", "rhs": "1/3", "schema": "1"}'),
    ('maximal --tree {tree2} --weak-type 1/2', 0,
     '{"C1": "1", "holds": true, "lhs": "1", "rhs": "454/105", "schema": "1"}'),
    ('maximal --tree {tree} --lp 2 1/2', 0,
     '{"holds": true, "lhs": "23/2", "rhs": "64", "schema": "1"}'),
    ('maximal --tree {tree2} --lp 3/2 1/2', 0,
     '{"holds": true, "lhs": "1653016012403405422399/221360928884514619392", "rhs": "589260125393261048500/13043817825332782213", "schema": "1"}'),
    ('maximal --tree {tree} --doob 3', 0,
     '{"holds": true, "schema": "1"}'),
    ('maximal --tree {tree2} --doob 1/2', 0,
     '{"holds": true, "schema": "1"}'),
    ('characters --table 3', 0,
     '{"n": 3, "schema": "1", "table": [["0", "0", "0"], ["0", "1/3", "2/3"], ["0", "2/3", "1/3"]]}'),
    ('characters --gram 4', 0,
     '{"gram_is_identity": true, "n": 4, "schema": "1"}'),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, tmp_path, argv, code, stdout):
    trees = {"tree": tree_file(tmp_path), "tree2": tree_file(tmp_path, TREE2, "tree2.json")}
    assert cli.main(argv.format(**trees).split()) == code
    assert capsys.readouterr().out == (stdout + "\n" if stdout else "")


@pytest.mark.parametrize("argv", [
    # a level coprime to r' is refuted before any search, and from gcds:
    # 10^18 + 3 would take 10^9 trial divisions
    "radic --radix 2,3 --preceq 2 --periodic --depth 100000",
    "radic --radix 2 --preceq 1000000000000000003",
])
def test_radix_comparison_refutes_within_a_second(capsys, argv):
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 1


@pytest.mark.parametrize("argv", [
    "padic --prime 2 --abs 1/0",
    # strong pseudoprimes to the first 12 and 13 prime bases
    "padic --prime 318665857834031151167461 --abs 3",
    "padic --prime 3317044064679887385961981 --abs 3",
    # p and N are checked before v_p and p^N use them; v_p never ends for p = 1
    "padic --prime 1 --geom 1/5",
    "padic --prime 0 --geom 1/5",
    "padic --prime 5 --prec -1 --geom 1/5",
    "padic --prime 5 --prec 0 --geom 5",
    "hensel --prime 3 --coeffs 1/0,1 --x0 1",
    "hausdorff --factors 2,2 --alpha 1/0",
    "hausdorff --factors 2,2 --delta 1/0",
    "hausdorff --factors 2,2 --alpha -1",
    "hausdorff --factors 2,2 --dimension --tolerance nan",
    "hausdorff --factors 2,2 --scales geometric:1/3 --dimension --tolerance 0",
    "hausdorff --factors 2,2 --alpha 100001/100000",
    # x^c is refused above cantor.MAX_POWER_BITS bits before it is formed
    "hausdorff --factors 2,2,2 --scales geometric:1/3 --alpha 3000001/3",
    "hausdorff --factors 2,2,2 --scales geometric:1/3 --alpha 3000000",
    "maximal --tree {tree} --lp 100001/100000 1/2",
    "maximal --tree {empty}",
    "maximal --tree {list}",
    "maximal --tree {zero_denominator}",
    "characters --table 0",
    "characters --gram -1",
    "characters --gram 0",
    "characters --gram 5000",
    "audit --factors 2,2 --measure-weights 1/2,1/2",
    "audit --factors 2,2 --measure-weights 1/2,1/2;1/3,2/3;1,0,0",
    # p^N is refused above cli.MODULUS_BITS_CAP bits before it is formed
    "padic --prime 5 --prec 100000000 --add 1 2",
    "padic --prime 5 --prec 100000000 --geom 1/5",
    "hensel --prime 5 --coeffs -1,0,1 --x0 1 --prec 100000000",
])
def test_malformed_input_exits_2_without_a_report(capsys, tmp_path, argv):
    files = {
        "tree": tree_file(tmp_path),
        "empty": tree_file(tmp_path, {}, "empty.json"),
        "list": tree_file(tmp_path, [1, 2], "list.json"),
        "zero_denominator": tree_file(tmp_path, dict(TREE, nu=["1/0"] + TREE["nu"][1:]), "z.json"),
    }
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.format(**files).split())
    assert code == 2 and out == "" and err
    assert time.perf_counter() - start < 1  # a root of degree 10^5 is refused, not taken


@pytest.mark.parametrize("argv, value", [
    # a value that begins with a dash reaches argparse with a space before it
    ("padic --prime 3 --abs -1/0", "'-1/0'"),
    ("padic --prime 3 --add -1/0 1", "'-1/0'"),
    ("hensel --prime 3 --coeffs -x,1 --x0 1", "'-x'"),
    # --scales is parsed outside argparse, and main reports it
    ("hausdorff --factors 2,2 --scales 1,1/0,1/4", "'1/0'"),
])
def test_invalid_rational_is_quoted_as_typed(capsys, argv, value):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith(f"invalid rational value: {value}")


def test_tree_weight_of_infinity_or_nan_exits_2_without_a_traceback(capsys, tmp_path):
    # json reads Infinity and NaN as floats, which have no exact Fraction
    for value, shown in (("Infinity", "'inf'"), ("-Infinity", "'-inf'"), ("NaN", "'nan'")):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(TREE).replace('"1/8"', value, 1))
        code, out, err = run(capsys, "maximal", "--tree", str(path))
        assert code == 2 and out == "" and err == f"invalid rational value: {shown}"


def test_rational_error_is_an_argparse_type_error_and_a_value_error():
    for text in ("1/0", " -1/0", "x", "1.5.2"):
        with pytest.raises(argparse.ArgumentTypeError) as caught:
            cli.rational(text)
        assert isinstance(caught.value, ValueError)
        assert str(caught.value) == f"invalid rational value: {text.strip()!r}"
    assert cli.rational(" -3/6") == Fraction(-1, 2)


def test_modulus_cap_counts_bits_of_p_times_n():
    cli._check_modulus(2, cli.MODULUS_BITS_CAP // 2)
    cli._check_modulus(2**61 - 1, cli.MODULUS_BITS_CAP // 61)
    for p, N in ((2, cli.MODULUS_BITS_CAP // 2 + 1), (2**61 - 1, cli.MODULUS_BITS_CAP // 61 + 1)):
        with pytest.raises(ValueError):
            cli._check_modulus(p, N)


def test_encode_rejects_values_without_a_report_form():
    @dataclass
    class Report:
        holds: bool

    for value in ({1}, 1j, Report(True), float("nan"), -inf):
        with pytest.raises(TypeError):
            cli.encode({"v": [value]})
    assert cli.encode({1: (Fraction(1, 2), Fraction(3), inf, 0.5, None, True, 7, "s")}) == {
        "1": ["1/2", "3", "inf", 0.5, None, True, 7, "s"]
    }
