import json

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


def test_hausdorff_report_says_when_content_is_a_float(capsys):
    # (1/3)^(3/4) is irrational: the content is a float and the report says so
    code, out, _ = run(
        capsys, "hausdorff", "--factors", "2,2,2", "--scales", "geometric:1/3",
        "--alpha", "3/4",
    )
    assert code == 0
    assert out == '{"content": "0.6754094983569712", "exact": false, "schema": "1"}'
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


def tree_file(tmp_path):
    obj = {
        "spec": {
            "factors": [2, 2, 2],
            "scales": ["1", "1/2", "1/4", "1/8"],
        },
        "mu": ["1/8"] * 8,
        "nu": ["1", "0", "0", "0", "0", "0", "0", "0"],
    }
    path = tmp_path / "tree.json"
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
    assert code == 2 and out == "" and "--table or --gram" in err


def test_audit_no_operation(capsys):
    code, out, err = run(capsys, "audit")
    assert code == 2 and out == "" and "--factors or --isometry" in err


def test_bad_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_reports_deterministic(capsys, tmp_path):
    runs = []
    for _ in range(2):
        _, out, _ = run(capsys, "audit", "--isometry", "2,3,2")
        runs.append(out)
    assert runs[0] == runs[1]


def test_cli_import_leaves_numpy_unloaded():
    # only characters.gram_float needs numpy, and it imports it when called
    import os
    import subprocess
    import sys

    import ultrametric

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ultrametric.__file__)))
    subprocess.run(
        [sys.executable, "-c", "import sys, ultrametric.cli; assert 'numpy' not in sys.modules"],
        env=env, check=True,
    )
