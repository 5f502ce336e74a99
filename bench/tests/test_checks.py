"""Each checker of the benchmark accepts the right answer and rejects a wrong one.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, plain_call  # noqa: E402

from ultrametric import cantor, characters, cli, harmonic, hensel, padic  # noqa: E402


def test_hensel_root_changed_by_p_to_the_n_minus_1_is_rejected():
    rng = random.Random(1)
    for p, N in ((2, 12), (5, 8), (2**61 - 1, 6)):
        coeffs, x0 = W.v1_poly(rng, p, 2)
        f = hensel.ZpPoly.from_rationals(coeffs, p, N)
        root = hensel.hensel_v1(f, padic.PAdicInt(p, N, x0))[0].residue
        assert C.check_root(coeffs, p, N, x0, root, "v1")
        assert not C.check_root(coeffs, p, N, x0, (root + p ** (N - 1)) % p**N, "v1")


def test_v2_root_changed_below_its_precision_is_rejected():
    # with v_p(f'(root)) = k, f(root + p^j) = f(root) + f'(root) p^j mod p^N:
    # a change by p^(N-1) is still a root mod p^N, one by p^(N-1-k) is not
    rng = random.Random(1)
    for p, N, k in ((2, 12, 1), (5, 8, 2), (2**61 - 1, 6, 1)):
        coeffs, x0 = W.v2_poly(rng, p, k, 1)
        f = hensel.ZpPoly.from_rationals(coeffs, p, N)
        root = hensel.hensel_v2(f, padic.PAdicInt(p, N, x0))[0].residue
        assert C.check_root(coeffs, p, N, x0, root, "v2")
        assert C.check_root(coeffs, p, N, x0, (root + p ** (N - 1)) % p**N, "v2")
        assert not C.check_root(coeffs, p, N, x0, (root + p ** (N - 1 - k)) % p**N, "v2")


def test_v2_root_outside_the_ball_around_x0_is_rejected():
    # f = (x - 1)(x - 3) over Z_2: f'(1) = -2, so the root near x0 = 5 is 1
    coeffs, p, N = [3, -4, 1], 2, 10
    assert C.check_root(coeffs, p, N, 5, 1, "v2")
    assert not C.check_root(coeffs, p, N, 5, 3, "v2")


def test_hausdorff_value_off_by_one_leaf_is_rejected():
    rng = random.Random(2)
    factors, ratio, alpha = W.SPECS["tern9"]
    spec = cantor.ProductSpec.geometric(factors, ratio)
    words = [(1, 2), (0, 1, 1, 2), (2, 0, 0)]
    leaf = C.power(spec.scales[-1], alpha)
    for kind in ("measure", "content_scattered"):
        op = W.hausdorff_op(kind, spec, factors, alpha, words)
        value = op.run(plain_call)
        assert op.check(value)
        assert not op.check(value + leaf)
        assert not op.check(value - leaf)
    op = W.hausdorff_op("content_cylinder", spec, factors, alpha, W._antichain(rng, factors, (2,)))
    value = op.run(plain_call)
    assert op.check(value) and not op.check(value + leaf)


def test_float_hausdorff_value_is_rejected():
    spec = cantor.ProductSpec.reciprocal((2, 3, 2))
    op = W.hausdorff_op("content_whole", spec, (2, 3, 2), Fraction(1), [()])
    assert op.check(op.run(plain_call))
    assert not op.check(float(op.run(plain_call)))


def test_lowered_maximal_function_value_is_rejected():
    rng = random.Random(3)
    factors = (2, 3, 2)
    tree, mu, nu = W._tree(rng, factors)
    assert C.tree_maximal(factors, mu, nu) == harmonic.maximal_function(tree)
    sizes = W.AnalysisSizes(trees=(factors,), weak_tree=factors, thresholds=0, grids=(5,),
                            weak_grids=(), lp=(), martingale=(), gram_exact=(), gram_float=(),
                            tables=())
    ops = W._maximal_ops(rng, sizes)
    for op in ops[:2]:  # the tree and the grid maximal function
        values = op.run(plain_call)
        assert op.check(values)
        i = max(range(len(values)), key=values.__getitem__)
        lowered = list(values)
        lowered[i] -= Fraction(1, 1000)
        assert not op.check(lowered)


def test_weak_type_violation_is_rejected():
    mu, nu = [Fraction(1)] * 3, [Fraction(0), Fraction(3), Fraction(0)]
    M = C.grid_maximal(mu, nu)  # 3/2, 3, 3/2
    assert C.weak_type_holds(mu, nu, M, 2)
    assert not C.weak_type_holds(mu, nu, M, 1)


def test_nonzero_off_diagonal_gram_entry_is_rejected():
    g = characters.gram_exact(12)
    assert C.gram_is_identity(g)
    g[3] = list(g[3])
    g[3][7] = Fraction(1, 10**9)
    assert not C.gram_is_identity(g)
    f = characters.gram_float(12)
    assert C.gram_close_to_identity(f, 1e-9)
    f[2, 5] = 1e-6
    assert not C.gram_close_to_identity(f, 1e-9)


def test_wrong_character_table_entry_is_rejected():
    n = 6
    table = [[v.turn for v in row] for row in characters.character_table(n)]
    assert C.table_is_exact(n, table)
    table[4][5] = Fraction(5, 6)
    assert not C.table_is_exact(n, table)


def _cli_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def test_wrong_cli_exit_code_is_rejected(tmp_path):
    ops = W._cli_ops(random.Random(4), runner=None, workdir=str(tmp_path))
    for op in ops:
        argv = op.run(lambda name, fn, argv: argv)
        code, rep = _cli_in_process(argv)
        assert op.check((code, rep)), op.kind
        for wrong in {0, 1, 2} - {code}:
            assert not op.check((wrong, rep)), op.kind


def test_leibniz_determinant_and_wrong_determinant():
    rows = [[Fraction(2), Fraction(1, 3), Fraction(0)],
            [Fraction(-1), Fraction(4), Fraction(5, 2)],
            [Fraction(0), Fraction(1), Fraction(7)]]
    # cofactor expansion along the first row
    want = 2 * (4 * 7 - Fraction(5, 2)) - Fraction(1, 3) * (-7 - 0)
    assert C.det_leibniz(rows) == want
    op = W._linalg_ops(random.Random(5))[0]
    det = op.run(plain_call)
    assert op.check(det) and not op.check((det[0] + 1, det[1]))


def test_ring_and_radic_checks_reject_wrong_residues():
    p, N, a, b = 7, 5, 12345, 678
    m = p**N
    out = {"mul_add": (a * b + b) % m, "sub": (a - b) % m, "neg": -a % m, "inv": pow(a, -1, m)}
    assert C.check_ring(p, N, a, b, out)
    assert not C.check_ring(p, N, a, b, {**out, "sub": (a - b + 1) % m})
    assert C.radic_valuation(2 * 3 * 5, (2, 3, 4)) == 2
    assert C.radic_valuation(24, (2, 3, 4)) is None


def test_self_time_subtracts_child_spans():
    tr = Tracer()

    def child():
        return sum(range(10_000))

    def parent(call):
        return call("padic.child", child) + call("padic.child", child)

    tr.call("op.parent", parent, tr.call)
    (name, s, e, par), = [sp for sp in tr.spans if sp[0] == "op.parent"]
    own = tr.self_times()
    kids = [sp for sp in tr.spans if sp[3] == 0]
    assert len(kids) == 2 and par == -1
    assert abs(own[0] - ((e - s) - sum(k[2] - k[1] for k in kids))) < 1e-12
    totals = tr.layer_totals()
    assert totals["padic.child"][1] == 2
