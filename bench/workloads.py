"""The benchmark's four workloads, built from a seed.

A workload is a fixed batch of operations, repeated in whole rounds, plus
a short warm-up list built by the same code at small sizes.  Each
operation runs library calls through ``call(name, fn, *args)`` (see
``spans.py``) and returns what its check needs; the check runs after the
timed call, against values the benchmark computes itself (``checks.py``)
once and keeps.  The shape of a batch (operation kinds, primes,
precisions, depths, radices, sizes) is the same for every seed and the
seed draws the values, so that the cost of a round barely depends on the
seed.  ``bench/README.md`` lists the make-up of each workload.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks as C

from ultrametric import audit, cantor, characters, harmonic, hensel, linalg, padic, radic


@dataclass
class Op:
    kind: str
    run: Callable  # run(call) -> output
    check: Callable  # check(output) -> bool
    counts: Callable | None = None  # counts(output) -> {metric: n}, traced runs only


@dataclass
class Workload:
    batch: list[Op]
    warm: list[Op]
    peak_rss_kb: Callable[[], int]
    close: Callable[[], None] = lambda: None


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def lazy(fn, *args):
    """fn(*args), computed at the first check and kept for later rounds."""
    return functools.cache(lambda: fn(*args))


def rand_unit(rng: random.Random, p: int, hi: int) -> int:
    """A random integer in [1, hi) prime to p."""
    while True:
        x = rng.randrange(1, hi)
        if x % p:
            return x


def scalar_residue(s, p: int, N: int) -> int:
    """A PAdicScalar with exponent >= 0 reduced mod p^N, from its fields."""
    if s.unit_residue is None:
        return 0
    return s.unit_residue * p**s.exponent % p**N


def first_of_each_kind(batch: list[Op]) -> list[Op]:
    seen: dict[str, Op] = {}
    for op in batch:
        seen.setdefault(op.kind, op)
    return list(seen.values())


# ---------------------------------------------------------------------------
# arith: many small exact-arithmetic calls
# ---------------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
LARGE_PRIMES = (1_000_003, 2**31 - 1, 2**61 - 1)
HENSEL_PRIMES = (2, 3, 5, 7, 13, 31, 1_000_003, 2**61 - 1)


def _ring(a, b) -> dict:
    return {
        "mul_add": (a * b + b).residue,
        "sub": (a - b).residue,
        "neg": (-a).residue,
        "inv": a.invert().residue if a.is_unit() else None,
    }


def _scalar_mul_add(x, y, p, N):
    X = padic.PAdicScalar.from_rational(x, p, N)
    Y = padic.PAdicScalar.from_rational(y, p, N)
    return X * Y + X


def _padic_ops(rng) -> list[Op]:
    ops = []

    def ring(p, N, a, b):
        A, B = padic.PAdicInt(p, N, a), padic.PAdicInt(p, N, b)
        return Op("padic_ring", lambda call: call("padic.ring_ops", _ring, A, B),
                  lambda out: C.check_ring(p, N, a, b, out))

    def from_rational(x, p, N):
        return Op("padic_from_rational",
                  lambda call: call("padic.padic_from_rational", padic.padic_from_rational, x, p, N),
                  lambda out: C.check_from_rational(x, p, N, out.residue))

    def scalar(x, y, p, N):
        return Op("padic_scalar", lambda call: call("padic.scalar_ops", _scalar_mul_add, x, y, p, N),
                  lambda out: C.check_scalar(x * y + x, scalar_residue(out, p, N), p, N))

    def geometric(p, N, e, u):
        Y = padic.PAdicScalar(p, N, e, u)
        return Op("geometric_sum", lambda call: call("padic.geometric_sum", padic.geometric_sum, Y),
                  lambda out: C.check_geometric(u * p**e % p**N, scalar_residue(out, p, N), p, N))

    def cauchy(a, b, p, N):
        A = [padic.PAdicScalar.from_rational(x, p, N) for x in a]
        B = [padic.PAdicScalar.from_rational(x, p, N) for x in b]
        return Op("cauchy_product",
                  lambda call: call("padic.cauchy_product", padic.cauchy_product, A, B),
                  lambda out: C.check_cauchy(a, b, [scalar_residue(c, p, N) for c in out], p, N))

    for i, p in enumerate(SMALL_PRIMES + LARGE_PRIMES):
        for N in (8, 32, 128):
            m = p**N
            # one slot in three has a non-unit a, which has no inverse
            a = p * rng.randrange(m // p) if (i + N) % 3 == 0 else rand_unit(rng, p, m)
            ops.append(ring(p, N, a, rng.randrange(m)))
        for N in (16, 64):
            ops.append(from_rational(
                Fraction(rng.randrange(-10**6, 10**6), rand_unit(rng, p, 10**6)), p, N))
        x = Fraction(p ** (i % 3) * rand_unit(rng, p, 10**4), rand_unit(rng, p, 10**4))
        y = Fraction(rand_unit(rng, p, 10**4), rand_unit(rng, p, 10**4))
        ops.append(scalar(x, y, p, 24))
        ops.append(geometric(p, 24, 1 + i % 3, rand_unit(rng, p, p**24)))
    for p in SMALL_PRIMES[:6] + LARGE_PRIMES:
        ops.append(cauchy([rng.randrange(-10**5, 10**5) for _ in range(8)],
                          [rng.randrange(-10**5, 10**5) for _ in range(8)], p, 20))
    return ops


def v1_poly(rng, p, deg):
    """f = (x - x0) h + p k with deg h = deg and h(x0) a unit: a simple
    root mod p at x0."""
    x0 = rng.randrange(p)
    h = [rng.randrange(-20, 21) for _ in range(deg)] + [rand_unit(rng, p, max(p, 21))]
    if C.horner(h, x0, p) == 0:
        h[0] += 1
    k = [rng.randrange(-20, 21) for _ in range(deg + 2)]
    f = C.poly_mul([-x0, 1], h)
    return [c + p * k[i] for i, c in enumerate(f)], x0


def v2_poly(rng, p, k, deg):
    """f = (x - rho)(x - rho - p^k w) h and x0 = rho + p^(k+1) z with w, z
    and h(rho) units: then v(f'(x0)) = k and v(f(x0)) > 2k, the regime of
    hensel_v2, and rho is the root near x0."""
    rho = rng.randrange(p * p)
    w = rand_unit(rng, p, max(p, 3))
    z = rand_unit(rng, p, max(p, 3))
    h = [rng.randrange(-20, 21) for _ in range(deg)] + [rand_unit(rng, p, max(p, 21))]
    if C.horner(h, rho, p) == 0:
        h[0] += 1
    f = C.poly_mul(C.poly_mul([-rho, 1], [-rho - p**k * w, 1]), h)
    return f, rho + p ** (k + 1) * z


def _lift_op(kind, fn, coeffs, p, N, x0, variant):
    f = hensel.ZpPoly.from_rationals(coeffs, p, N)
    point = padic.PAdicInt(p, N, x0)
    if kind == "contraction_solve":
        return Op(kind, lambda call: call(f"hensel.{kind}", fn, f, point),
                  lambda out: C.check_root(coeffs, p, N, x0, out.residue, variant))
    return Op(kind, lambda call: call(f"hensel.{kind}", fn, f, point),
              lambda out: C.check_root(coeffs, p, N, x0, out[0].residue, variant),
              lambda out: {"hensel.newton_steps": len(out[1].iterates)})


def _hensel_ops(rng) -> list[Op]:
    ops = []
    for p in HENSEL_PRIMES:
        # 80 digits of 2^61 - 1 are about 4900 bits, as many as 940 digits of 37
        for j, N in enumerate((10, 40, 160, 320) if p < 100 else (10, 20, 40, 80)):
            coeffs, x0 = v1_poly(rng, p, j % 3)
            ops.append(_lift_op("hensel_v1", hensel.hensel_v1, coeffs, p, N, x0, "v1"))
            coeffs, x0 = v2_poly(rng, p, 1 + j % 2, j % 2)
            ops.append(_lift_op("hensel_v2", hensel.hensel_v2, coeffs, p, N, x0, "v2"))
            # the contraction gains about one digit per step, so its
            # precisions stop lower than Newton's
            coeffs, x0 = v2_poly(rng, p, 1, j % 2)
            ops.append(_lift_op("contraction_solve", hensel.contraction_solve, coeffs, p,
                                N // 4, x0, "v2"))
    return ops


def _matrix(rng, n, p, case):
    """An n x n rational matrix: "unit" has entries in Z_p and det a unit,
    "singular" has entries in Z_p and p | det, "fraction" has an entry
    outside Z_p.  Every one has det != 0."""
    while True:
        rows = [[Fraction(rng.randrange(-9, 10)) for _ in range(n)] for _ in range(n)]
        if case == "singular":
            rows[0] = [p * e for e in rows[0]]
        elif case == "fraction":
            rows[rng.randrange(n)][rng.randrange(n)] = Fraction(rand_unit(rng, p, 10 * p), p)
        det = C.det_leibniz(rows)
        if det != 0 and (case != "unit" or C.p_integral(1 / det, p)):
            return rows, det


def _linalg_ops(rng) -> list[Op]:
    ops = []

    def det_op(T, det, p):
        return Op("det", lambda call: (call("linalg.det", T.det),
                                       call("linalg.det_abs", linalg.det_abs, T)),
                  lambda out: out[0] == det and out[1] == C.abs_p(det, p))

    def inv_op(T, rows, p, s):
        want = lazy(C.invertible_over_zp, rows, p)
        return Op("zp_invertibility",
                  lambda call: call("linalg.zp_invertibility", linalg.zp_invertibility, T, seed=s),
                  lambda out: out["invertible_over_zp"] is out["isometry"] is want())

    for n in range(2, 9):
        for i, case in enumerate(("unit", "singular", "fraction")):
            p = (2, 3, 5, 7)[(n + i) % 4]
            rows, det = _matrix(rng, n, p, case)
            T = linalg.UltraMatrix(p, tuple(tuple(r) for r in rows))
            ops.append(det_op(T, det, p))
            ops.append(inv_op(T, rows, p, rng.randrange(10**6)))
    return ops


def refine(rng, factors):
    """A radix r' with every R_l dividing some R'_n: each factor is kept,
    multiplied, or split into two."""
    out = []
    for r in factors:
        d = next((d for d in range(2, r) if r % d == 0), None)
        choice = rng.randrange(3)
        if choice == 0 and d is not None:
            out += [d, r // d]
        elif choice == 1:
            out.append(r * rng.randrange(2, 4))
        else:
            out.append(r)
    return tuple(out)


def _radic_ops(rng) -> list[Op]:
    ops = []

    def valuation(a, r, fs, R):
        def check(out):
            l = C.radic_valuation(a, fs)
            return out == (l, Fraction(0) if l is None else Fraction(1, R[l]))

        return Op("radic_valuation", lambda call: call("radic.lr_and_abs", radic.lr_and_abs, a, r),
                  check)

    def dist(a, b, r, fs):
        return Op("radic_dist", lambda call: call("radic.radic_dist", radic.radic_dist, a, b, r),
                  lambda out: out == C.radic_distance(a, b, fs))

    def embed(a, r, R):
        return Op("radic_embed", lambda call: call("radic.embed_q", radic.embed_q, a, r),
                  lambda out: out == tuple(a % m for m in R[1:]))

    def preceq(r, rp):
        return Op("radic_preceq",
                  lambda call: call("radic.preceq", radic.preceq, r, rp).witnesses,
                  lambda out: out == C.precedence_witness(r.factors, rp.factors))

    def project(X, Y, r, x, y, M):
        return Op("radic_project",
                  lambda call: tuple(call("radic.project", radic.project, z, r).residue
                                     for z in (X, Y, X + Y)),
                  lambda out: out[0] == x % M and out[1] == y % M
                  and out[2] == (out[0] + out[1]) % M)

    for depth in (4, 6, 8, 10):
        for _ in range(2):
            fs = tuple(rng.randrange(2, 13) for _ in range(depth))
            r = radic.Radix(fs)
            R = C.prefix_products(fs)
            for j in range(3):
                ops.append(valuation(R[(depth * j) // 3] * rng.randrange(1, 10**4), r, fs, R))
                b = rng.randrange(10**6)
                ops.append(dist(b + R[(depth * j) // 3 + 1] * rng.randrange(1, 10**4), b, r, fs))
            ops.append(embed(rng.randrange(-10**9, 10**9), r, R))
            rp = radic.Radix(refine(rng, fs))
            ops.append(preceq(r, rp))
            Rp = C.prefix_products(rp.factors)[-1]
            x, y = rng.randrange(Rp), rng.randrange(Rp)
            ops.append(project(radic.RadicInt(rp, x), radic.RadicInt(rp, y), r, x, y, R[-1]))
    return ops


def build_arith(seed: int) -> Workload:
    rng = random.Random(f"arith:{seed}")
    batch = _padic_ops(rng) + _hensel_ops(rng) + _linalg_ops(rng) + _radic_ops(rng)
    random.Random(f"arith-order:{seed}").shuffle(batch)
    return Workload(batch, first_of_each_kind(batch), own_peak_rss_kb)


# ---------------------------------------------------------------------------
# geometry: few calls, each over a large tree or many pairs
# ---------------------------------------------------------------------------

# name: (factors, scale ratio or None for t_k = 1/N_k, gauge exponent);
# every h(t_k) = t_k^alpha is rational, so every content is exact
SPECS = {
    "bin16": ((2,) * 16, None, Fraction(1)),
    "quad8": ((4,) * 8, Fraction(1, 4), Fraction(1, 2)),
    "tern9": ((3,) * 9, Fraction(1, 9), Fraction(1, 2)),
    "mixed": ((2, 2, 3, 3, 4, 4, 2, 3), None, Fraction(1)),
    "bin12": ((2,) * 12, Fraction(1, 4), Fraction(1, 2)),
    "bin10": ((2,) * 10, Fraction(1, 4), Fraction(1, 2)),
    "hex6": ((2, 3) * 3, None, Fraction(1)),
    "small": ((2, 3, 2), None, Fraction(1)),
}
# (kind, spec, cylinder depths, with a delta); depth 0 is the whole space,
# several depths make a scattered target, one cylinder per depth listed
HAUSDORFF = (
    ("content_whole", "bin10", (0,), False),
    ("content_whole", "hex6", (0,), True),
    ("content_cylinder", "quad8", (3,), True),
    ("content_cylinder", "tern9", (3,), False),
    ("content_cylinder", "mixed", (3,), True),
    ("content_cylinder", "bin12", (3,), False),
    ("content_scattered", "bin12", (5, 7, 9) * 3, True),
    ("content_scattered", "mixed", (4, 5) * 3, False),
    ("content_scattered", "tern9", (4, 5, 6) * 4, True),
    ("content_scattered", "quad8", (4, 5) * 8, False),
    ("measure", "quad8", (3,), False),
    ("measure", "tern9", (3,), False),
    ("measure", "mixed", (3,), False),
    ("measure", "bin12", (3,), False),
    ("measure", "tern9", (3, 4, 5) * 3, False),
    ("measure", "mixed", (4, 5, 6) * 3, False),
    ("measure", "bin12", (4, 6, 8) * 3, False),
) + (("content_cylinder", "bin16", (6,), False),) * 10
# R = 4096 is where build_radic_isometry switches from the exhaustive to
# the sampled path; the sampled radices keep their order, which sets how
# many points the bijectivity check enumerates
ISOMETRY = (((2, 4, 4, 8, 4), True), ((4, 4, 4, 8), True), ((2, 5, 10, 5), True),
            ((2, 4, 8, 16, 8), False), ((4, 5, 10, 25, 20), False))
ISOMETRY_CAP = 4096
ISOMETRY_SAMPLES = 2000
CLASSIFY = ((2,) * 5, 12, 36)  # shape, level-permutation maps, constant maps
DIMENSION = ((12, 1e-6), (20, 1e-9), (32, 1e-9)) * 2
SNOWFLAKE = (Fraction(2), Fraction(3), Fraction(1, 2))
DOUBLING = 11  # pairs of doubling_metric and doubling_measure calls
DOUBLING_DEPTH = 24


def _antichain(rng, factors, depths):
    """One cylinder per listed depth, pairwise not nested."""
    out: list[tuple] = []
    for d in depths:
        while True:
            c = tuple(rng.randrange(n) for n in factors[:d])
            if not any(c[: len(e)] == e or e[: len(c)] == c for e in out):
                out.append(c)
                break
    return out


def hausdorff_op(kind, spec, factors, alpha, words, delta=None, closed=False):
    gauge = cantor.Gauge.power(alpha)
    target = [cantor.Cylinder(w) for w in words]
    measure = kind == "measure"
    levels = C.admissible_levels(spec.scales, delta, closed, measure)
    if measure:
        want = lazy(C.measure_by_count, factors, spec.scales, alpha, words)

        def run(call):
            return call("cantor.hausdorff_measure", cantor.hausdorff_measure, spec, target, gauge)
    else:
        if len(words) == 1:
            want = lazy(C.content_closed_form, factors, spec.scales, alpha, len(words[0]), levels)
        else:
            want = lazy(C.content_by_trie, factors, spec.scales, alpha, words, levels)

        def run(call):
            return call("cantor.hausdorff_content", cantor.hausdorff_content, spec, target,
                        gauge, delta=delta, closed_threshold=closed)

    leaves = C.prefix_products(factors)[-1]
    return Op(kind, run, lambda out: type(out) is Fraction and out == want(),
              lambda out: {"cantor.leaves": leaves})


def _hausdorff_ops(rng, slots) -> list[Op]:
    ops = []
    for kind, name, depths, with_delta in slots:
        factors, ratio, alpha = SPECS[name]
        if name == "mixed":
            factors = tuple(rng.sample(factors, len(factors)))
        spec = (cantor.ProductSpec.reciprocal(factors) if ratio is None
                else cantor.ProductSpec.geometric(factors, ratio))
        delta, closed = None, False
        if with_delta:
            j = rng.randrange(1, spec.depth)
            closed = rng.random() < 0.5
            delta = spec.scales[j] if rng.random() < 0.5 else (spec.scales[j] + spec.scales[j + 1]) / 2
        ops.append(hausdorff_op(kind, spec, factors, alpha, _antichain(rng, factors, depths),
                                delta, closed))
    return ops


def _dimension_ops(rng, dims, snow) -> list[Op]:
    ops = []

    def dimension(spec, factors, tol):
        return Op("dimension",
                  lambda call: call("cantor.dimension_estimate", cantor.dimension_estimate, spec, tol),
                  lambda out: C.check_dimension(factors, spec.scales, tol, *out))

    def snowflake(spec, factors, a):
        def run(call):
            s = call("cantor.snowflake", cantor.snowflake, spec, a)
            return s, call("cantor.dimension_estimate", cantor.dimension_estimate, s, 1e-9)

        def check(out):
            s, (lo, hi) = out
            return (s.factors == factors
                    and all(x == C.power(t, a) for x, t in zip(s.scales, spec.scales))
                    and C.check_dimension(factors, s.scales, 1e-9, lo, hi)
                    and abs(C.dimension_value(factors, spec.scales) / float(a) - (lo + hi) / 2) <= 1e-8)

        return Op("snowflake", run, check)

    for depth, tol in dims:
        factors = tuple(rng.randrange(2, 6) for _ in range(depth))
        spec = cantor.ProductSpec.geometric(factors, Fraction(1, rng.randrange(6, 12)))
        ops.append(dimension(spec, factors, tol))
    for a in snow:
        factors = tuple(rng.randrange(2, 5) for _ in range(10))
        ops.append(snowflake(cantor.ProductSpec.geometric(factors, Fraction(1, 16)), factors, a))
    return ops


def _isometry_ops(rng, radices) -> list[Op]:
    ops = []
    for fs, shuffle in radices:
        if shuffle:
            fs = tuple(rng.sample(fs, len(fs)))
        r = radic.Radix(fs)
        R = C.prefix_products(fs)[-1]
        ops.append(Op(
            "isometry_exhaustive" if R <= ISOMETRY_CAP else "isometry_sampled",
            lambda call, r=r, s=rng.randrange(10**6): call(
                "audit.build_radic_isometry", audit.build_radic_isometry, r,
                exhaustive_cap=ISOMETRY_CAP, samples=ISOMETRY_SAMPLES, seed=s),
            lambda out, R=R: C.check_isometry_report(out, R, ISOMETRY_CAP, ISOMETRY_SAMPLES),
            lambda out: {"audit.pairs_checked": out["pairs_checked"]},
        ))
    return ops


def _audit_ops(rng, shape, permutations, constants, doubling, doubling_depth) -> list[Op]:
    ops = []

    def classify(phi, spec, kind, want):
        return Op(kind, lambda call: call("audit.classify_map", audit.classify_map, phi, spec),
                  lambda out: (out["one_lipschitz"], out["isometry"], out["onto"]) == want)

    def metric(spec, cand, fb, census, ok):
        return Op("doubling_metric",
                  lambda call: call("audit.doubling_metric", audit.doubling_metric, spec, cand),
                  lambda out: out.verdict is ok and out.constant == {
                      "factor_bound": fb, "scale_census": census})

    def measure(spec, mu, cand, constant, ok):
        return Op("doubling_measure",
                  lambda call: call("audit.doubling_measure", audit.doubling_measure, spec, mu, cand),
                  lambda out: out.verdict is ok and out.degenerate is False
                  and out.constant == constant)

    spec = cantor.ProductSpec.reciprocal(shape)
    for _ in range(permutations):
        perms = [rng.sample(range(n), n) for n in shape]
        ops.append(classify(audit.DigitMapFamily.from_level_permutations(perms), spec,
                            "classify_permutation", (True, True, True)))
    for _ in range(constants):
        word = [rng.randrange(n) for n in shape]
        ops.append(classify(audit.DigitMapFamily.constant(word), spec,
                            "classify_constant", (True, False, False)))
    for _ in range(doubling):
        factors = tuple(rng.randrange(2, 9) for _ in range(doubling_depth))
        scales = [Fraction(1)]
        for _ in factors:
            scales.append(scales[-1] * Fraction(rng.randrange(1, 6), 6))
        spec = cantor.ProductSpec(factors, tuple(scales))
        cand = rng.randrange(2, 12)
        fb, census = C.doubling_constants(factors, spec.scales)
        metric_ok = fb <= cand and census <= cand
        ops.append(metric(spec, cand, fb, census, metric_ok))
        weights = []
        for n in factors:
            w = [Fraction(rng.randrange(1, 6)) for _ in range(n)]
            weights.append(tuple(x / sum(w) for x in w))
        constant = {"min_weight": min(min(w) for w in weights),
                    "metric": {"factor_bound": fb, "scale_census": census}}
        measure_ok = metric_ok and all(1 / min(w) <= cand for w in weights)
        ops.append(measure(spec, cantor.ProductMeasure(tuple(weights)), cand, constant, measure_ok))
    return ops


def build_geometry(seed: int) -> Workload:
    rng = random.Random(f"geometry:{seed}")
    batch = (_hausdorff_ops(rng, HAUSDORFF) + _dimension_ops(rng, DIMENSION, SNOWFLAKE)
             + _isometry_ops(rng, ISOMETRY) + _audit_ops(rng, *CLASSIFY, DOUBLING, DOUBLING_DEPTH))
    random.Random(f"geometry-order:{seed}").shuffle(batch)
    rng = random.Random(f"geometry-warm:{seed}")
    warm = (_hausdorff_ops(rng, (("content_whole", "small", (0,), True),
                                 ("measure", "small", (1, 2), False)))
            + _dimension_ops(rng, ((4, 1e-6),), (Fraction(2),))
            + _isometry_ops(rng, (((2, 3, 4), True),))
            + _audit_ops(rng, (2, 2, 2), 1, 1, 1, 4))
    return Workload(batch, warm, own_peak_rss_kb)


# ---------------------------------------------------------------------------
# analysis: maximal functions, martingales and characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisSizes:
    trees: tuple  # leaf-tree shapes for maximal_function
    weak_tree: tuple  # one tree shape for weak_type_verify ...
    thresholds: int  # ... at this many thresholds
    grids: tuple  # grid sizes m for grid_maximal
    weak_grids: tuple  # grid sizes for grid_weak_type
    lp: tuple  # tree shapes for lp_maximal_bound with p in LP_EXPONENTS
    martingale: tuple  # tree shapes for Doob, the tower property and layer cakes
    gram_exact: tuple
    gram_float: tuple
    tables: tuple


ANALYSIS = AnalysisSizes(
    trees=((2,) * 6, (2, 3) * 4, (2,) * 8, (2,) * 9, (2,) * 10),
    weak_tree=(2,) * 5,
    thresholds=90,
    grids=(10, 20, 30),
    weak_grids=(10,) + (20,) * 8,
    lp=((2,) * 3, (2,) * 4),
    martingale=((2,) * 4, (2,) * 6, (2,) * 7),
    gram_exact=(64, 128, 256),
    gram_float=(64, 256, 512),
    tables=(16, 48),
)
ANALYSIS_WARM = AnalysisSizes(
    trees=((2, 2),), weak_tree=(2, 2), thresholds=1, grids=(4,), weak_grids=(4,), lp=((2, 2),),
    martingale=((2, 2),), gram_exact=(4,), gram_float=(4,), tables=(4,),
)
LP_EXPONENTS = (Fraction(3, 2), Fraction(2), Fraction(3))
LP_A = Fraction(1, 2)


def weights(rng, n, zero_ok):
    lo = 0 if zero_ok else 1
    return [Fraction(rng.randrange(lo, 9), rng.randrange(1, 4)) for _ in range(n)]


def _tree(rng, factors):
    spec = cantor.ProductSpec.reciprocal(factors)
    n = C.prefix_products(factors)[-1]
    mu, nu = weights(rng, n, False), weights(rng, n, True)
    return harmonic.FiniteUltraTree(spec, tuple(mu), tuple(nu)), mu, nu


def dyadic_levels(factors):
    """The cylinder partitions of the leaves, depth 1 .. L, as index blocks."""
    N = C.prefix_products(factors)
    return [
        tuple(tuple(range(i * (N[-1] // N[k]), (i + 1) * (N[-1] // N[k]))) for i in range(N[k]))
        for k in range(1, len(factors) + 1)
    ]


def _grid(rng, m):
    mu, nu = weights(rng, m, False), weights(rng, m, True)
    return harmonic.GridMeasure(tuple(Fraction(i) for i in range(m)), tuple(mu), tuple(nu)), mu, nu


def _maximal_ops(rng, sizes: AnalysisSizes) -> list[Op]:
    ops = []

    def maximal(tree, factors, mu, nu):
        want = lazy(C.tree_maximal, factors, mu, nu)
        weak = lazy(lambda: C.weak_type_holds(mu, nu, want(), 1))
        return Op("maximal_tree",
                  lambda call: call("harmonic.maximal_function", harmonic.maximal_function, tree),
                  lambda out: out == want() and weak(),
                  lambda out: {"harmonic.leaves": len(mu)})

    def weak_tree(tree, mu, nu, M, t):
        return Op("weak_type_tree",
                  lambda call: call("harmonic.weak_type_verify", harmonic.weak_type_verify, tree, t),
                  lambda out: out["holds"] is True and out["lhs"] == C.superlevel_mass(mu, M(), t)
                  and out["rhs"] == sum(nu) / t,
                  lambda out: {"harmonic.leaves": len(mu)})

    def grid_maximal(g, mu, nu):
        want = lazy(C.grid_maximal, mu, nu)
        weak = lazy(lambda: C.weak_type_holds(mu, nu, want(), 2))
        return Op("grid_maximal",
                  lambda call: call("harmonic.grid_maximal", harmonic.grid_maximal, g),
                  lambda out: out == want() and weak())

    def grid_weak(g, mu, nu, t, C1):
        lhs = lazy(lambda: C.superlevel_mass(mu, C.grid_maximal(mu, nu), t))
        return Op("grid_weak_type",
                  lambda call: call("harmonic.grid_weak_type", harmonic.grid_weak_type, g, t, C1),
                  lambda out: out["lhs"] == lhs() and out["rhs"] == C1 * sum(nu) / t
                  and out["holds"] is (lhs() <= C1 * sum(nu) / t))

    for factors in sizes.trees:
        tree, mu, nu = _tree(rng, factors)
        ops.append(maximal(tree, factors, mu, nu))
    tree, mu, nu = _tree(rng, sizes.weak_tree)
    M = lazy(C.tree_maximal, sizes.weak_tree, mu, nu)
    for _ in range(sizes.thresholds):
        ops.append(weak_tree(tree, mu, nu, M, Fraction(rng.randrange(1, 40), rng.randrange(1, 8))))
    for m in sizes.grids:
        ops.append(grid_maximal(*_grid(rng, m)))
    for m in sizes.weak_grids:
        g, mu, nu = _grid(rng, m)
        ops.append(grid_weak(g, mu, nu, Fraction(rng.randrange(1, 40), rng.randrange(1, 8)), 2))
    # the stored family: C1 = 1 is refuted on the line, C1 = 2 holds
    adv, thr = harmonic.adversarial_grid()
    for C1 in (1, 2):
        op = grid_weak(adv, list(adv.mu), list(adv.nu), thr, C1)
        ops.append(Op("grid_stored_family", op.run,
                      lambda out, C1=C1, check=op.check: check(out) and out["holds"] is (C1 == 2)))
    return ops


def _martingale_ops(rng, sizes: AnalysisSizes) -> list[Op]:
    ops = []

    def lp(f, tree, factors, mu, p):
        sides = lazy(C.lp_sides, f, factors, mu, p, LP_A)

        def check(out):
            (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = sides()
            return (lhs_hi <= rhs_lo and out["holds"] is True
                    and C.close(out["lhs"], lhs_hi) and C.close(out["rhs"], rhs_lo))

        return Op("lp_bound",
                  lambda call: call("harmonic.lp_maximal_bound", harmonic.lp_maximal_bound,
                                    f, tree, p, LP_A),
                  check, lambda out: {"harmonic.leaves": len(mu)})

    def doob(f, filt, levels, mu, t):
        want = lazy(C.doob_reports, f, levels, mu, t)
        return Op("doob",
                  lambda call: call("harmonic.martingale_maximal", harmonic.martingale_maximal,
                                    f, filt, mu, t),
                  lambda out: out["holds"] is True
                  and [(r["lhs"], r["restricted"], r["rhs"]) for r in out["doob"]] == want()
                  and all(r["holds"] and r["superlevel_is_block_union"] for r in out["doob"]),
                  lambda out: {"harmonic.leaves": len(mu)})

    def tower(f, mu, fine, coarse):
        def run(call):
            ce = harmonic.cond_expectation
            e_fine = call("harmonic.cond_expectation", ce, f, fine, mu)
            return (e_fine, call("harmonic.cond_expectation", ce, f, coarse, mu),
                    call("harmonic.cond_expectation", ce, e_fine, coarse, mu))

        want = lazy(lambda: (C.block_averages(f, fine, mu), C.block_averages(f, coarse, mu)))
        return Op("cond_expectation", run,
                  lambda out: (out[0], out[1]) == want() and out[2] == out[1])

    def layer_cake(g, mu, q):
        want = lazy(lambda: sum(x**q * w for x, w in zip(g, mu)))
        return Op("distribution_identity",
                  lambda call: call("harmonic.distribution_identity",
                                    harmonic.distribution_identity, g, mu, q),
                  lambda out: out["lhs"] == want() and out["rhs"] == want() and out["equal"] is True)

    # The cost of a p = 3/2 bound varies about four-fold with the data (34
    # to 128 ms on these trees over six seeds), so these inputs are the
    # same for every seed.
    lp_rng = random.Random("analysis-lp")
    for factors in sizes.lp:
        for p in LP_EXPONENTS:
            tree, mu, _ = _tree(lp_rng, factors)
            f = [Fraction(lp_rng.randrange(-8, 9), lp_rng.randrange(1, 3)) for _ in mu]
            ops.append(lp(f, tree, factors, mu, p))
    for factors in sizes.martingale:
        mu = weights(rng, C.prefix_products(factors)[-1], False)
        f = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 3)) for _ in mu]
        levels = dyadic_levels(factors)
        # the median of |f|: the superlevel set, whose size sets the cost
        # of the block-union check, holds about half the points
        t = sorted(map(abs, f))[len(f) // 2] or Fraction(1, 2)
        ops.append(doob(f, harmonic.Filtration(tuple(levels)), levels, mu, t))
        ops.append(tower(f, mu, levels[-1], levels[0]))
        g = [Fraction(rng.randrange(0, 9), rng.randrange(1, 4)) for _ in mu]
        ops += [layer_cake(g, mu, q) for q in (1, 2, 3)]
    return ops


def _character_ops(sizes: AnalysisSizes) -> list[Op]:
    # n alone is the input; it is the same for every seed, so that these
    # calls cost the same in every run
    ops = []
    for n in sizes.gram_exact:
        ops.append(Op("gram_exact",
                      lambda call, n=n: call("characters.gram_exact", characters.gram_exact, n),
                      C.gram_is_identity,
                      lambda out, n=n: {"characters.gram_entries": n * n}))
    for n in sizes.gram_float:
        ops.append(Op("gram_float",
                      lambda call, n=n: call("characters.gram_float", characters.gram_float, n),
                      lambda out: C.gram_close_to_identity(out, 1e-9),
                      lambda out, n=n: {"characters.gram_entries": n * n}))
    for n in sizes.tables:
        ops.append(Op("character_table",
                      lambda call, n=n: [[v.turn for v in row] for row in call(
                          "characters.character_table", characters.character_table, n)],
                      lambda out, n=n: C.table_is_exact(n, out)))
    return ops


def _analysis_ops(rng, sizes):
    return _maximal_ops(rng, sizes) + _martingale_ops(rng, sizes) + _character_ops(sizes)


def build_analysis(seed: int) -> Workload:
    batch = _analysis_ops(random.Random(f"analysis:{seed}"), ANALYSIS)
    random.Random(f"analysis-order:{seed}").shuffle(batch)
    warm = _analysis_ops(random.Random(f"analysis-warm:{seed}"), ANALYSIS_WARM)
    return Workload(batch, warm, own_peak_rss_kb)


# ---------------------------------------------------------------------------
# cli: one subprocess per invocation
# ---------------------------------------------------------------------------


class CliRunner:
    """Runs ``python -m ultrametric.cli`` and keeps the largest child RSS."""

    def __init__(self, root: str, env: dict):
        self.root = root
        self.env = env
        self.peak_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, dict | None]:
        proc = subprocess.Popen(
            [sys.executable, "-m", "ultrametric.cli", *argv],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        lines = out.decode().strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except ValueError:
            report = None
        return proc.returncode, report


GEOM = re.compile(r"^(\d+)\^(-?\d+) \* \((\d+) mod (\d+)\^(\d+)\)$")


def geom_residue(text: str, p: int, N: int) -> int | None:
    """The residue mod p^N of a PAdicScalar printed as p^e * (u mod p^N)."""
    m = GEOM.match(text)
    if not m or int(m[1]) != p or int(m[4]) != p or int(m[5]) != N or int(m[2]) < 0:
        return None
    return int(m[3]) * p ** int(m[2]) % p**N


def ok(code, rep) -> bool:
    return code == 0 and rep is not None and rep.get("schema") == "1"


def _cli_ops(rng, runner, workdir) -> list[Op]:
    ops = []

    def add(kind, argv, check):
        ops.append(Op(kind, lambda call: call(f"cli.{argv[0]}", runner, argv),
                      lambda out: check(*out)))

    for variant, p, N in (("v1", 2, 12), ("v1", 7, 8), ("v2", 3, 10), ("v2", 5, 9)):
        coeffs, x0 = v1_poly(rng, p, 1) if variant == "v1" else v2_poly(rng, p, 1, 1)
        add(f"hensel_{variant}",
            ["hensel", "--prime", str(p), "--coeffs", ",".join(map(str, coeffs)),
             "--x0", str(x0), "--prec", str(N), "--variant", variant],
            lambda code, rep, c=coeffs, p=p, N=N, x0=x0, v=variant: ok(code, rep)
            and rep["modulus"] == str(p**N) and C.check_root(c, p, N, x0, int(rep["residue"]), v))

    p, N = rng.choice((3, 5, 7)), 12
    x = Fraction(p) ** rng.randrange(-3, 4) * Fraction(rand_unit(rng, p, 500), rand_unit(rng, p, 500))
    add("padic_abs", ["padic", "--prime", str(p), "--abs", str(x)],
        lambda code, rep: ok(code, rep) and rep["abs"] == str(C.abs_p(x, p)))
    y = Fraction(p * rand_unit(rng, p, 50), rand_unit(rng, p, 50))
    add("padic_geom", ["padic", "--prime", str(p), "--prec", str(N), "--geom", str(y)],
        lambda code, rep: ok(code, rep) and C.check_geometric(
            C.residue_of(y, p, N), geom_residue(rep["geometric_sum"], p, N) or 0, p, N))
    # nonnegative operands: argparse would read "-3/5" as an option
    a, b = (Fraction(rng.randrange(100), rand_unit(rng, p, 30)) for _ in range(2))
    add("padic_add", ["padic", "--prime", str(p), "--prec", str(N), "--add", str(a), str(b)],
        lambda code, rep: ok(code, rep) and rep["sum"] == str(C.residue_of(a + b, p, N))
        and rep["modulus"] == str(p**N))
    add("padic_mul", ["padic", "--prime", str(p), "--prec", str(N), "--mul", str(a), str(b)],
        lambda code, rep: ok(code, rep) and rep["product"] == str(C.residue_of(a * b, p, N)))

    fs = tuple(rng.randrange(2, 8) for _ in range(5))
    R = C.prefix_products(fs)
    radix = ",".join(map(str, fs))
    e = rng.randrange(10**6)
    add("radic_embed", ["radic", "--radix", radix, "--embed", str(e)],
        lambda code, rep: ok(code, rep) and rep["sequence"] == [str(e % m) for m in R[1:]])
    v = R[rng.randrange(1, 5)] * rand_unit(rng, fs[-1], 100)
    add("radic_abs", ["radic", "--radix", radix, "--abs", str(v)],
        lambda code, rep: ok(code, rep) and rep["valuation"] == C.radic_valuation(v, fs)
        and rep["abs"] == str(Fraction(1, R[C.radic_valuation(v, fs)])))
    fp = refine(rng, fs)
    add("radic_preceq", ["radic", "--radix", radix, "--preceq", ",".join(map(str, fp))],
        lambda code, rep: ok(code, rep) and rep["holds"] is True and rep["witness"] == {
            str(k): n for k, n in C.precedence_witness(fs, fp).items()})
    xr = rng.randrange(C.prefix_products(fp)[-1])
    add("radic_project", ["radic", "--radix", radix, "--project", ",".join(map(str, fp)),
                          "--residue", str(xr)],
        lambda code, rep: ok(code, rep) and rep["residue"] == str(xr % R[-1]))

    factors = tuple(rng.randrange(2, 4) for _ in range(8))
    spec_arg = ",".join(map(str, factors))
    recip = [Fraction(1, n) for n in C.prefix_products(factors)]
    j = rng.randrange(1, 7)
    add("hausdorff_content", ["hausdorff", "--factors", spec_arg, "--delta", str(recip[j])],
        lambda code, rep: ok(code, rep) and rep["content"] == str(C.content_closed_form(
            factors, recip, Fraction(1), 0, C.admissible_levels(recip, recip[j], False, False))))
    geo = [Fraction(1, 9) ** k for k in range(9)]
    add("hausdorff_alpha", ["hausdorff", "--factors", spec_arg, "--scales", "geometric:1/9",
                            "--alpha", "1/2"],
        lambda code, rep: ok(code, rep) and rep["content"] == str(C.content_closed_form(
            factors, geo, Fraction(1, 2), 0, list(range(9)))))
    add("hausdorff_dimension", ["hausdorff", "--factors", spec_arg, "--scales", "geometric:1/5",
                                "--dimension", "--tolerance", "1e-9"],
        lambda code, rep: ok(code, rep) and C.check_dimension(
            factors, [Fraction(1, 5) ** k for k in range(9)], 1e-9, *rep["dimension_interval"]))

    iso = tuple(rng.sample((2, 3, 4, 4, 8), 5))
    Ri = C.prefix_products(iso)[-1]
    add("audit_isometry", ["audit", "--isometry", ",".join(map(str, iso))],
        lambda code, rep: ok(code, rep) and C.check_isometry_report(
            rep, Ri, ISOMETRY_CAP, ISOMETRY_SAMPLES))
    # past R = 4096 the audit samples pairs; the first factor stays below 4096
    add("audit_isometry_sampled", ["audit", "--isometry", "2,4,8,16,8"],
        lambda code, rep: ok(code, rep) and C.check_isometry_report(
            rep, 8192, ISOMETRY_CAP, ISOMETRY_SAMPLES))
    fb, census = C.doubling_constants(factors, recip)
    metric = {"factor_bound": fb, "scale_census": census}
    add("audit_doubling", ["audit", "--factors", spec_arg, "--candidate", str(max(fb, census))],
        lambda code, rep: ok(code, rep) and rep["verdict"] is True and rep["constant"] == str(metric))
    # a candidate below the largest factor is refuted: exit 1 with a witness
    add("audit_refuted", ["audit", "--factors", spec_arg, "--candidate", str(fb - 1)],
        lambda code, rep: code == 1 and rep is not None and rep["verdict"] is False
        and rep["witness"] == {"kind": "factor", "level": factors.index(fb) + 1})
    ws = [[Fraction(rng.randrange(1, 4)) for _ in range(n)] for n in factors]
    ws = [[w / sum(level) for w in level] for level in ws]
    add("audit_measure", ["audit", "--factors", spec_arg, "--measure-weights",
                          ";".join(",".join(map(str, level)) for level in ws)],
        lambda code, rep: ok(code, rep) and rep["verdict"] is True
        and rep["ratio_c2"] == str(max(1 / w for level in ws for w in level))
        and rep["constant"] == str({"min_weight": min(min(level) for level in ws), "metric": metric}))

    tfactors = (2,) * 6
    mu, nu = weights(rng, 64, False), weights(rng, 64, True)
    path = os.path.join(workdir, "tree.json")
    with open(path, "w") as fh:
        json.dump({"spec": {"factors": list(tfactors),
                            "scales": [str(Fraction(1, n)) for n in C.prefix_products(tfactors)]},
                   "mu": [str(w) for w in mu], "nu": [str(w) for w in nu]}, fh)
    M = C.tree_maximal(tfactors, mu, nu)
    add("maximal_values", ["maximal", "--tree", path],
        lambda code, rep: ok(code, rep) and rep["maximal"] == [str(m) for m in M])
    f = [w_nu / w_mu for w_nu, w_mu in zip(nu, mu)]
    t = Fraction(rng.randrange(1, 9), rng.randrange(1, 3))
    doob = all(lhs <= mid <= rhs for lhs, mid, rhs in C.doob_reports(f, dyadic_levels(tfactors), mu, t))
    add("maximal_doob", ["maximal", "--tree", path, "--doob", str(t)],
        lambda code, rep: ok(code, rep) and doob and rep["holds"] is True)

    n_table, n_gram = rng.randrange(8, 17), rng.randrange(32, 65)
    add("characters_table", ["characters", "--table", str(n_table)],
        lambda code, rep: ok(code, rep) and rep["n"] == n_table and C.table_is_exact(
            n_table, [[Fraction(x) for x in row] for row in rep["table"]]))
    add("characters_gram", ["characters", "--gram", str(n_gram)],
        lambda code, rep: ok(code, rep) and rep["gram_is_identity"] is True and rep["n"] == n_gram)
    # invalid input exits 2 and prints no report
    add("invalid_prime", ["hensel", "--prime", str(rng.choice((4, 6, 9, 15))), "--coeffs", "1,0,1",
                          "--x0", "1"],
        lambda code, rep: code == 2 and rep is None)
    return ops


def build_cli(seed: int, root: str, env: dict, workdir: str) -> Workload:
    runner = CliRunner(root, env)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    try:
        batch = _cli_ops(random.Random(f"cli:{seed}"), runner, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    random.Random(f"cli-order:{seed}").shuffle(batch)
    return Workload(batch, batch[:1], lambda: runner.peak_kb,
                    lambda: shutil.rmtree(workdir, ignore_errors=True))
