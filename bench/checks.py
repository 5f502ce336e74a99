"""Independent checkers for the benchmark's operations.

Every function here recomputes what a library call must return, or tests
a property its output must have, without calling the library's own
algorithm for it.  Each checker returns True or False; the tests in
``bench/tests`` show that each one rejects a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, log

# ---------------------------------------------------------------------------
# integers mod p^N
# ---------------------------------------------------------------------------


def vp(n: int, p: int, cap: int) -> int:
    """v_p(n), saturating at cap (so v_p(0) reads cap)."""
    n %= p**cap
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_vp(x: Fraction, p: int) -> int:
    """Exponent of p in a nonzero rational."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue_of(x: Fraction, p: int, N: int) -> int:
    """The residue r of a p-integral rational a/b: b r = a mod p^N."""
    m = p**N
    return x.numerator * pow(x.denominator, -1, m) % m


def horner(coeffs, x: int, m: int) -> int:
    """sum c_i x^i mod m, constant term first."""
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % m
    return out


def derivative(coeffs) -> list[int]:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def check_ring(p: int, N: int, a: int, b: int, out: dict) -> bool:
    """PAdicInt results against plain integer arithmetic mod p^N."""
    m = p**N
    ok = (
        out["mul_add"] == (a * b + b) % m
        and out["sub"] == (a - b) % m
        and out["neg"] == -a % m
    )
    if a % p:
        ok = ok and out["inv"] * a % m == 1
    else:
        ok = ok and out["inv"] is None
    return ok


def check_from_rational(x: Fraction, p: int, N: int, r: int) -> bool:
    """b r = a (mod p^N) for x = a/b."""
    m = p**N
    return 0 <= r < m and (x.denominator * r - x.numerator) % m == 0


def check_geometric(y: int, s: int, p: int, N: int) -> bool:
    """(1 - y) s = 1 (mod p^N) for the residues of y and of 1/(1 - y)."""
    m = p**N
    return (1 - y) * s % m == 1 % m


def check_scalar(expected: Fraction, r: int, p: int, N: int) -> bool:
    """A PAdicScalar reduced mod p^N equals the p-integral rational expected."""
    return r == residue_of(expected, p, N)


def check_cauchy(a: list[int], b: list[int], out: list[int], p: int, N: int) -> bool:
    """c_l = sum_j a_j b_(l-j), on integer sequences, mod p^N."""
    m = p**N
    want = [sum(a[j] * b[l - j] for j in range(len(a)) if 0 <= l - j < len(b)) % m
            for l in range(len(a) + len(b) - 1)]
    return out == want


def check_root(coeffs, p: int, N: int, x0: int, root: int, variant: str) -> bool:
    """f(root) = 0 (mod p^N) by our own Horner; v1 roots are x0 mod p,
    v2 and contraction roots satisfy v_p(root - x0) > v_p(f'(x0))."""
    m = p**N
    if not 0 <= root < m or horner(coeffs, root, m) != 0:
        return False
    if variant == "v1":
        return (root - x0) % p == 0
    k = vp(horner(derivative(coeffs), x0, p ** (N + 1)), p, N + 1)
    return vp(root - x0, p, N) > k


# ---------------------------------------------------------------------------
# exact linear algebra over Q
# ---------------------------------------------------------------------------


def det_leibniz(rows) -> Fraction:
    """det A = sum over permutations s of sgn(s) prod_i a_(i, s(i)).

    The sum is taken row by row; the partial sums over the set of columns
    the leading rows used are shared, which keeps 8 x 8 cheap.  Rows are
    scaled to integers first and the scale is divided out at the end.
    """
    n = len(rows)
    scale = 1
    ints = []
    for row in rows:
        d = 1
        for e in row:
            d = d * e.denominator // gcd(d, e.denominator)
        scale *= d
        ints.append([int(e * d) for e in row])
    partial = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = {}
        for used, val in partial.items():
            if val == 0:
                continue
            for j in range(n):
                bit = 1 << j
                if used & bit:
                    continue
                # columns already used to the right of j invert with j
                sign = -1 if bin(used >> j).count("1") % 2 else 1
                nxt[used | bit] = nxt.get(used | bit, 0) + sign * val * ints[i][j]
        partial = nxt
    return Fraction(partial.get((1 << n) - 1, 0), scale)


def inverse_over_q(rows) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse over Q, or None when singular."""
    n = len(rows)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def p_integral(x: Fraction, p: int) -> bool:
    return x.denominator % p != 0


def invertible_over_zp(rows, p: int) -> bool:
    """A lies in GL_n(Z_p) iff A and A^-1 both have p-integral entries."""
    if not all(p_integral(e, p) for row in rows for e in row):
        return False
    inv = inverse_over_q(rows)
    return inv is not None and all(p_integral(e, p) for row in inv for e in row)


def abs_p(x: Fraction, p: int) -> Fraction:
    return Fraction(0) if x == 0 else Fraction(p) ** (-rational_vp(x, p))


# ---------------------------------------------------------------------------
# mixed radices
# ---------------------------------------------------------------------------


def prefix_products(factors) -> list[int]:
    out = [1]
    for r in factors:
        out.append(out[-1] * r)
    return out


def radic_valuation(a: int, factors) -> int | None:
    """max l with R_l | a by direct divisibility; None when R_L | a."""
    R = prefix_products(factors)
    if a % R[-1] == 0:
        return None
    return max(l for l in range(len(R)) if a % R[l] == 0)


def radic_distance(a: int, b: int, factors) -> Fraction:
    """|a - b|_r with the default scales t_l = 1/R_l."""
    l = radic_valuation(a - b, factors)
    return Fraction(0) if l is None else Fraction(1, prefix_products(factors)[l])


def precedence_witness(r, r_prime) -> dict[int, int] | None:
    """For each level l of r, the least n with R_l | R'_n; None if some has none."""
    R, Rp = prefix_products(r), prefix_products(r_prime)
    out = {}
    for l in range(1, len(R)):
        n = next((n for n in range(len(Rp)) if Rp[n] % R[l] == 0), None)
        if n is None:
            return None
        out[l] = n
    return out


# ---------------------------------------------------------------------------
# Cantor products and Hausdorff contents
# ---------------------------------------------------------------------------


def iroot_exact(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 0 when n is a perfect k-th power."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        r = isqrt(n)
    else:
        # integer Newton from above: the iterates fall to the floor root
        r = 1 << -(-n.bit_length() // k)
        while True:
            y = ((k - 1) * r + n // r ** (k - 1)) // k
            if y >= r:
                break
            r = y
    return r if r**k == n else None


def power(t: Fraction, alpha: Fraction) -> Fraction:
    """t^alpha exactly; the benchmark only asks for exact powers."""
    base = t**alpha.numerator
    num = iroot_exact(base.numerator, alpha.denominator)
    den = iroot_exact(base.denominator, alpha.denominator)
    if num is None or den is None:
        raise ValueError(f"{t}^{alpha} is not rational")
    return Fraction(num, den)


def admissible_levels(scales, delta, closed: bool, measure: bool) -> list[int]:
    L = len(scales) - 1
    if measure:
        return [L]
    if delta is None:
        return list(range(L + 1))
    return [k for k in range(L + 1) if (scales[k] <= delta if closed else scales[k] < delta)]


def content_closed_form(factors, scales, alpha, depth_j, levels) -> Fraction:
    """Content of one depth-j cylinder (j = 0: the whole space):
    min over admissible k of max(1, N_k / N_j) h(t_k)."""
    N = prefix_products(factors)
    return min(max(Fraction(1), Fraction(N[k], N[depth_j])) * power(scales[k], alpha)
               for k in levels)


def content_by_trie(factors, scales, alpha, target, levels) -> Fraction:
    """Content of an antichain of cylinders by recursion over their prefix
    trie: a node is covered by one ball at its own level or by covering
    each child that meets the target; a node inside a target cylinder
    costs the closed form for a cylinder at that depth."""
    N = prefix_products(factors)
    h = {k: power(scales[k], alpha) for k in levels}

    def inside(j: int):
        opts = [Fraction(N[k], N[j]) * h[k] for k in levels if k >= j]
        return min(opts) if opts else None

    def cost(j: int, words):
        if any(len(w) == j for w in words):
            return inside(j)
        groups: dict[int, list] = {}
        for w in words:
            groups.setdefault(w[j], []).append(w)
        total = Fraction(0)
        for ws in groups.values():
            c = cost(j + 1, ws)
            if c is None:
                total = None
                break
            total += c
        options = [x for x in (total, h.get(j)) if x is not None]
        return min(options) if options else None

    return cost(0, [tuple(c) for c in target])


def measure_by_count(factors, scales, alpha, target) -> Fraction:
    """(#leaves in the target) h(t_L)."""
    N = prefix_products(factors)
    L = len(factors)
    leaves = sum(N[L] // N[len(c)] for c in target)
    return leaves * power(scales[L], alpha)


def dimension_value(factors, scales) -> float:
    """min_k log N_k / log(1/t_k)."""
    N = prefix_products(factors)
    return min(log(N[k]) / -log(scales[k]) for k in range(1, len(factors) + 1))


def check_dimension(factors, scales, tolerance: float, lo: float, hi: float) -> bool:
    d = dimension_value(factors, scales)
    slack = 1e-9 * max(1.0, d)
    return lo <= hi and hi - lo <= tolerance and lo - slack <= d <= hi + slack


def doubling_constants(factors, scales) -> tuple[int, int]:
    """(max factor, max over l of #{j >= l : t_j >= t_l / 2})."""
    census = max(sum(1 for j in range(l, len(scales)) if scales[j] >= scales[l] / 2)
                 for l in range(len(scales)))
    return max(factors), census


def check_isometry_report(rep: dict, R: int, cap: int, samples: int) -> bool:
    return (
        rep["bijective"] is True
        and rep["isometric"] is True
        and rep["pushforward_uniform"] is True
        and rep["pairs_checked"] == (R * R if R <= cap else samples)
    )


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


def tree_maximal(factors, mu, nu) -> list[Fraction]:
    """max over ancestor cylinders B of nu(B)/mu(B), from prefix sums over
    the leaves in digit order (a depth-k cylinder is a block of N_L/N_k)."""
    N = prefix_products(factors)
    L = len(factors)
    pm, pn = [0], [0]
    for w, v in zip(mu, nu):
        pm.append(pm[-1] + w)
        pn.append(pn[-1] + v)
    out = [Fraction(0)] * N[L]
    for k in range(L + 1):
        size = N[L] // N[k]
        for r in range(N[k]):
            lo, hi = r * size, (r + 1) * size
            ratio = (pn[hi] - pn[lo]) / (pm[hi] - pm[lo])
            for i in range(lo, hi):
                if ratio > out[i]:
                    out[i] = ratio
    return out


def weak_type_holds(mu, nu, M, C1) -> bool:
    """mu{M > t} <= C1 nu(X) / t for every t > 0.

    mu{M > t} only changes at values of M, and t mu{M > t} tends to
    v mu{M >= v} as t rises to a value v, so checking those limits
    covers every threshold.
    """
    total = sum(nu, Fraction(0))
    mass = Fraction(0)
    pairs = sorted(zip(M, mu), reverse=True)
    for i, (v, w) in enumerate(pairs):
        mass += w
        last = i + 1 == len(pairs) or pairs[i + 1][0] != v
        if last and v > 0 and v * mass > C1 * total:
            return False
    return True


def grid_maximal(mu, nu) -> list[Fraction]:
    """max over intervals [a, b] containing i of nu/mu, in O(m^2): for each
    left end a, the best right end at or after i is a suffix maximum."""
    m = len(mu)
    pm, pn = [0], [0]
    for w, v in zip(mu, nu):
        pm.append(pm[-1] + w)
        pn.append(pn[-1] + v)
    out = [Fraction(0)] * m
    for a in range(m):
        best = None
        suffix = [None] * m
        for b in range(m - 1, a - 1, -1):
            r = (pn[b + 1] - pn[a]) / (pm[b + 1] - pm[a])
            best = r if best is None or r > best else best
            suffix[b] = best
        for i in range(a, m):
            if suffix[i] > out[i]:
                out[i] = suffix[i]
    return out


def superlevel_mass(mu, M, t) -> Fraction:
    return sum((w for w, v in zip(mu, M) if v > t), Fraction(0))


def sqrt_bracket(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(x) <= hi with hi - lo = 2^-bits, via math.isqrt."""
    S = 1 << bits
    r = isqrt(x.numerator * S * S // x.denominator)
    return Fraction(r, S), Fraction(r + 1, S)


def pow_bracket(x: Fraction, p: Fraction, bits: int = 96) -> tuple[Fraction, Fraction]:
    """Bounds on x^p for x >= 0 and p in Z or Z + 1/2."""
    if p.denominator == 1:
        v = x ** p.numerator
        return v, v
    if p.denominator != 2:
        raise ValueError("only integer and half-integer exponents")
    if x == 0:
        return Fraction(0), Fraction(0)
    lo, hi = sqrt_bracket(x ** abs(p.numerator), bits)
    return (lo, hi) if p > 0 else (1 / hi, 1 / lo)


def lp_sides(f, factors, mu, p: Fraction, a: Fraction, C1: int = 1):
    """Brackets on int M(f)^p dmu and on p C1 (1-a)^-1 (p-1)^-1 a^(1-p) int |f|^p dmu."""
    nu = [abs(x) * w for x, w in zip(f, mu)]
    M = tree_maximal(factors, mu, nu)
    lhs = [sum(pow_bracket(v, p)[i] * w for v, w in zip(M, mu)) for i in (0, 1)]
    base = [sum(pow_bracket(abs(x), p)[i] * w for x, w in zip(f, mu)) for i in (0, 1)]
    c = [p * C1 / (1 - a) / (p - 1) * b for b in pow_bracket(a, 1 - p)]
    return (lhs[0], lhs[1]), (c[0] * base[0], c[1] * base[1])


def close(x: float, y: Fraction, rel: float = 1e-9) -> bool:
    return abs(x - float(y)) <= rel * max(1.0, abs(float(y)))


def block_averages(f, blocks, mu) -> list[Fraction]:
    out = [Fraction(0)] * len(f)
    for block in blocks:
        mass = sum(mu[i] for i in block)
        avg = sum(f[i] * mu[i] for i in block) / mass
        for i in block:
            out[i] = avg
    return out


def doob_reports(f, levels, mu, t):
    """(lhs, restricted, rhs) of mu{f_l^* > t} <= t^-1 int_A |f| <= t^-1 int |f| per level."""
    star = [Fraction(0)] * len(f)
    total = sum(abs(x) * w for x, w in zip(f, mu))
    out = []
    for blocks in levels:
        star = [max(s, abs(v)) for s, v in zip(star, block_averages(f, blocks, mu))]
        A = [i for i, s in enumerate(star) if s > t]
        out.append((sum((mu[i] for i in A), Fraction(0)),
                    sum((abs(f[i]) * mu[i] for i in A), Fraction(0)) / t,
                    total / t))
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def gram_is_identity(rows) -> bool:
    return all(
        v == (1 if i == j else 0) for i, row in enumerate(rows) for j, v in enumerate(row)
    )


def gram_close_to_identity(rows, tol: float) -> bool:
    """For a float Gram matrix given row by row (each row has tolist())."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row.tolist()):
            if abs(v - (1 if i == j else 0)) > tol:
                return False
    return True


def table_is_exact(n: int, turns) -> bool:
    """Row j, column a holds ja/n mod 1."""
    return len(turns) == n and all(
        len(row) == n and all(t == Fraction(j * a % n, n) for a, t in enumerate(row))
        for j, row in enumerate(turns)
    )
