"""Geometric audits: 1-Lipschitz/isometry classification, the mixed-radix
digit isometry, doubling conditions, and the distance to a cylinder union.

All verdicts are depth-relative: a confirmation reports the constant
realized so far, a refutation carries a reproducible witness.  The one
random draw is the isometry's seeded pairs past its exhaustive cap;
dist(., A) is locally constant off A for every A, so nothing samples it.
"""

from __future__ import annotations

import random  # the isometry's sampled pairs, whose count bench/checks.py pins
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .cantor import Cylinder, ProductMeasure, ProductSpec, match_length
from .errors import EmptySet
from .radic import Radix, lr_valuation


@dataclass(frozen=True)
class DigitMapFamily:
    """Level maps phi_k; each sees only the first k digits of its input."""

    level_maps: tuple  # level k entry: callable prefix(len k) -> digit

    def apply(self, x: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.level_maps[k](x[: k + 1]) for k in range(len(x)))

    @classmethod
    def from_level_permutations(cls, perms) -> "DigitMapFamily":
        return cls(tuple((lambda prefix, s=s: s[prefix[-1]]) for s in perms))

    @classmethod
    def constant(cls, word) -> "DigitMapFamily":
        return cls(tuple((lambda prefix, d=d: d) for d in word))


@dataclass
class DoublingReport:
    """``to_json`` keeps the constant as its Python repr string, which the
    benchmark's ``cli`` check compares; encoding it waits for that check."""

    verdict: bool
    constant: object
    witness: object = None
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "constant": str(self.constant),
            "witness": self.witness,
            "degenerate": self.degenerate,
        }


def _prefix_ids(words: list, depth: int):
    """For k = 1..depth, yield (count, ids): ids[i] numbers the k-prefix of
    words[i] in order of first occurrence, and count is how many there are.

    The k-prefix id is a dict lookup on (the (k-1)-prefix id, digit k), so
    the whole sweep is O(N * depth) and never slices a prefix.
    """
    ids = [0] * len(words)
    for column in islice(zip(*words), depth):
        number: dict[tuple[int, int], int] = {}
        ids = [number.setdefault(key, len(number)) for key in zip(ids, column)]
        yield len(number), ids


def classify_map(phi: DigitMapFamily, spec: ProductSpec) -> dict:
    """Semantic classification of phi from its N images, in match lengths.

    Scales strictly decrease, so phi is 1-Lipschitz iff at every level k
    the k-prefix of x determines that of phi(x), and an isometry iff this
    prefix map is also injective.  The points are in lexicographic order,
    so the k-prefix classes of x are blocks of N / N_k consecutive points:
    phi is 1-Lipschitz at level k iff the image prefix ids are constant on
    each block, and then an isometry there iff the N_k blocks have N_k
    distinct image prefixes.  One prefix-id sweep of the images, O(N * L).
    The witness is the first violating pair at the shallowest such level:
    the first point of its block and the first point that breaks it.
    """
    pts = list(spec.points())
    images = [phi.apply(x) for x in pts]
    if any(len(w) != spec.depth for w in images):
        raise ValueError("points must have full depth")
    n = len(pts)
    onto = len(set(images)) == n
    isometry = True
    block = n
    for factor, (count, ids) in zip(spec.factors, _prefix_ids(images, spec.depth)):
        block //= factor
        for start in range(0, n, block):
            run = ids[start : start + block]
            if run.count(run[0]) != block:
                bad = next(i for i, v in enumerate(run) if v != run[0])
                return {"one_lipschitz": False, "isometry": False, "onto": onto,
                        "witness": (pts[start], pts[start + bad])}
        isometry = isometry and count * block == n
    return {"one_lipschitz": True, "isometry": isometry, "onto": onto, "witness": None}


def mixed_radix_digits(a: int, radix: Radix) -> tuple[int, ...]:
    """theta_k(a) = (a div R_{k-1}) mod r_k, the canonical digit map."""
    digits = []
    for r in radix.factors:
        digits.append(a % r)
        a //= r
    return tuple(digits)


def _per_level_check(words: list, radix: Radix) -> tuple[bool, bool]:
    """(isometric, pushforward_uniform) for a -> words[a] on 0 <= a < n = len(words).

    At each level k with R_k | n, "a = b mod R_k" must be the same relation
    as "same first k digits": the k-prefix ids repeat with period R_k and
    take R_k values.  Each prefix must also carry n / R_k points, the Haar
    mass 1/R_k; periodic ids give every prefix that mass iff they take R_k
    values, so the masses are counted only at levels that are not periodic.
    Levels past the first R_k not dividing n are skipped.  One prefix-id
    sweep, O(n * L).
    """
    n = len(words)
    isometric = pushforward_uniform = True
    levels = _prefix_ids(words, radix.depth)
    for R_k in radix.prefix[1:]:
        if n % R_k:
            break
        count, ids = next(levels)
        periodic = ids == ids[:R_k] * (n // R_k)
        isometric = isometric and periodic and count == R_k
        pushforward_uniform = pushforward_uniform and count == R_k and (
            periodic or all(c * R_k == n for c in Counter(ids).values()))
    return isometric, pushforward_uniform


def build_radic_isometry(
    radix: Radix,
    exhaustive_cap: int = 4096,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Bijection Z/R_L -> digit words preserving the r-adic metric.

    The digit words of 0 <= a < B are computed once, B = R_L when
    R_L <= exhaustive_cap, else the largest R_k <= exhaustive_cap (1 when
    already r_1 exceeds it).  On them the map must be injective, and at
    every level k with R_k | B the residues mod R_k must match the k-digit
    prefixes one to one, each prefix receiving Haar mass 1/R_k: one
    prefix-id sweep, O(B * L), equivalent to l_r(a - b) = match length
    for all R_L^2 pairs when B = R_L.  Past the cap, ``samples`` seeded
    random pairs are also compared in integers: l_r(a - b) against the
    match length, which decides the metric because the scales strictly
    decrease.  Pair i agrees with x mod R_k for k = i mod L, so every
    level is sampled, not only the levels two uniform points reach; a
    pair x != y with one word also refutes ``bijective``.  There
    ``bijective`` is the enumerated points and the pairs checked, and
    ``pushforward_uniform`` the enumerated levels only.  The check stops
    at the first failing pair; fewer than one sample raises ValueError,
    since no pair would be checked.
    """
    R = radix.modulus
    if R > exhaustive_cap and samples < 1:
        raise ValueError(f"the sampled check needs samples >= 1, got {samples}")

    enum_bound = max((R_k for R_k in radix.prefix if R_k <= exhaustive_cap), default=1)
    words = [mixed_radix_digits(a, radix) for a in range(enum_bound)]
    bijective = len(set(words)) == enum_bound
    isometric, pushforward_uniform = _per_level_check(words, radix)
    if R <= exhaustive_cap:
        pairs_checked = R * R
    else:
        getrandbits = random.Random(seed).getrandbits
        bits = R.bit_length()
        L = radix.depth
        pairs_checked = samples
        for i in range(samples):
            # randrange(R) without its call overhead: CPython draws R.bit_length()
            # bits until they fall below R, so the pairs are the same
            x = getrandbits(bits)
            while x >= R:
                x = getrandbits(bits)
            y = getrandbits(bits)
            while y >= R:
                y = getrandbits(bits)
            R_k = radix.prefix[i % L]
            y += x % R_k - y % R_k  # pair i agrees mod R_k, k = i mod L
            wx, wy = mixed_radix_digits(x, radix), mixed_radix_digits(y, radix)
            l = lr_valuation(x - y, radix)
            if (L if l is None else l) != match_length(wx, wy):
                isometric = False
                bijective = bijective and wx != wy
                break
    return {
        "bijective": bijective,
        "isometric": isometric,
        "pushforward_uniform": pushforward_uniform,
        "pairs_checked": pairs_checked,
    }


def doubling_metric(spec: ProductSpec, candidate: int | None = None) -> DoublingReport:
    """Audit the two finite-depth doubling obstructions.

    The branching numbers must stay bounded and, for every level l, only
    boundedly many scales may sit in [t_l/2, t_l].  The scales strictly
    decrease, so those scales are t_l, ..., t_{m-1} for an m that never
    decreases with l: one forward sweep, O(L) integer comparisons
    2 * num_j * den_l >= num_l * den_j.  With a candidate bound the audit
    refutes on the first level exceeding it.
    """
    factor_bound = max(spec.factors)
    nums = [t.numerator for t in spec.scales]
    dens = [t.denominator for t in spec.scales]
    census = 0
    census_witness = None
    m = 0  # first j past the run of scales >= t_l / 2, which starts at t_l
    for l in range(spec.depth + 1):
        while m <= spec.depth and 2 * nums[m] * dens[l] >= nums[l] * dens[m]:
            m += 1
        if m - l > census:
            census = m - l
            census_witness = l
    constant = {"factor_bound": factor_bound, "scale_census": census}
    if candidate is not None:
        if factor_bound > candidate:
            level = spec.factors.index(factor_bound) + 1
            return DoublingReport(False, constant, {"kind": "factor", "level": level})
        if census > candidate:
            return DoublingReport(
                False, constant, {"kind": "scale-census", "level": census_witness}
            )
    return DoublingReport(True, constant)


def doubling_measure(
    spec: ProductSpec, mu: ProductMeasure, candidate: int | None = None
) -> DoublingReport:
    """Doubling of the product measure at finite depth.

    Needs the metric audit to pass and the digit weights to stay bounded
    below; a zero weight is reported as degenerate rather than thrown, and
    weights that do not fit spec raise ValueError.  Each level's least
    weight is taken once; ``constant["min_weight"]`` is the least of them,
    1 / ``ratio_c2``.  A candidate C then costs one integer comparison per
    level: level j fails when min(mu_j) * C < 1, i.e. when some
    1/mu_j({x}) exceeds C.
    """
    minima = _level_minima(spec, mu)
    least = min(minima, default=Fraction(1))
    if least == 0:
        return DoublingReport(False, {"min_weight": 0}, degenerate=True)
    metric = doubling_metric(spec, candidate)
    verdict = metric.verdict
    witness = metric.witness
    if candidate is not None and verdict:
        # weight lower bound translates to a mass-ratio bound per level
        for j, w in enumerate(minima):
            if w.numerator * candidate < w.denominator:
                verdict = False
                witness = {"kind": "weight", "level": j + 1}
                break
    return DoublingReport(verdict, {"min_weight": least, "metric": metric.constant}, witness)


def _check_fit(spec: ProductSpec, mu: ProductMeasure) -> None:
    """ValueError unless mu has one weight per digit at every level of spec."""
    lengths = tuple(len(level) for level in mu.weights)
    if lengths != spec.factors:
        raise ValueError(f"weight lengths {list(lengths)} do not fit factors {list(spec.factors)}")


def _level_minima(spec: ProductSpec, mu: ProductMeasure) -> list[Fraction]:
    """The least weight of each level, once mu is checked to fit spec."""
    _check_fit(spec, mu)
    return [min(level) for level in mu.weights]


def ratio_c2(spec: ProductSpec, mu: ProductMeasure) -> Fraction | None:
    """Exact max closed-ball/open-ball measure ratio; None when infinite.

    At grid radius t_k the open ball is the depth-(k+1) cylinder and the
    closed ball the depth-k one, so the ratio is max_j max_x 1/mu_j({x}).
    ValueError unless mu has one weight per digit at every level of spec.
    """
    least = min(_level_minima(spec, mu), default=Fraction(1))
    return None if least == 0 else 1 / least


def uniform_distribution_check(spec: ProductSpec, mu: ProductMeasure) -> dict:
    """mu(B_k(x)) independent of x at each depth k, with the profile h(t_k).

    mu is uniform to depth k iff every level j <= k has equal weights: two
    cylinders that differ only in a digit of weight w_a < w_b, the others
    of positive weight, differ in mass.  So each level is decided once, in
    O(sum_j n_j).  At the first unequal level k the witness is the depth-k
    prefixes 0...0a and 0...0b, a and b the first digits of least and of
    greatest weight; ``profile`` maps t_j to h(t_j) for each j < k and
    stops there, since past it no one mass exists.  ValueError unless mu
    has one weight per digit at every level of spec.
    """
    _check_fit(spec, mu)
    profile = {}
    h = Fraction(1)
    for k, level in enumerate(mu.weights, 1):
        lo, hi = min(level), max(level)
        if lo != hi:
            zeros = (0,) * (k - 1)
            witness = (zeros + (level.index(lo),), zeros + (level.index(hi),))
            return {"uniform": False, "profile": profile, "witness": witness}
        h *= lo
        profile[str(spec.scales[k])] = h
    return {"uniform": True, "profile": profile, "witness": None}


def dist_to_set(x, A: list[Cylinder], spec: ProductSpec) -> Fraction:
    """dist(x, A) over a nonempty cylinder union, exact on the scale grid."""
    if not A:
        raise EmptySet("distance to the empty set is undefined")
    best = None
    x = tuple(x)
    for c in A:
        l = match_length(x[: c.depth], c.digits)
        if l == c.depth:
            return Fraction(0)
        d = spec.scales[l]
        if best is None or d < best:
            best = d
    return best
