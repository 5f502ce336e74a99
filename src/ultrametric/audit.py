"""Geometric audits: 1-Lipschitz/isometry classification, the mixed-radix
digit isometry, doubling conditions, and the distance to a cylinder union.

All verdicts are depth-relative: a confirmation reports the constant
realized so far, a refutation carries a reproducible witness.  The one
random draw is the isometry's seeded pairs past its exhaustive cap;
dist(., A) is locally constant off A for every A, so nothing samples it.
Every digit comes from one rule, ``_digit_columns``: the isometry's
enumeration streams its columns into one prefix-id sweep, which stops
once the levels left can change no verdict, its sampled pairs are read
level by level, and ``mixed_radix_digits`` is its view of one value.
"""

from __future__ import annotations

import random  # the isometry's sampled pairs, whose count bench/checks.py pins
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import and_, eq, ne

from .cantor import Cylinder, ProductMeasure, ProductSpec, check_point, match_length, validate_cylinder
from .errors import EmptySet
from .radic import Radix


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


def _prefix_ids(columns):
    """For each column k = 1, 2, ... of the digit columns, yield (count, ids):
    ids[i] numbers the k-prefix of word i in order of first occurrence, and
    count is how many there are.

    The k-prefix id is a dict lookup on (the (k-1)-prefix id, digit k), so
    the whole sweep is O(N * depth) and never slices a prefix.
    """
    ids = repeat(0)
    for column in columns:
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
    for factor, (count, ids) in zip(spec.factors, _prefix_ids(zip(*images))):
        block //= factor
        for start in range(0, n, block):
            run = ids[start : start + block]
            if run.count(run[0]) != block:
                bad = next(i for i, v in enumerate(run) if v != run[0])
                return {"one_lipschitz": False, "isometry": False, "onto": onto,
                        "witness": (pts[start], pts[start + bad])}
        isometry = isometry and count * block == n
    return {"one_lipschitz": True, "isometry": isometry, "onto": onto, "witness": None}


def _digit_columns(values, radix: Radix):
    """The digits theta_k(a) = (a div R_{k-1}) mod r_k of the values, one
    level at a time: yields the list of level-k digits, k = 1..L, of the
    values still kept.  A mask sent in place of ``next`` keeps the values
    where it is true, and later levels divide only those.  The one digit
    rule of this module: a % r_k is the digit, a // r_k goes on.
    """
    quotients = values
    *inner, last = radix.factors
    for r in inner:
        keep = yield [a % r for a in quotients]
        if keep is not None:
            quotients = compress(quotients, keep)
        quotients = [a // r for a in quotients]
    yield [a % last for a in quotients]


def mixed_radix_digits(a: int, radix: Radix) -> tuple[int, ...]:
    """theta(a) = (theta_1(a), ..., theta_L(a)), the canonical digit map:
    ``_digit_columns`` read for one value."""
    return tuple(column[0] for column in _digit_columns((a,), radix))


def _per_level_check(columns, n: int, radix: Radix) -> tuple[bool, bool, bool]:
    """(bijective, isometric, pushforward_uniform) for the map from
    0 <= a < n to the words whose digit columns ``columns`` yields.

    At each level k with R_k | n, "a = b mod R_k" must be the same relation
    as "same first k digits": the k-prefix ids repeat with period R_k and
    take R_k values.  Each prefix must also carry n / R_k points, the Haar
    mass 1/R_k; periodic ids give every prefix that mass iff they take R_k
    values, so the masses are counted only at levels that are not periodic.
    Levels past the first R_k not dividing n are not checked.  The map is
    bijective iff the last level read has n distinct prefixes; the count
    never falls as k grows, so the sweep stops at the first level past the
    checked ones where it is n, and reads no deeper column.  One prefix-id
    sweep, O(n * levels read).
    """
    isometric = pushforward_uniform = True
    for R_k, (count, ids) in zip(radix.prefix[1:], _prefix_ids(columns)):
        if n % R_k:
            if count == n:
                break
            continue
        periodic = ids == ids[:R_k] * (n // R_k)
        isometric = isometric and periodic and count == R_k
        pushforward_uniform = pushforward_uniform and count == R_k and (
            periodic or all(c * R_k == n for c in Counter(ids).values()))
    return count == n, isometric, pushforward_uniform


def _sampled_pairs(radix: Radix, samples: int, seed: int) -> tuple[list[int], list[int]]:
    """The seeded pairs, as lists xs, ys drawn in one batch.

    CPython's randrange(R) draws R.bit_length() bits until they fall below
    R, so the accepted draws of one stream are the values randrange gives:
    pair i is accepted draws 2i and 2i + 1, then y moves to agree with x
    mod R_k for k = i mod L, one slice of the pairs per k.
    """
    R = radix.modulus
    L = radix.depth
    getrandbits = random.Random(seed).getrandbits
    bits = R.bit_length()
    drawn: list[int] = []
    while len(drawn) < 2 * samples:
        drawn += [v for v in map(getrandbits, repeat(bits, 2 * samples - len(drawn))) if v < R]
    xs, ys = drawn[::2], drawn[1::2]
    for k in range(1, L):
        R_k = radix.prefix[k]
        part = slice(k, None, L)
        ys[part] = [y - y % R_k + x % R_k for x, y in zip(xs[part], ys[part])]
    return xs, ys


def _first_failing_pair(xs: list, ys: list, radix: Radix) -> int | None:
    """The least i with l_r(xs[i] - ys[i]) != the match length of the two
    words, or None, in one level-by-level sweep over the pairs.

    At level k a pair has two flags: ``same``, digit k of x equals digit k
    of y, and ``div``, R_k | x - y.  The match length is the number of
    leading levels with ``same``.  R_(k-1) | R_k, so the levels k >= 1 with
    R_k | x - y are 1..l_r(x - y): l_r, read as L when saturated, is the
    number of leading levels with ``div``, and ``div`` at level k is the
    test ``lr_valuation`` makes there.  The two counts are equal iff the
    flags agree at every level up to the first where one is false, and
    there both are: a pair fails at the first level where ``same != div``
    and is settled, and leaves the sweep, where both are false.  A pair
    stays at most to its first level past its match length, so the sweep
    costs O(levels until settled) per pair.
    """
    gx, gy = _digit_columns(xs, radix), _digit_columns(ys, radix)
    cx, cy = next(gx), next(gy)
    live = list(range(len(xs)))
    diffs = [x - y for x, y in zip(xs, ys)]
    first = None
    for k, R_k in enumerate(radix.prefix[1:], 1):
        same = list(map(eq, cx, cy))
        div = [not d % R_k for d in diffs]
        keep = same
        if same != div:
            j = list(map(ne, same, div)).index(True)
            first = live[j] if first is None else min(first, live[j])
            keep = list(map(and_, same, div))
        if k == radix.depth or not any(keep):
            break
        live = list(compress(live, keep))
        diffs = list(compress(diffs, keep))
        cx, cy = gx.send(keep), gy.send(keep)
    return first


def build_radic_isometry(
    radix: Radix,
    exhaustive_cap: int = 4096,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Bijection Z/R_L -> digit words preserving the r-adic metric.

    The digit columns of 0 <= a < B are enumerated, B = R_L when
    R_L <= exhaustive_cap, else the largest R_k <= exhaustive_cap (1 when
    already r_1 exceeds it).  On them the map must be injective, and at
    every level k with R_k | B the residues mod R_k must match the k-digit
    prefixes one to one, each prefix receiving Haar mass 1/R_k: one
    prefix-id sweep over the columns as they are yielded, which stops at
    the first level past R_k | B whose B prefixes are distinct (O(B * L)
    at most), equivalent to l_r(a - b) = match length for all R_L^2 pairs
    when B = R_L.  Past the cap, ``samples`` seeded random pairs are also
    compared in integers: l_r(a - b) against the match length, which
    decides the metric because the scales strictly decrease.  Pair i
    agrees with x mod R_k for k = i mod L, so every level is sampled, not
    only the levels two uniform points reach; a pair x != y with one word
    also refutes ``bijective``.  All the pairs are drawn at once and
    compared in one sweep over the levels (``_first_failing_pair``): a
    pair leaves the sweep at its first level where neither its digits
    agree nor R_k divides x - y, so the sampled check costs
    O(samples * levels until settled).  There ``bijective`` is the
    enumerated points and the lowest failing pair, and
    ``pushforward_uniform`` the enumerated levels only.  Fewer than one
    sample raises ValueError, since no pair would be checked.
    """
    R = radix.modulus
    if R > exhaustive_cap and samples < 1:
        raise ValueError(f"the sampled check needs samples >= 1, got {samples}")

    enum_bound = max((R_k for R_k in radix.prefix if R_k <= exhaustive_cap), default=1)
    bijective, isometric, pushforward_uniform = _per_level_check(
        _digit_columns(range(enum_bound), radix), enum_bound, radix)
    if R <= exhaustive_cap:
        pairs_checked = R * R
    else:
        pairs_checked = samples
        xs, ys = _sampled_pairs(radix, samples, seed)
        i = _first_failing_pair(xs, ys, radix)
        if i is not None:
            isometric = False
            wx, wy = mixed_radix_digits(xs[i], radix), mixed_radix_digits(ys[i], radix)
            bijective = bijective and wx != wy
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
    x = check_point(x, spec)
    for c in A:
        validate_cylinder(c, spec)
    best = None
    for c in A:
        l = match_length(x[: c.depth], c.digits)
        if l == c.depth:
            return Fraction(0)
        d = spec.scales[l]
        if best is None or d < best:
            best = d
    return best
