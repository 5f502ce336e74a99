"""Geometric audits: 1-Lipschitz/isometry classification, the mixed-radix
digit isometry, doubling conditions, and distance-function local constancy.

All verdicts are depth-relative: a confirmation reports the constant
realized so far, a refutation carries a reproducible witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cantor import Cylinder, ProductMeasure, ProductSpec, match_and_dist, match_length
from .errors import EmptySet
from .radic import Radix, ScaleSeq, default_scales, lr_valuation


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


def classify_map(phi: DigitMapFamily, spec: ProductSpec) -> dict:
    """Semantic classification of phi from its N images, in match lengths.

    Scales strictly decrease, so phi is 1-Lipschitz iff at every level k
    the k-prefix of x determines that of phi(x), and an isometry iff this
    prefix map is also injective: one dict per level, O(N * L).  The
    witness is the first violating pair at the shallowest such level.
    """
    pts = list(spec.points())
    images = [phi.apply(x) for x in pts]
    if any(len(w) != spec.depth for w in images):
        raise ValueError("points must have full depth")
    onto = len(set(images)) == len(pts)
    isometry = True
    for k in range(1, spec.depth + 1):
        first: dict[tuple[int, ...], tuple] = {}  # k-prefix of x -> (x, k-prefix of phi(x))
        for x, w in zip(pts, images):
            y, v = first.setdefault(x[:k], (x, w[:k]))
            if v != w[:k]:
                return {"one_lipschitz": False, "isometry": False, "onto": onto, "witness": (y, x)}
        isometry = isometry and len({v for _, v in first.values()}) == len(first)
    return {"one_lipschitz": True, "isometry": isometry, "onto": onto, "witness": None}


def mixed_radix_digits(a: int, radix: Radix) -> tuple[int, ...]:
    """theta_k(a) = (a div R_{k-1}) mod r_k, the canonical digit map."""
    digits = []
    for r in radix.factors:
        a, d = divmod(a, r)
        digits.append(d)
    return tuple(digits)


def _per_level_check(words: list, radix: Radix) -> tuple[bool, bool]:
    """(isometric, pushforward_uniform) for a -> words[a] on 0 <= a < n = len(words).

    At each level k with R_k | n, "a = b mod R_k" must be the same relation
    as "same first k digits": every k-prefix maps to one residue mod R_k and
    there are R_k prefixes.  Each prefix must also carry n / R_k points, the
    Haar mass 1/R_k.  Levels past the first R_k not dividing n are skipped.
    """
    n = len(words)
    isometric = pushforward_uniform = True
    for k in range(1, radix.depth + 1):
        R_k = radix.cumulative(k)
        if n % R_k:
            break
        residue: dict[tuple[int, ...], int] = {}
        mass: dict[tuple[int, ...], int] = {}
        for a, w in enumerate(words):
            prefix = w[:k]
            if residue.setdefault(prefix, a % R_k) != a % R_k:
                isometric = False
            mass[prefix] = mass.get(prefix, 0) + 1
        isometric = isometric and len(residue) == R_k
        pushforward_uniform = pushforward_uniform and all(c * R_k == n for c in mass.values())
    return isometric, pushforward_uniform


def build_radic_isometry(
    radix: Radix,
    t: ScaleSeq | None = None,
    exhaustive_cap: int = 4096,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Bijection Z/R_L -> digit words preserving the r-adic metric.

    The digit words of 0 <= a < B are computed once, B = R_L when
    R_L <= exhaustive_cap, else the largest R_k <= exhaustive_cap (1 when
    already r_1 exceeds it).  On them the map must be injective, and at
    every level k with R_k | B the residues mod R_k must match the k-digit
    prefixes one to one, each prefix receiving Haar mass 1/R_k; this costs
    O(B * L) and is equivalent to l_r(a - b) = match length for all R_L^2
    pairs when B = R_L.  Past the cap, ``samples`` seeded random pairs are
    also compared in integers: l_r(a - b) against the match length, which
    decides the metric because the scales strictly decrease; fewer than
    one sample there raises ValueError, since no pair would be checked.
    """
    if t is None:
        t = default_scales(radix)
    spec = ProductSpec(radix.factors, t.scales)
    R = radix.modulus
    if R > exhaustive_cap and samples < 1:
        raise ValueError(f"the sampled check needs samples >= 1, got {samples}")

    def psi(a: int) -> tuple[int, ...]:
        return mixed_radix_digits(a, radix)

    enum_bound = max((R_k for R_k in radix.prefix if R_k <= exhaustive_cap), default=1)
    words = [psi(a) for a in range(enum_bound)]
    bijective = len(set(words)) == enum_bound
    isometric, pushforward_uniform = _per_level_check(words, radix)
    if R <= exhaustive_cap:
        pairs_checked = R * R
    else:
        randrange = random.Random(seed).randrange
        L = radix.depth
        pairs_checked = samples
        for _ in range(samples):
            x, y = randrange(R), randrange(R)
            l = lr_valuation(x - y, radix)
            if (L if l is None else l) != match_length(psi(x), psi(y)):
                isometric = False
                break
    return {
        "bijective": bijective,
        "isometric": isometric,
        "pushforward_uniform": pushforward_uniform,
        "pairs_checked": pairs_checked,
        "map": psi,
        "spec": spec,
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
    weights that do not fit spec raise ValueError (from ``ratio_c2``).
    A candidate C then costs one pass over the weights: level j fails when
    min(mu_j) * C < 1, i.e. when some 1/mu_j({x}) exceeds C.
    """
    c2 = ratio_c2(spec, mu)
    if c2 is None:
        return DoublingReport(False, {"min_weight": 0}, degenerate=True)
    metric = doubling_metric(spec, candidate)
    verdict = metric.verdict
    witness = metric.witness
    if candidate is not None and verdict:
        # weight lower bound translates to a mass-ratio bound per level
        for j, level in enumerate(mu.weights):
            if min(level) * candidate < 1:
                verdict = False
                witness = {"kind": "weight", "level": j + 1}
                break
    constant = {
        "min_weight": 1 / c2,
        "metric": metric.constant,
    }
    return DoublingReport(verdict, constant, witness)


def _check_fit(spec: ProductSpec, mu: ProductMeasure) -> None:
    """ValueError unless mu has one weight per digit at every level of spec."""
    lengths = tuple(len(level) for level in mu.weights)
    if lengths != spec.factors:
        raise ValueError(f"weight lengths {list(lengths)} do not fit factors {list(spec.factors)}")


def ratio_c2(spec: ProductSpec, mu: ProductMeasure) -> Fraction | None:
    """Exact max closed-ball/open-ball measure ratio; None when infinite.

    At grid radius t_k the open ball is the depth-(k+1) cylinder and the
    closed ball the depth-k one, so the ratio is max_j max_x 1/mu_j({x}).
    ValueError unless mu has one weight per digit at every level of spec.
    """
    _check_fit(spec, mu)
    min_weight = min((w for level in mu.weights for w in level), default=Fraction(1))
    return None if min_weight == 0 else 1 / min_weight


def uniform_distribution_check(spec: ProductSpec, mu: ProductMeasure) -> dict:
    """mu(B_k(x)) independent of x at each depth, with the profile h(t_k);
    ValueError unless mu has one weight per digit at every level of spec."""
    _check_fit(spec, mu)
    profile = {}
    witness = None
    uniform = True
    mass = {(): Fraction(1)}
    for k in range(1, spec.depth + 1):
        new_mass = {}
        for prefix, m in mass.items():
            for d in range(spec.branching(k - 1)):
                new_mass[prefix + (d,)] = m * mu.weights[k - 1][d]
        values = set(new_mass.values())
        if len(values) > 1 and uniform:
            uniform = False
            it = iter(sorted(new_mass.items()))
            witness = (next(it)[0], next(it)[0])
        profile[str(spec.scales[k])] = next(iter(values))
        mass = new_mass
    return {"uniform": uniform, "profile": profile, "witness": witness}


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


def dist_local_constancy(
    spec: ProductSpec, A: list[Cylinder], samples: int = 200, seed: int = 0
) -> dict:
    """Exact local constancy of dist(., A) plus its 1-Lipschitz bound."""
    rng = random.Random(seed)
    violations = []
    lipschitz_violations = []
    pts = list(spec.points())
    for _ in range(samples):
        x = rng.choice(pts)
        y = rng.choice(pts)
        dx = dist_to_set(x, A, spec)
        dy = dist_to_set(y, A, spec)
        d = match_and_dist(x, y, spec)[1]
        if d < dx and dx != dy:
            violations.append((x, y))
        if abs(dx - dy) > d:
            lipschitz_violations.append((x, y))
    return {
        "locally_constant": not violations,
        "one_lipschitz": not lipschitz_violations,
        "violations": violations,
        "lipschitz_violations": lipschitz_violations,
    }
