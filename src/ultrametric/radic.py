"""Mixed-radix (r-adic) integers as truncated coherent sequences.

A radix r = (r_1, ..., r_L) with all r_j >= 2 induces moduli
R_l = r_1 * ... * r_l and the valuation l_r(a) = max { l : R_l | a }.
The metric uses a strictly decreasing scale sequence t, default t_l = 1/R_l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import index, mul

from .errors import InvalidResidue, NotComparable, RadixMismatch


@dataclass(frozen=True)
class LevelGrid:
    """Factors r_1, ..., r_L, each >= 2, with prefix products computed once.

    ``prefix[l]`` is R_l = r_1 * ... * r_l, so ``prefix[0]`` = 1.  Radices
    and Cantor products are level grids; a periodic radix repeats its
    factors, which defines R_l past the stored depth.
    """

    factors: tuple[int, ...]
    prefix: tuple[int, ...] = field(init=False, repr=False, compare=False)
    periodic = False  # a field of Radix, a constant of every other grid

    def __post_init__(self):
        fs = tuple(map(index, self.factors))
        if any(r < 2 for r in fs):
            raise ValueError("every factor must be >= 2")
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "prefix", tuple(accumulate(fs, mul, initial=1)))

    @property
    def depth(self) -> int:
        return len(self.factors)

    def cumulative(self, l: int) -> int:
        """R_l = prod_{j<=l} r_j, with R_0 = 1.

        For a periodic radix, l may exceed the stored depth:
        R_l = R_L^(l // L) * R_(l mod L).
        """
        if l < 0:
            raise ValueError(f"depth {l} is negative")
        if l <= self.depth:
            return self.prefix[l]
        if not self.periodic:
            raise ValueError(f"depth {l} exceeds truncation {self.depth}")
        q, s = divmod(l, self.depth)
        return self.prefix[-1] ** q * self.prefix[s]

    @property
    def modulus(self) -> int:
        return self.prefix[-1]


@dataclass(frozen=True)
class Radix(LevelGrid):
    """Finite radix truncation; ``periodic`` means the digit list repeats."""

    periodic: bool = False

    def __post_init__(self):
        super().__post_init__()
        if not self.factors:
            raise ValueError("a radix needs at least one factor")


def check_scales(scales, depth: int) -> tuple[Fraction, ...]:
    """The scales as Fractions, checked to satisfy 1 = t_0 > t_1 > ... > t_depth > 0."""
    t = tuple(Fraction(x) for x in scales)
    if not t or t[0] != 1:
        raise ValueError("t_0 must equal 1")
    if any(a <= b for a, b in zip(t, t[1:])) or t[-1] <= 0:
        raise ValueError("scales must be strictly decreasing and positive")
    if len(t) != depth + 1:
        raise ValueError(f"need {depth + 1} scales t_0 = 1 .. t_{depth}, got {len(t)}")
    return t


def default_scales(grid: LevelGrid) -> tuple[Fraction, ...]:
    """The canonical choice t_l = 1/R_l."""
    return tuple(Fraction(1, R) for R in grid.prefix)


def lr_valuation(a: int, radix: Radix) -> int | None:
    """Largest l <= L with R_l | a; None flags saturation (a = 0 mod R_L).
    Stops at the first R_l not dividing a: l_r(a) + 2 remainders at most."""
    for l, R in enumerate(radix.prefix):
        if a % R:
            return l - 1
    return None


def lr_and_abs(a: int, radix: Radix, t=None) -> tuple[int | None, Fraction]:
    """(l_r(a), |a|_r = t_{l_r(a)}); saturated valuation gives |a|_r = 0.
    ``t`` defaults to t_l = 1/R_l; a given ``t`` must pass ``check_scales``."""
    if t is not None:
        t = check_scales(t, radix.depth)
    l = lr_valuation(a, radix)
    if l is None:
        return None, Fraction(0)
    return l, Fraction(1, radix.prefix[l]) if t is None else t[l]


def radic_dist(a: int, b: int, radix: Radix, t=None) -> Fraction:
    return lr_and_abs(a - b, radix, t)[1]


def embed_q(a: int, radix: Radix) -> tuple[int, ...]:
    """The coherent sequence (a mod R_1, ..., a mod R_L)."""
    return tuple(a % radix.cumulative(l) for l in range(1, radix.depth + 1))


def coherence_check(x: tuple[int, ...], radix: Radix) -> bool:
    """True iff x_{l+1} reduces to x_l at every level."""
    if len(x) != radix.depth:
        raise InvalidResidue(f"expected {radix.depth} residues, got {len(x)}")
    for l in range(radix.depth):
        if not 0 <= x[l] < radix.cumulative(l + 1):
            raise InvalidResidue(f"residue {x[l]} out of range at level {l + 1}")
    return all(
        x[l + 1] % radix.cumulative(l + 1) == x[l] for l in range(radix.depth - 1)
    )


@dataclass(frozen=True)
class RadicInt:
    """Residue mod R_L; the induced sequence a mod R_l is coherent by construction."""

    radix: Radix
    residue: int

    def __post_init__(self):
        object.__setattr__(self, "residue", index(self.residue) % self.radix.modulus)

    def _operand(self, other: "RadicInt") -> int:
        """The residue of a RadicInt of the same radix: each operator builds one RadicInt."""
        if self.radix != other.radix:
            raise RadixMismatch(f"{self.radix} vs {other.radix}")
        return other.residue

    def __add__(self, other: "RadicInt") -> "RadicInt":
        return RadicInt(self.radix, self.residue + self._operand(other))

    def __neg__(self) -> "RadicInt":
        return RadicInt(self.radix, -self.residue)

    def __sub__(self, other: "RadicInt") -> "RadicInt":
        return RadicInt(self.radix, self.residue - self._operand(other))

    def __mul__(self, other: "RadicInt") -> "RadicInt":
        return RadicInt(self.radix, self.residue * self._operand(other))

    def __repr__(self):
        return f"{self.residue} mod {self.radix.modulus}"


def haar_ball(n: int, radix: Radix) -> Fraction:
    """H(Y_n) = 1/R_n; the whole space Y_0 has mass 1."""
    return Fraction(1, radix.cumulative(n))


@dataclass
class PrecedenceWitness:
    """For each level l of r, the least n with R_l | R'_n."""

    witnesses: dict[int, int] = field(default_factory=dict)


def preceq(r: Radix, r_prime: Radix, search_depth: int = 64) -> PrecedenceWitness:
    """Witness that every R_l divides some R'_n, n <= search_depth.

    Raises NotComparable at the first level l with no witness; reason
    "coprime" when some prime of R_l never appears in r', "search-exhausted"
    otherwise.  One forward scan: R_l | R_(l+1), so the least witness n(l)
    never decreases and R'_n grows by one factor per step of n.  A level is
    coprime iff its new factor r_l keeps a part > 1 after dividing out its
    gcds with R'_L, so nothing is factored and a coprime level costs no step.
    """
    max_n = search_depth if r_prime.periodic else min(search_depth, r_prime.depth)
    witness = PrecedenceWitness()
    n, R_n = 0, 1
    for l in range(1, r.depth + 1):
        R_l, rest = r.prefix[l], r.factors[l - 1]
        while (g := gcd(rest, r_prime.modulus)) > 1:
            rest //= g
        while rest == 1 and R_n % R_l and n < max_n:
            R_n *= r_prime.factors[n % r_prime.depth]
            n += 1
        if rest > 1 or R_n % R_l:
            reason = "coprime" if rest > 1 else "search-exhausted"
            raise NotComparable(
                f"R_{l} = {R_l} divides no R'_n for n <= {max_n} ({reason})",
                reason, max_n, l, R_l,
            )
        witness.witnesses[l] = n
    return witness


def project(x_prime: RadicInt, r: Radix, search_depth: int = 64) -> RadicInt:
    """Ring homomorphism Y' -> Y along a preceq witness: x_l = x'_{n(l)} mod R_l.

    Since R_L | R'_{n(L)}, that is x' mod R_L; the witness is the certificate
    that the map exists."""
    # residues of x' beyond its truncation are unknown, so the witness
    # search is capped at the stored depth regardless of periodicity
    preceq(r, Radix(x_prime.radix.factors), search_depth)
    return RadicInt(r, x_prime.residue)
