"""Mixed-radix (r-adic) integers as truncated coherent sequences.

A radix r = (r_1, ..., r_L) with all r_j >= 2 induces moduli
R_l = r_1 * ... * r_l and the valuation l_r(a) = max { l : R_l | a }.
The metric uses a strictly decreasing scale sequence t, default t_l = 1/R_l.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import InvalidResidue, NotComparable, RadixMismatch
from .padic import vp


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
        fs = tuple(int(r) for r in self.factors)
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

    def to_json(self) -> dict:
        return {"factors": list(self.factors), "periodic": self.periodic}


def check_scales(scales) -> tuple[Fraction, ...]:
    """The scales as Fractions, checked to satisfy 1 = t_0 > t_1 > ... > 0."""
    t = tuple(Fraction(x) for x in scales)
    if not t or t[0] != 1:
        raise ValueError("t_0 must equal 1")
    if any(a <= b for a, b in zip(t, t[1:])) or t[-1] <= 0:
        raise ValueError("scales must be strictly decreasing and positive")
    return t


def default_scales(grid: LevelGrid) -> "ScaleSeq":
    """The canonical choice t_l = 1/R_l."""
    return ScaleSeq(tuple(Fraction(1, R) for R in grid.prefix))


@dataclass(frozen=True)
class ScaleSeq:
    """Strictly decreasing positive scales t_0 = 1 > t_1 > ... > t_L."""

    scales: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", check_scales(self.scales))

    def __getitem__(self, l: int) -> Fraction:
        return self.scales[l]

    @property
    def depth(self) -> int:
        return len(self.scales) - 1


def lr_valuation(a: int, radix: Radix) -> int | None:
    """Largest l <= L with R_l | a; None flags saturation (a = 0 mod R_L).
    Stops at the first R_l not dividing a: l_r(a) + 2 remainders at most."""
    for l, R in enumerate(radix.prefix):
        if a % R:
            return l - 1
    return None


def lr_and_abs(a: int, radix: Radix, t: ScaleSeq | None = None) -> tuple[int | None, Fraction]:
    """(l_r(a), |a|_r = t_{l_r(a)}); saturated valuation gives |a|_r = 0."""
    if t is None:
        t = default_scales(radix)
    l = lr_valuation(a, radix)
    if l is None:
        return None, Fraction(0)
    return l, t[l]


def radic_dist(a: int, b: int, radix: Radix, t: ScaleSeq | None = None) -> Fraction:
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
        object.__setattr__(self, "residue", self.residue % self.radix.modulus)

    @classmethod
    def from_integer(cls, a: int, radix: Radix) -> "RadicInt":
        return cls(radix, a)

    @classmethod
    def from_sequence(cls, x: tuple[int, ...], radix: Radix) -> "RadicInt":
        if not coherence_check(x, radix):
            raise InvalidResidue(f"sequence {x} is not coherent")
        return cls(radix, x[-1])

    def sequence(self) -> tuple[int, ...]:
        return embed_q(self.residue, self.radix)

    def _check(self, other: "RadicInt") -> None:
        if self.radix != other.radix:
            raise RadixMismatch(f"{self.radix} vs {other.radix}")

    def __add__(self, other: "RadicInt") -> "RadicInt":
        self._check(other)
        return RadicInt(self.radix, self.residue + other.residue)

    def __neg__(self) -> "RadicInt":
        return RadicInt(self.radix, -self.residue)

    def __sub__(self, other: "RadicInt") -> "RadicInt":
        return self + (-other)

    def __mul__(self, other: "RadicInt") -> "RadicInt":
        self._check(other)
        return RadicInt(self.radix, self.residue * other.residue)

    def to_json(self) -> dict:
        return {"radix": self.radix.to_json(), "residue": str(self.residue)}

    def __repr__(self):
        return f"{self.residue} mod {self.radix.modulus}"


def haar_ball(n: int, radix: Radix) -> Fraction:
    """H(Y_n) = 1/R_n; the whole space Y_0 has mass 1."""
    return Fraction(1, radix.cumulative(n))


@dataclass
class PrecedenceWitness:
    """For each level l of r, the least n with R_l | R'_n."""

    witnesses: dict[int, int] = field(default_factory=dict)

    def level(self, l: int) -> int:
        return self.witnesses[l]


def _cycle_primes(radix: Radix) -> set[int]:
    out: set[int] = set()
    for r in radix.factors:
        d = 2
        while d * d <= r:
            if r % d == 0:
                out.add(d)
                r //= d ** vp(r, d)
            d += 1
        if r > 1:
            out.add(r)
    return out


def preceq(r: Radix, r_prime: Radix, search_depth: int = 64) -> PrecedenceWitness:
    """Witness that every R_l divides some R'_n, n <= search_depth.

    Raises NotComparable when no witness exists; reason "coprime" when some
    prime of R_l never appears in r', "search-exhausted" otherwise.
    """
    max_n = search_depth if r_prime.periodic else min(search_depth, r_prime.depth)
    witness = PrecedenceWitness()
    primes_rp = _cycle_primes(r_prime)
    for l in range(1, r.depth + 1):
        R_l = r.cumulative(l)
        found = None
        for n in range(max_n + 1):
            if r_prime.cumulative(n) % R_l == 0:
                found = n
                break
        if found is None:
            rem = R_l
            for q in primes_rp:
                rem //= q ** vp(rem, q)
            reason = "coprime" if rem > 1 else "search-exhausted"
            raise NotComparable(
                f"R_{l} = {R_l} divides no R'_n for n <= {max_n} ({reason})",
                reason, max_n, l, R_l,
            )
        witness.witnesses[l] = found
    return witness


def project(x_prime: RadicInt, r: Radix, search_depth: int = 64) -> RadicInt:
    """Ring homomorphism Y' -> Y along a preceq witness: x_l = x'_{n(l)} mod R_l."""
    # residues of x' beyond its truncation are unknown, so the witness
    # search is capped at the stored depth regardless of periodicity
    truncated = Radix(x_prime.radix.factors)
    w = preceq(r, truncated, min(search_depth, truncated.depth))
    n_top = w.level(r.depth)
    residue = x_prime.residue % truncated.cumulative(n_top) % r.modulus
    return RadicInt(r, residue)
