"""Polynomials and power series over Z_p with Newton-style root lifting.

Three routes to a root are provided: the classical lift from a simple
root mod p, the relaxed variant needing only |f(x0)|_p < |f'(x0)|_p^2,
and an explicit contraction-mapping iteration.  All three agree where
their hypotheses overlap.  Each works at the precision N of its polynomial
or series and refuses a point at another p or N.  Internally it runs on
plain integers at a working modulus with headroom above p^N, so dividing
by f'(x) never loses any of the N digits.

A Newton lift takes one inverse mod p, of f'(x0) over its power of p.
Each step then evaluates f and f' once, takes one valuation, and lifts
the previous step's inverse to the digits this step consumes with
``padic.unit_inverse``: O(log n) products in place of an extended-Euclid
inverse at the full working precision.  The iterates are those of the
exact inverse, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CertificationFailed,
    HenselPreconditionFailed,
    KMismatch,
)
from .padic import PAdicInt, PAdicScalar, _Residues, abs_from_valuation, modulus
from .padic import rational_residue, unit_inverse, vp


@dataclass(frozen=True)
class ZpPoly(_Residues):
    """Polynomial with Z_p coefficients, constant term first.

    Exact integer coefficients are kept alongside the truncated view so
    lifting can run at a larger working modulus when it needs headroom.
    """

    p: int
    precision: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        modulus(self.p, self.precision)  # checks p and N
        cs = tuple(int(c) for c in self.coeffs)
        if not cs:
            cs = (0,)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def from_rationals(cls, coeffs, p: int, N: int) -> "ZpPoly":
        """Accepts ints, kept exact, or fractions with denominator coprime to p,
        kept mod p^(N + 64): headroom for lifts that work above p^N."""
        out = []
        for c in map(Fraction, coeffs):
            out.append(c.numerator if c.denominator == 1 else rational_residue(c, p, N + 64))
        return cls(p, N, tuple(out))

    @property
    def degree(self) -> int | None:
        m = self.modulus
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] % m != 0:
                return i
        return None

    def eval_int(self, x: int, modulus: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = (out * x + c) % modulus
        return out

    def derivative(self) -> "ZpPoly":
        return ZpPoly(
            self.p,
            self.precision,
            tuple(k * c for k, c in enumerate(self.coeffs))[1:] or (0,),
        )


@dataclass
class LiftTrace:
    """Newton iterates with v_p(f(x_j)) at each step; None marks f(x_j) = 0 mod p^N."""

    iterates: list[PAdicInt] = field(default_factory=list)
    valuations: list[int | None] = field(default_factory=list)

    def record(self, x: PAdicInt, v: int) -> None:
        """Append x and v_p(f(x)), read mod p^N: v >= N saturates to None."""
        self.iterates.append(x)
        self.valuations.append(None if v >= x.precision else v)

    @property
    def residual_abs(self) -> list[Fraction]:
        """The exact |f(x_j)|_p = p^-v_j, 0 where v_j is None."""
        return [abs_from_valuation(v, x.p) for x, v in zip(self.iterates, self.valuations)]


def _newton(f: ZpPoly, x: int, k: int, work: int) -> tuple[PAdicInt, LiftTrace]:
    """Newton's iteration x <- x - (f(x)/p^k) (f'(x)/p^k)^-1 mod p^work.

    Needs v_p(f'(x)) = k along the orbit.  With v = v_p(f(x)), f(x)/p^k
    carries v - k digits, so the inverse is needed only to work - v + k
    digits.  Raises CertificationFailed unless f(x) = 0 mod p^N within N
    steps, N the precision of f.
    """
    p = f.p
    N = f.precision
    mw, pk = p**work, p**k
    df = f.derivative()
    fx = f.eval_int(x, mw)
    v = vp(fx, p, work)
    trace = LiftTrace()
    trace.record(PAdicInt(p, N, x), v)
    inverse = None
    for _ in range(N):
        if v >= N:
            break
        inverse = unit_inverse(df.eval_int(x, mw) // pk, p, work - v + k, inverse)
        x = (x - (fx // pk) * inverse) % mw
        fx = f.eval_int(x, mw)
        v = vp(fx, p, work)
        trace.record(PAdicInt(p, N, x), v)
    if v < N:
        raise CertificationFailed(f"|f(x)|_p = p^-{v} after {N} Newton steps, not 0 mod p^{N}")
    return PAdicInt(p, N, x), trace


def hensel_v1(f: ZpPoly, x0: PAdicInt) -> tuple[PAdicInt, LiftTrace]:
    """Lift a simple root mod p to a root mod p^N, N the precision of f and x0.

    Requires f(x0) = 0 mod p and |f'(x0)|_p = 1.  The returned root is
    congruent to x0 mod p and the trace obeys |f(x_j)|_p <= |f(x_{j-1})|_p^2.
    """
    f._check_compatible(x0)
    p = f.p
    x = x0.residue
    if f.eval_int(x, p) % p != 0:
        raise HenselPreconditionFailed("f(x0) != 0 mod p", "f(x0) mod p")
    if f.derivative().eval_int(x, p) % p == 0:
        raise HenselPreconditionFailed("|f'(x0)|_p < 1", "f'(x0) unit")
    return _newton(f, x, 0, f.precision)


def _v2_params(f: ZpPoly, x0: PAdicInt) -> tuple[int, int]:
    """Check x0's (p, N) and the relaxed precondition; returns (k, working modulus exp)."""
    f._check_compatible(x0)
    p = f.p
    N = f.precision
    probe = N + 1
    mp = p**probe
    k = vp(f.derivative().eval_int(x0.residue, mp), p, probe)
    v_f = vp(f.eval_int(x0.residue, mp), p, probe)
    if v_f <= 2 * k:
        if k == probe:  # vp saturated at the cap, which is not a valuation
            reason = (
                f"f'(x0) = 0 mod p^{probe}, so |f(x0)|_p < |f'(x0)|_p^2 "
                f"cannot be checked at precision {N}"
            )
        else:
            reason = f"|f(x0)|_p = p^-{v_f} is not < |f'(x0)|_p^2 = p^-{2 * k}"
        raise HenselPreconditionFailed(reason, "|f(x0)| < |f'(x0)|^2")
    return k, N + 2 * k + 2


def hensel_v2(f: ZpPoly, x0: PAdicInt) -> tuple[PAdicInt, LiftTrace]:
    """Newton lifting under |f(x0)|_p < |f'(x0)|_p^2, N the precision of f and x0.

    The root satisfies f(root) = 0 mod p^N and |root - x0|_p < |f'(x0)|_p,
    and the trace obeys |f(x_j)|_p <= |f'(x0)|_p^-2 |f(x_{j-1})|_p^2.
    """
    k, work = _v2_params(f, x0)
    if f.eval_int(x0.residue, f.modulus) == 0:
        return x0, LiftTrace()
    return _newton(f, x0.residue, k, work)


def contraction_solve(f: ZpPoly, x0: PAdicInt) -> PAdicInt:
    """Unique fixed point of g(x) = x - f'(x0)^{-1} f(x + x0) on p^{k+1} Z_p.

    Same hypotheses as hensel_v2; per-step displacements contract by at
    least p^{-1}, which is verified on the computed orbit.  Raises
    CertificationFailed if the orbit does not settle mod p^N.
    """
    k, work = _v2_params(f, x0)
    p = f.p
    N = f.precision
    x0_res = x0.residue
    mw, pN, pk = p**work, f.modulus, p**k
    dfx0 = f.derivative().eval_int(x0_res, mw)
    unit_inv = unit_inverse(dfx0 // pk, p, work)

    def g(y: int) -> int:
        # x - f'(x0)^{-1} f(x + x0); f(x + x0) is divisible by p^k here
        return (y - (f.eval_int(y + x0_res, mw) // pk) * unit_inv) % mw

    y = 0
    prev_step_v = None
    for _ in range(work + 1):
        y_next = g(y)
        if (y_next - y) % pN == 0:
            # the displacement is f(x0 + y)/f'(x0), so f(x0 + y) = 0 mod p^(N+k)
            return PAdicInt(p, N, x0_res + y_next)
        step_v = vp(y_next - y, p, work)
        if prev_step_v is not None and step_v < prev_step_v + 1:
            raise CertificationFailed("contraction factor above 1/p on the orbit")
        prev_step_v = step_v
        y = y_next
    raise CertificationFailed(f"the orbit did not settle mod p^{N} in {work + 1} steps")


def local_scaling_check(f: ZpPoly, x0: PAdicInt, k: int) -> dict:
    """Certify |f(x)-f(y)|_p = p^-k |x-y|_p for x, y in x0 + p^{k+1} Z_p; needs k + 1 < N.

    f has integer coefficients, so f(x) - f(y) = (x - y) g(x, y) with
    g = f'(x0) mod p^{k+1} on the ball: the identity holds for every pair
    iff v_p(f'(x0)) = k, read exactly by one probe mod p^(N+k+1).  Any other
    valuation raises KMismatch."""
    f._check_compatible(x0)
    p, N = f.p, f.precision
    if k + 1 >= N:
        raise ValueError(f"x0 + p^{k + 1} Z_p is one point mod p^{N}, so no pair can be checked")
    probe = N + k + 1
    actual_k = vp(f.derivative().eval_int(x0.residue, p**probe), p, probe)
    if actual_k == probe:  # vp saturated at the cap, which is not a valuation
        raise KMismatch(f"f'(x0) = 0 mod p^{probe}, expected |f'(x0)|_p = p^-{k}")
    if actual_k != k:
        raise KMismatch(f"|f'(x0)|_p = p^-{actual_k}, expected p^-{k}")
    return {"holds": True, "scale": abs_from_valuation(k, p)}


@dataclass(frozen=True)
class ZpSeries(_Residues):
    """Power series sum a_j x^j with a_j = p^ceil(s j) coeff(j), known mod p^N.

    ``coeff`` maps j to an int and ``slope`` is a rational s > 0, so
    v_p(a_j) >= ceil(s j) holds for every j by construction and the
    series converges on Z_p.
    """

    p: int
    precision: int
    coeff: object  # callable j -> int
    slope: Fraction

    def __post_init__(self):
        modulus(self.p, self.precision)  # checks p and N
        slope = Fraction(self.slope)
        if slope <= 0:
            raise ValueError(f"a series needs a slope > 0, got {slope}")
        object.__setattr__(self, "slope", slope)

    def to_poly(self) -> ZpPoly:
        """Truncation before J, the least j with ceil(s j) >= N, s = a/b.

        J = (N - 1) b // a + 1 is known before any coefficient is read,
        and every term from J on vanishes mod p^N.
        """
        a, b = self.slope.numerator, self.slope.denominator
        J = (self.precision - 1) * b // a + 1
        return ZpPoly(
            self.p,
            self.precision,
            tuple(self.p ** -(-a * j // b) * self.coeff(j) for j in range(J)),
        )


def series_eval(s: ZpSeries, x: PAdicInt) -> PAdicScalar:
    """Evaluate the series at x in Z_p, exact mod p^N, N the precision of s and x."""
    s._check_compatible(x)
    value = s.to_poly().eval_int(x.residue, s.modulus)
    return PAdicScalar.from_padic_int(PAdicInt(s.p, s.precision, value))


def roots_by_digit_search(f: ZpPoly, N: int, constraint=None) -> list[int]:
    """Independent oracle: grow roots digit by digit with no Newton step.

    Enumerates all residues mod p satisfying f = 0 mod p (and the optional
    constraint on the mod-p digit), then extends each candidate by every
    possible next digit, keeping those that kill one more power of p.
    """
    p = f.p
    level = [r for r in range(p) if f.eval_int(r, p) == 0 and (constraint is None or constraint(r))]
    for l in range(1, N):
        m = p ** (l + 1)
        level = [
            x + d * p**l
            for x in level
            for d in range(p)
            if f.eval_int(x + d * p**l, m) == 0
        ]
    return sorted(level)
