"""Exact rational-pi arithmetic, Gram inner products, certified intervals.

Every angle in the orbit-geometry formulas is a rational multiple of pi,
so angles are stored as the rational coefficient alone and all membership
tests (in pi.Z, in (pi/2).Z) are exact Fraction arithmetic.  The only
real-number evaluations are cotangent values, served as certified
enclosures with dyadic-rational endpoints.  Every exact elimination (solves,
ranks, the dual basis, the alcove simplex) is `row_reduce` or its `pivot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
from mpmath.ctx_iv import MPIntervalContext

Rational = Fraction

#: Escalation ladder for comparisons that are not decided by angle identities.
DEFAULT_PRECISION_BITS = 192
MAX_PRECISION_BITS = 1536


class PoleError(ValueError):
    """cot evaluated at a multiple of pi."""


class DimensionMismatch(ValueError):
    """Vector length does not match the Gram matrix rank."""


class SingularGram(ValueError):
    """Gram matrix is not positive definite."""


@dataclass(frozen=True)
class RationalAngle:
    """The angle coeff*pi."""

    coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def __add__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.coeff + other.coeff)

    def __neg__(self) -> "RationalAngle":
        return RationalAngle(-self.coeff)

    def __str__(self) -> str:
        return f"{self.coeff}*pi"


@dataclass(frozen=True)
class RealInterval:
    """Certified enclosure [lo, hi] with dyadic-rational endpoints."""

    lo: Fraction
    hi: Fraction
    precision_bits: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    @property
    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    @property
    def certainly_positive(self) -> bool:
        return self.lo > 0

    @property
    def certainly_nonzero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo, self.precision_bits)

    def scale(self, c) -> "RealInterval":
        c = Fraction(c)
        if c >= 0:
            return RealInterval(self.lo * c, self.hi * c, self.precision_bits)
        return RealInterval(self.hi * c, self.lo * c, self.precision_bits)

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo + other.lo, self.hi + other.hi,
                            min(self.precision_bits, other.precision_bits))

    def __mul__(self, other: "RealInterval") -> "RealInterval":
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return RealInterval(min(prods), max(prods),
                            min(self.precision_bits, other.precision_bits))


def zero_interval(precision_bits: int = DEFAULT_PRECISION_BITS) -> RealInterval:
    return RealInterval(Fraction(0), Fraction(0), precision_bits)


_IV_CONTEXTS: dict[int, MPIntervalContext] = {}


def _iv(prec: int) -> MPIntervalContext:
    ctx = _IV_CONTEXTS.get(prec)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = prec
        _IV_CONTEXTS[prec] = ctx
    return ctx


def _raw_mpf_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError(f"non-finite value {t!r}")
    val = Fraction(man) * (Fraction(2) ** exp)
    return -val if sign else val


def mpf_to_fraction(x) -> Fraction:
    """Exact conversion of a finite mpf (any context) to Fraction."""
    return _raw_mpf_to_fraction(x._mpf_)


def interval_from_iv(x, precision_bits: int) -> RealInterval:
    a, b = x._mpi_
    return RealInterval(_raw_mpf_to_fraction(a), _raw_mpf_to_fraction(b), precision_bits)


def iv_from_fraction(ctx, q: Fraction):
    return ctx.mpf(q.numerator) / q.denominator


def iv_from_interval(ctx, r: RealInterval):
    lo = iv_from_fraction(ctx, r.lo)
    hi = iv_from_fraction(ctx, r.hi)
    return ctx.make_mpf((lo._mpi_[0], hi._mpi_[1]))


@lru_cache(maxsize=8192)
def cot_eval(a: RationalAngle, precision_bits: int = DEFAULT_PRECISION_BITS) -> RealInterval:
    """Certified enclosure of cot(a), width <= 2^(8 - precision_bits)."""
    coeff = a.coeff % 1
    if coeff == 0:
        raise PoleError(f"cot has a pole at {a}")
    target = Fraction(1, 2 ** (precision_bits - 8))
    work = precision_bits + 16
    for _ in range(16):
        ctx = _iv(work)
        theta = ctx.pi * coeff.numerator / coeff.denominator
        sin = ctx.sin(theta)
        # sin(theta) > 0 on (0, pi); an enclosure touching 0 means the
        # working precision cannot separate it yet
        if _raw_mpf_to_fraction(sin._mpi_[0]) <= 0:
            work *= 2
            continue
        value = ctx.cos(theta) / sin
        out = interval_from_iv(value, precision_bits)
        if out.width <= target:
            return out
        work *= 2
    raise RuntimeError(f"cot enclosure did not reach width {target} for {a}")


def pairing(alpha, x):
    """Exact pairing alpha . x of root coefficients with rational coordinates."""
    return sum(a * y for a, y in zip(alpha, x))


def inner(u, v, g: "GramMatrix") -> Fraction:
    """Exact inner product u^T g v in simple-root coordinates."""
    r = g.rank
    if len(u) != r or len(v) != r:
        raise DimensionMismatch(f"vectors of length {len(u)}, {len(v)} against rank {r}")
    total = Fraction(0)
    for i in range(r):
        if u[i] == 0:
            continue
        row = g.entries[i]
        total += u[i] * sum(row[j] * v[j] for j in range(r) if v[j] != 0)
    return Fraction(total)


def pivot(m, r, c):
    """Scale row r so that m[r][c] = 1, then clear column c from every other row."""
    inv = 1 / m[r][c]
    m[r] = [x * inv for x in m[r]]
    for i, row in enumerate(m):
        if i != r and row[c] != 0:
            f = row[c]
            m[i] = [x - f * y for x, y in zip(row, m[r])]


def row_reduce(rows):
    """Reduced row-echelon form over Fraction and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is not None:
            m[r], m[p] = m[p], m[r]
            pivot(m, r, c)
            pivots.append(c)
    return m, tuple(pivots)


def solve_exact(rows, rhs):
    """The solution x of the square system rows . x = rhs; None if rows is singular."""
    n = len(rows)
    m, pivots = row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != tuple(range(n)):
        return None
    return tuple(row[n] for row in m)


def matrix_rank(vectors) -> int:
    """Rank of a list of rational vectors."""
    return len(row_reduce(vectors)[1])


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite rational matrix in a simple-root basis."""

    entries: tuple

    def __post_init__(self):
        ent = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", ent)
        r = len(ent)
        for row in ent:
            if len(row) != r:
                raise DimensionMismatch("Gram matrix is not square")
        for i in range(r):
            for j in range(i):
                if ent[i][j] != ent[j][i]:
                    raise SingularGram(f"not symmetric at ({i},{j})")
        ldl(ent)  # raises SingularGram unless positive definite

    @property
    def rank(self) -> int:
        return len(self.entries)


def ldl(m):
    """Exact unit-lower-triangular L and positive diagonal D with m = L D L^T.

    Pivot j is the ratio of the leading (j+1)- and j-minors, so the first
    pivot <= 0 raises SingularGram before it is divided by: a symmetric m
    is positive definite exactly when this returns.
    """
    n = len(m)
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        lower[j][j] = Fraction(1)
        diag[j] = m[j][j] - sum(lower[j][k] ** 2 * diag[k] for k in range(j))
        if diag[j] <= 0:
            raise SingularGram(f"leading {j + 1}x{j + 1} minor is not positive")
        for i in range(j + 1, n):
            num = m[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = num / diag[j]
    return lower, diag


def dual_basis(g: GramMatrix):
    """Columns are the dual vectors H_i in simple-root coordinates.

    The defining property <H_i, alpha_j> = delta_ij makes the matrix the
    inverse of g, read off the reduced form of [g | I]; the product is
    re-checked exactly before returning.
    """
    r = g.rank
    m, pivots = row_reduce([list(row) + [int(i == j) for j in range(r)]
                            for i, row in enumerate(g.entries)])
    if pivots != tuple(range(r)):
        raise SingularGram("Gram matrix is singular")
    out = tuple(tuple(row[r:]) for row in m)
    for i in range(r):
        h = tuple(out[k][i] for k in range(r))
        for j in range(r):
            want = Fraction(1) if i == j else Fraction(0)
            got = sum(g.entries[j][k] * h[k] for k in range(r))
            if got != want:
                raise SingularGram(f"dual-basis verification failed at ({i},{j})")
    return out


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or an integer string."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def primitive_direction(vec):
    """(u, c) with vec = c*u, u primitive integer, first nonzero entry > 0."""
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise ValueError("zero vector has no direction")
    u = tuple(int(x) // g for x in vec)
    lead = next(x for x in u if x != 0)
    if lead < 0:
        u = tuple(-x for x in u)
        g = -g
    return u, g


def format_interval(r: RealInterval, digits: int = 12) -> str:
    """Deterministic ASCII rendering with a precision annotation."""
    with mpmath.mp.workprec(max(80, r.precision_bits)):
        if r.lo == r.hi == 0:
            return f"0@{r.precision_bits}b"
        if r.certainly_positive:
            mid = (iv_from_fraction(mpmath.mp, r.lo) + iv_from_fraction(mpmath.mp, r.hi)) / 2
            return f"{mpmath.nstr(mid, digits)}@{r.precision_bits}b"
        bound = max(abs(r.lo), abs(r.hi))
        return f"<={mpmath.nstr(iv_from_fraction(mpmath.mp, bound), 3)}@{r.precision_bits}b"
