"""Exact rational-pi arithmetic, Gram matrices, certified intervals.

An angle is its coefficient of pi, a plain Fraction, so every membership
test (in pi.Z, in (pi/2).Z) is exact.  The only real-number evaluations
are cotangents, certified enclosures with dyadic ends that cot_eval makes
by raw mpmath.libmp calls, each end the one mpmath's interval context
gives, and the mean curvature's norm, whose ends sqrt_ratio_interval makes
by one integer square root each.  Both keep their raw ends, of which a
RealInterval makes Fractions only when they are read.  A dyadic Fraction
becomes an mpf by one from_man_exp, the value mpf_div by its power of two
gives.  Every exact elimination is one integer `eliminate`.  A Gram matrix
keeps its integer form, integer rows over one denominator, on which squared
lengths, coroot rows and the Bareiss test of positive definiteness run.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from mpmath.libmp import (fnone, fone, from_int, from_man_exp, fzero, mpf_add, mpf_cos_sin,
                          mpf_div, mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_neg, mpf_pi, mpf_shift,
                          mpf_sub, round_ceiling, round_floor, round_nearest, to_str)
from mpmath.libmp.libmpi import cos_sin_quadrant

#: Reports are certified at DEFAULT_PRECISION_BITS; MAX_PRECISION_BITS
#: caps the precision ladder of find_minimal (four times this, at most).
DEFAULT_PRECISION_BITS = 192
MAX_PRECISION_BITS = 1536


class PoleError(ValueError):
    """cot evaluated at a multiple of pi."""


class PrecisionExhausted(RuntimeError):
    """cot_eval reached no enclosure of the asked width in 16 doublings."""


class DimensionMismatch(ValueError):
    """Vector length does not match the Gram matrix rank."""


class SingularGram(ValueError):
    """Gram matrix is not positive definite."""


class RealInterval:
    """Certified enclosure [lo, hi] with dyadic-rational endpoints, immutable.

    Built from two Fractions, or by from_raw from two raw mpf ends, kept as
    raw, whose Fractions are made on first read of lo or hi; ==, hash and
    repr read the Fractions, so both builds of one interval are equal.
    """

    def __init__(self, lo: Fraction, hi: Fraction, precision_bits: int):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        self.__dict__.update(lo=lo, hi=hi, precision_bits=precision_bits, raw=None)

    @classmethod
    def from_raw(cls, lo, hi, precision_bits: int) -> "RealInterval":
        """The interval between the finite raw mpf values lo <= hi."""
        if mpf_lt(hi, lo):
            raise ValueError(f"interval endpoints out of order: "
                             f"{mpf_to_fraction(lo)} > {mpf_to_fraction(hi)}")
        self = object.__new__(cls)
        self.__dict__.update(precision_bits=precision_bits, raw=(lo, hi))
        return self

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def lo(self) -> Fraction:
        return mpf_to_fraction(self.raw[0])

    @cached_property
    def hi(self) -> Fraction:
        return mpf_to_fraction(self.raw[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.precision_bits) == (other.lo, other.hi,
                                                          other.precision_bits)

    def __hash__(self):
        return hash((self.lo, self.hi, self.precision_bits))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(lo={self.lo!r}, hi={self.hi!r}, "
                f"precision_bits={self.precision_bits!r})")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def contains_zero(self) -> bool:
        if self.raw:  # lo is negative or zero, hi is not negative
            (lo_sign, lo_man, _, _), hi = self.raw
            return bool(lo_sign or not lo_man) and not hi[0]
        return self.lo <= 0 <= self.hi

    @property
    def certainly_positive(self) -> bool:
        if self.raw:
            sign, man, _, _ = self.raw[0]
            return not sign and bool(man)
        return self.lo > 0

    def scale(self, c) -> "RealInterval":
        c = Fraction(c)
        if c >= 0:
            return RealInterval(self.lo * c, self.hi * c, self.precision_bits)
        return RealInterval(self.hi * c, self.lo * c, self.precision_bits)


def mpf_to_fraction(t) -> Fraction:
    """Exact conversion of a finite raw mpf value (an mpf's _mpf_) to Fraction."""
    sign, man, exp, _ = t
    if not man and exp:
        raise ValueError(f"non-finite value {t!r}")
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _round_int(n: int, prec: int, up: bool):
    """(m, k) with m * 2^k the integer n > 0 rounded to prec bits, up or down."""
    k = n.bit_length() - prec
    if k <= 0:
        return n, 0
    m = n >> k
    return m + (up and m << k != n), k


def _root_end(n: int, odd: int, s: int, prec: int, up: bool):
    """mpf_sqrt(mpf_div(from_int(p), from_int(q))) for p/q = n/den in lowest
    terms, den = odd * 2^s, each of the four steps rounded up or down (q the
    other way) at prec bits; all in integers, and every step is correctly
    rounded, so the ends are those of the libmp calls."""
    if not n:
        return fzero
    k, g = min((n & -n).bit_length() - 1, s), gcd(n, odd)
    (a, ea), (b, eb) = _round_int((n >> k) // g, prec, up), \
        _round_int((odd // g) << (s - k), prec, not up)
    # a / b to prec + 1 or prec + 2 bits by one divmod, then to prec: an exact
    # quotient has no more bits than a, so only rem makes it round up
    sh = prec + 1 + b.bit_length() - a.bit_length()
    q, rem = divmod(a << sh, b)
    d = q.bit_length() - prec
    m, exp = (q >> d) + (up and rem > 0), ea - eb - sh + d
    if exp & 1:
        m, exp = m << 1, exp - 1
    # the root of m * 2^exp from at least prec bits of one isqrt: an exact
    # root has at most half of m's bits, so only a remainder makes it round up
    j = prec - (m.bit_length() >> 1)  # m has at most prec + 2 bits
    x = m << 2 * j
    r = isqrt(x)
    d = r.bit_length() - prec
    return from_man_exp((r >> d) + (up and r * r != x), (exp >> 1) - j + d)


def sqrt_ratio_interval(lo: int, hi: int, den: int, prec: int):
    """The raw enclosure of [sqrt(lo/den), sqrt(hi/den)], 0 <= lo <= hi, den > 0,
    at prec bits: what mpi_sqrt makes, at prec bits, of the two mpi_div calls of
    the interval context's mpf(p) / q, p/q = lo/den or hi/den in lowest terms."""
    s = (den & -den).bit_length() - 1
    return (_root_end(lo, den >> s, s, prec, False), _root_end(hi, den >> s, s, prec, True))


def _ratio(q: Fraction, prec: int):
    """mpf(q.numerator) / q.denominator at prec bits, rounded to nearest; a
    division by 2^k is exact, so a dyadic q is its numerator rounded once."""
    den = q.denominator
    if den & (den - 1) == 0:
        return from_man_exp(q.numerator, 1 - den.bit_length(), prec, round_nearest)
    return mpf_div(from_int(q.numerator, prec, round_nearest), from_int(den), prec,
                   round_nearest)


@lru_cache(maxsize=64)
def _trig_constants(work: int):
    """pi's ends at work bits, their halves, and the factors 1 +- 2^(10 - wp),
    wp = work + 20, by which mpi_cos_sin pushes its ends out."""
    lo, hi, wp = mpf_pi(work, round_floor), mpf_pi(work, round_ceiling), work + 20
    return (lo, hi, mpf_shift(lo, -1), mpf_shift(hi, -1),
            from_man_exp((1 << wp) + (1 << 10), -wp), from_man_exp((1 << wp) - (1 << 10), -wp))


def _int_ends(n: int, work: int):
    """from_int(n, work) rounded down and up: one call when n has at most work bits."""
    lo = from_int(n, work, round_floor)
    return lo, lo if n.bit_length() <= work else from_int(n, work, round_ceiling)


def _outward(v, rnd, prec: int, more, less):
    """mpi_cos_sin's last step: v times more or less, away from 0 on the side of
    rnd, at prec bits; a magnitude of at least 1 becomes -1 or 1."""
    v = mpf_mul(v, more if bool(v[0]) == (rnd == round_floor) else less, prec, rnd)
    return (fnone if v[0] else fone) if v[2] + v[3] >= 1 else v


@lru_cache(maxsize=8192)
def cot_eval(a: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS) -> RealInterval:
    """Certified enclosure of cot(a*pi), width <= 2^(8 - precision_bits), its
    raw mpf ends kept as raw.

    a is the angle's coefficient of pi, so the cache key is exact.  Each
    working precision encloses theta = pi * n / D, n/D = a mod 1, by the calls
    of mpi_mul and mpi_div on positive operands (mpf_pi times n, over D, each
    end rounded outward), then makes the ends of mpi_cos_sin and mpi_div, bit
    for bit, by only the calls that set a bit: one from_int for an integer of
    at most the working precision's bits, one mpf_cos_sin per end of theta,
    cos only once sin > 0, and mpi_div's branch for a positive divisor.
    """
    num, den = a.numerator % a.denominator, a.denominator
    if num == 0:
        raise PoleError(f"cot has a pole at {a}*pi")
    target = from_man_exp(1, 8 - precision_bits)
    work = precision_bits + 16
    for _ in range(16):
        pi_lo, pi_hi, half_lo, half_hi, more, less = _trig_constants(work)
        (n_lo, n_hi), (d_lo, d_hi) = _int_ends(num, work), _int_ends(den, work)
        wp, ends = work + 20, []
        for t in (mpf_div(mpf_mul(pi_lo, n_lo, work, round_floor), d_hi, work, round_floor),
                  mpf_div(mpf_mul(pi_hi, n_hi, work, round_ceiling), d_lo, work, round_ceiling)):
            # cos_sin_quadrant(t, wp), its quadrant read off the bounds of pi/2 and pi
            q = 0 if mpf_lt(t, half_lo) else 1 if mpf_gt(t, half_hi) and mpf_lt(t, pi_lo) else -1
            ends.append((*mpf_cos_sin(t, wp), q) if q >= 0 else cos_sin_quadrant(t, wp))
        (ca, sa, na), (cb, sb, nb) = ends
        ca, cb = (cb, ca) if mpf_lt(cb, ca) else (ca, cb)
        sa, sb = (sb, sa) if mpf_lt(sb, sa) else (sa, sb)
        if na != nb:  # mpi_cos_sin: an extremum of cos or sin lies between the ends
            ca, cb, sa, sb = (v if (na - k) // 4 == (nb - k) // 4 else e for v, k, e in
                              ((ca, 2, fnone), (cb, 0, fone), (sa, 3, fnone), (sb, 1, fone)))
        sa = _outward(sa, round_floor, work, more, less)
        # sin(theta) > 0 on (0, pi); an enclosure whose lower end is negative
        # or zero means the working precision cannot separate it yet
        if sa[0] or not sa[1]:
            work *= 2
            continue
        sb = _outward(sb, round_ceiling, work, more, less)
        ca = _outward(ca, round_floor, work, more, less)
        cb = _outward(cb, round_ceiling, work, more, less)
        # mpi_div by sin > 0: each end's divisor is read off the signs of cos's ends
        lo = mpf_div(ca, sa if ca[0] else sb, work, round_floor)
        hi = mpf_div(cb, sb if ca[0] and (cb[0] or not cb[1]) else sa, work, round_ceiling)
        if mpf_le(mpf_sub(hi, lo), target):  # at prec 0 mpf_sub is exact
            return RealInterval.from_raw(lo, hi, precision_bits)
        work *= 2
    raise PrecisionExhausted(f"cot enclosure did not reach width "
                             f"{Fraction(1, 2 ** (precision_bits - 8))} for {a}*pi")


def pairing(alpha, x):
    """Exact pairing alpha . x of root coefficients with int or Fraction coordinates."""
    return sum(map(mul, alpha, x))


def row_reduce(rows):
    """Reduced row-echelon form over Fraction and its pivot columns.

    The rows are scaled to integers and eliminated by eliminate; each entry
    is made a Fraction once, at the end.
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots = eliminate(m)
    return ([[Fraction(x, m[r][c]) for x in m[r]] for r, c in enumerate(pivots)]
            + [[Fraction(0)] * len(row) for row in m[len(pivots):]]), tuple(pivots)


def eliminate(m) -> list:
    """Gauss-Jordan elimination of the integer rows m, in place, each new row
    divided by its gcd; the pivot columns, row r's pivot at pivots[r]."""
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f != 0:
                new = [m[r][c] * x - f * y for x, y in zip(row, m[r])]
                g = gcd(*new) or 1
                m[i] = [x // g for x in new]
        pivots.append(c)
    return pivots


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite rational matrix in a simple-root basis.

    form is the same matrix as integer rows over one denominator, the lcm
    of the entries' denominators, computed once.
    """

    entries: tuple
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ent = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", ent)
        r = len(ent)
        for row in ent:
            if len(row) != r:
                raise DimensionMismatch("Gram matrix is not square")
        den = lcm(*(x.denominator for row in ent for x in row))
        rows = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in ent)
        for i in range(r):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise SingularGram(f"not symmetric at ({i},{j})")
        # Sylvester's criterion: Bareiss elimination without pivoting leaves
        # the leading (j+1)-minor of the rows, den^(j+1) times G's, at (j, j)
        m, prev = [list(row) for row in rows], 1
        for j, top in enumerate(m):
            if top[j] <= 0:
                raise SingularGram(f"leading {j + 1}x{j + 1} minor is not positive")
            for row in m[j + 1:]:
                row[j + 1:] = [(top[j] * x - row[j] * y) // prev
                               for x, y in zip(row[j + 1:], top[j + 1:])]
            prev = top[j]
        object.__setattr__(self, "form", (rows, den))

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


def format_interval(r: RealInterval) -> str:
    """Deterministic ASCII rendering with a precision annotation.

    The midpoint to 12 significant digits when r is certainly positive,
    else <=B with B a bound on |r|: the raw mpmath.libmp calls, in order, that
    mpmath.mp makes for the same expressions and nstr under workprec(max(80, bits)).
    Each end is rounded to nearest once, a raw end by from_man_exp, a Fraction
    end by _ratio; the rounding keeps signs, sends no nonzero end to 0, and
    is monotone and odd, so the rounded bound is the larger rounded |end|.
    """
    prec, bits = max(80, r.precision_bits), r.precision_bits
    if r.raw:
        lo, hi = (from_man_exp(-man if sign else man, exp, prec, round_nearest)
                  for sign, man, exp, _ in r.raw)
    else:
        lo, hi = _ratio(r.lo, prec), _ratio(r.hi, prec)
    if lo == hi == fzero:
        return f"0@{bits}b"
    if not lo[0] and lo[1]:  # lo > 0; mpf_div of the sum by 2 is this exact halving
        mid = mpf_shift(mpf_add(lo, hi, prec, round_nearest), -1)
        return f"{to_str(mid, 12)}@{bits}b"
    lo = mpf_neg(lo)  # lo <= 0, so |lo|; hi <= 0 makes |hi| <= |lo|
    return f"<={to_str(hi if mpf_lt(lo, hi) else lo, 3)}@{bits}b"
