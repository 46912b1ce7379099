"""Exact rational-pi arithmetic, Gram matrices, certified intervals.

An angle is its coefficient of pi, a plain Fraction, so every membership
test (in pi.Z, in (pi/2).Z) is exact.  The only real-number evaluations are
cotangents, certified enclosures with dyadic ends, each the one mpmath's
interval context gives, that cot_eval makes in integers around libmp's pi and
mpf_cos_sin, and the mean curvature's norm, whose ends sqrt_ratio_interval
makes by one integer square root each.  Both keep their raw ends, of which a
RealInterval makes Fractions only when read.  Every integer step that stands
for a libmp call is a pair (m, e) for m * 2^e rounded by one kernel, _round:
to nearest, half to even, or to ceiling or floor, as libmp rounds; _add, _mul
and _div make the exact sum, product or quotient (to a sticky bit) and round
it once, and _pair is the one conversion from a raw mpf value to a pair.
Every exact elimination is one integer `eliminate`.  A Gram matrix keeps its
integer form, integer rows over one denominator, on which squared lengths,
coroot rows, the Bareiss test of positive definiteness and the dual basis
run.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from mpmath.libmp import fzero, mpf_cos_sin, mpf_pi, round_ceiling, round_floor, to_str
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
        if _lt(*_pair(hi), *_pair(lo)):
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


def _pair(v):
    """The finite raw mpf v as the pair (m, e) of its value m * 2^e."""
    sign, man, exp, _ = v
    return -man if sign else man, exp


def mpf_to_fraction(t) -> Fraction:
    """Exact conversion of a finite raw mpf value (an mpf's _mpf_) to Fraction."""
    m, e = _pair(t)
    if not m and e:
        raise ValueError(f"non-finite value {t!r}")
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _round(m: int, e: int, prec: int, up=None):
    """(m, e) rounded to prec bits, as libmp rounds: to nearest, half to even,
    when up is None, else to ceiling (up) or floor; trailing zeros are kept,
    and a value of at most prec bits is returned unchanged."""
    a = -m if m < 0 else m
    k = a.bit_length() - prec
    if k <= 0:
        return m, e
    t = a >> k - 1  # the kept bits and the half bit
    q = t >> 1
    if up is None:
        if t & 1 and (q & 1 or t << k - 1 != a):
            q += 1
    elif up != (m < 0) and q << k != a:  # away from zero, and bits were dropped
        q += 1
    return -q if m < 0 else q, e + k


def _add(a, b, prec: int):
    """The sum of (m, e) pairs a and b, exact, then rounded to nearest by _round."""
    (am, ae), (bm, be) = a, b
    if ae < be:
        return _round(am + (bm << be - ae), ae, prec)
    return _round((am << ae - be) + bm, be, prec)


def _mul(a, b, prec: int, up=None):
    """The product of (m, e) pairs a and b, exact, then rounded by _round."""
    return _round(a[0] * b[0], a[1] + b[1], prec, up)


def _div(a, b, prec: int, up=None):
    """a / b for (m, e) pairs, b != 0: the quotient to prec + 2 bits or more and a
    sticky bit for the remainder, rounded by _round, so a tie is exact."""
    (am, ae), (bm, be) = a, b
    sh = max(prec + 2 + bm.bit_length() - am.bit_length(), 0)
    q, rem = divmod((-am if am < 0 else am) << sh, -bm if bm < 0 else bm)
    q = q << 1 | (rem > 0)
    return _round(-q if (am < 0) != (bm < 0) else q, ae - be - sh - 1, prec, up)


def _lt(a: int, ea: int, b: int, eb: int) -> bool:
    """a * 2^ea < b * 2^eb, compared at the smaller exponent."""
    return a << ea - eb < b if ea > eb else a < b << eb - ea


def _mpf(m: int, e: int):
    """The raw mpf of m * 2^e, normalized as from_man_exp(m, e) makes it."""
    a = -m if m < 0 else m
    t = (a & -a).bit_length() - 1
    return (int(m < 0), a >> t, e + t, a.bit_length() - t) if a else fzero


def _root_end(n: int, odd: int, s: int, prec: int, up: bool):
    """mpf_sqrt(mpf_div(from_int(p), from_int(q))) for p/q = n/den in lowest
    terms, den = odd * 2^s, each of the four steps rounded up or down (q the
    other way) at prec bits; all in integers, and every step is correctly
    rounded, so the ends are those of the libmp calls."""
    if not n:
        return fzero
    k, g = min((n & -n).bit_length() - 1, s), gcd(n, odd)
    m, exp = _div(_round((n >> k) // g, 0, prec, up),
                  _round((odd // g) << (s - k), 0, prec, not up), prec, up)
    if exp & 1:
        m, exp = m << 1, exp - 1
    # the root of m * 2^exp from at least prec bits of one isqrt and a sticky
    # bit for its remainder
    j = prec - (m.bit_length() >> 1)  # m has at most prec + 2 bits
    x = m << 2 * j
    r = isqrt(x)
    return _mpf(*_round(r << 1 | (r * r != x), (exp >> 1) - j - 1, prec, up))


def sqrt_ratio_interval(lo: int, hi: int, den: int, prec: int):
    """The raw enclosure of [sqrt(lo/den), sqrt(hi/den)], 0 <= lo <= hi, den > 0,
    at prec bits: what mpi_sqrt makes, at prec bits, of the two mpi_div calls of
    the interval context's mpf(p) / q, p/q = lo/den or hi/den in lowest terms."""
    s = (den & -den).bit_length() - 1
    return (_root_end(lo, den >> s, s, prec, False), _root_end(hi, den >> s, s, prec, True))


def _ratio(q: Fraction, prec: int):
    """mpf(q.numerator) / q.denominator at prec bits, rounded to nearest, as a pair."""
    return _div(_round(q.numerator, 0, prec), (q.denominator, 0), prec)


@lru_cache(maxsize=64)
def _pi_ends(work: int):
    """pi rounded down and up at work bits, each as a pair."""
    return _pair(mpf_pi(work, round_floor)), _pair(mpf_pi(work, round_ceiling))


def _outward(m: int, e: int, up: bool, prec: int):
    """mpi_cos_sin's last step on m * 2^e at prec bits, rounded up or down:
    times 1 +- 2^(10 - wp), wp = prec + 20, + when that moves it toward the
    rounding's side; a magnitude of at least 1 becomes -1 or 1."""
    wp, d = prec + 20, (-m if m < 0 else m) << 10
    a, k = _round((m << wp) + (d if up else -d), e - wp, prec, up)
    if a.bit_length() + k >= 1:
        return -1 if m < 0 else 1, 0
    return a, k


@lru_cache(maxsize=8192)
def cot_eval(a: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS) -> RealInterval:
    """Certified enclosure of cot(a*pi), width <= 2^(8 - precision_bits), its
    raw mpf ends kept as raw.

    a is the angle's coefficient of pi, so the cache key is exact.  Each
    working precision encloses theta = pi * n / D, n/D = a mod 1, as mpi_mul
    and mpi_div do on positive operands, then makes the ends of mpi_cos_sin
    and mpi_div, bit for bit: every step is on integers m * 2^e, rounded as
    its libmp call rounds, correctly, but pi's ends and one mpf_cos_sin per
    end of theta (cos_sin_quadrant where pi/2's bounds cannot decide).
    """
    num, den = a.numerator % a.denominator, a.denominator
    if num == 0:
        raise PoleError(f"cot has a pole at {a}*pi")
    work = precision_bits + 16
    for _ in range(16):
        (p_lo, e_lo), (p_hi, e_hi) = pi = _pi_ends(work)
        wp, ends = work + 20, []
        for p, up in zip(pi, (False, True)):
            n, d = _round(num, 0, work, up), _round(den, 0, work, not up)
            m, e = _div(_mul(p, n, work, up), d, work, up)
            # cos_sin_quadrant(t, wp), its quadrant read off the bounds of pi/2 and pi
            q = 0 if _lt(m, e + 1, p_lo, e_lo) else \
                1 if _lt(p_hi, e_hi, m, e + 1) and _lt(m, e, p_lo, e_lo) else -1
            t = _mpf(m, e)
            c, s, q = (*mpf_cos_sin(t, wp), q) if q >= 0 else cos_sin_quadrant(t, wp)
            ends.append((_pair(c), _pair(s), q))
        (ca, sa, na), (cb, sb, nb) = ends
        ca, cb = (cb, ca) if _lt(*cb, *ca) else (ca, cb)
        sa, sb = (sb, sa) if _lt(*sb, *sa) else (sa, sb)
        if na != nb:  # mpi_cos_sin: an extremum of cos or sin lies between the ends
            ca, cb, sa, sb = (v if (na - k) // 4 == (nb - k) // 4 else (e, 0) for v, k, e in
                              ((ca, 2, -1), (cb, 0, 1), (sa, 3, -1), (sb, 1, 1)))
        sa = _outward(*sa, False, work)
        # sin(theta) > 0 on (0, pi); an enclosure whose lower end is negative
        # or zero means the working precision cannot separate it yet
        if sa[0] <= 0:
            work *= 2
            continue
        sb, ca, cb = _outward(*sb, True, work), _outward(*ca, False, work), \
            _outward(*cb, True, work)
        # mpi_div by sin > 0: each end's divisor is read off the signs of cos's ends
        lo = _div(ca, sa if ca[0] < 0 else sb, work, False)
        hi = _div(cb, sb if ca[0] < 0 and cb[0] <= 0 else sa, work, True)
        e = min(lo[1], hi[1], 8 - precision_bits)
        if (hi[0] << hi[1] - e) - (lo[0] << lo[1] - e) <= 1 << 8 - precision_bits - e:
            return RealInterval.from_raw(_mpf(*lo), _mpf(*hi), precision_bits)
        work *= 2
    raise PrecisionExhausted(f"cot enclosure did not reach width "
                             f"{Fraction(1, 2 ** (precision_bits - 8))} for {a}*pi")


def pairing(alpha, x):
    """Exact pairing alpha . x of root coefficients with int or Fraction coordinates."""
    return sum(map(mul, alpha, x))


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


def dual_basis(g: GramMatrix):
    """Columns are the dual vectors H_i in simple-root coordinates.

    The defining property <H_i, alpha_j> = delta_ij makes the matrix the
    inverse of g, den times that of g's integer form, read off one eliminate
    of [form | I]; the product is re-checked exactly before returning.
    """
    r = g.rank
    rows, den = g.form
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(rows)]
    if eliminate(m) != list(range(r)):
        raise SingularGram("Gram matrix is singular")
    out = tuple(tuple(Fraction(den * x, row[i]) for x in row[r:]) for i, row in enumerate(m))
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
    else <=B with B a bound on |r|: the values that mpmath.mp makes for the
    same expressions and nstr under workprec(max(80, bits)).  Each end is
    rounded to nearest once, a raw end by _round, a Fraction end by _ratio;
    the rounding keeps signs, sends no nonzero end to 0, and is monotone and
    odd, so the rounded bound is the larger rounded |end|.  The ends have at
    most prec bits, so mpf_add rounds their exact sum, and its halving is exact.
    """
    prec, bits = max(80, r.precision_bits), r.precision_bits
    if r.raw:
        lo, hi = (_round(*_pair(v), prec) for v in r.raw)
    else:
        lo, hi = _ratio(r.lo, prec), _ratio(r.hi, prec)
    if not lo[0] and not hi[0]:
        return f"0@{bits}b"
    if lo[0] > 0:
        m, e = _add(lo, hi, prec)
        mid = _mpf(m, e - 1)
        return f"{to_str(mid, 12)}@{bits}b"
    lo = -lo[0], lo[1]  # lo <= 0, so |lo|; hi <= 0 makes |hi| <= |lo|
    return f"<={to_str(_mpf(*(hi if _lt(*lo, *hi) else lo)), 3)}@{bits}b"
