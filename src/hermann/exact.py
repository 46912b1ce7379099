"""Exact rational-pi arithmetic, Gram matrices, certified intervals.

An angle is its coefficient of pi, a plain Fraction, so every membership
test (in pi.Z, in (pi/2).Z) is exact.  The only real-number evaluations are
cotangents, certified enclosures with dyadic ends, each the one mpmath's
interval context gives, that cot_eval makes in integers around libmp's pi and
mpf_cos_sin, and the mean curvature's norm, whose ends sqrt_ratio_interval
makes by one integer square root each.  Both keep their raw ends, of which a
RealInterval makes Fractions only when read.  A dyadic Fraction becomes an
mpf by one from_man_exp, the value mpf_div by its power of two gives.  Every
exact elimination is one integer `eliminate`.  A Gram matrix keeps its
integer form, integer rows over one denominator, on which squared lengths,
coroot rows and the Bareiss test of positive definiteness run.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_add, mpf_cos_sin, mpf_div, mpf_lt,
                          mpf_neg, mpf_pi, mpf_shift, round_ceiling, round_floor, round_nearest,
                          to_str)
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
        (hs, hm, he, _), (ls, lm, le, _) = hi, lo
        if _lt(-hm if hs else hm, he, -lm if ls else lm, le):
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


def _quotient(a: int, b: int, prec: int, up: bool):
    """(m, k) with m * 2^k the quotient a / b of integers a, b > 0, a of at most
    prec + 1 bits, rounded to prec bits, up or down: one divmod to prec + 1 or
    prec + 2 bits, then the dropped bits and the remainder decide the last one."""
    sh = prec + 1 + b.bit_length() - a.bit_length()
    q, rem = divmod(a << sh, b)
    d = q.bit_length() - prec
    m = q >> d
    return m + (up and (rem > 0 or m << d != q)), d - sh


def _lt(a: int, ea: int, b: int, eb: int) -> bool:
    """a * 2^ea < b * 2^eb, compared at the smaller exponent."""
    return a << ea - eb < b if ea > eb else a < b << eb - ea


def _near(m: int, e: int, prec: int):
    """(m, e) rounded to nearest at prec bits, half to even, as libmp's normalize
    rounds it, trailing zeros kept; of at most prec bits, unchanged."""
    a = -m if m < 0 else m
    k = a.bit_length() - prec
    if k <= 0:
        return m, e
    t = a >> k - 1  # the kept bits and the half bit
    q = t >> 1
    if t & 1 and (q & 1 or t << k - 1 != a):
        q += 1
    return -q if m < 0 else q, e + k


def _near_add(a, b, prec: int):
    """The sum of (m, e) pairs a and b, exact, then rounded by _near."""
    (am, ae), (bm, be) = a, b
    if ae < be:
        return _near(am + (bm << be - ae), ae, prec)
    return _near((am << ae - be) + bm, be, prec)


def _near_mul(a, b, prec: int):
    """The product of (m, e) pairs a and b, exact, then rounded by _near."""
    return _near(a[0] * b[0], a[1] + b[1], prec)


def _near_div(a, b, prec: int):
    """a / b for (m, e) pairs, b != 0: the quotient to prec + 2 bits or more and a
    sticky bit for the remainder, rounded by _near, so a tie is exact."""
    (am, ae), (bm, be) = a, b
    sh = max(prec + 2 + bm.bit_length() - am.bit_length(), 0)
    q, rem = divmod((-am if am < 0 else am) << sh, -bm if bm < 0 else bm)
    q = q << 1 | (rem > 0)
    return _near(-q if (am < 0) != (bm < 0) else q, ae - be - sh - 1, prec)


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
    (a, ea), (b, eb) = _round_int((n >> k) // g, prec, up), \
        _round_int((odd // g) << (s - k), prec, not up)
    m, exp = _quotient(a, b, prec, up)
    exp += ea - eb
    if exp & 1:
        m, exp = m << 1, exp - 1
    # the root of m * 2^exp from at least prec bits of one isqrt: an exact
    # root has at most half of m's bits, so only a remainder makes it round up
    j = prec - (m.bit_length() >> 1)  # m has at most prec + 2 bits
    x = m << 2 * j
    r = isqrt(x)
    d = r.bit_length() - prec
    return _mpf((r >> d) + (up and r * r != x), (exp >> 1) - j + d)


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
def _pi_ends(work: int):
    """pi rounded down and up at work bits, each as (man, exp)."""
    return mpf_pi(work, round_floor)[1:3], mpf_pi(work, round_ceiling)[1:3]


def _outward(m: int, e: int, floor: bool, prec: int):
    """mpi_cos_sin's last step on m * 2^e at prec bits, rounded to floor or ceiling:
    times 1 +- 2^(10 - wp), wp = prec + 20, + when that moves it toward the
    rounding's side; a magnitude of at least 1 becomes -1 or 1."""
    wp, a, away = prec + 20, -m if m < 0 else m, (m < 0) == floor
    a, k = _round_int((a << wp) + (a << 10) if away else (a << wp) - (a << 10), prec, away)
    if a.bit_length() + k + e - wp >= 1:
        return -1 if m < 0 else 1, 0
    return -a if m < 0 else a, k + e - wp


def _divide(a: int, ea: int, b: int, eb: int, prec: int, ceiling: bool):
    """mpf_div of a * 2^ea by b * 2^eb > 0 at prec bits, rounded to ceiling or floor."""
    if not a:
        return 0, 0
    q, k = _quotient(-a if a < 0 else a, b, prec, ceiling == (a > 0))
    return -q if a < 0 else q, ea - eb + k


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
        for (p, e), up in zip(pi, (False, True)):
            (n, kn), (d, kd) = _round_int(num, work, up), _round_int(den, work, not up)
            m, k = _round_int(p * n, work, up)
            m, km = _quotient(m, d, work, up)
            e += kn + k - kd + km
            # cos_sin_quadrant(t, wp), its quadrant read off the bounds of pi/2 and pi
            q = 0 if _lt(m, e + 1, p_lo, e_lo) else \
                1 if _lt(p_hi, e_hi, m, e + 1) and _lt(m, e, p_lo, e_lo) else -1
            t = _mpf(m, e)
            c, s, q = (*mpf_cos_sin(t, wp), q) if q >= 0 else cos_sin_quadrant(t, wp)
            ends.append(((-c[1] if c[0] else c[1], c[2]), (-s[1] if s[0] else s[1], s[2]), q))
        (ca, sa, na), (cb, sb, nb) = ends
        ca, cb = (cb, ca) if _lt(*cb, *ca) else (ca, cb)
        sa, sb = (sb, sa) if _lt(*sb, *sa) else (sa, sb)
        if na != nb:  # mpi_cos_sin: an extremum of cos or sin lies between the ends
            ca, cb, sa, sb = (v if (na - k) // 4 == (nb - k) // 4 else (e, 0) for v, k, e in
                              ((ca, 2, -1), (cb, 0, 1), (sa, 3, -1), (sb, 1, 1)))
        sa = _outward(*sa, True, work)
        # sin(theta) > 0 on (0, pi); an enclosure whose lower end is negative
        # or zero means the working precision cannot separate it yet
        if sa[0] <= 0:
            work *= 2
            continue
        sb, ca, cb = _outward(*sb, False, work), _outward(*ca, True, work), \
            _outward(*cb, False, work)
        # mpi_div by sin > 0: each end's divisor is read off the signs of cos's ends
        lo = _divide(*ca, *(sa if ca[0] < 0 else sb), work, False)
        hi = _divide(*cb, *(sb if ca[0] < 0 and cb[0] <= 0 else sa), work, True)
        e = min(lo[1], hi[1], 8 - precision_bits)
        if (hi[0] << hi[1] - e) - (lo[0] << lo[1] - e) <= 1 << 8 - precision_bits - e:
            return RealInterval.from_raw(_mpf(*lo), _mpf(*hi), precision_bits)
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
