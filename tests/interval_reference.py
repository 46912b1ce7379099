"""Reference routes through mpmath's contexts and interval calls, for the tests.

hermann makes its enclosures with raw mpmath.libmp calls; these helpers
make the same enclosures through `MPIntervalContext` operators, so a test
can compare the two endpoint for endpoint.  format_interval_reference
renders an interval through `mpmath.mp` operators and `nstr`, the route that
`format_interval`'s raw calls stand for.

The raw routes that the certified path took before it carried each value
in the form the next step reads are kept here too: ratio_reference, mpf_div
of from_int ends for every Fraction; theta_reference and cot_eval_reference,
pi * n / D through mpi_mul and mpi_div of integer enclosures, then whole
mpi_cos_sin and mpi_div calls, of which cot_eval makes only the parts that
set a bit; and
mean_curvature_reference, the r x r Gram loop over ordered pairs with
eager coefficient intervals and plain gcds for the squared norm's ratio.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (fnone, fone, from_int, from_man_exp, mpf_cos_sin, mpf_div, mpf_gt,
                          mpf_le, mpf_lt, mpf_mul, mpf_pi, mpf_shift, mpf_sub, mpi_cos_sin,
                          mpi_div, mpi_mul, mpi_sqrt, round_ceiling, round_floor, round_nearest)
from mpmath.libmp.libmpi import cos_sin_quadrant

from hermann.exact import PoleError, PrecisionExhausted, RealInterval, cot_eval, mpf_to_fraction

_CONTEXTS: dict[int, MPIntervalContext] = {}


def iv_context(prec: int) -> MPIntervalContext:
    """An interval context at prec bits, one per precision."""
    ctx = _CONTEXTS.get(prec)
    if ctx is None:
        ctx = MPIntervalContext()
        ctx.prec = prec
        _CONTEXTS[prec] = ctx
    return ctx


def _to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    if man == 0:
        assert exp == 0, f"non-finite value {t!r}"
        return Fraction(0)
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def interval_from_iv(x, precision_bits: int) -> RealInterval:
    """The RealInterval with the endpoints of the interval-context value x."""
    a, b = x._mpi_
    return RealInterval(_to_fraction(a), _to_fraction(b), precision_bits)


def iv_from_interval(ctx, r: RealInterval):
    """The interval-context value from the low end of r.lo's enclosure to
    the high end of r.hi's."""
    lo = ctx.mpf(r.lo.numerator) / r.lo.denominator
    hi = ctx.mpf(r.hi.numerator) / r.hi.denominator
    return ctx.make_mpf((lo._mpi_[0], hi._mpi_[1]))


def format_interval_reference(r: RealInterval) -> str:
    """format_interval through mpmath.mp operators under workprec(max(80, bits))."""
    with mpmath.mp.workprec(max(80, r.precision_bits)):
        if r.lo == r.hi == 0:
            return f"0@{r.precision_bits}b"
        if r.certainly_positive:
            mid = (mpmath.mpf(r.lo.numerator) / r.lo.denominator
                   + mpmath.mpf(r.hi.numerator) / r.hi.denominator) / 2
            return f"{mpmath.nstr(mid, 12)}@{r.precision_bits}b"
        bound = max(abs(r.lo), abs(r.hi))
        return f"<={mpmath.nstr(mpmath.mpf(bound.numerator) / bound.denominator, 3)}" \
               f"@{r.precision_bits}b"


def ratio_reference(q: Fraction, prec: int):
    """mpf(q.numerator) / q.denominator at prec bits, rounded to nearest, by mpf_div."""
    return mpf_div(from_int(q.numerator, prec, round_nearest), from_int(q.denominator), prec,
                   round_nearest)


def _int_interval(n: int, prec: int):
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def theta_reference(num: int, den: int, prec: int):
    """The raw enclosure of pi * num / den: mpi_mul of the mpf_pi ends by the
    integer enclosure of num, then mpi_div by that of den."""
    pi = mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)
    return mpi_div(mpi_mul(pi, _int_interval(num, prec), prec), _int_interval(den, prec), prec)


def cot_eval_reference(a: Fraction, bits: int) -> RealInterval:
    """cot_eval's ladder, target and quotient on theta_reference, uncached."""
    coeff = a % 1
    if coeff == 0:
        raise PoleError(f"cot has a pole at {a}*pi")
    target = from_man_exp(1, 8 - bits)
    work = bits + 16
    for _ in range(16):
        cos, sin = mpi_cos_sin(theta_reference(coeff.numerator, coeff.denominator, work), work)
        if sin[0][0] or not sin[0][1]:
            work *= 2
            continue
        lo, hi = mpi_div(cos, sin, work)
        if mpf_le(mpf_sub(hi, lo), target):
            return RealInterval(mpf_to_fraction(lo), mpf_to_fraction(hi), bits)
        work *= 2
    raise PrecisionExhausted(f"no reference enclosure for {a} at {bits} bits")


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


def cot_eval_libmp(a: Fraction, precision_bits: int) -> RealInterval:
    """cot_eval by raw libmp calls, uncached.  Certified enclosure of cot(a*pi),
    width <= 2^(8 - precision_bits), its raw mpf ends kept as raw.

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


def ratio_interval_reference(lo: int, hi: int, den: int, prec: int):
    """[lo/den, hi/den] by mpf_div of from_int ends, each ratio put in lowest
    terms by a gcd with den."""
    g, h = gcd(lo, den), gcd(hi, den)
    return (mpf_div(from_int(lo // g, prec, round_floor), from_int(den // g, prec, round_ceiling),
                    prec, round_floor),
            mpf_div(from_int(hi // h, prec, round_ceiling), from_int(den // h, prec, round_floor),
                    prec, round_ceiling))


def mean_curvature_reference(d, den: int, groups, bits: int):
    """The mean curvature's coefficient ends lo, hi over 2^e, e, the coefficient
    intervals and the certified norm: per angle K+*[a, b] + K-*[b, a], every
    ordered pair (i, j) of the Gram form with the least and the largest of
    its four products, and mpi_sqrt of ratio_interval_reference."""
    r = d.rank
    cots = [cot_eval(Fraction(n, den), bits) for n in groups]
    e = max((q.denominator.bit_length() - 1 for c in cots for q in (c.lo, c.hi)), default=0)
    lo, hi = [0] * r, [0] * r
    for c, pairs in zip(cots, groups.values()):
        a, b = (q.numerator << (e + 1 - q.denominator.bit_length()) for q in (c.lo, c.hi))
        pos, neg = [0] * r, [0] * r
        for alpha, m in pairs:
            for j, x in enumerate(alpha):
                if x:
                    (pos if x < 0 else neg)[j] -= m * x
        for j, (kp, kn) in enumerate(zip(pos, neg)):
            if kp or kn:
                lo[j] += kp * a + kn * b
                hi[j] += kp * b + kn * a
    rows, gden = d.sigma.gram.form
    n_lo = n_hi = 0
    for i, j in product(range(r), repeat=2):
        if rows[i][j]:
            p = [rows[i][j] * y * z for y in (lo[i], hi[i]) for z in (lo[j], hi[j])]
            n_lo += min(p)
            n_hi += max(p)
    one, work = 1 << e, bits + 16
    coeffs = tuple(RealInterval(Fraction(x, one), Fraction(y, one), bits) for x, y in zip(lo, hi))
    root = mpi_sqrt(ratio_interval_reference(max(n_lo, 0), max(n_hi, 0), gden << 2 * e, work),
                    work)
    return lo, hi, e, coeffs, RealInterval(*map(mpf_to_fraction, root), bits)
