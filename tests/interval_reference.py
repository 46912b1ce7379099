"""Reference routes through mpmath's contexts, for the tests.

hermann makes its enclosures with raw mpmath.libmp interval calls; these
helpers make the same enclosures through `MPIntervalContext` operators, so
a test can compare the two endpoint for endpoint.  format_interval_reference
renders an interval through `mpmath.mp` operators and `nstr`, the route that
`format_interval`'s raw calls stand for.
"""

from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from hermann.exact import RealInterval

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
