"""Reference routes through mpmath's interval context, for the tests.

hermann makes its enclosures with raw mpmath.libmp interval calls; these
helpers make the same enclosures through `MPIntervalContext` operators, so
a test can compare the two endpoint for endpoint.
"""

from fractions import Fraction

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
