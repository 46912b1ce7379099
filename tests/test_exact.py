import ast
import inspect
import pickle
import textwrap
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, from_int, from_man_exp, from_rational, mpf_neg,
                          mpi_sqrt, round_floor)

from hermann.exact import (
    DimensionMismatch,
    GramMatrix,
    PoleError,
    PrecisionExhausted,
    RealInterval,
    SingularGram,
    _ratio,
    cot_eval,
    dual_basis,
    format_interval,
    mpf_to_fraction,
    parse_rational,
    row_reduce,
    sqrt_ratio_interval,
)

import hermann.exact as exact
from interval_reference import (cot_eval_libmp, cot_eval_reference, format_interval_reference,
                                interval_from_iv, iv_context, ratio_interval_reference,
                                ratio_reference)
from setup_reference import inner, matrix_rank, solve_exact

HALF = Fraction(1, 2)

angles = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                      max_denominator=64)


def _reference_cot(a, bits):
    """cot(a*pi) through the interval context's operators, on cot_eval's ladder."""
    coeff = a % 1
    target = Fraction(1, 2 ** (bits - 8))
    work = bits + 16
    for _ in range(16):
        iv = iv_context(work)
        theta = iv.pi * coeff.numerator / coeff.denominator
        sin = iv.sin(theta)
        if interval_from_iv(sin, bits).lo > 0:
            want = interval_from_iv(iv.cos(theta) / sin, bits)
            if want.width <= target:
                return want
        work *= 2
    raise AssertionError(f"no reference enclosure for {a} at {bits} bits")


BASE_ANGLES = sorted({Fraction(k, n) for n in range(2, 25) for k in range(1, n)})
# dyadic denominators up to 2^12 (find_minimal certifies dyadic points),
# 3^7, angles outside (0, 1), which cot_eval reduces mod 1, and angles so
# near 0 or 1 that the first working precision is too coarse, so both
# routes climb the precision ladder
WIDE_ANGLES = sorted(
    {Fraction(k, 2 ** e) for e in range(1, 13) for k in {1, 3, 2 ** (e - 1) - 1,
                                                         2 ** (e - 1) + 1, 2 ** e - 1}
     if 0 < k < 2 ** e}
    | {Fraction(k, 2187) for k in (1, 2, 5, 728, 1093, 1094, 1459, 2185, 2186)}
    | {Fraction(k, n) for n in (3, 5, 7, 12, 2187) for k in (-2 * n - 1, -n - 1, -1, n + 1,
                                                                3 * n + 2)}
    | {Fraction(1, 2 ** 30), Fraction(1, 3 ** 20), Fraction(-1, 2 ** 40),
       Fraction(2 ** 34 - 1, 2 ** 34)})


#: find_minimal's precision ladder ends at 4 * MAX_PRECISION_BITS = 6144 bits
TOP_ANGLES = [Fraction(1, 3), Fraction(5, 12), Fraction(1, 4096), Fraction(2047, 4096),
              Fraction(2186, 2187), Fraction(-7, 5), Fraction(13, 6)]


@pytest.mark.parametrize("bits", [192, 495, 990, 3072, 6144])
def test_cot_eval_matches_interval_quotient(bits):
    angles = TOP_ANGLES if bits > 990 else BASE_ANGLES + WIDE_ANGLES
    for a in angles:
        want = _reference_cot(a, bits)
        got = cot_eval(a, bits)
        assert (got.lo, got.hi, got.precision_bits) == (want.lo, want.hi, bits), a
        assert got == cot_eval(a % 1, bits), a


#: angles within 2^-300 of 0, 1/2 and 1, and within 2^-1100 of 1/2, whose
#: numerators are longer than the working precision (2^300 +- 1 at 192 bits,
#: 2^1100 +- 1 at each), so from_int rounds n down and up apart
EDGE_ANGLES = ([Fraction(2 ** k + s, 2 ** (k + 1)) for k in (300, 1100) for s in (1, -1)]
               + [Fraction(1, 2 ** 301), Fraction(3, 2 ** 302), Fraction(2 ** 301 - 1, 2 ** 301),
                  Fraction(-1, 3 << 300), Fraction(2 ** 300 + 1, 3 << 300)])


@pytest.mark.parametrize("bits", [192, 495, 990])
def test_cot_eval_at_its_edges_matches_the_interval_route(bits, monkeypatch):
    # next to pi/2 the ends of theta straddle the bounds of pi/2, so their
    # quadrants come from mpmath's cos_sin_quadrant
    import hermann.exact as exact
    calls = []
    original = exact.cos_sin_quadrant

    def counting(t, wp):
        calls.append(t)
        return original(t, wp)

    monkeypatch.setattr(exact, "cos_sin_quadrant", counting)
    cot_eval.cache_clear()
    try:
        for a in EDGE_ANGLES:
            got, want = cot_eval(a, bits), cot_eval_reference(a, bits)
            assert (got.lo, got.hi, got.precision_bits) == (want.lo, want.hi, bits), a
            assert tuple(map(mpf_to_fraction, got.raw)) == (got.lo, got.hi), a
    finally:
        cot_eval.cache_clear()
    assert calls


#: every angle n/D with D <= 130, and dyadic angles over 2^k, k <= 1100:
#: next to 0 and to 1/2 for every k, next to 1 for every 11th k (each climbs
#: the ladder to about k bits), whose numerators outgrow every working
#: precision below 1,100 bits and whose sines reach 2^-1100
GRID_ANGLES = sorted({Fraction(n, den) for den in range(2, 131) for n in range(1, den)}
                     | {Fraction(n, 2 ** k) for k in range(2, 1101)
                        for n in (1, 2 ** (k - 1) - 1, 2 ** (k - 1) + 1)}
                     | {Fraction(2 ** k - 1, 2 ** k) for k in range(1, 1101, 11)})


def _raw_or_error(f, a, bits):
    try:
        return f(a, bits).raw
    except (PoleError, PrecisionExhausted) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bits", [192, 296, 592, 990, 1536])
def test_cot_eval_matches_the_libmp_route_on_a_grid(bits):
    # the kernel, uncached, against the raw libmp calls it replaced: the
    # same raw ends bit for bit, or the same exception
    kernel = cot_eval.__wrapped__
    for a in GRID_ANGLES:
        assert _raw_or_error(kernel, a, bits) == _raw_or_error(cot_eval_libmp, a, bits), a


def _calls(fn):
    """The names that fn's body calls, as plain names or as attributes."""
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Call):
            f = node.func
            yield f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) \
                else None


def test_cot_eval_calls_only_the_trig_functions_of_libmp():
    # cot_eval and every exact helper it reaches, RealInterval.from_raw
    # among them, call no mpmath.libmp function but pi and the trigonometry
    tree = ast.parse(inspect.getsource(exact))
    libmp = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             and node.module.startswith("mpmath") for a in node.names}
    helpers = {"from_raw": exact.RealInterval.from_raw.__func__}
    helpers.update((name, inspect.unwrap(f)) for name, f in vars(exact).items()
                   if inspect.isfunction(inspect.unwrap(f)) and f.__module__ == exact.__name__)
    seen, todo, used = set(), ["cot_eval"], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for called in _calls(helpers[name]):
            if called in libmp:
                used.add(called)
            elif called in helpers:
                todo.append(called)
    assert {"from_raw", "_pi_ends", "_quotient", "_outward", "_divide", "_mpf"} <= seen
    assert used == {"mpf_pi", "mpf_cos_sin", "cos_sin_quadrant"}


def test_mpf_to_fraction_is_exact():
    values = [from_int(0), from_int(1), from_int(-3), from_int(3 << 70), from_int(-5 << 90),
              from_rational(1, 3, 200, round_floor), from_rational(-7, 1 << 80, 64),
              from_rational(10 ** 30 + 1, 1 << 200, 53, round_floor)]
    for t in values + [mpf_neg(t) for t in values]:
        sign, man, exp, _ = t
        assert mpf_to_fraction(t) == (-1) ** sign * Fraction(man) * Fraction(2) ** exp, t
    exps = {t[2] for t in values if t[1]}
    assert min(exps) < 0 < max(exps)
    assert mpf_to_fraction(from_int(0)) == 0
    for t in (finf, fninf, fnan):
        with pytest.raises(ValueError):
            mpf_to_fraction(t)


def test_cot_plus_twice_cot_never_vanishes():
    # cot x + 2 cot y = 0 at rational x/pi, y/pi outside Z/2 would be a
    # rational relation among four roots of unity, which Mann's theorem and
    # the Conway-Jones classification rule out; austere verdicts rest on it
    angles = sorted({Fraction(k, n) for n in range(2, 25) for k in range(1, n)} - {HALF})
    assert len(angles) == 178
    cots = [cot_eval(a) for a in angles]
    twice = [c.scale(2) for c in cots]
    for a, x in zip(angles, cots):
        for b, y in zip(angles, twice):
            assert not x.lo + y.lo <= 0 <= x.hi + y.hi, (a, b)


def test_parse_rational():
    assert parse_rational("3/8") == Fraction(3, 8)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ValueError):
        parse_rational("1.5x")


def test_format_rational_round_trip():
    for f in (Fraction(0), Fraction(-3, 7), Fraction(5)):
        assert parse_rational(str(f)) == f


def test_cot_quarter_pi_is_one():
    iv = cot_eval(Fraction(1, 4))
    assert iv.lo <= 1 <= iv.hi
    assert iv.width <= Fraction(1, 2 ** 184)


def test_cot_known_signs():
    assert cot_eval(Fraction(1, 6)).certainly_positive
    assert cot_eval(Fraction(2, 3)).hi < 0
    assert cot_eval(HALF).contains_zero


def test_cot_pole():
    with pytest.raises(PoleError):
        cot_eval(Fraction(2))


def test_cot_period_one():
    a = cot_eval(Fraction(1, 5))
    b = cot_eval(Fraction(6, 5))
    assert a.lo == b.lo and a.hi == b.hi


@given(angles)
@settings(max_examples=60, deadline=None)
def test_cot_reflection_identity(coeff):
    # cot(pi - x) = -cot(x): the sum of the two enclosures must cover 0
    if coeff % 1 == 0 or (coeff + HALF) % 1 == 0:
        return
    x, y = cot_eval(coeff), cot_eval(1 - coeff)
    assert x.lo + y.lo <= 0 <= x.hi + y.hi


def test_interval_operations():
    a = RealInterval(Fraction(1, 3), Fraction(1, 2), 192)
    assert a.certainly_positive
    assert a.scale(-1).hi == Fraction(-1, 3)
    assert a.scale(Fraction(-2)).lo == Fraction(-1)


# raw ends of both signs, 0, short and long mantissas, wide exponents
raw_ends = st.builds(lambda man, exp: from_man_exp(man, exp),
                     st.one_of(st.just(0), st.integers(min_value=-(2 ** 400), max_value=2 ** 400)),
                     st.integers(min_value=-1300, max_value=200))


@given(raw_ends, raw_ends, st.sampled_from((8, 80, 192, 990)))
@settings(max_examples=200, deadline=None)
def test_raw_interval_compares_hashes_and_prints_as_the_fraction_one(a, b, bits):
    x, y = mpf_to_fraction(a), mpf_to_fraction(b)
    if x > y:
        (a, x), (b, y) = (b, y), (a, x)
    raw, plain = RealInterval.from_raw(a, b, bits), RealInterval(x, y, bits)
    # the signs are read before any Fraction is made
    assert (raw.certainly_positive, raw.contains_zero) == \
        (plain.certainly_positive, plain.contains_zero)
    assert not {"lo", "hi"} & vars(raw).keys()
    assert raw.raw == (a, b) and plain.raw is None
    assert raw == plain and plain == raw and hash(raw) == hash(plain)
    assert repr(raw) == repr(plain) == \
        f"RealInterval(lo={x!r}, hi={y!r}, precision_bits={bits})"
    assert (raw.lo, raw.hi, raw.width) == (x, y, y - x)
    assert raw != RealInterval(x, y, bits + 1) and raw != (x, y, bits)
    for r in (raw, plain):
        assert pickle.loads(pickle.dumps(r)) == r
        for name, value in (("lo", y), ("hi", x), ("precision_bits", 1), ("raw", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(r, name, value)
        with pytest.raises(FrozenInstanceError):
            del r.lo
    assert (raw.lo, raw.hi, raw.raw) == (x, y, (a, b))
    if x < y:
        with pytest.raises(ValueError, match="out of order"):
            RealInterval.from_raw(b, a, bits)
        with pytest.raises(ValueError, match="out of order"):
            RealInterval(y, x, bits)


@example(from_int(0), from_int(0), 192)
@example(from_int(-5 << 90), from_rational(1, 3, 300, round_floor), 192)
@example(from_int(0), from_rational(1, 3, 300, round_floor), 80)
@given(raw_ends, raw_ends, st.one_of(st.sampled_from((8, 80, 192, 208, 990)),
                                     st.integers(min_value=1, max_value=2000)))
@settings(max_examples=300, deadline=None)
def test_format_interval_reads_raw_ends_as_their_fractions(a, b, bits):
    # zero, positive, negative and mixed-sign intervals, and points
    x, y = mpf_to_fraction(a), mpf_to_fraction(b)
    if x > y:
        (a, x), (b, y) = (b, y), (a, x)
    for (p, q), (u, v) in ((a, b), (x, y)), ((a, a), (x, x)), ((b, b), (y, y)):
        got = format_interval(RealInterval.from_raw(p, q, bits))
        assert got == format_interval(RealInterval(u, v, bits)) == \
            format_interval_reference(RealInterval(u, v, bits))


def test_gram_matrix_rejects_non_positive_definite():
    with pytest.raises(SingularGram):
        GramMatrix(((1, 2), (2, 1)))
    with pytest.raises(SingularGram):
        GramMatrix(((0, 0), (0, 1)))
    with pytest.raises(SingularGram):
        GramMatrix(((1, 2), (3, 4)))


def test_inner_g2_off_diagonal():
    g = GramMatrix(((2, -3), (-3, 6)))
    assert inner((1, 0), (0, 1), g) == -3
    assert inner((2, 1), (0, 1), g) == 0
    with pytest.raises(DimensionMismatch):
        inner((1,), (0, 1), g)


def test_dual_basis_bc3():
    g = GramMatrix(((2, -1, 0), (-1, 2, -1), (0, -1, 1)))
    duals = dual_basis(g)
    expect = ((1, 1, 1), (1, 2, 2), (1, 2, 3))
    assert tuple(tuple(x for x in row) for row in duals) == expect


def test_dual_basis_g2():
    g = GramMatrix(((2, -3), (-3, 6)))
    duals = dual_basis(g)
    assert duals == ((2, 1), (1, Fraction(2, 3)))


def test_solve_exact_and_rank():
    sol = solve_exact([[2, 1], [1, 1]], [3, 2])
    assert sol == (1, 1)
    assert solve_exact([[1, 1], [2, 2]], [1, 2]) is None
    assert matrix_rank([(1, 0, 1), (0, 1, 1), (1, 1, 2)]) == 2
    assert matrix_rank([]) == 0
    # rectangular: four dependent rows in the plane x = 2y
    assert matrix_rank([(2, 1), (4, 2), (-2, -1), (0, 0)]) == 1
    assert matrix_rank([(1, 2, 3, 4), (2, 4, 6, 9)]) == 2
    # consistent coefficients, contradictory right-hand side
    assert solve_exact([[1, 2], [2, 4]], [1, 3]) is None
    rref, pivots = row_reduce([(0, 2, 4, 2), (0, 1, 2, 3), (1, 0, 1, 0)])
    assert pivots == (0, 1, 3)
    assert rref == [[1, 0, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert all(isinstance(x, Fraction) for row in rref for x in row)


def test_format_interval_annotations():
    assert format_interval(RealInterval(Fraction(0), Fraction(0), 192)) == "0@192b"
    pos = RealInterval(Fraction(2), Fraction(2), 192)
    assert format_interval(pos).startswith("2.0")
    assert format_interval(pos).endswith("@192b")
    near = RealInterval(Fraction(-1, 10 ** 40), Fraction(1, 10 ** 40), 192)
    assert format_interval(near).startswith("<=")


# dyadic ends, as cot_eval and the norm root make them, and any rational,
# as a slope times a cotangent in shape_spectrum makes them
interval_ends = st.one_of(
    st.builds(lambda man, exp: Fraction(man, 2 ** exp),
              st.integers(min_value=-(2 ** 300), max_value=2 ** 300),
              st.integers(min_value=0, max_value=1200)),
    st.fractions(max_denominator=10 ** 30),
)


@given(interval_ends, interval_ends,
       st.one_of(st.sampled_from((8, 80, 192, 208, 990)), st.integers(min_value=1, max_value=2000)))
@settings(max_examples=300, deadline=None)
def test_format_interval_matches_the_mp_context_route(a, b, bits):
    r = RealInterval(min(a, b), max(a, b), bits)
    assert format_interval(r) == format_interval_reference(r)
    point = RealInterval(a, a, bits)
    assert format_interval(point) == format_interval_reference(point)


# ties at 53 bits, a numerator of a single bit, zero, whole numbers and
# negative ends, on both sides of the dyadic test
RATIO_CASES = [Fraction(2 ** 53 + 1, 2 ** 60), Fraction(2 ** 54 + 2, 2 ** 3),
               Fraction(-(2 ** 53 + 3), 2 ** 100), Fraction(1, 2 ** 1200), Fraction(0),
               Fraction(7), Fraction(-5, 1), Fraction(1, 3),
               Fraction(-(10 ** 40 + 1), 3 * 2 ** 70)]


@given(st.one_of(st.sampled_from(RATIO_CASES), interval_ends,
                 st.builds(lambda man, exp: Fraction(man, 2 ** exp),
                           st.integers(min_value=-(2 ** 2000), max_value=2 ** 2000),
                           st.integers(min_value=0, max_value=2000))),
       st.one_of(st.sampled_from((53, 208, 1536)), st.integers(min_value=53, max_value=1536)))
@settings(max_examples=400, deadline=None)
def test_ratio_matches_the_mpf_div_route(q, prec):
    assert _ratio(q, prec) == ratio_reference(q, prec)


# angles n/D with D up to 2^200, dyadic times a grading order as
# find_minimal's certified points give them, or any D, and D too wide to be
# exact at the working precision; n may lie outside (0, D), and the edge
# angles lie so near 0 or 1 that the ladder climbs
cot_angles = st.one_of(
    st.sampled_from((Fraction(1, 2 ** 200), Fraction(2 ** 200 - 1, 2 ** 200),
                     Fraction(-1, 3 << 199), Fraction(1, 2 ** 200 - 1),
                     Fraction(2 ** 199 + 1, 2 ** 200), Fraction(5, 12))),
    st.builds(lambda n, den: Fraction(n % (3 * den) - den, den),
              st.integers(min_value=0, max_value=2 ** 1800),
              st.one_of(st.builds(lambda k, o: o << k, st.integers(min_value=0, max_value=200),
                                  st.sampled_from((1, 2, 3, 4, 6, 8, 12))),
                        st.integers(min_value=1, max_value=2 ** 200),
                        # wider than the working precision, so from_int rounds
                        st.integers(min_value=2 ** 1560, max_value=2 ** 1700))))


@given(cot_angles, st.one_of(st.sampled_from((192, 208, 1536)),
                             st.integers(min_value=192, max_value=1536)))
@settings(max_examples=150, deadline=None)
def test_cot_eval_matches_the_mpi_mul_mpi_div_route(a, bits):
    if a.denominator == 1:
        with pytest.raises(PoleError):
            cot_eval(a, bits)
        return
    got = cot_eval(a, bits)
    want = cot_eval_reference(a, bits)
    assert (got.lo, got.hi, got.precision_bits) == (want.lo, want.hi, want.precision_bits)


@given(st.integers(min_value=0, max_value=2 ** 500), st.integers(min_value=0, max_value=2 ** 500),
       st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=0, max_value=400),
       st.integers(min_value=53, max_value=1552))
@settings(max_examples=300, deadline=None)
def test_ratio_interval_matches_plain_gcds(x, y, odd, shift, prec):
    # lo or hi may be 0, and den may be odd, a power of two or both
    lo, hi = sorted((x >> (x % 300), y))
    den = odd << shift
    assert sqrt_ratio_interval(lo, hi, den, prec) == \
        mpi_sqrt(ratio_interval_reference(lo, hi, den, prec), prec)


# squared norms as _mean_curvature makes them: 0, short and long ends, with
# common factors of den, over den = odd * 2^s with s up to twice a wide
# exponent, and the working precisions of the ladder's rungs
norm_ends = st.one_of(st.just(0), st.integers(min_value=1, max_value=2 ** 64),
                      st.integers(min_value=2 ** 1500, max_value=2 ** 4000),
                      st.builds(lambda m, k: m << k, st.integers(min_value=1, max_value=2 ** 300),
                                st.integers(min_value=0, max_value=3000)))


# exact squares over a power of two, a root that the upward rounding
# carries to a power of two, and odd dens that share factors with the ends
@example(4, 9, 1, 0, 208)
@example(9, 9 << 40, 1, 40, 208)
@example((1 << 208) - 1, (1 << 208) - 1, 1, 0, 208)
@example(0, 0, 7, 0, 1552)
@example(0, 3 * 25, 3, 2, 1552)
@given(norm_ends, norm_ends,
       st.one_of(st.sampled_from((1, 3, 5, 6, 12, 105)),
                 st.integers(min_value=1, max_value=2 ** 80)),
       st.integers(min_value=0, max_value=3200),
       st.one_of(st.sampled_from((208, 1552)), st.integers(min_value=208, max_value=1552)))
@settings(max_examples=400, deadline=None)
def test_sqrt_ratio_interval_matches_mpi_sqrt_bit_for_bit(x, y, odd, shift, prec):
    lo, hi = sorted((x, y))
    den = odd << shift
    assert sqrt_ratio_interval(lo, hi, den, prec) == \
        mpi_sqrt(ratio_interval_reference(lo, hi, den, prec), prec)
