import io
import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import ceil, floor, lcm
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_neg, mpf_shift,
                          round_nearest)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hermann.alcove import (AlcovePoint, _scaled, active_roots, active_walls, alcove_barycenter,
                            alcove_grid, alcove_vertices, faces, point_in_alcove)
from hermann.cli import main
from hermann.datum import catalog, positive_sector_roots
import hermann.geometry as geometry
from hermann.exact import (DimensionMismatch, GramMatrix, RealInterval, _ratio, cot_eval,
                           format_interval, mpf_to_fraction, pairing)
from hermann.geometry import (
    CotTerm,
    TriState,
    _angle_pass,
    _austere,
    _minimal,
    cot_terms,
    find_minimal,
    is_austere,
    is_minimal,
    is_totally_geodesic,
    mean_curvature,
    orbit_report,
    scan_austere,
    shape_spectrum,
    symmetry_flags,
    type_label,
)

from interval_reference import (interval_from_iv, iv_context, iv_from_interval,
                                mean_curvature_reference)
from setup_reference import inner

Q = Fraction

# high-precision summation oracle, 40 digits, at the rank-2 family datum
# (p=7, q=5) and the point (1/8, 1/16): |m_H| with independent bookkeeping
NORM_75 = "9.380831519646859109131260227088932561176"

# minimizer of 4 log sin(y) + log sin(2y), i.e. atan(sqrt(5))/pi, 40 digits
BC1_MIN = "0.3661397635993849946273831020293840542528"


def _frac(decimal_text: str) -> Fraction:
    return Fraction(decimal_text)


def _so_even(p=9, q=7):
    return catalog("so_even", p=p, q=q)


def _g2():
    return catalog("so8_g2")


def test_cot_terms_at_origin_of_so_even():
    d = _so_even()
    buckets = {}
    for t in cot_terms(d, AlcovePoint((0, 0, 0))):
        norm = inner(t.alpha, t.alpha, d.sigma.gram)
        key = (norm, t.theta)
        buckets[key] = buckets.get(key, 0) + t.mult
    # phase-0 roots are all active at H=0; each e_i contributes at
    # theta 1/4, 3/4 (mult 2) and 1/2 (mult p-q); e_i +- e_j at 1/2
    assert buckets == {
        (1, Q(1, 4)): 6, (1, Q(3, 4)): 6, (1, Q(1, 2)): 6,
        (2, Q(1, 2)): 12,
    }


def test_cot_terms_of_g2_contain_highest_root_angle():
    d = _g2()
    terms = cot_terms(d, AlcovePoint((0, Q(1, 3))))
    assert any(t.alpha == (1, 1) and t.theta == Q(2, 3) for t in terms)


def test_spectrum_at_zero_direction_is_zero():
    d = _so_even()
    rep = shape_spectrum(d, AlcovePoint((0, 0, 0)), (0, 0, 0))
    assert all(t.value.lo == t.value.hi == 0 for t in rep.terms)


def test_spectrum_along_first_dual_direction():
    d = _so_even()
    rep = shape_spectrum(d, AlcovePoint((0, 0, 0)), (1, 0, 0))
    e1 = (1, 1, 1)
    vals = {t.theta: t.value for t in rep.terms if t.alpha == e1}
    assert vals[Q(1, 4)].lo <= -1 <= vals[Q(1, 4)].hi
    assert vals[Q(3, 4)].lo <= 1 <= vals[Q(3, 4)].hi
    assert vals[Q(1, 2)].contains_zero


@pytest.mark.parametrize("xi", [(1,), (1, 0, 5)])
def test_spectrum_rejects_a_direction_of_the_wrong_length(xi):
    d = _g2()
    with pytest.raises(DimensionMismatch, match=f"xi of length {len(xi)} against rank 2"):
        shape_spectrum(d, AlcovePoint((Q(1, 12), Q(1, 24))), xi)


interior_weights = st.lists(
    st.integers(min_value=1, max_value=9), min_size=4, max_size=4)


@given(interior_weights)
@settings(max_examples=25, deadline=None)
def test_spectrum_multiplicity_constant_on_interior(weights):
    d = _so_even()
    verts = alcove_vertices(d)
    total = sum(weights)
    coords = tuple(sum(w * v.coeffs[i] for w, v in zip(weights, verts)) / total
                   for i in range(d.rank))
    rep = shape_spectrum(d, AlcovePoint(coords), (1, 1, 1))
    base = shape_spectrum(d, alcove_barycenter(d), (1, 1, 1))
    assert rep.total_multiplicity == base.total_multiplicity


def test_mean_curvature_matches_summation_oracle():
    d = _so_even(p=7, q=5)
    mc = mean_curvature(d, AlcovePoint((Q(1, 8), Q(1, 16))))
    oracle = _frac(NORM_75)
    eps = Q(1, 10 ** 38)
    assert oracle - eps < mc.norm.lo and mc.norm.hi < oracle + eps


def test_mean_curvature_two_precisions_overlap():
    d = _so_even(p=7, q=5)
    point = AlcovePoint((Q(1, 8), Q(1, 16)))
    a = mean_curvature(d, point, 192).norm
    b = mean_curvature(d, point, 384).norm
    assert max(a.lo, b.lo) <= min(a.hi, b.hi)
    assert b.width < a.width


def test_mean_curvature_vanishes_at_austere_vertex():
    d = _so_even()
    mc = mean_curvature(d, AlcovePoint((Q(1, 4), 0, 0)))
    assert mc.norm.contains_zero
    assert mc.norm.width < Q(1, 2 ** 100)


def test_totally_geodesic_points():
    a1 = catalog("isotropy", label="A1")
    assert is_totally_geodesic(a1, AlcovePoint((Q(1, 2),)))
    assert not is_totally_geodesic(_so_even(), AlcovePoint((0, 0, 0)))
    assert not is_totally_geodesic(_g2(), AlcovePoint((Q(1, 6), 0)))
    bc1 = catalog("isotropy", label="BC1")
    assert is_totally_geodesic(bc1, AlcovePoint((0,)))
    assert is_totally_geodesic(bc1, AlcovePoint((Q(1, 2),)))
    assert not is_totally_geodesic(bc1, AlcovePoint((Q(1, 4),)))


def test_austere_verdicts():
    d = _so_even()
    for v in alcove_vertices(d):
        assert is_austere(d, v) is TriState.YES
    assert is_austere(d, AlcovePoint((0, 0, Q(1, 8)))) is TriState.NO
    assert is_austere(_g2(), AlcovePoint((0, Q(1, 3)))) is TriState.NO
    assert is_austere(d, alcove_barycenter(d)) is TriState.NO


def _line(*classes):
    """Terms on the root line (1, 0): (c, theta, mult) gives alpha = (c, 0)."""
    return tuple(CotTerm((c, 0), theta, m) for c, theta, m in classes)


def _table(terms, den=60):
    """The signed angle-class table of terms whose angles are whole over den."""
    table = Counter()
    for t in terms:
        low = min(t.theta, 1 - t.theta)
        if low != Q(1, 2):
            table[int(low * den), t.alpha] += t.mult if t.theta == low else -t.mult
    return table


def _verdicts_fraction(terms):
    """Totally geodesic, austere and exact minimal by the rules on Fraction
    angles: the theta == 1/2 scan, the counts of (alpha, theta) against
    1 - theta, and the angle classes folded at 1/2, each summing to zero."""
    counts, classes = Counter(), {}
    for t in terms:
        counts[t.alpha, t.theta] += t.mult
        theta, sign = (t.theta, 1) if t.theta <= Q(1, 2) else (1 - t.theta, -1)
        if theta != Q(1, 2):
            vec = classes.setdefault(theta, [0] * len(t.alpha))
            for j, c in enumerate(t.alpha):
                vec[j] += sign * t.mult * c
    return (all(t.theta == Q(1, 2) for t in terms),
            all(m == counts[a, 1 - theta] for (a, theta), m in counts.items()),
            all(not any(vec) for vec in classes.values()))


@pytest.mark.parametrize("terms, verdict", [
    (_line((1, Q(1, 3), 2), (1, Q(2, 3), 1)), TriState.NO),
    (_line((1, Q(1, 2), 3)), TriState.YES),
    (_line((1, Q(1, 3), 1), (2, Q(1, 4), 2), (1, Q(2, 3), 1), (2, Q(3, 4), 2)),
     TriState.YES),
    # a mirror angle on another root, or on another root of the same line,
    # balances nothing
    ((CotTerm((1, 0), Q(1, 3), 1), CotTerm((0, 1), Q(2, 3), 1)), TriState.NO),
    (_line((1, Q(1, 3), 1), (2, Q(2, 3), 1)), TriState.NO),
])
def test_line_balance_rule(terms, verdict):
    assert _austere(_table(terms)) is verdict
    assert _verdicts_fraction(terms)[1] is (verdict is TriState.YES)


def test_excess_meeting_cross_pair_is_no():
    # the excess at (1, 1/3) could only be cancelled by the c = 2 class,
    # and cot x + 2 cot y never vanishes at rational angles
    terms = _line((1, Q(1, 3), 1), (2, Q(3, 4), 1), (2, Q(1, 4), 1))
    assert dict(_table(terms)) == {(20, (1, 0)): 1, (15, (2, 0)): 0}
    assert _austere(_table(terms)) is TriState.NO
    # an exact excess on a second line still decides no
    other = CotTerm((0, 1), Q(1, 5), 1)
    assert _austere(_table(terms + (other,))) is TriState.NO


SPECTRUM_DATA = (
    ("so8_g2", {}),
    ("isotropy", {"label": "BC2"}),
    ("isotropy", {"label": "B2"}),
    ("so_even", {"p": 7, "q": 5}),
    ("su_sp", {"p": 7, "q": 5}),
    ("isotropy", {"label": "BC3"}),
)


def _closed_grid(d, denominator):
    """Points of the closed alcove whose coordinates have the given denominator."""
    verts = alcove_vertices(d)
    axes = [range(floor(min(v.coeffs[i] for v in verts) * denominator),
                  ceil(max(v.coeffs[i] for v in verts) * denominator) + 1)
            for i in range(d.rank)]
    points = [AlcovePoint((Q(k, denominator),)) for k in axes[0]]
    for axis in axes[1:]:
        points = [AlcovePoint(p.coeffs + (Q(k, denominator),))
                  for p in points for k in axis]
    return [p for p in points if point_in_alcove(d, p)]


def _spectrum_is_symmetric(d, point, xi):
    """Whether -<alpha, xi> cot(pi theta), mult m, is symmetric under -1.

    The curvatures are built straight from the roots at mpmath's precision.
    """
    values = []
    for alpha, t, m in positive_sector_roots(d):
        theta = sum(a * x for a, x in zip(alpha, point.coeffs)) + t
        if theta.denominator == 1:
            continue  # the root's wall passes through the point
        slope = mpmath.fsum(a * x for a, x in zip(alpha, xi))
        cot = mpmath.cot(mpmath.pi * theta.numerator / theta.denominator)
        values += [-slope * cot] * m
    values.sort()
    return all(abs(v + w) < mpmath.mpf(10) ** -30
               for v, w in zip(values, reversed(values)))


def test_austere_matches_explicit_spectra():
    # at two irrational directions xi no accidental coincidence of
    # curvatures hides an imbalance, so symmetry there is austerity
    points = yes = 0
    with mpmath.workdps(50):
        xis = [(1, mpmath.sqrt(2), mpmath.sqrt(3)),
               (mpmath.e, mpmath.mpf(1) / 3, mpmath.sqrt(5))]
        for key, params in SPECTRUM_DATA:
            d = catalog(key, **params)
            for point in _closed_grid(d, 12):
                symmetric = all(_spectrum_is_symmetric(d, point, xi[:d.rank])
                                for xi in xis)
                assert (is_austere(d, point) is TriState.YES) == symmetric, (key, point)
                points += 1
                yes += symmetric
    assert (points, yes) == (190, 19)


def test_minimal_by_exact_cancellation_without_austerity():
    d = _g2()
    point = AlcovePoint((0, Q(1, 3)))
    assert is_austere(d, point) is TriState.NO
    assert is_minimal(d, point) is TriState.YES
    r = orbit_report(d, point)
    assert r.minimal is TriState.YES
    assert r.mean_curvature_norm.contains_zero


def test_minimal_no_at_generic_interior():
    d = _so_even()
    assert is_minimal(d, alcove_barycenter(d)) is TriState.NO


def test_symmetry_flags():
    d = _so_even()
    f = symmetry_flags(d, AlcovePoint((Q(1, 4), 0, 0)))
    assert f.arid_sufficient and f.weakly_reflective_sufficient
    f = symmetry_flags(_g2(), AlcovePoint((0, Q(1, 3))))
    assert f.arid_sufficient and not f.weakly_reflective_sufficient
    f = symmetry_flags(d, alcove_barycenter(d))
    assert not f.arid_sufficient and not f.weakly_reflective_sufficient


def test_orbit_report_rejects_a_point_outside_the_alcove():
    with pytest.raises(ValueError, match="outside the closed alcove"):
        orbit_report(_g2(), AlcovePoint((1, 1)))


def test_type_labels_of_so_even_vertices():
    d = _so_even()
    labels = {}
    for v in alcove_vertices(d):
        r = orbit_report(d, v)
        labels[tuple(v.coeffs)] = r.type_label
    assert labels == {
        (0, 0, 0): "BC3",
        (Q(1, 4), 0, 0): "B1+BC2",
        (0, Q(1, 4), 0): "B2+BC1",
        (0, 0, Q(1, 4)): "B3",
    }


def test_type_labels_of_g2_vertices():
    d = _g2()
    labels = {tuple(v.coeffs): orbit_report(d, v).type_label
              for v in alcove_vertices(d)}
    assert labels == {(0, 0): "G2", (Q(1, 6), 0): "A1+A1", (0, Q(1, 3)): "A2"}


def test_type_label_empty_at_interior():
    d = _g2()
    r = orbit_report(d, alcove_barycenter(d))
    assert r.type_label == "(none)" and not r.arid_sufficient
    assert active_walls(d, alcove_barycenter(d)).roots == ()


def test_scan_austere_so_even():
    d = _so_even()
    assert {tuple(p.coeffs) for p in scan_austere(d, 24)} == \
        {tuple(v.coeffs) for v in alcove_vertices(d)}


def test_scan_austere_g2():
    hits = scan_austere(_g2(), 36)
    assert [tuple(p.coeffs) for p in hits] == [(0, 0), (Q(1, 6), 0)]


def _austere_on_full_grid(d, n):
    verts = alcove_vertices(d)
    ranges = [range(ceil(min(v.coeffs[i] for v in verts) * n),
                    floor(max(v.coeffs[i] for v in verts) * n) + 1)
              for i in range(d.rank)]
    out = []
    for combo in product(*ranges):
        p = AlcovePoint(tuple(Q(k, n) for k in combo))
        if point_in_alcove(d, p) and is_austere(d, p) is TriState.YES:
            out.append(p)
    return tuple(out)


# N a multiple of 2*order, N coprime to it, and N = 24; rank-4 A4 at small N
@pytest.mark.parametrize("key,params,dens", [
    ("so8_g2", {}, (30, 19, 24)),
    ("isotropy", {"label": "BC2"}, (10, 7, 24)),
    ("so_even", {"p": 7, "q": 5}, (40, 25, 24)),
    ("su_sp", {"p": 9, "q": 7}, (40, 25, 24)),
    ("isotropy", {"label": "C3"}, (10, 7, 24)),
    ("isotropy", {"label": "A4"}, (10, 7)),
], ids=["so8_g2", "isotropy:BC2", "so_even:7,5", "su_sp:9,7", "isotropy:C3",
        "isotropy:A4"])
def test_scan_austere_walks_only_the_two_order_grid(key, params, dens):
    # every austere point of the full 1/N grid lies on the 1/(2*order)
    # grid, so the scan of the 1/gcd(N, 2*order) grid finds all of them
    d = catalog(key, **params)
    for n in dens:
        full = _austere_on_full_grid(d, n)
        assert scan_austere(d, n) == full
        assert [AlcovePoint(tuple(Q(k, n) for k in c)) for c in alcove_grid(d, n)] == \
            _closed_grid(d, n)
        assert all((c * 2 * d.order).denominator == 1
                   for p in full for c in p.coeffs)


def test_find_minimal_isotropy_a1_is_half():
    orbit = find_minimal(catalog("isotropy", label="A1"), Q(1, 10 ** 30))
    assert abs(orbit.point.coeffs[0] - Q(1, 2)) < Q(1, 10 ** 30)
    assert orbit.norm.hi < Q(1, 10 ** 30)


def test_find_minimal_isotropy_bc1_matches_arctangent():
    d = catalog("isotropy", label="BC1", mults={1: 4, 4: 1})
    orbit = find_minimal(d, Q(1, 10 ** 20))
    assert abs(orbit.point.coeffs[0] - _frac(BC1_MIN)) < Q(1, 10 ** 20)
    assert orbit.norm.hi < Q(1, 10 ** 20)


def test_find_minimal_g2_interior():
    d = _g2()
    orbit = find_minimal(d)
    assert orbit.norm.hi < Q(1, 10 ** 20)
    assert point_in_alcove(d, orbit.point, strict=True)


def _expected():
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "expected.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _stored(key):
    return _expected()[key]


# every stored find_minimal(KEY, TOL): first rungs, 296 -> 592 and
# 495 -> 990 bit climbs, rank-4 climbs over 163 log-volume evaluations
_STORED_MINIMA = sorted(tuple(k[len("find_minimal("):-1].split(", "))
                        for k in _expected() if k.startswith("find_minimal("))


def _stored_datum(key):
    name, arg = key.split(":")
    if name == "isotropy":
        return catalog(name, label=arg)
    return catalog(name, **dict(zip("pq", map(int, arg.split(",")))))


@pytest.mark.parametrize("key, tolerance", _STORED_MINIMA,
                         ids=[f"{k}-{t}" for k, t in _STORED_MINIMA])
def test_find_minimal_replays_stored_benchmark_bytes(key, tolerance):
    want = _stored(f"find_minimal({key}, {tolerance})")
    d = _stored_datum(key)
    cot_eval.cache_clear()
    orbit = find_minimal(d, Fraction(tolerance))
    got = (f"datum: {d.name}\niterations: {orbit.iterations}\n"
           f"bits: {orbit.precision_bits}\npoint: {orbit.point}\n"
           f"norm: {format_interval(orbit.norm)}\n")
    assert got == want


def test_find_minimal_cli_replays_stored_benchmark_bytes():
    # cold, as the benchmark runs it; so8_g2 is the catalog datum with a
    # root coefficient 3, where a * y rounds in every pairing
    key = "hermann find-minimal --triad so8_g2"
    cot_eval.cache_clear()
    out = io.StringIO()
    assert main(key.split()[1:], stdout=out) == 0
    assert out.getvalue() == _stored(key)


# every catalog datum of ranks 1 to 4
_RANK_1_TO_4 = ([("so8_g2", {})]
                + [(key, {"p": q + 2, "q": q}) for key in ("so_even", "su_sp")
                   for q in (3, 5, 7, 9)]
                + [("isotropy", {"label": lab}) for lab in ("A1", "A2", "A3", "A4", "B2", "B3",
                                                            "B4", "BC1", "BC2", "BC3", "BC4",
                                                            "C3", "C4", "D4", "G2")])


def _hessians(d, monkeypatch, mirror):
    """find_minimal's outcome and every Hessian it solves, with _mirror as given."""
    seen = []
    solve = geometry._lu_solve
    monkeypatch.setattr(geometry, "_lu_solve", lambda a, b, prec: seen.append(a) or
                        solve(a, b, prec))
    monkeypatch.setattr(geometry, "_mirror", mirror)
    try:
        got = find_minimal(d)
        got = got.point, got.norm, got.iterations, got.precision_bits
    except geometry.NoConvergence as exc:
        got = str(exc)
    monkeypatch.undo()
    return got, seen


@pytest.mark.parametrize("key, params", _RANK_1_TO_4,
                         ids=[f"{k}{p.get('q', p.get('label', ''))}" for k, p in _RANK_1_TO_4])
def test_mirrored_hessian_equals_the_full_one(key, params, monkeypatch):
    d = catalog(key, **params)
    cols = tuple(zip(*(alpha for alpha, _, _ in positive_sector_roots(d))))
    # every pair qualifies: G2's only odd coefficient is 3, the rest are +-2^k
    assert geometry._mirror(cols) == {(j, i) for i in range(d.rank) for j in range(i + 1, d.rank)}
    full = _hessians(d, monkeypatch, lambda cols: set())
    mirrored = _hessians(d, monkeypatch, geometry._mirror)
    assert mirrored == full
    # the A_n barycenter is certified before any Newton step
    assert bool(full[1]) == (params.get("label", "")[:1] != "A")


def test_hessian_pairs_with_unequal_odd_parts_take_the_full_path():
    mirror = geometry._mirror
    # a column pair (3, 5), as E-type coefficients would give, breaks the rule
    assert mirror(((1, 3, 2), (1, 5, 0))) == set()
    assert mirror(((1, 3, 2), (1, 6, 4), (2, 5, 1))) == {(1, 0)}
    # coefficients 1 and +-2^k commute with any other, and pairs that share no term qualify
    assert mirror(((3, -2, 0), (-1, 6, 0), (0, 0, 5))) == {(1, 0), (2, 0), (2, 1)}


def _reference_log_volume(terms, x):
    """The log volume in plain mpf operators, at the context's precision."""
    total = mpmath.mpf(0)
    trig = []
    for alpha, phase, m in terms:
        c, s = mpmath.cos_sin(mpmath.pi * (pairing(alpha, x) + phase))
        total += m * mpmath.log(abs(s))
        trig.append((c, s))
    return total, trig


LOG_VOLUME_DATA = (("so8_g2", ()), ("isotropy", (("label", "C3"),)),
                   ("su_sp", (("p", 7), ("q", 5))))


@cache
def _log_volume_datum(i):
    key, params = LOG_VOLUME_DATA[i]
    d = catalog(key, **dict(params))
    return d, alcove_vertices(d)


@given(st.integers(min_value=0, max_value=len(LOG_VOLUME_DATA) - 1),
       st.sampled_from((192, 296, 495, 990)), st.integers(min_value=4, max_value=1100),
       st.data())
@settings(max_examples=40, deadline=None)
def test_log_volume_kernel_matches_mpf_operators_bit_for_bit(i, prec, bits, data):
    d, verts = _log_volume_datum(i)
    # a positive combination of every vertex is interior; rounding it to
    # 2^-bits, finer or coarser than the rung, keeps most draws inside
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=60),
                                 min_size=len(verts), max_size=len(verts)))
    point = [sum(w * v.coeffs[j] for w, v in zip(weights, verts)) / sum(weights)
             for j in range(d.rank)]
    point = AlcovePoint(tuple(Q(floor(c * 2 ** bits), 2 ** bits) for c in point))
    assume(point_in_alcove(d, point, strict=True))
    stream = positive_sector_roots(d)
    with mpmath.mp.workprec(prec):
        x = [mpmath.mpf(c.numerator) / c.denominator for c in point.coeffs]
        terms = [(alpha, mpmath.mpf(t.numerator) / t.denominator, m) for alpha, t, m in stream]
        want, want_trig = _reference_log_volume(terms, x)
    roots, rung = geometry._rung(stream, prec)
    got, got_trig = geometry._log_volume(roots, rung, [v._mpf_ for v in x], prec)
    assert got == want._mpf_
    assert got_trig == [(c._mpf_, s._mpf_) for c, s in want_trig]


def _dyadic(prec, man_bits=None):
    """A dyadic of at most prec bits (exactly man_bits when given), zeros and
    small integers included so that pivot ratios tie."""
    if man_bits is None:
        wide = st.builds(lambda m, e: from_man_exp(m, e),
                         st.integers(min_value=-(2 ** prec - 1), max_value=2 ** prec - 1),
                         st.integers(min_value=-prec - 8, max_value=8))
        return st.one_of(st.just(fzero), st.builds(from_int, st.integers(-3, 3)), wide)
    odd = st.integers(min_value=2 ** (man_bits - 2), max_value=2 ** (man_bits - 1) - 1)
    return st.builds(lambda m, e, neg: from_man_exp(-(2 * m + 1) if neg else 2 * m + 1, e),
                     odd, st.integers(min_value=-man_bits - 8, max_value=8), st.booleans())


def _reference_lu_solve(a, b, prec):
    """mpmath.lu_solve's raw solution, or the text of its ZeroDivisionError."""
    make = mpmath.mp.make_mpf
    with mpmath.mp.workprec(prec):
        try:
            sol = mpmath.lu_solve(mpmath.matrix([[make(v) for v in row] for row in a]),
                                  mpmath.matrix([make(v) for v in b]))
        except ZeroDivisionError as exc:
            return str(exc)
        except TypeError:
            # a column with no nonzero pivot candidate: LU_decomp swaps with
            # p[j] = None; the matrix is singular, and _lu_solve says so
            return "matrix is numerically singular"
    return [sol[i]._mpf_ for i in range(len(b))]


def _lu_solve_or_error(a, b, prec):
    try:
        return geometry._lu_solve(a, b, prec)
    except ZeroDivisionError as exc:
        return str(exc)


@given(st.integers(min_value=1, max_value=5), st.sampled_from((53, 192, 495, 990)),
       st.sampled_from(("any", "zero lead", "tie", "singular")), st.data())
@settings(max_examples=200, deadline=None)
def test_lu_solve_matches_mpmath_lu_solve_bit_for_bit(n, prec, shape, data):
    entry = _dyadic(prec)
    a = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    b = data.draw(st.lists(entry, min_size=n, max_size=n))
    if shape == "zero lead" and n > 1:
        a[0][0] = fzero  # row 0 cannot pivot column 0: a row swap is forced
    elif shape == "tie" and n > 1:
        # rows 0 and 1 tie in |a_k0| / row sum; the first one must pivot
        a[1] = [mpf_shift(v, 1) for v in a[0]]
        a[1][-1] = mpf_neg(a[1][-1])
    elif shape == "singular":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(min_value=-3, max_value=3))
        a[i] = [mpf_shift(v, k) if i != j else fzero for v in a[j]]
        if n > 1 and data.draw(st.booleans()):
            a[i] = [mpf_neg(v) for v in a[i]]
    rows = [list(row) for row in a]
    want = _reference_lu_solve(a, b, prec)
    assert _lu_solve_or_error(a, b, prec) == want
    assert a == rows  # the matrix is not changed
    if shape == "singular":
        assert want == "matrix is numerically singular"


def test_lu_solve_swaps_rows_as_mpmath_does():
    # non-symmetric: column 0 pivots on row 2, then column 1 on row 2 again;
    # rows 0 and 1 of the third case tie in column 0, and the first pivots:
    # at 53 bits the second would give other bits
    cases = (([[1, 5, 3], [0, 2, 7], [9, 1, 1]], [1, -2, 3]),
             ([[0, 1, 2], [3, 1, 0], [1, 0, 1]], [1, 1, 1]),
             ([[3, 1, 2], [6, 2, -4], [-1, 0, 3]], [-6, -9, 9]),
             ([[1, 1], [1, -1]], [3, 1]),
             ([[2, 0, 0, 1], [1, 3, 0, 0], [0, 1, 4, 0], [0, 0, 1, 5]], [1, 2, 3, 4]))
    for rows, rhs in cases:
        for prec in (53, 192, 495, 990):
            a = [[_ratio(Q(v, 7), prec) for v in row] for row in rows]
            b = [_ratio(Q(v, 3), prec) for v in rhs]
            got = geometry._lu_solve(a, b, prec)
            assert got == _reference_lu_solve(a, b, prec)
            # and it solves the system to about prec bits
            x = [mpf_to_fraction(v) for v in got]
            err = max(abs(sum(mpf_to_fraction(c) * y for c, y in zip(row, x)) - mpf_to_fraction(r))
                      for row, r in zip(a, b))
            assert err < Q(1, 2 ** (prec - 16))


@given(st.sampled_from((53, 192, 495, 990)), st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=150, deadline=None)
def test_pairing_kernel_matches_mpf_operators_bit_for_bit(prec, size, data):
    alpha = data.draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=size, max_size=size))
    bits = data.draw(st.sampled_from((prec, prec + 10)))
    x = data.draw(st.lists(st.one_of(_dyadic(prec), _dyadic(prec, bits)),
                           min_size=size, max_size=size))
    make = mpmath.mp.make_mpf
    for k in range(1, size + 1):  # every prefix, so a lone 1 * y is checked too
        with mpmath.mp.workprec(prec):
            want = sum((a * make(y) for a, y in zip(alpha[:k], x)), mpmath.mpf(0))
        assert geometry._pairing(alpha[:k], x, prec) == want._mpf_


@given(st.sampled_from((53, 192, 495, 990)), st.sampled_from((1, -1, 2, -2, 4, -4, 3, 6)),
       st.data())
@settings(max_examples=200, deadline=None)
def test_mul_int_shift_is_mpf_mul_int_bit_for_bit(prec, m, data):
    # a product with +-2^k of a value of at most prec bits is an exponent
    # shift; a wider value (the Newton step has prec + 10 bits) or another m
    # goes through mpf_mul_int
    bits = data.draw(st.sampled_from((prec, prec + 10)))
    v = data.draw(st.one_of(_dyadic(prec), _dyadic(prec, bits)))
    calls = []
    original = geometry.mpf_mul_int

    def counting(*args):
        calls.append(args)
        return original(*args)

    geometry.mpf_mul_int = counting
    try:
        got = geometry._mul_int(v, m, prec)
    finally:
        geometry.mpf_mul_int = original
    assert got == original(v, m, prec, round_nearest)
    assert bool(calls) == (v[3] > prec or m in (3, 6))
    if v[3] <= prec:  # the line search's halving and a phase-0 sum change no bit
        assert mpf_shift(v, -1) == mpf_div(v, from_int(2), prec, round_nearest)
        assert mpf_add(v, fzero, prec, round_nearest) == v


def test_no_convergence_names_the_tolerance_as_mpmath_nstr_does(monkeypatch):
    # a ladder whose cap is below its first rung runs no rung at all
    monkeypatch.setattr(geometry, "MAX_PRECISION_BITS", 16)
    d = _g2()
    for tol in (Q(1, 10 ** 20), Q(3, 7), Q(2 ** 80 + 1, 3 ** 60), Fraction(1e-30)):
        short = mpmath.nstr(mpmath.mpf(tol.numerator) / tol.denominator, 3)
        with pytest.raises(geometry.NoConvergence) as exc:
            find_minimal(d, tol)
        assert str(exc.value).startswith(f"no certified point below {short}: the ladder starts")
        assert str(exc.value).endswith("its cap is 64 bits")


grid_coordinate = st.integers(min_value=0, max_value=12)


@given(st.tuples(grid_coordinate, grid_coordinate))
@settings(max_examples=40, deadline=None)
def test_flag_implications_on_grid(ij):
    d = _g2()
    point = AlcovePoint((Q(ij[0], 36), Q(ij[1], 36)))
    if not point_in_alcove(d, point):
        return
    r = orbit_report(d, point)
    if r.totally_geodesic:
        assert r.austere is TriState.YES
    if r.austere is TriState.YES:
        assert r.minimal is TriState.YES
        assert r.mean_curvature.norm.contains_zero
    if r.weakly_reflective_sufficient:
        assert r.arid_sufficient
    # arid orbits must be minimal, weakly reflective ones austere
    if r.arid_sufficient:
        assert r.minimal is not TriState.NO
    if r.weakly_reflective_sufficient:
        assert r.austere is not TriState.NO


CONSISTENCY_DATA = (
    ("isotropy", (("label", "A1"),)),
    ("isotropy", (("label", "BC1"),)),
    ("so8_g2", ()),
    ("so_even", (("p", 7), ("q", 5))),
    ("su_sp", (("p", 7), ("q", 5))),
    ("isotropy", (("label", "BC2"),)),
    ("so_even", (("p", 9), ("q", 7))),
    ("su_sp", (("p", 9), ("q", 7))),
    ("isotropy", (("label", "C3"),)),
)


@cache
def _consistency_datum(i):
    key, params = CONSISTENCY_DATA[i]
    return catalog(key, **dict(params))


@given(st.integers(min_value=0, max_value=len(CONSISTENCY_DATA) - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_report_matches_standalone_predicates(i, data):
    d = _consistency_datum(i)
    verts = alcove_vertices(d)
    weights = data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                 min_size=len(verts), max_size=len(verts)).filter(any))
    total = sum(weights)
    point = AlcovePoint(tuple(sum(w * v.coeffs[j] for w, v in zip(weights, verts)) / total
                              for j in range(d.rank)))
    r = orbit_report(d, point)
    assert r.totally_geodesic == is_totally_geodesic(d, point)
    assert r.austere is is_austere(d, point)
    assert r.minimal is is_minimal(d, point)
    assert r.mean_curvature == mean_curvature(d, point)


def test_orbit_report_builds_the_terms_once(monkeypatch):
    calls = []
    original = geometry._angle_pass

    def counting(d, scaled):
        calls.append(scaled)
        return original(d, scaled)

    monkeypatch.setattr(geometry, "_angle_pass", counting)
    r = orbit_report(_so_even(), AlcovePoint((Q(1, 4), 0, 0)))
    assert r.austere is TriState.YES and r.minimal is TriState.YES
    assert len(calls) == 1


def test_orbit_report_makes_one_angle_pass(monkeypatch):
    import hermann.alcove as alcove
    calls = []
    original = alcove.sector_angles

    def counting(d, scaled, items):
        calls.append(scaled)
        return original(d, scaled, items)

    for mod in (alcove, geometry):
        monkeypatch.setattr(mod, "sector_angles", counting)
    d = _so_even()
    for point in (AlcovePoint((Q(1, 4), 0, 0)), alcove_barycenter(d)):
        calls.clear()
        r = orbit_report(d, point)
        assert len(calls) == 1
        assert r.type_label == type_label(d, active_roots(d, point))


def test_orbit_report_classifies_the_active_system_once(monkeypatch):
    # the type is read off the facet walls through the point: one
    # cartan_type call when there are any, no active root system, and one
    # Weyl group, of the walls' Cartan matrix, when they span
    import hermann.alcove as alcove
    import hermann.roots as roots
    names = ("cartan_type", "weyl_group", "active_roots", "subsystem",
             "decompose_and_classify")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(roots, name, None) or getattr(alcove, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod in (roots, alcove, geometry):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    d = _so_even()
    for point, spans in ((AlcovePoint((Q(1, 4), 0, 0)), 1), (alcove_barycenter(d), 0)):
        calls.update(dict.fromkeys(names, 0))
        r = orbit_report(d, point)
        assert calls == {"cartan_type": spans, "weyl_group": spans, "active_roots": 0,
                         "subsystem": 0, "decompose_and_classify": 0}
    assert r.type_label == "(none)"


# every catalog datum up to rank 5, each family at one p
REFERENCE_DATA = tuple(
    [(key, (("p", q + 2), ("q", q))) for key in ("so_even", "su_sp") for q in (3, 5, 7, 9, 11)]
    + [("so8_g2", ())]
    + [("isotropy", (("label", f"{family}{r}"),))
       for family, ranks in (("A", range(1, 6)), ("B", range(2, 6)), ("BC", range(1, 6)),
                             ("C", range(3, 6)), ("D", range(2, 6)), ("G", (2,)))
       for r in ranks])


@pytest.mark.parametrize("key, params", REFERENCE_DATA,
                         ids=[":".join([key, *(str(v) for _, v in params)])
                              for key, params in REFERENCE_DATA])
def test_facet_walls_match_the_active_root_reference(key, params, oracles):
    # the reference pairs every root with the point, names the components by
    # the Dynkin diagram of its own base and looks -c0 up in the whole chamber
    # orbit; both routes share the namer, so each printed label is also held
    # to the counts of the oracles' ambient builders
    from hermann.roots import cartan_matrix, weyl_group
    d = catalog(key, **dict(params))
    for face in faces(d):
        point = face.representative
        act = active_roots(d, point)
        system = act.system
        spans = len(system.simple_roots) == d.rank
        wr = spans and tuple(range(-1, -d.rank - 1, -1)) in weyl_group(
            cartan_matrix(system.simple_roots, system.gram)).elements
        r = orbit_report(d, point)
        assert (r.type_label, r.arid_sufficient, r.weakly_reflective_sufficient) == \
            (type_label(d, act), spans, wr), point
        labels = [] if r.type_label == "(none)" else r.type_label.split("+")
        want = Counter(_oracle_counts(oracles, *re.fullmatch(r"([A-Z]+)(\d+)", lab).groups())
                       for lab in labels)
        assert Counter(_component_counts(oracles, d, act.union)) == want, (point, r.type_label)


@cache
def _oracle_counts(oracles, family, rank):
    return oracles.label_counts(family, int(rank))


def _component_counts(oracles, d, union):
    """(rank, roots, shortest roots, roots whose double is a root) of each
    irreducible component of a root system given as its list of roots: the
    classes of the roots under "not orthogonal", ranked by oracles.affine_rank."""
    g = d.sigma.gram.form[0]
    g_roots = {v: [sum(a * x for a, x in zip(row, v)) for row in g] for v in union}
    left = set(union)
    while left:
        comp, frontier = set(), [left.pop()]
        while frontier:
            v = frontier.pop()
            comp.add(v)
            near = {u for u in left if sum(a * x for a, x in zip(u, g_roots[v]))}
            left -= near
            frontier.extend(near)
        norms = [sum(a * x for a, x in zip(v, g_roots[v])) for v in comp]
        yield (oracles.affine_rank([(0,) * d.rank, *comp]), len(comp),
               norms.count(min(norms)), sum(tuple(2 * x for x in v) in comp for v in comp))


def test_type_label_standalone_matches_report():
    d = _so_even()
    from hermann.alcove import active_roots
    point = AlcovePoint((Q(1, 4), 0, 0))
    assert type_label(d, active_roots(d, point)) == "B1+BC2"


# the integer kernels of cot_terms, active_roots, _mean_curvature and inner
# against the plain Fraction formulas they replace
KERNEL_DATA = (
    ("isotropy", (("label", "A1"),)),
    ("isotropy", (("label", "BC1"),)),
    ("so8_g2", ()),
    ("so_even", (("p", 7), ("q", 5))),
    ("su_sp", (("p", 9), ("q", 7))),
    ("isotropy", (("label", "C3"),)),
    ("isotropy", (("label", "A4"),)),
    ("su_sp", (("p", 11), ("q", 9))),
)


@cache
def _kernel_datum(i):
    key, params = KERNEL_DATA[i]
    d = catalog(key, **dict(params))
    return d, tuple(f.representative for f in faces(d))


def _reference_mean_curvature(d, terms, bits):
    """Interval sums and products over Fraction, one operation at a time."""
    r = d.rank
    lo, hi = [Q(0)] * r, [Q(0)] * r
    for t in terms:
        ct = cot_eval(t.theta, bits)
        for j, a in enumerate(t.alpha):
            c = -t.mult * a
            if c > 0:
                lo[j], hi[j] = lo[j] + ct.lo * c, hi[j] + ct.hi * c
            elif c < 0:
                lo[j], hi[j] = lo[j] + ct.hi * c, hi[j] + ct.lo * c
    g = d.sigma.gram.entries
    n_lo = n_hi = Q(0)
    for i in range(r):
        for j in range(r):
            if g[i][j]:
                p = [lo[i] * lo[j], lo[i] * hi[j], hi[i] * lo[j], hi[i] * hi[j]]
                small, big = min(p) * g[i][j], max(p) * g[i][j]
                n_lo, n_hi = n_lo + min(small, big), n_hi + max(small, big)
    ctx = iv_context(bits + 16)
    norm2 = RealInterval(max(n_lo, Q(0)), max(n_hi, Q(0)), bits)
    norm = interval_from_iv(ctx.sqrt(iv_from_interval(ctx, norm2)), bits)
    return list(zip(lo, hi)), norm


def _groups(terms, den):
    """The terms' (alpha, mult) by angle numerator over den, in first-appearance order."""
    groups = {}
    for t in terms:
        n = t.theta * den
        assert n.denominator == 1
        groups.setdefault(int(n), []).append((t.alpha, t.mult))
    return groups


def _checked_kernel(d, den, groups, terms, bits):
    """The grouped kernel's enclosure, asserted equal to the per-term reference."""
    mc = geometry._mean_curvature(d, den, groups, bits)
    coeffs, norm = _reference_mean_curvature(d, terms, bits)
    assert [(c.lo, c.hi) for c in mc.coeffs] == coeffs
    assert (mc.norm.lo, mc.norm.hi, mc.norm.precision_bits) == (norm.lo, norm.hi, bits)
    return mc


kernel_point = st.one_of(
    # a face centroid of the closed alcove
    st.tuples(st.just("face"), st.integers(min_value=0, max_value=10 ** 6)),
    # any rational point, most of them outside the alcove
    st.tuples(st.just("free"), st.lists(
        st.fractions(min_value=Q(-2), max_value=Q(2), max_denominator=48),
        min_size=4, max_size=4)),
)


@given(st.integers(min_value=0, max_value=len(KERNEL_DATA) - 1), kernel_point)
@settings(max_examples=60, deadline=None)
def test_integer_kernels_match_fraction_formulas(i, drawn):
    d, reps = _kernel_datum(i)
    kind, value = drawn
    point = reps[value % len(reps)] if kind == "face" else AlcovePoint(value[:d.rank])
    x = point.coeffs
    want = tuple(CotTerm(alpha, theta, m) for alpha, t, m in positive_sector_roots(d)
                 for theta in [(pairing(alpha, x) + t) % 1] if theta != 0)
    terms = cot_terms(d, point)
    assert terms == want
    den, groups, table = _angle_pass(d, _scaled(d, point, d.order))
    assert den == lcm(d.order, *(c.denominator for c in x))
    assert list(groups.items()) == list(_groups(terms, den).items())
    union = sorted({v for s in d.sectors for v in s.roots
                    if (pairing(v, x) + s.phi) % 1 == 0})
    assert active_roots(d, point).union == tuple(union)
    for bits in (192, 990):
        mc = _checked_kernel(d, den, groups, terms, bits)
    # totally geodesic, austere and exact minimal, read off the class table
    assert dict(table) == dict(_table(terms, den))
    assert (not table, _austere(table) is TriState.YES,
            _minimal(table, mc.norm) is TriState.YES) == _verdicts_fraction(terms)


def test_grouped_kernel_matches_per_term_reference_at_rank_nine():
    # rank 9: many roots share each angle, and each root has up to 9 coordinates
    d = catalog("su_sp", p=21, q=19)
    reps = [f.representative for f in faces(d)]
    assert len(reps) == 1023
    for point in reps[::31]:
        den, groups, _ = _angle_pass(d, _scaled(d, point, d.order))
        _checked_kernel(d, den, groups, cot_terms(d, point), 192)


def _matches_parent_route(d, point, bits):
    """_mean_curvature at the point, asserted equal, end for end, to the r x r
    Gram loop with eager coefficients."""
    den, groups, _ = _angle_pass(d, _scaled(d, point, d.order))
    mc = geometry._mean_curvature(d, den, groups, bits)
    lo, hi, e, coeffs, norm = mean_curvature_reference(d, den, groups, bits)
    assert (mc.ends, mc.scale) == (tuple(zip(lo, hi)), e), point
    assert mc.coeffs == coeffs, point
    assert (mc.norm.lo, mc.norm.hi, mc.norm.precision_bits) == (norm.lo, norm.hi, bits), point


@pytest.mark.parametrize("i", range(len(KERNEL_DATA)),
                         ids=[":".join([key, *(str(v) for _, v in params)])
                              for key, params in KERNEL_DATA])
def test_mean_curvature_matches_the_parent_route_at_every_face(i):
    d, reps = _kernel_datum(i)
    for point in reps:
        _matches_parent_route(d, point, 192)


# data of ranks 1 to 4
ROUTE_DATA = (
    ("isotropy", (("label", "A1"),)),
    ("isotropy", (("label", "BC1"),)),
    ("so8_g2", ()),
    ("isotropy", (("label", "BC2"),)),
    ("so_even", (("p", 9), ("q", 7))),
    ("isotropy", (("label", "C3"),)),
    ("isotropy", (("label", "A4"),)),
    ("isotropy", (("label", "D4"),)),
    ("su_sp", (("p", 11), ("q", 9))),
)


@cache
def _route_datum(i):
    key, params = ROUTE_DATA[i]
    d = catalog(key, **dict(params))
    return d, alcove_vertices(d)


@given(st.integers(min_value=0, max_value=len(ROUTE_DATA) - 1), st.data(),
       st.sampled_from((192, 192, 495, 990)))
@settings(max_examples=80, deadline=None)
def test_mean_curvature_matches_the_parent_route_inside(i, data, bits):
    d, verts = _route_datum(i)
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=60),
                                 min_size=len(verts), max_size=len(verts)))
    total = sum(weights)
    point = AlcovePoint(tuple(sum(w * v.coeffs[j] for w, v in zip(weights, verts)) / total
                              for j in range(d.rank)))
    assert point_in_alcove(d, point, strict=True)
    _matches_parent_route(d, point, bits)


def test_orbit_report_evaluates_each_distinct_angle_once(monkeypatch):
    calls = []
    original = geometry.cot_eval

    def counting(a, bits):
        calls.append(a)
        return original(a, bits)

    monkeypatch.setattr(geometry, "cot_eval", counting)
    for i in range(len(KERNEL_DATA)):
        d, reps = _kernel_datum(i)
        for point in reps:
            calls.clear()
            orbit_report(d, point)
            angles = {t.theta for t in cot_terms(d, point)}
            assert len(calls) == len(angles) and set(calls) == angles, point


def test_shape_spectrum_evaluates_each_distinct_angle_once(monkeypatch):
    calls = []
    original = geometry.cot_eval

    def counting(a, bits):
        calls.append(a)
        return original(a, bits)

    data = [_kernel_datum(i) for i in range(len(KERNEL_DATA))]
    d = catalog("su_sp", p=19, q=17)
    data.append((d, (alcove_barycenter(d), AlcovePoint((0,) * d.rank))))
    for d, reps in data:
        xi = tuple(Q(j - 2, j + 1) for j in range(d.rank))
        for point in reps:
            # one term per cot_terms term, in its order, each the per-term formula
            want = [(t.alpha, t.theta, t.mult, pairing(t.alpha, xi),
                     cot_eval(t.theta, 192).scale(-pairing(t.alpha, xi)))
                    for t in cot_terms(d, point)]
            monkeypatch.setattr(geometry, "cot_eval", counting)
            calls.clear()
            rep = shape_spectrum(d, point, xi)
            monkeypatch.setattr(geometry, "cot_eval", original)
            assert [(t.alpha, t.theta, t.mult, t.slope, t.value) for t in rep.terms] == want
            angles = {w[1] for w in want}
            assert len(calls) == len(angles) and set(calls) == angles, point


@given(st.lists(st.fractions(min_value=Q(-6), max_value=Q(6), max_denominator=12),
                min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_inner_matches_fraction_formula_on_non_integral_gram(uv):
    g = GramMatrix(((2, Q(-1, 2)), (Q(-1, 2), 1)))
    u, v = uv[:2], uv[2:]
    want = sum(u[i] * g.entries[i][j] * v[j] for i in range(2) for j in range(2))
    got = inner(u, v, g)
    assert type(got) is Fraction and got == want
    ints = tuple(int(c) for c in u), tuple(int(c) for c in v)
    assert inner(*ints, g) == sum(ints[0][i] * g.entries[i][j] * ints[1][j]
                                  for i in range(2) for j in range(2))
