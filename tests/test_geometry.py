from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.alcove import AlcovePoint, alcove_barycenter, alcove_vertices
from hermann.datum import catalog
import hermann.geometry as geometry
from hermann.exact import RationalAngle, inner
from hermann.geometry import (
    CotTerm,
    TriState,
    _austere,
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
        key = (norm, t.theta.coeff)
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
    assert any(t.alpha == (1, 1) and t.theta.coeff == Q(2, 3) for t in terms)


def test_spectrum_at_zero_direction_is_zero():
    d = _so_even()
    rep = shape_spectrum(d, AlcovePoint((0, 0, 0)), (0, 0, 0))
    assert all(t.value.lo == t.value.hi == 0 for t in rep.terms)


def test_spectrum_along_first_dual_direction():
    d = _so_even()
    rep = shape_spectrum(d, AlcovePoint((0, 0, 0)), (1, 0, 0))
    e1 = (1, 1, 1)
    vals = {t.theta.coeff: t.value for t in rep.terms if t.alpha == e1}
    assert vals[Q(1, 4)].contains(Q(-1))
    assert vals[Q(3, 4)].contains(Q(1))
    assert vals[Q(1, 2)].contains_zero


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
    return tuple(CotTerm((c, 0), RationalAngle(theta), m) for c, theta, m in classes)


@pytest.mark.parametrize("terms, verdict", [
    (_line((1, Q(1, 3), 2), (1, Q(2, 3), 1)), TriState.NO),
    (_line((1, Q(1, 2), 3)), TriState.YES),
    (_line((1, Q(1, 3), 1), (2, Q(1, 4), 2), (1, Q(2, 3), 1), (2, Q(3, 4), 2)),
     TriState.YES),
])
def test_line_balance_rule(terms, verdict):
    assert _austere(terms) is verdict


def test_excess_meeting_unseparated_cross_pair_is_indeterminate(monkeypatch):
    # the excess at (1, 1/3) can only be cancelled by the c = 2 class
    terms = _line((1, Q(1, 3), 1), (2, Q(3, 4), 1), (2, Q(1, 4), 1))
    assert _austere(terms) is TriState.NO
    monkeypatch.setattr(geometry, "_certified_nonzero_sum", lambda *args: False)
    assert _austere(terms) is TriState.INDETERMINATE
    # an exact excess on a second line still decides no
    other = CotTerm((0, 1), RationalAngle(Q(1, 5)), 1)
    assert _austere(terms + (other,)) is TriState.NO


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
    assert r.type_label == "(none)"
    assert r.actives.union == ()


def test_scan_austere_so_even():
    d = _so_even()
    hits = scan_austere(d, 24)
    assert all(v is TriState.YES for _, v in hits)
    assert {tuple(p.coeffs) for p, _ in hits} == \
        {tuple(v.coeffs) for v in alcove_vertices(d)}


def test_scan_austere_g2():
    hits = scan_austere(_g2(), 36)
    assert {tuple(p.coeffs) for p, _ in hits} == {(0, 0), (Q(1, 6), 0)}
    assert all(v is TriState.YES for _, v in hits)


def test_scan_austere_parallel_agrees():
    d = _g2()
    assert scan_austere(d, 18, jobs=2) == scan_austere(d, 18)


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
    from hermann.alcove import point_in_alcove
    assert point_in_alcove(d, orbit.point, strict=True)


grid_coordinate = st.integers(min_value=0, max_value=12)


@given(st.tuples(grid_coordinate, grid_coordinate))
@settings(max_examples=40, deadline=None)
def test_flag_implications_on_grid(ij):
    from hermann.alcove import point_in_alcove
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
    original = geometry.cot_terms

    def counting(d, point):
        calls.append(point)
        return original(d, point)

    monkeypatch.setattr(geometry, "cot_terms", counting)
    r = orbit_report(_so_even(), AlcovePoint((Q(1, 4), 0, 0)))
    assert r.austere is TriState.YES and r.minimal is TriState.YES
    assert len(calls) == 1


def test_orbit_report_classifies_the_active_system_once(monkeypatch):
    import hermann.alcove as alcove
    from hermann.roots import decompose_and_classify
    calls = []

    def counting(system):
        calls.append(system)
        return decompose_and_classify(system)

    for mod in (alcove, geometry):
        if getattr(mod, "decompose_and_classify", None) is decompose_and_classify:
            monkeypatch.setattr(mod, "decompose_and_classify", counting)
    r = orbit_report(_so_even(), AlcovePoint((Q(1, 4), 0, 0)))
    assert r.type_label == "B1+BC2" and r.weakly_reflective_sufficient
    assert len(calls) == 1


def test_type_label_standalone_matches_report():
    d = _so_even()
    from hermann.alcove import active_roots
    point = AlcovePoint((Q(1, 4), 0, 0))
    assert type_label(d, active_roots(d, point)) == "B1+BC2"
