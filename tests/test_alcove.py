from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.alcove import (
    AlcovePoint,
    active_roots,
    alcove_barycenter,
    alcove_vertices,
    faces,
    fundamental_alcove,
    pairing_angle,
    point_in_alcove,
    reduce_to_alcove,
)
from hermann.datum import catalog
from hermann.exact import RationalAngle

Q = Fraction


def _so_even():
    return catalog("so_even", p=9, q=7)


def _g2():
    return catalog("so8_g2")


coordinate = st.fractions(min_value=Q(-2), max_value=Q(2), max_denominator=24)


def test_alcove_point_normalizes_to_fractions():
    p = AlcovePoint((1, 0))
    assert all(isinstance(c, Fraction) for c in p.coeffs)
    assert str(AlcovePoint((Q(1, 4), Q(0)))) == "(1/4, 0)"


def test_so_even_alcove_is_a_simplex():
    d = _so_even()
    facets = fundamental_alcove(d)
    assert len(facets) == 4
    for q in facets:
        assert gcd(*[abs(int(x)) for x in q.normal]) == 1
    verts = set(tuple(v.coeffs) for v in alcove_vertices(d))
    assert verts == {(0, 0, 0), (Q(1, 4), 0, 0), (0, Q(1, 4), 0), (0, 0, Q(1, 4))}


def test_g2_alcove_vertices():
    verts = set(tuple(v.coeffs) for v in alcove_vertices(_g2()))
    assert verts == {(0, 0), (Q(1, 6), 0), (0, Q(1, 3))}


def test_barycenter_is_interior():
    for d in (_so_even(), _g2(), catalog("isotropy", label="BC2")):
        assert point_in_alcove(d, alcove_barycenter(d), strict=True)


def test_face_counts():
    assert len(faces(_so_even())) == 15
    assert len(faces(_g2())) == 7


def test_face_dimensions_and_representatives():
    d = _g2()
    by_dim = {}
    for f in faces(d):
        by_dim.setdefault(f.dimension, []).append(f)
        assert point_in_alcove(d, f.representative)
        # the representative must expose exactly the face's facet set
        tight = tuple(i for i, q in enumerate(fundamental_alcove(d))
                      if sum(Fraction(a) * x for a, x in
                             zip(q.normal, f.representative.coeffs)) == q.bound)
        assert tight == f.active_facets
    assert {k: len(v) for k, v in by_dim.items()} == {0: 3, 1: 3, 2: 1}
    assert all(f.vertex for f in by_dim[0])


def test_active_roots_at_g2_vertices():
    d = _g2()
    sizes = {}
    for v in alcove_vertices(d):
        act = active_roots(d, v)
        sizes[tuple(v.coeffs)] = len(act.union)
        for alpha in act.union:
            assert alpha in act.to_ambient.values() or act.to_ambient == {} \
                or alpha in d.sigma.roots
    # G2 (12 roots), A1+A1 (4), A2 (6)
    assert sizes == {(0, 0): 12, (Q(1, 6), 0): 4, (0, Q(1, 3)): 6}


@pytest.mark.parametrize("key, params", [
    ("so8_g2", {}), ("isotropy", {"label": "BC2"}), ("su_sp", {"p": 7, "q": 5})])
def test_active_coordinates_map_back_to_ambient_roots(key, params):
    d = catalog(key, **params)
    for face in faces(d):
        act = active_roots(d, face.representative)
        system = act.system
        simples = [act.to_ambient[s] for s in system.simple_roots]
        assert set(act.to_ambient) == set(system.roots)
        assert set(act.to_ambient.values()) == set(act.union)
        for c, v in act.to_ambient.items():
            assert v == tuple(sum(ci * s[j] for ci, s in zip(c, simples))
                              for j in range(d.rank))


def test_active_roots_empty_at_interior_points():
    d = _so_even()
    act = active_roots(d, alcove_barycenter(d))
    assert act.union == ()
    assert act.system.rank == 0 or len(act.system.roots) == 0


def test_pairing_angle_exact():
    d = _so_even()
    angle = pairing_angle(d, (1, 1, 1), AlcovePoint((Q(1, 8), Q(1, 16), 0)),
                          RationalAngle(Q(1, 4)))
    assert angle.coeff == Q(1, 8) + Q(1, 16) + Q(1, 4)


def test_reduce_fold_across_one_wall():
    d = catalog("so_even", p=7, q=5)
    reduced, walls = reduce_to_alcove(d, AlcovePoint((Q(3, 8), 0)))
    assert tuple(reduced.coeffs) == (Q(1, 8), 0)
    assert len(walls) == 1
    assert walls[0].alpha == (1, 1)


def test_reduce_is_identity_inside():
    d = _g2()
    p = alcove_barycenter(d)
    reduced, walls = reduce_to_alcove(d, p)
    assert reduced == p and walls == ()


@given(st.tuples(coordinate, coordinate))
@settings(max_examples=60, deadline=None)
def test_reduce_lands_in_closed_alcove_and_is_idempotent(coords):
    d = _g2()
    reduced, _ = reduce_to_alcove(d, AlcovePoint(coords))
    assert point_in_alcove(d, reduced)
    again, walls = reduce_to_alcove(d, reduced)
    assert again == reduced and walls == ()


@given(st.tuples(coordinate, coordinate, coordinate))
@settings(max_examples=40, deadline=None)
def test_reduce_rank_three(coords):
    d = _so_even()
    reduced, _ = reduce_to_alcove(d, AlcovePoint(coords))
    assert point_in_alcove(d, reduced)


def test_faces_cover_all_vertex_points():
    d = _so_even()
    vertex_reps = {tuple(f.representative.coeffs)
                   for f in faces(d) if f.vertex}
    assert vertex_reps == {tuple(v.coeffs) for v in alcove_vertices(d)}
