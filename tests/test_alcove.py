import importlib.util
import json
from fractions import Fraction
from math import gcd
from pathlib import Path

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
    point_in_alcove,
    reduce_to_alcove,
)
from hermann.datum import catalog, parse_datum
from hermann.exact import inner, matrix_rank, pairing, solve_exact

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
        assert set(act.union) == act.system.roots
    # G2 (12 roots), A1+A1 (4), A2 (6)
    assert sizes == {(0, 0): 12, (Q(1, 6), 0): 4, (0, Q(1, 3)): 6}


@pytest.mark.parametrize("key, params", [
    ("so8_g2", {}), ("isotropy", {"label": "BC2"}), ("su_sp", {"p": 7, "q": 5})])
def test_active_roots_expand_in_their_simple_roots(key, params):
    d = catalog(key, **params)
    for face in faces(d):
        act = active_roots(d, face.representative)
        simples = act.system.simple_roots
        # simple roots are a basis of the span, so they give the rank
        assert len(simples) == matrix_rank(act.union)
        gram = [[inner(a, b, d.sigma.gram) for b in simples] for a in simples]
        for v in act.union:
            coeffs = solve_exact(gram, [inner(s, v, d.sigma.gram) for s in simples])
            assert all(c.denominator == 1 for c in coeffs)
            assert v == tuple(sum(c * s[j] for c, s in zip(coeffs, simples))
                              for j in range(d.rank))
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_active_roots_empty_at_interior_points():
    d = _so_even()
    act = active_roots(d, alcove_barycenter(d))
    assert act.union == ()
    assert act.system.rank == 0 or len(act.system.roots) == 0


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
    # in the same order: a plain `faces` table reads the vertex list
    d = _so_even()
    vertex_reps = [f.representative for f in faces(d) if f.vertex]
    assert vertex_reps == list(alcove_vertices(d))


def _oracles():
    path = Path(__file__).resolve().parents[1] / "tools" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key, params, sectors, args", [
    ("so_even", {"p": 7, "q": 5}, "sectors_so_even", (7, 5)),
    ("so_even", {"p": 9, "q": 7}, "sectors_so_even", (9, 7)),
    ("su_sp", {"p": 7, "q": 5}, "sectors_su_sp", (7, 5)),
    ("su_sp", {"p": 9, "q": 7}, "sectors_su_sp", (9, 7)),
    ("so8_g2", {}, "sectors_g2", ()),
])
def test_alcove_matches_independent_oracle(key, params, sectors, args):
    oracles = _oracles()
    simple, by_phase = getattr(oracles, sectors)(*args)
    # G2 sits in the plane x + y + z = 0 of its ambient space
    plane = (Q(1), Q(1), Q(1)) if key == "so8_g2" else None
    facets, verts = oracles.alcove_facets(by_phase, simple, plane)
    d = catalog(key, **params)
    assert [(q.normal, q.bound) for q in fundamental_alcove(d)] == facets
    assert [v.coeffs for v in alcove_vertices(d)] == verts


def _reducible(rank, gram, order, sectors):
    doc = {"name": "reducible", "rank": rank, "gram": gram, "order": order,
           "sectors": [{"phi": phi, "roots": [{"v": list(v), "m": 1} for v in roots]}
                       for phi, roots in sectors]}
    return parse_datum(json.dumps(doc))


def _with_negatives(*roots):
    return [v for u in roots for v in (u, tuple(-x for x in u))]


A1_A1 = _reducible(2, [[2, 0], [0, 2]], 1,
                   [("0", _with_negatives((1, 0), (0, 1)))])
A1_A2 = _reducible(3, [[2, 0, 0], [0, 2, -1], [0, -1, 2]], 1,
                   [("0", _with_negatives((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)))])
# B2 (long a1, short a2) + A2, with the long simple root of B2 at phase pi/4
B2_A2 = _reducible(4, [[2, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], 4,
                   [("1/4", [(1, 0, 0, 0)]),
                    ("0", _with_negatives((0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0),
                                          (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)))])


@pytest.mark.parametrize("d, n_facets, n_vertices, n_faces", [
    (A1_A1, 4, 4, 3 * 3),     # square
    (A1_A2, 5, 6, 3 * 7),     # segment x triangle
    (B2_A2, 8, 15, 11 * 7),   # pentagon x triangle
], ids=["A1+A1", "A1+A2", "B2+A2"])
def test_first_non_simplex_alcoves(d, n_facets, n_vertices, n_faces):
    facets = fundamental_alcove(d)
    assert (len(facets), len(alcove_vertices(d))) == (n_facets, n_vertices)
    # the faces of a product are the products of faces
    assert len(faces(d)) == n_faces
    assert [f.representative for f in faces(d) if f.vertex] == list(alcove_vertices(d))
    for f in faces(d):
        tight = tuple(i for i, q in enumerate(facets)
                      if pairing(q.normal, f.representative.coeffs) == q.bound)
        assert tight == f.active_facets
    assert point_in_alcove(d, alcove_barycenter(d), strict=True)


def test_square_alcove_vertices():
    verts = {tuple(v.coeffs) for v in alcove_vertices(A1_A1)}
    assert verts == {(0, 0), (1, 0), (0, 1), (1, 1)}
