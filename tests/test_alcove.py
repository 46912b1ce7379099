import ast
import json
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann import alcove
import hermann.roots as roots_module
from hermann.alcove import (
    AlcovePoint,
    Face,
    Wall,
    _alcove_data,
    _scaled,
    _sides,
    _slabs,
    active_roots,
    active_walls,
    alcove_barycenter,
    alcove_vertices,
    faces,
    fundamental_alcove,
    point_in_alcove,
    reduce_to_alcove,
)
from hermann.datum import catalog, parse_datum, positive_sector_roots, validate
from hermann.exact import DimensionMismatch, pairing
from hermann.geometry import orbit_report
from hermann.roots import DEFAULT_BUDGET, ClosureBudgetExceeded, coroot

from setup_reference import inner, matrix_rank, solve_exact

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


@pytest.mark.parametrize("key, params, sectors, args", [
    ("so_even", {"p": 7, "q": 5}, "sectors_so_even", (7, 5)),
    ("so_even", {"p": 9, "q": 7}, "sectors_so_even", (9, 7)),
    ("su_sp", {"p": 7, "q": 5}, "sectors_su_sp", (7, 5)),
    ("su_sp", {"p": 9, "q": 7}, "sectors_su_sp", (9, 7)),
    ("so8_g2", {}, "sectors_g2", ()),
])
def test_alcove_matches_independent_oracle(key, params, sectors, args, oracles):
    simple, by_phase = getattr(oracles, sectors)(*args)
    # G2 sits in the plane x + y + z = 0 of its ambient space
    plane = (Q(1), Q(1), Q(1)) if key == "so8_g2" else None
    facets, verts = oracles.alcove_facets(by_phase, simple, plane)
    d = catalog(key, **params)
    assert [(q.normal, q.bound) for q in fundamental_alcove(d)] == facets
    assert [v.coeffs for v in alcove_vertices(d)] == verts


def test_oracles_import_nothing_from_the_program(oracles):
    # the naming and alcove checks rest on the oracles sharing no code with hermann
    with open(oracles.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert names == {"fractions", "itertools", "math", "mpmath"}


def test_oracle_affine_closure(oracles):
    for _, by_phase in (oracles.sectors_so_even(9, 7), oracles.sectors_su_sp(9, 7),
                        oracles.sectors_g2()):
        assert oracles.affine_closure_violations(by_phase) == 0
    # B2 + A2 in R^2 + R^3, with the long simple root e1 - e2 of B2 at pi/4
    b2 = [(1, -1), (0, 1), (1, 0), (1, 1)]
    a2 = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    ambient = [tuple(Q(x) for x in v + (0, 0, 0)) for v in b2] + [
        tuple(Q(x) for x in (0, 0) + v) for v in a2]
    assert oracles.affine_closure_violations(
        [(Q(1, 4), ambient[:1]), (Q(0), ambient[1:])]) > 0
    assert oracles.affine_closure_violations([(Q(0), ambient)]) == 0


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
# B2 (long a1, short a2) + A2, every root at phase 0
B2_A2 = _reducible(4, [[2, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]], 1,
                   [("0", _with_negatives((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                                          (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                                          (0, 0, 1, 1)))])


@pytest.mark.parametrize("d, n_facets, n_vertices, n_faces", [
    (A1_A1, 4, 4, 3 * 3),     # square
    (A1_A2, 5, 6, 3 * 7),     # segment x triangle
    (B2_A2, 6, 9, 7 * 7),     # triangle x triangle
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


# Fraction references for the alcove kernels, which compute in integers
# over one denominator: each is the same rule written on Fractions.

class _Slab(NamedTuple):
    """Open half-space normal . x < bound, with one wall cutting it."""

    normal: tuple
    bound: Fraction
    wall: Wall


def _slabs_fraction(d):
    best = {}
    for alpha, t, _ in positive_sector_roots(d):
        n0 = 0 if t >= 0 else -1
        upper = (alpha, Q(n0 + 1) - t, Wall(alpha, t, n0 + 1))
        lower = (tuple(-x for x in alpha), t - Q(n0), Wall(alpha, t, n0))
        for vec, bound, wall in (upper, lower):
            g = gcd(*vec)
            nvec = tuple(x // g for x in vec)
            nbound = bound / g
            cur = best.get(nvec)
            if cur is None or nbound < cur.bound:
                best[nvec] = _Slab(nvec, nbound, wall)
    return sorted(best.values(), key=lambda q: (q.normal, q.bound))


def _vertex_enumeration_fraction(ineqs, rank):
    """Double description (Motzkin, Raiffa, Thompson & Thrall 1953) on Fractions."""
    index = {q.normal: k for k, q in enumerate(ineqs)}
    sides = []
    for i in range(rank):
        e = tuple(int(i == j) for j in range(rank))
        up, down = index[e], index[tuple(-x for x in e)]
        sides.append(((ineqs[up].bound, up), (-ineqs[down].bound, down)))
    verts = [(tuple(c for c, _ in corner), frozenset(k for _, k in corner))
             for corner in product(*sides)]
    done = {k for pair in sides for _, k in pair}
    for k, q in enumerate(ineqs):
        if k in done:
            continue
        side = [pairing(q.normal, x) - q.bound for x, _ in verts]
        beyond = [(w, tw, sw) for (w, tw), sw in zip(verts, side) if sw > 0]
        new = []
        for (u, tu), su in zip(verts, side):
            if su >= 0:
                continue
            for w, tw, sw in beyond:
                common = tu & tw
                if len(common) >= rank - 1 and not any(
                        common <= t for _, t in verts if t is not tu and t is not tw):
                    s = su / (su - sw)
                    new.append((tuple(a + s * (b - a) for a, b in zip(u, w)), common | {k}))
        verts = [(x, t | {k} if sx == 0 else t)
                 for (x, t), sx in zip(verts, side) if sx <= 0] + new
    return verts


def _affine_rank(points):
    return matrix_rank([tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]])


def _alcove_data_fraction(d):
    """Facets, vertices and tight sets by vertex enumeration: a facet is a
    slab whose tight vertices span a hyperplane."""
    ineqs = _slabs_fraction(d)
    pairs = sorted(_vertex_enumeration_fraction(ineqs, d.rank), key=lambda p: p[0])
    on = [[x for x, t in pairs if k in t] for k in range(len(ineqs))]
    keep = [k for k in range(len(ineqs))
            if len(on[k]) >= d.rank and _affine_rank(on[k]) == d.rank - 1]
    pos = {k: i for i, k in enumerate(keep)}
    return (tuple(ineqs[k] for k in keep), tuple(AlcovePoint(x) for x, _ in pairs),
            tuple(frozenset(pos[k] for k in t if k in pos) for _, t in pairs))


def _faces_fraction(d):
    """Faces as the closure of the vertices' tight sets under intersection."""
    _, verts, tight = _alcove_data_fraction(d)
    sets = set(tight)
    frontier = list(sets)
    while frontier:
        a = frontier.pop()
        for b in list(sets):
            c = a & b
            if c not in sets:
                sets.add(c)
                frontier.append(c)
    out = []
    for a in sets:
        members = [v.coeffs for v, t in zip(verts, tight) if t >= a]
        rep = AlcovePoint(tuple(sum(c) / len(members) for c in zip(*members)))
        out.append(Face(tuple(sorted(a)), rep, _affine_rank(members)))
    return tuple(sorted(out, key=lambda fc: (fc.dimension, fc.representative.coeffs)))


def _point_in_alcove_fraction(d, point, strict=False):
    for q in fundamental_alcove(d):
        val = pairing(q.normal, point.coeffs)
        if val > q.bound or (strict and val == q.bound):
            return False
    return True


def _reduce_to_alcove_fraction(d, point):
    facets = fundamental_alcove(d)
    x = list(point.coeffs)
    budget = 8
    for alpha, t, _ in positive_sector_roots(d):
        budget += 2 + abs(int(pairing(alpha, point.coeffs) + t))
    if budget > DEFAULT_BUDGET:
        raise ClosureBudgetExceeded(f"folding may need {budget} reflections, "
                                    f"more than the budget of {DEFAULT_BUDGET}")
    walls = []
    for _ in range(budget):
        hit = next((q.wall for q in facets if pairing(q.normal, x) > q.bound), None)
        if hit is None:
            return AlcovePoint(tuple(x)), tuple(walls)
        p = pairing(hit.alpha, x) + hit.phi - hit.n
        x = [y - p * c for y, c in zip(x, coroot(hit.alpha, d.sigma.gram))]
        walls.append(hit)
    raise AssertionError("the reference fold did not settle")


CATALOG_TO_RANK_SIX = (
    [("so8_g2", {})]
    + [("isotropy", {"label": f"{family}{r}"}) for family, ranks in (
        ("A", range(1, 7)), ("B", range(1, 7)), ("C", range(1, 7)), ("D", range(2, 7)),
        ("BC", range(1, 7)), ("G", (2,))) for r in ranks]
    + [(key, {"p": q + 2, "q": q}) for key in ("so_even", "su_sp") for q in range(3, 14, 2)])


ALCOVE_DATA = pytest.mark.parametrize(
    "d", [catalog(key, **params) for key, params in CATALOG_TO_RANK_SIX] + [A1_A1, A1_A2, B2_A2],
    ids=[f"{key}{''.join(f'-{v}' for v in params.values())}"
         for key, params in CATALOG_TO_RANK_SIX] + ["A1+A1", "A1+A2", "B2+A2"])


def _triples(records):
    return [_Slab(q.normal, q.bound, q.wall) for q in records]


@ALCOVE_DATA
def test_integer_double_description_matches_fraction_reference(d):
    slabs = _slabs(d)
    assert _triples(slabs) == _slabs_fraction(d)
    assert all(type(q.bound) is Fraction for q in slabs)
    # equal lists: the same facets and vertices, in the same order, with
    # equal tight sets, and the same faces
    facets, verts, tight = _alcove_data_fraction(d)
    table = _alcove_data(d)
    assert (_triples(table.facets), table.vertices, table.tight) == (list(facets), verts, tight)
    assert all(type(c) is Fraction for v in alcove_vertices(d) for c in v.coeffs)
    assert faces(d) == _faces_fraction(d)


def test_slab_tie_goes_to_the_first_root():
    # in BC2 at phase 0 the slabs of the short simple root e2 and of 2 e2
    # both bound -x2 by 0: the first root of the stream, e2, keeps the normal
    bc2 = catalog("isotropy", label="BC2")
    ineqs = {q.normal: q for q in _slabs(bc2)}
    assert ineqs[(0, -1)].bound == 0 and ineqs[(0, -1)].wall == Wall((0, 1), Q(0), 0)
    # and a strictly smaller bound wins over an earlier one: 2 e2 caps x2 at 1/2
    assert ineqs[(0, 1)].bound == Q(1, 2) and ineqs[(0, 1)].wall == Wall((0, 2), Q(0), 1)
    # the tie makes e2 the facet's least active root, doubled by 2 e2; on the
    # facet x1 + x2 = 1/2 only 2 e1 is active, as e1 pairs to 1/2 there
    facets = _alcove_data(bc2).facets
    assert [(q.root, q.doubled) for q in facets] == [((-1, 0), False), ((0, -1), True),
                                                     ((2, 2), False)]


@ALCOVE_DATA
@given(st.data())
@settings(max_examples=8, deadline=None)
def test_side_reflection_is_the_wall_reflection(d, data):
    # the fold's step k - (s // order) * coroot, from a slab's side s at
    # x = k/D, is x - (alpha . x + t - n) coroot(alpha) in its wall: this
    # pins the outward sign of the coroot row of every slab, facets included
    point = AlcovePoint(data.draw(st.tuples(*[coordinate] * d.rank)))
    den, k = _scaled(d, point, d.order)
    x = point.coeffs
    slabs = _slabs(d)
    for f, s in zip(slabs, _sides(slabs, den, k)):
        got = tuple(Fraction(y - s // d.order * c, den) for y, c in zip(k, f.coroot))
        p = pairing(f.wall.alpha, x) + f.wall.phi - f.wall.n
        assert got == tuple(y - p * c for y, c in zip(x, coroot(f.wall.alpha, d.sigma.gram)))
    assert set(fundamental_alcove(d)) <= set(slabs)


def test_only_alcove_names_the_facet_table():
    # every other module reaches the facets through the public queries, so
    # the layout of the table can change in alcove.py alone
    src = Path(__file__).resolve().parents[1] / "src" / "hermann"
    private = {"_alcove_data", "_sides", "_ALCOVE_CACHE"}
    readers = sorted(f"{path.name}:{node.lineno}" for path in src.glob("*.py")
                     if path.name != "alcove.py"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if {getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None)} & private)
    assert len(list(src.glob("*.py"))) > 5 and readers == []


POINT_DATA = (("so8_g2", {}), ("so_even", {"p": 7, "q": 5}), ("su_sp", {"p": 9, "q": 7}),
              ("isotropy", {"label": "BC2"}), ("isotropy", {"label": "C3"}),
              ("isotropy", {"label": "G2"}))


@cache
def _point_datum(i):
    key, params = POINT_DATA[i]
    d = catalog(key, **params)
    return d, list(alcove_vertices(d)) + [f.representative for f in faces(d)]


@st.composite
def datum_and_point(draw):
    d, special = _point_datum(draw(st.integers(0, len(POINT_DATA) - 1)))
    box = st.fractions(min_value=Q(-3), max_value=Q(3), max_denominator=24)
    point = draw(st.one_of(st.sampled_from(special),
                           st.tuples(*[box] * d.rank).map(AlcovePoint)))
    return d, point


@given(datum_and_point())
@settings(max_examples=150, deadline=None)
def test_integer_point_kernels_match_fraction_reference(case):
    d, point = case
    for strict in (False, True):
        assert point_in_alcove(d, point, strict) == _point_in_alcove_fraction(d, point, strict)
    reduced, walls = reduce_to_alcove(d, point)
    assert (reduced, walls) == _reduce_to_alcove_fraction(d, point)
    assert all(type(c) is Fraction for c in reduced.coeffs)


def test_boundary_points_are_closed_but_not_strict():
    for i in range(len(POINT_DATA)):
        d, special = _point_datum(i)
        for point in special:
            assert point_in_alcove(d, point)
            assert point_in_alcove(d, point, strict=True) == (point == alcove_barycenter(d))


@pytest.mark.parametrize("key, params", POINT_DATA[:4])
def test_far_point_names_the_same_budget(key, params):
    d = catalog(key, **params)
    # negative pairings that are not whole pin the budget's rounding toward 0
    for sign in (1, -1):
        far = AlcovePoint((Q(sign * 10 ** 9, 7),) + (Q(1, 3),) * (d.rank - 1))
        with pytest.raises(ClosureBudgetExceeded) as reference:
            _reduce_to_alcove_fraction(d, far)
        with pytest.raises(ClosureBudgetExceeded) as got:
            reduce_to_alcove(d, far)
        assert str(got.value) == str(reference.value)
        assert f"than the budget of {DEFAULT_BUDGET}" in str(got.value)


def test_fold_reads_coroot_rows_off_the_facet_table(monkeypatch):
    d = _g2()
    point = AlcovePoint((200, 3))
    want = _reduce_to_alcove_fraction(d, point)
    fundamental_alcove(d)
    calls = []
    original = roots_module.coroot

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(roots_module, "coroot", counting)
    got = reduce_to_alcove(d, point)
    assert calls == []
    assert got == want and len(got[1]) == 3624


def test_validation_and_alcove_share_one_coroot_row_per_positive_root(monkeypatch):
    calls = []
    original = roots_module.coroot

    def counting(alpha, gram):
        calls.append(alpha)
        return original(alpha, gram)

    monkeypatch.setattr(roots_module, "coroot", counting)
    for key, params in (("so8_g2", {}), ("isotropy", {"label": "C3"}),
                        ("su_sp", {"p": 9, "q": 7})):
        d = catalog(key, **params)  # validated, so its table is built
        calls.clear()
        assert validate(d) == () and _slabs(d)
        assert calls == [], key
        assert d.sigma.coroots == {a: original(a, d.sigma.gram) for a in d.sigma.positive_roots}


@pytest.mark.parametrize("coords", [(0,), (0, 0, 0)])
def test_point_of_the_wrong_length_raises(coords):
    # a pairing zips, so a point of the wrong length would be cut short
    d, point = _g2(), AlcovePoint(coords)
    for query in (point_in_alcove, active_walls, reduce_to_alcove, orbit_report):
        with pytest.raises(DimensionMismatch):
            query(d, point)


def test_rank_nine_alcove():
    d = catalog("su_sp", p=21, q=19)
    assert d.rank == 9
    assert (len(fundamental_alcove(d)), len(alcove_vertices(d))) == (10, 10)
    assert point_in_alcove(d, alcove_barycenter(d), strict=True)


def test_rank_nine_faces():
    d = catalog("su_sp", p=21, q=19)
    table = faces(d)
    # a 9-simplex has 2^10 - 1 faces
    assert len(table) == 1023
    assert [f.representative for f in table[:10]] == list(alcove_vertices(d))
    assert [f.dimension for f in table] == sorted(f.dimension for f in table)


def test_rank_ten_alcove():
    d = catalog("su_sp", p=23, q=21)
    assert d.rank == 10
    assert (len(fundamental_alcove(d)), len(alcove_vertices(d))) == (11, 11)
    assert point_in_alcove(d, alcove_barycenter(d), strict=True)


@ALCOVE_DATA
def test_small_diagonal_point_is_interior(d):
    # b = (1, ..., 1)/e with e = order * (1 + the largest root height):
    # alpha . b + t lies strictly between t and t + 1/order for every pair
    e = d.order * (1 + max(sum(alpha) for alpha in d.sigma.positive_roots))
    assert point_in_alcove(d, AlcovePoint((Q(1, e),) * d.rank), strict=True)
