"""The integer set-up kernels against their Fraction routes in setup_reference.

Every command builds its datum, validates it and lays out its alcove before
the first query.  These tests hold each integer kernel to the Fraction
route it replaced: on every catalog datum of ranks 1 to 9, on the products
of simplices of test_alcove, on corrupted data whose violations must read
the same, and on a grading order too large for any table with one entry per
residue.
"""

import json
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import hermann.datum as datum
from hermann import alcove
from hermann.alcove import _alcove_data, _Alcove, _slabs, faces, fundamental_alcove
from hermann.datum import (GradedRootDatum, Sector, ValidationError, catalog, parse_datum,
                           serialize_datum, validate)
from hermann.exact import GramMatrix, SingularGram
from hermann.roots import CartanLabel, RootSystem

import setup_reference as ref
from test_alcove import A1_A1, A1_A2, B2_A2

ISOTROPY = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "BC1", "BC2", "BC3",
            "BC4", "BC5", "C3", "C4", "C5", "D4", "D5", "G2")
# (catalog key, parameters, the label of its root system): ranks 1 to 9
DATA = ([("so8_g2", {}, "G2")]
        + [(key, {"p": q + 2, "q": q}, f"BC{(q - 1) // 2}")
           for key in ("so_even", "su_sp") for q in range(3, 21, 2)]
        + [("isotropy", {"label": lab}, lab) for lab in ISOTROPY])


def _built(key, params, monkeypatch):
    """The datum and the (root system, grading table) its builder passed to _graded."""
    calls = []
    original = datum._graded

    def recording(name, rs, order, table):
        calls.append((rs, table))
        return original(name, rs, order, table)

    monkeypatch.setattr(datum, "_graded", recording)
    d = catalog(key, **params)
    monkeypatch.undo()
    (rs, table), = calls
    return d, rs, table


@pytest.mark.parametrize("key, params, label", DATA, ids=[f"{k}{p.get('q', p.get('label', ''))}"
                                                          for k, p, _ in DATA])
def test_integer_set_up_matches_the_fraction_routes(key, params, label, monkeypatch):
    d, rs, table = _built(key, params, monkeypatch)
    # the root system, its squared lengths and the Gram check
    assert rs is d.sigma and rs == ref.build_root_system(CartanLabel.parse(label))
    den = rs.gram.form[1]
    assert {v: Fraction(n, den) for v, n in rs.lengths.items()} == {
        v: ref.inner(v, v, rs.gram) for v in rs.roots}
    assert ref.gram_error(rs.gram.entries) is None
    # the sectors, root order included
    want = ref.graded_sectors(rs, table)
    assert d.sectors == want
    assert [list(s.roots) for s in d.sectors] == [list(s.roots) for s in want]
    # validation: catalog has run validate; the closure loop agrees
    assert validate(d) == () and ref.closure_violations(d) == []
    # every facet field, the vertices, the tight sets and the faces
    slabs = ref.slabs(d)
    assert _slabs(d) == slabs
    facets = tuple(ref.facets(d, slabs))
    assert fundamental_alcove(d) == facets
    verts, tight = ref.vertices(d, facets)
    table = _alcove_data(d)
    assert table.cartan == ref.facet_cartan(d, facets)
    assert (table.vertices, table.tight) == (verts, tight)
    # faces read off a table built by the Fraction routes, on a fresh datum
    twin = catalog(key, **params)
    den = lcm(*(c.denominator for v in verts for c in v.coeffs))
    rows = tuple(tuple(c.numerator * (den // c.denominator) for c in v.coeffs) for v in verts)
    alcove._ALCOVE_CACHE[twin] = _Alcove(facets, verts, tight, table.factors, table.cartan,
                                         (den, rows))
    assert faces(twin) == faces(d)


@pytest.mark.parametrize("d", [A1_A1, A1_A2, B2_A2], ids=["A1+A1", "A1+A2", "B2+A2"])
def test_product_alcoves_match_the_fraction_routes(d):
    # each vertex of a product of two simplices moves once per factor from
    # the vertex of the one elimination, so each factor's choice is exercised
    assert validate(d) == () and ref.closure_violations(d) == []
    facets = tuple(ref.facets(d, ref.slabs(d)))
    table = _alcove_data(d)
    assert table.facets == facets and len(table.factors) == 2
    assert table.cartan == ref.facet_cartan(d, facets)
    assert (table.vertices, table.tight) == ref.vertices(d, facets)


# -- corrupted data: the same violations as the closure loop and ldl -----------

SMALL = [("so8_g2", {}), ("isotropy", {"label": "A2"}), ("isotropy", {"label": "B2"}),
         ("isotropy", {"label": "BC2"}), ("isotropy", {"label": "G2"}),
         ("isotropy", {"label": "C3"}), ("so_even", {"p": 7, "q": 5}),
         ("su_sp", {"p": 7, "q": 5}), ("so_even", {"p": 9, "q": 7})]


def _reference_validate(d, monkeypatch):
    """validate(d) with the closure loop of setup_reference in place of the kernel."""
    with monkeypatch.context() as m:
        m.setattr(datum, "_closure_violations", ref.closure_violations)
        return validate(d)


def _with_sectors(d, sectors):
    return GradedRootDatum(d.name, d.sigma, tuple(sectors), d.order, d.zero_mult)


def _neg(v):
    return tuple(-x for x in v)


def _window(t):
    """The phase t moved into (-1/2, 1/2] by a whole number."""
    t %= 1
    return t - 1 if t > Fraction(1, 2) else t


def _move(d, data, dual):
    """Move one (root, phase) multiplicity to another phase of the grading,
    or raise it by one where it lands on its own phase; with dual, move its
    dual pair (-root, -phase) to match."""
    sectors = {s.phi: dict(s.roots) for s in d.sectors}
    t = data.draw(st.sampled_from(sorted(sectors)))
    v = data.draw(st.sampled_from(sorted(sectors[t])))
    new = _window(t + Fraction(data.draw(st.integers(1, d.order)), d.order))
    moves = [(v, t, new)]
    if dual:
        moves.append((_neg(v), datum.inverse_phase(t), datum.inverse_phase(new)))
    for w, a, b in moves:
        if w in sectors.get(a, {}):
            m = sectors[a].pop(w)
            sectors.setdefault(b, {})[w] = m + (a == b)
    return _with_sectors(d, [Sector(phi, roots) for phi, roots in sectors.items() if roots])


def _shift(d, data, dual):
    """Shift one sector's phase by a multiple of 1/(2 order), a whole number
    of grading steps or not; with dual, shift its dual sector to the inverse."""
    sectors = [Sector(s.phi, dict(s.roots)) for s in d.sectors]
    s = data.draw(st.sampled_from(sectors))
    old = s.phi
    s.phi = _window(old + Fraction(data.draw(st.integers(1, 2 * d.order - 1)), 2 * d.order))
    if dual and old != datum.inverse_phase(old):
        for other in sectors:
            if other is not s and other.phi == datum.inverse_phase(old):
                other.phi = datum.inverse_phase(s.phi)
                break
    return _with_sectors(d, sectors)


def _drop_dual(d, data, dual):
    """Drop the dual (-root, -phase) of one (root, phase) pair."""
    sectors = [Sector(s.phi, dict(s.roots)) for s in d.sectors]
    src = data.draw(st.sampled_from(sectors))
    v = data.draw(st.sampled_from(sorted(src.roots)))
    for s in sectors:
        if s.phi == datum.inverse_phase(src.phi):
            s.roots.pop(_neg(v), None)
    return _with_sectors(d, [s for s in sectors if s.roots])


CORRUPTIONS = {"move": _move, "shift": _shift, "drop_dual": _drop_dual}


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_corrupted_datum_reports_the_same_violations(data):
    # hypothesis forbids function-scoped fixtures, so this test makes its own patch
    key, params = data.draw(st.sampled_from(SMALL))
    d = catalog(key, **params)
    name = data.draw(st.sampled_from(sorted(CORRUPTIONS)))
    bad = CORRUPTIONS[name](d, data, data.draw(st.booleans()))
    with pytest.MonkeyPatch.context() as mp:
        got = validate(bad)
        want = _reference_validate(bad, mp)
    event(f"{name}: {want[0].kind if want else 'valid'}")
    assert got == want


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_scaled_gram_entry_fails_the_same_way(data):
    key, params = data.draw(st.sampled_from(SMALL))
    d = catalog(key, **params)
    r = d.rank
    i = data.draw(st.integers(0, r - 1))
    j = data.draw(st.integers(0, r - 1))
    c = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2), Fraction(2),
                                   Fraction(3), Fraction(5), Fraction(-1), Fraction(0)]))
    entries = [list(row) for row in d.sigma.gram.entries]
    entries[i][j] *= c
    entries[j][i] = entries[i][j]
    if i != j and data.draw(st.booleans()):  # break the symmetry too, now and then
        entries[j][i] += 1
    want = ref.gram_error(entries)
    try:
        gram = GramMatrix(tuple(tuple(row) for row in entries))
    except SingularGram as exc:
        event(f"SingularGram: {want.split(' ')[0]}")
        assert str(exc) == want
        return
    assert want is None
    sigma = RootSystem(r, gram, d.sigma.roots, d.sigma.simple_roots, d.sigma.positive_roots)
    bad = GradedRootDatum(d.name, sigma, d.sectors, d.order)
    with pytest.MonkeyPatch.context() as mp:
        got, want = validate(bad), _reference_validate(bad, mp)
    event(want[0].detail.split(" ")[0] if want else "valid")
    assert got == want


def test_non_whole_cartan_number_and_indefinite_gram():
    # A2 with (a2, a2) = 3: <a1, a2^vee> = -2/3; with (a1, a2) = -3 the
    # leading 2x2 minor is 4 - 9 < 0
    doc = json.loads(serialize_datum(catalog("isotropy", label="A2")))
    doc["gram"] = [[2, -1], [-1, 3]]
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [(v.kind, v.detail) for v in err.value.violations] == [
        ("axioms", "<(1, 0), (0, 1)^vee> = -2/3 is not whole")]
    doc["gram"] = [[2, -3], [-3, 2]]
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [(v.kind, v.detail) for v in err.value.violations] == [
        ("gram", "leading 2x2 minor is not positive")]
    assert ref.gram_error(doc["gram"]) == "leading 2x2 minor is not positive"


def test_an_extra_phase_of_the_image_is_no_violation_at_that_pair(monkeypatch):
    # A2 at phase 0, and a1 + a2 at phase 1/2 too.  The first pair walked is
    # alpha = a2, beta = a1: the image a1 + a2 carries phase 1/2, which a1
    # lacks, and nothing is reported there.  The first violation is the next
    # pair, beta = a1 + a2, whose image a1 does not carry phase 1/2
    doc = {"name": "a2-extra", "rank": 2, "order": 2, "gram": [[2, -1], [-1, 2]],
           "sectors": [{"phi": "0", "roots": [{"v": v, "m": 1}
                                              for v in ([1, 0], [0, 1], [1, 1])]},
                       {"phi": "1/2", "roots": [{"v": [1, 1], "m": 1}]}]}
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    detail = ("the reflection of ((1, 1), 1/2*pi) in ((0, 1), 0*pi) is ((1, 0), 1/2*pi), "
              "which carries m = 0, not 1")
    assert [(v.kind, v.detail) for v in err.value.violations] == [("affine", detail)]
    sectors = (Sector(Fraction(0), {v: 1 for v in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1),
                                                   (-1, -1))}),
               Sector(Fraction(1, 2), {(1, 1): 1, (-1, -1): 1}))
    d = GradedRootDatum("a2-extra", catalog("isotropy", label="A2").sigma, sectors, 2)
    assert validate(d) == _reference_validate(d, monkeypatch) == (
        datum.Violation("affine", detail),)


def test_large_grading_order_validates_and_builds_fast():
    # the phases of so_even(7, 5) are quarters, so order 10^9 grades it too;
    # a table with one entry per residue mod the order would hold 10^9 here
    base = catalog("so_even", p=7, q=5)
    doc = json.loads(serialize_datum(base))
    doc["order"] = 10 ** 9
    start = time.perf_counter()
    d = parse_datum(json.dumps(doc))
    facets = fundamental_alcove(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert d.order == 10 ** 9 and validate(d) == ()
    assert [(f.normal, f.bound, f.wall) for f in facets] == [
        (f.normal, f.bound, f.wall) for f in fundamental_alcove(base)]
    assert _alcove_data(d).vertices == _alcove_data(base).vertices
