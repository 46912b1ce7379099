import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.datum import (
    BadParameters,
    GradedRootDatum,
    ParseError,
    Sector,
    UnknownKey,
    ValidationError,
    catalog,
    inverse_phase,
    parse_datum,
    positive_sector_roots,
    serialize_datum,
    validate,
)
from setup_reference import inner

HALF = Fraction(1, 2)

# multiplicity by (phase, squared root length), frozen from the catalog
# definitions; p - q enters only the middle-length classes
SO_EVEN_MULTS = {
    (Fraction(-1, 4), 1): 2,
    (Fraction(0), 2): 2, (Fraction(0), 1): "p-q", (Fraction(0), 4): 1,
    (Fraction(1, 4), 1): 2,
    (HALF, 2): 2, (HALF, 1): "p-q",
}
SU_SP_MULTS = {
    (Fraction(-1, 4), 1): 4,
    (Fraction(0), 2): 4, (Fraction(0), 1): "2(p-q)", (Fraction(0), 4): 3,
    (Fraction(1, 4), 1): 4,
    (HALF, 2): 4, (HALF, 1): "2(p-q)", (HALF, 4): 1,
}


def _expected(table, t, norm, p, q):
    entry = table.get((t, norm))
    if entry == "p-q":
        return p - q
    if entry == "2(p-q)":
        return 2 * (p - q)
    return entry


@pytest.mark.parametrize("key,table", [("so_even", SO_EVEN_MULTS),
                                       ("su_sp", SU_SP_MULTS)])
def test_family_multiplicity_tables(key, table):
    p, q = 9, 7
    d = catalog(key, p=p, q=q)
    assert d.rank == 3
    assert d.order == 4
    assert validate(d) == ()
    seen = set()
    for alpha, t, m in positive_sector_roots(d):
        norm = inner(alpha, alpha, d.sigma.gram)
        assert m == _expected(table, t, norm, p, q), (alpha, t)
        seen.add((t, norm))
    assert seen == set(table)


def test_so_even_drops_doubled_roots_at_half_phase():
    d = catalog("so_even", p=9, q=7)
    halves = [alpha for alpha, t, _ in positive_sector_roots(d) if t == HALF]
    assert all(inner(a, a, d.sigma.gram) != 4 for a in halves)


def test_g2_datum_sectors():
    d = catalog("so8_g2")
    assert d.rank == 2
    assert d.order == 3
    assert validate(d) == ()
    phases = sorted(set(t for _, t, _ in positive_sector_roots(d)))
    assert phases == [Fraction(-1, 3), Fraction(0), Fraction(1, 3)]
    for alpha, t, m in positive_sector_roots(d):
        norm = inner(alpha, alpha, d.sigma.gram)
        if t == 0:
            assert m == 1
        else:
            assert norm == 2 and m == 1


def test_isotropy_defaults_and_overrides():
    d = catalog("isotropy", label="BC1")
    assert [m for _, _, m in positive_sector_roots(d)] == [1, 1]
    d = catalog("isotropy", label="BC1", mults={1: 4, 4: 1})
    table = {inner(a, a, d.sigma.gram): m
             for a, _, m in positive_sector_roots(d)}
    assert table == {1: 4, 4: 1}


def test_catalog_errors():
    with pytest.raises(UnknownKey):
        catalog("nope")
    with pytest.raises(BadParameters):
        catalog("so_even", p=7, q=7)
    with pytest.raises(BadParameters):
        catalog("so_even", p=9, q=6)
    with pytest.raises(BadParameters):
        catalog("so_even", p=9, q=7, extra=1)
    with pytest.raises(BadParameters):
        catalog("isotropy")
    with pytest.raises(BadParameters):
        catalog("isotropy", label="Q3")
    with pytest.raises(BadParameters):
        catalog("isotropy", label="A1", mults={1: 1, 4: 1})
    # a multiplicity is an int: nothing else is truncated or converted to one
    for v in (2.7, 2.0, "3", True):
        with pytest.raises(BadParameters):
            catalog("isotropy", label="A2", mults={2: v})
    assert catalog("isotropy", label="A2", mults={2: 3}) is not None


@pytest.mark.parametrize("label, mults, text", [
    ("BC1", {1: 4}, "multiplicity table keys [1] must be the squared lengths [1, 4]"),
    ("A1", {1: 1, 4: 1}, "multiplicity table keys [1, 4] must be the squared lengths [2]"),
    ("G2", {2: 1, Fraction(3, 2): 2},
     "multiplicity table keys [3/2, 2] must be the squared lengths [2, 6]"),
])
def test_isotropy_multiplicity_keys_are_printed_as_rationals(label, mults, text):
    with pytest.raises(BadParameters) as err:
        catalog("isotropy", label=label, mults=mults)
    assert str(err.value) == text


def _resectored(d, change):
    """d with each sector's root table replaced by change(table)."""
    return GradedRootDatum(d.name, d.sigma, tuple(Sector(s.phi, change(dict(s.roots)))
                                                  for s in d.sectors), d.order)


def test_validate_reports_a_root_that_no_sector_carries():
    # the catalog builders alone can leave a root out: a datum file's roots
    # are read off its sectors
    d = catalog("su_sp", p=7, q=5)
    assert len(d.sectors) == 4 and validate(d) == ()
    bad = _resectored(d, lambda roots: {v: m for v, m in roots.items() if v != (1, 1)})
    got = validate(bad)
    assert [v.kind for v in got] == ["coverage"] + ["duality"] * 4
    assert got[0].detail == "1 roots carry no sector, e.g. (1, 1)"
    assert got[1].detail == "m((1, 1), phase 1/4*pi) = None but m((-1, -1), phase -1/4*pi) = 4"


def test_validate_reports_a_sector_vector_that_is_not_a_root():
    d = catalog("isotropy", label="A2")
    bad = _resectored(d, lambda roots: {**roots, (2, 0): 1, (-2, 0): 1})
    assert [(v.kind, v.detail) for v in validate(bad)] == [
        ("support", "(2, 0) in sector 0*pi is not a root"),
        ("support", "(-2, 0) in sector 0*pi is not a root")]


@pytest.mark.parametrize("key,params", [
    ("so_even", {"p": 9, "q": 7}),
    ("su_sp", {"p": 11, "q": 5}),
    ("so8_g2", {}),
    ("isotropy", {"label": "BC2"}),
])
def test_serialize_parse_round_trip(key, params):
    d = catalog(key, **params)
    text = serialize_datum(d)
    again = parse_datum(text)
    assert again == d
    assert serialize_datum(again) == text


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError):
        parse_datum("not json")
    with pytest.raises(ParseError):
        parse_datum("[1, 2]")
    with pytest.raises(ParseError):
        parse_datum("{}")
    doc = json.loads(serialize_datum(catalog("so8_g2")))
    doc["surprise"] = 1
    with pytest.raises(ParseError):
        parse_datum(json.dumps(doc))


@pytest.mark.parametrize("label, declared, got", [
    ("B2", "B2", None), ("BC2", "BC2", None), ("D4", "D4", None), ("G2", "G2", None),
    ("A2", "B2", "A2"), ("B3", "C3", "B3"), ("BC2", "B2", "BC2"),
    # aliases: B1 = C1 = A1, C2 = B2, D2 = A1+A1, D3 = A3, compared as multisets
    ("D3", "D3", None), ("D3", "A3", None), ("B2", "C2", None), ("D2", "D2", None),
    ("A1", "B1", None), ("A1", "C1", None), ("D2", "A1+A1", None), ("D4", "A1+D3", "D4"),
    ("A2", "A1+A1", "A2"), ("BC1", "B1", "BC1"), ("B2", "E6", "B2"),
])
def test_parse_checks_a_declared_label_against_the_diagram(label, declared, got):
    doc = json.loads(serialize_datum(catalog("isotropy", label=label)))
    doc["simple_roots_label"] = declared
    if got is None:
        assert parse_datum(json.dumps(doc)) == catalog("isotropy", label=label)
        return
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [(v.kind, v.detail) for v in err.value.violations] == [
        ("label", f"declared type {declared} but the roots form {got}")]


def test_parse_rejects_inconsistent_phases():
    doc = json.loads(serialize_datum(catalog("so8_g2")))
    doc["order"] = 2
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert any(v.kind == "order" for v in err.value.violations)


def test_parse_rejects_bad_phase_window():
    doc = json.loads(serialize_datum(catalog("isotropy", label="A1")))
    doc["sectors"][0]["phi"] = "3/4"
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert any(v.kind == "phase" for v in err.value.violations)


def test_parse_rejects_non_root_vectors():
    # a stray vector joins sigma during parsing, so the axioms catch it
    doc = json.loads(serialize_datum(catalog("isotropy", label="A1")))
    doc["sectors"][0]["roots"].append({"v": [5], "m": 1})
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert any(v.kind == "axioms" for v in err.value.violations)


def test_parse_rejects_a_reflection_outside_the_roots():
    # A2 without a1 + a2: the reflection of a1 in a2 is not a root
    doc = json.loads(serialize_datum(catalog("isotropy", label="A2")))
    doc["sectors"][0]["roots"] = [r for r in doc["sectors"][0]["roots"]
                                  if r["v"] not in ([1, 1], [-1, -1])]
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [v.kind for v in err.value.violations] == ["axioms"]
    assert "(1, 1), is not a root" in str(err.value)


def test_parse_rejects_phases_not_closed_under_reflection():
    # B2 (long a1, short a2) + A2 with a1 alone at phase 1/4: s_a2 sends
    # (a1, 1/4) to (a1 + 2 a2, 1/4), which is at phase 0 only
    b2a2 = [(0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (0, 0, 1, 1)]
    doc = {"name": "b2a2", "rank": 4, "order": 4,
           "gram": [[2, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
           "sectors": [{"phi": "1/4", "roots": [{"v": [1, 0, 0, 0], "m": 1}]},
                       {"phi": "0", "roots": [{"v": list(w), "m": 1} for v in b2a2
                                              for w in (v, tuple(-x for x in v))]}]}
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [v.kind for v in err.value.violations] == ["affine"]
    assert "((1, 0, 0, 0), 1/4*pi) in ((0, 1, 0, 0), 0*pi)" in str(err.value)
    # the same roots at phase 0 alone are a valid datum
    doc["order"] = 1
    doc["sectors"][0]["phi"] = "0"
    assert parse_datum(json.dumps(doc)).rank == 4


def test_parse_rejects_a_multiplicity_that_reflection_changes():
    doc = json.loads(serialize_datum(catalog("isotropy", label="A2")))
    for r in doc["sectors"][0]["roots"]:
        if r["v"] in ([1, 0], [-1, 0]):
            r["m"] = 2
    with pytest.raises(ValidationError) as err:
        parse_datum(json.dumps(doc))
    assert [v.kind for v in err.value.violations] == ["affine"]
    assert "carries m = 1, not 2" in str(err.value)


def test_omitted_sector_completed_through_duality():
    base = catalog("so8_g2")
    doc = json.loads(serialize_datum(base))
    doc["sectors"] = [s for s in doc["sectors"] if s["phi"] != "-1/3"]
    assert parse_datum(json.dumps(doc)) == base


def test_inverse_phase_pins_half():
    assert inverse_phase(HALF) == HALF
    assert inverse_phase(Fraction(1, 4)) == Fraction(-1, 4)
    assert inverse_phase(Fraction(0)) == Fraction(0)


@given(st.fractions(min_value=Fraction(-1, 2), max_value=HALF,
                    max_denominator=60).filter(lambda t: t > Fraction(-1, 2)))
@settings(max_examples=80, deadline=None)
def test_inverse_phase_is_an_involution(t):
    assert inverse_phase(inverse_phase(t)) == t


def test_positive_sector_roots_is_deterministic():
    d = catalog("su_sp", p=9, q=7)
    assert tuple(positive_sector_roots(d)) == tuple(positive_sector_roots(d))
    for alpha, _, _ in positive_sector_roots(d):
        assert alpha in d.sigma.positive_roots


def test_only_datum_reads_the_sector_layout():
    # every other module reaches the sectors through positive_sector_roots,
    # so the storage of a datum's sectors can change in datum.py alone
    src = Path(__file__).resolve().parents[1] / "src" / "hermann"
    readers = sorted(f"{path.name}:{node.lineno}" for path in src.glob("*.py")
                     if path.name != "datum.py"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and node.attr == "sectors")
    assert len(list(src.glob("*.py"))) > 5 and readers == []
