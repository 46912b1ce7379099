from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.exact import GramMatrix, pairing
from hermann.roots import (
    CartanLabel,
    RootSystem,
    UnrecognizedType,
    build_root_system,
    cartan_matrix,
    cartan_type,
    contains_minus_identity,
    coroot,
    decompose_and_classify,
    reference_gram,
    subsystem,
    tits_minus_identity,
    verify_axioms,
    weyl_group,
)

from setup_reference import inner, weyl_elements

# independently generated closed forms: |W(A_r)| = (r+1)!,
# |W(B_r)| = |W(BC_r)| = 2^r r!, |W(D_r)| = 2^(r-1) r!, |W(G_2)| = 12
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384,
    "BC1": 2, "BC2": 8, "BC3": 48, "BC4": 384,
    "D2": 4, "D3": 24, "D4": 192,
    "G2": 12,
}

MINUS_ID_ABSENT = {"A2", "A3", "A4", "D3"}

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "BC1": 2, "BC2": 6, "BC3": 12, "BC4": 20,
    "D2": 2, "D3": 6, "D4": 12,
    "G2": 6,
}


def _system(text):
    return build_root_system(CartanLabel.parse(text))


def _weyl(text):
    rs = _system(text)
    return weyl_group(cartan_matrix(rs.simple_roots, rs.gram))


def test_cartan_label_parse_and_order():
    lab = CartanLabel.parse("BC3")
    assert (lab.family, lab.rank) == ("BC", 3)
    assert str(lab) == "BC3"
    assert CartanLabel.parse("A2") < CartanLabel.parse("B2")
    with pytest.raises(ValueError):
        CartanLabel.parse("E8")
    with pytest.raises(ValueError):
        CartanLabel.parse("G3")
    with pytest.raises(ValueError):
        CartanLabel.parse("D1")


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_positive_root_counts(label):
    assert len(_system(label).positive_roots) == POSITIVE_COUNTS[label]


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_axioms_hold_for_reference_systems(label):
    system = _system(label)
    assert verify_axioms(system)
    # the coroot row pairs every root b with a to its Cartan number on a
    for a in system.roots:
        row = coroot(a, system.gram)
        for b in system.roots:
            assert pairing(b, row) == 2 * inner(a, b, system.gram) / inner(a, a, system.gram)


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_weyl_group_orders(label):
    group = _weyl(label)
    assert group.order == WEYL_ORDERS[label]
    # the generators are the integer Cartan rows
    assert all(type(x) is int for row in group.generators for x in row)


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_minus_identity_matches_tits_table(label):
    got = contains_minus_identity(_weyl(label))
    assert got == (label not in MINUS_ID_ABSENT)
    assert tits_minus_identity([CartanLabel.parse(label)]) == got


def test_tits_prediction_is_conjunctive():
    labels = [CartanLabel.parse("B2"), CartanLabel.parse("A2")]
    assert not tits_minus_identity(labels)
    labels = [CartanLabel.parse("B2"), CartanLabel.parse("A1")]
    assert tits_minus_identity(labels)


# C2, C3, C4, A5, B5 and D5 reach every branch of the diagram rules
NAMED = sorted(WEYL_ORDERS) + ["C2", "C3", "C4", "A5", "B5", "D5"]


def _canonical(label):
    """The names of a reference system: reducible and aliased cases read as
    their canonical labels, D2 as A1+A1, D3 as A3 and C2 as B2."""
    return {"D2": ["A1", "A1"], "D3": ["A3"], "C2": ["B2"]}.get(label, [label])


def test_classify_whole_reference_systems():
    for label in NAMED:
        rs = _system(label)
        comps = decompose_and_classify(rs)
        assert [str(c.label) for c in comps] == _canonical(label), label
        # each component carries its own simple roots, and together they are all
        assert sorted(s for c in comps for s in c.simple_roots) == sorted(rs.simple_roots)


def test_cartan_matrix_rejects_a_cartan_number_that_is_not_whole():
    # A2's roots under a Gram matrix where 2(a1, a2)/(a1, a1) = -3/2: truncated
    # to -1, the Cartan matrix would be A2's
    a2 = _system("A2")
    skew = GramMatrix(((4, -3), (-3, 4)))
    with pytest.raises(UnrecognizedType, match="-3/2"):
        cartan_matrix(a2.simple_roots, skew)
    with pytest.raises(UnrecognizedType):
        decompose_and_classify(RootSystem(2, skew, a2.roots, a2.simple_roots,
                                          a2.positive_roots))


def test_verify_axioms_rejects_broken_systems():
    a1 = _system("A1")
    for k in (3, 4):
        roots = a1.roots | {(k,), (-k,)}
        broken = RootSystem(1, a1.gram, roots, a1.simple_roots,
                            frozenset(v for v in roots if v[0] > 0))
        assert not verify_axioms(broken)
    b2 = _system("B2")
    pair = {(1, 2), (-1, -2)}
    assert pair <= b2.roots
    assert not verify_axioms(RootSystem(2, b2.gram, b2.roots - pair, b2.simple_roots,
                                        b2.positive_roots - pair))
    # A2's roots under a Gram matrix where 2(a1, a2)/(a2, a2) = -1/2
    a2 = _system("A2")
    skew = GramMatrix(((2, -1), (-1, 4)))
    assert pairing(coroot((0, 1), skew), (1, 0)) == Fraction(-1, 2)
    assert not verify_axioms(RootSystem(2, skew, a2.roots, a2.simple_roots,
                                        a2.positive_roots))


def test_g2_gram_is_the_reference():
    assert reference_gram(CartanLabel.parse("G2")).entries == \
        ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6)))


def test_subsystem_of_long_b2_roots_is_rank_two():
    # long roots of B2 form an A1 x A1 system
    b2 = _system("B2")
    g = b2.gram
    longs = tuple(v for v in b2.positive_roots if inner(v, v, g) == 2)
    sub = subsystem(longs + tuple(tuple(-x for x in v) for v in longs), g)
    comps = decompose_and_classify(sub)
    assert [str(c.label) for c in comps] == ["A1", "A1"]
    assert sub.roots <= b2.roots


def test_doubling_detection_picks_bc_not_b():
    bc2 = _system("BC2")
    comps = decompose_and_classify(bc2)
    assert [str(c.label) for c in comps] == ["BC2"]
    b2 = _system("B2")
    assert [str(c.label) for c in decompose_and_classify(b2)] == ["B2"]


@given(st.sampled_from(sorted(WEYL_ORDERS)))
@settings(max_examples=15, deadline=None)
def test_weyl_orbit_of_chamber_point_is_regular(label):
    group = _weyl(label)
    k, elements = len(group.generators), weyl_elements(group)
    assert len(elements) == WEYL_ORDERS[label]
    # every orbit point lies in an open chamber, and only c0 in the fundamental one
    assert all(0 not in c for c in elements)
    assert [c for c in elements if min(c) > 0] == [tuple(range(1, k + 1))]


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_kostant_order_and_walk_match_the_chamber_orbit(label):
    group = _weyl(label)
    elements = weyl_elements(group)
    assert group.order == len(elements)
    k = len(group.generators)
    assert contains_minus_identity(group) == (tuple(range(-1, -k - 1, -1)) in elements)


def _diagram(label):
    """The Cartan matrix and doubled flags of a reference system."""
    rs = _system(label)
    doubled = [tuple(2 * x for x in s) in rs.roots for s in rs.simple_roots]
    return cartan_matrix(rs.simple_roots, rs.gram), doubled


def test_cartan_type_names_every_reference_system():
    for label in NAMED:
        got = [str(lab) for lab, _ in cartan_type(*_diagram(label))]
        assert got == _canonical(label), label


UP_TO_RANK_6 = [f"{family}{r}" for family, ranks in (
    ("A", range(1, 7)), ("B", range(2, 7)), ("BC", range(1, 7)),
    ("C", range(2, 7)), ("D", range(2, 7)), ("G", (2,))) for r in ranks]


@pytest.mark.parametrize("label", UP_TO_RANK_6)
def test_cartan_type_ignores_the_order_of_the_nodes(label):
    # facet subsets reach the namer in any order; node i of the permuted
    # diagram is node perm[i] of the original, its doubled flag moving with it
    cartan, doubled = _diagram(label)
    want = {(lab, frozenset(idx)) for lab, idx in cartan_type(cartan, doubled)}
    for perm in permutations(range(len(cartan))):
        moved = tuple(tuple(cartan[i][j] for j in perm) for i in perm)
        got = cartan_type(moved, [doubled[i] for i in perm])
        assert {(lab, frozenset(perm[k] for k in idx)) for lab, idx in got} == want, perm


@pytest.mark.parametrize("cartan", [
    # F4: the double bond sits inside the chain
    ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    # E6: the fork has one single-node arm
    ((2, -1, 0, 0, 0, 0), (-1, 2, -1, 0, 0, 0), (0, -1, 2, -1, 0, -1),
     (0, 0, -1, 2, -1, 0), (0, 0, 0, -1, 2, 0), (0, 0, -1, 0, 0, 2)),
    # affine A1
    ((2, -2), (-2, 2)),
], ids=["F4", "E6", "affine-A1"])
def test_cartan_type_rejects_other_diagrams(cartan):
    with pytest.raises(UnrecognizedType):
        cartan_type(cartan, [False] * len(cartan))
