from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermann.exact import GramMatrix
from hermann.roots import (
    CartanLabel,
    build_root_system,
    contains_minus_identity,
    decompose_and_classify,
    reference_gram,
    subsystem,
    tits_minus_identity,
    verify_axioms,
    weyl_group,
)

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
    assert verify_axioms(_system(label))


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_weyl_group_orders(label):
    group = weyl_group(_system(label))
    assert group.order == WEYL_ORDERS[label]
    # the closure runs over integer matrices
    assert all(type(x) is int for g in group.generators for row in g for x in row)


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_minus_identity_matches_tits_table(label):
    got = contains_minus_identity(weyl_group(_system(label)))
    assert got == (label not in MINUS_ID_ABSENT)
    assert tits_minus_identity([CartanLabel.parse(label)]) == got


def test_tits_prediction_is_conjunctive():
    labels = [CartanLabel.parse("B2"), CartanLabel.parse("A2")]
    assert not tits_minus_identity(labels)
    labels = [CartanLabel.parse("B2"), CartanLabel.parse("A1")]
    assert tits_minus_identity(labels)


def test_classify_whole_reference_systems():
    for label in sorted(WEYL_ORDERS):
        comps = decompose_and_classify(_system(label))
        # reducible and aliased cases resolve to their canonical names
        if label == "D2":
            assert [str(c.label) for c in comps] == ["A1", "A1"]
        elif label == "D3":
            assert [str(c.label) for c in comps] == ["A3"]
        else:
            assert [str(c.label) for c in comps] == [label]


def test_g2_gram_is_the_reference():
    assert reference_gram(CartanLabel.parse("G2")).entries == \
        ((Fraction(2), Fraction(-3)), (Fraction(-3), Fraction(6)))


def test_subsystem_of_long_b2_roots_is_rank_two():
    # long roots of B2 form an A1 x A1 system
    from hermann.exact import inner
    b2 = _system("B2")
    g = b2.gram
    longs = tuple(v for v in b2.positive_roots if inner(v, v, g) == 2)
    sub, to_ambient = subsystem(longs + tuple(tuple(-x for x in v) for v in longs), g)
    comps = decompose_and_classify(sub)
    assert [str(c.label) for c in comps] == ["A1", "A1"]
    assert set(to_ambient.values()) <= set(b2.roots)


def test_doubling_detection_picks_bc_not_b():
    bc2 = _system("BC2")
    comps = decompose_and_classify(bc2)
    assert [str(c.label) for c in comps] == ["BC2"]
    b2 = _system("B2")
    assert [str(c.label) for c in decompose_and_classify(b2)] == ["B2"]


@given(st.sampled_from(sorted(WEYL_ORDERS)))
@settings(max_examples=15, deadline=None)
def test_weyl_action_permutes_roots(label):
    system = _system(label)
    group = weyl_group(system)
    roots = set(system.roots)
    for mat in list(group.elements)[:12]:
        for v in system.simple_roots:
            image = tuple(sum(mat[i][j] * v[j] for j in range(len(v)))
                          for i in range(len(v)))
            assert image in roots
