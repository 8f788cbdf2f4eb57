from fractions import Fraction

import pytest

from tandemwalks import (
    TandemModel,
    ValidationError,
    classify_rationality,
    gamma_exact_sq,
    search_triples,
)

from conftest import FAMILIES, TABLE2_QUINTUPLES, family


def test_search_quarter():
    found = {(m.A, m.B, m.C) for m in search_triples(Fraction(1, 4), 40)}
    for triple in [(1, 1, 1), (1, 3, 6), (3, 6, 10), (2, 14, 35), (3, 15, 35)]:
        assert triple in found
        assert triple[::-1] in found


def test_search_half():
    found = {(m.A, m.B, m.C) for m in search_triples(Fraction(1, 2), 50)}
    for triple in TABLE2_QUINTUPLES[Fraction(1, 2)]:
        assert triple in found


def test_search_generic_value():
    found = {(m.A, m.B, m.C) for m in search_triples(Fraction(4, 15), 5)}
    assert (3, 2, 1) in found and (1, 2, 3) in found


ALPHA_BY_R = {
    Fraction(1, 4): Fraction(-4),
    Fraction(1, 2): Fraction(-5),
    Fraction(3, 4): Fraction(-7),
}


def test_search_members_verify():
    # the smallest three_quarter member is (6, 42, 7), so bound 60 covers all
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        members = search_triples(r, 60)
        assert members
        for m in members:
            assert gamma_exact_sq(m) == r
            rationality, alpha = classify_rationality(gamma_exact_sq(m))
            assert rationality == "rational"
            assert alpha == ALPHA_BY_R[r]


def test_search_swap_closed_and_sorted():
    for r in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(4, 15)):
        members = search_triples(r, 60)
        assert members
        triples = [(m.A, m.B, m.C) for m in members]
        assert triples == sorted(triples)
        found = set(triples)
        assert found == {(C, B, A) for A, B, C in found}


def test_search_ordering_property():
    # the quarter class orders as A < B < C or C < B < A away from (1,1,1);
    # in the other two classes the middle entry dominates
    for m in search_triples(Fraction(1, 4), 100):
        t = (m.A, m.B, m.C)
        assert t == (1, 1, 1) or m.A < m.B < m.C or m.C < m.B < m.A
    for r in (Fraction(1, 2), Fraction(3, 4)):
        for m in search_triples(r, 100):
            assert m.A < m.B and m.C < m.B


def test_search_validation():
    with pytest.raises(ValidationError):
        search_triples(Fraction(5, 4), 10)
    with pytest.raises(ValidationError):
        search_triples(Fraction(1, 4), 0)


def test_family_examples():
    assert family("quarter", 3) == TandemModel(3, 6, 10)
    assert family("half", 3) == TandemModel(3, 6, 2)
    assert family("three_quarter", 7) == TandemModel(7, 42, 6)


def test_family_members_pass_search_equality():
    first_a = {"quarter": [3, 5, 7, 9, 11], "half": [3, 5, 7, 9, 11],
               "three_quarter": [7, 13, 19, 25, 31]}
    for kind, values in first_a.items():
        r = FAMILIES[kind]
        for A in values:
            m = family(kind, A)
            assert gamma_exact_sq(m) == r
            # membership in the quadratic search, when within its bound
            bound = max(m.A, m.B, m.C)
            assert (m.A, m.B, m.C) in {(t.A, t.B, t.C) for t in search_triples(r, bound)}


@pytest.mark.parametrize(
    "kind,bad_a",
    [("quarter", 4), ("quarter", 1), ("half", 2), ("half", -3),
     ("three_quarter", 8), ("three_quarter", 1), ("three_quarter", 6)],
)
def test_family_domain_errors(kind, bad_a):
    with pytest.raises(ValidationError):
        family(kind, bad_a)


def test_family_unknown_kind():
    with pytest.raises(ValidationError):
        family("eighth", 3)


def test_families_name_the_rational_classes():
    # FAMILIES names the exponent table's classes by position
    assert FAMILIES == {
        "quarter": Fraction(1, 4), "half": Fraction(1, 2), "three_quarter": Fraction(3, 4),
    }
