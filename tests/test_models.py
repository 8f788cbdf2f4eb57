from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    StepSet,
    TandemModel,
    ValidationError,
    ballot_to_tandem,
    parse_model,
    tandem_step_set,
    tandem_to_ballot,
)

from conftest import coprime_triples, has_nonnegative_step, not_in_half_plane


def test_ballot_to_tandem_examples():
    assert ballot_to_tandem(BallotModel(1, 1, 1)) == TandemModel(1, 1, 1)
    assert ballot_to_tandem(BallotModel(2, 3, 6)) == TandemModel(3, 2, 1)
    assert ballot_to_tandem(BallotModel(3, 4, 12)) == TandemModel(4, 3, 1)


def test_tandem_to_ballot_examples():
    assert tandem_to_ballot(TandemModel(3, 2, 1)) == BallotModel(2, 3, 6)
    assert tandem_to_ballot(TandemModel(4, 4, 3)) == BallotModel(3, 3, 4)


def test_round_trip_exhaustive():
    for a, b, c in coprime_triples(12):
        m = BallotModel(a, b, c)
        t = ballot_to_tandem(m)
        assert gcd(t.A, t.B, t.C) == 1
        assert tandem_to_ballot(t) == m
    for A, B, C in coprime_triples(12):
        t = TandemModel(A, B, C)
        m = tandem_to_ballot(t)
        assert gcd(m.a, m.b, m.c) == 1
        assert ballot_to_tandem(m) == t


def test_defining_products():
    for a, b, c in coprime_triples(10):
        m = BallotModel(a, b, c)
        t = ballot_to_tandem(m)
        big = lcm(a, b, c)
        assert m.a * t.A == m.b * t.B == m.c * t.C == big == m.M == t.M


def test_step_set_examples():
    assert set(tandem_step_set(TandemModel(1, 1, 1)).steps) == {(1, 0), (-1, 1), (0, -1)}
    assert set(tandem_step_set(TandemModel(3, 2, 1)).steps) == {(3, 0), (-2, 2), (0, -1)}
    assert set(tandem_step_set(TandemModel(4, 3, 2)).steps) == {(4, 0), (-3, 3), (0, -2)}


def test_period_examples():
    assert TandemModel(1, 1, 1).period == 3
    assert TandemModel(3, 2, 1).period == 11
    assert TandemModel(2, 2, 1).period == 4
    assert BallotModel(2, 3, 6).period == 11


def test_period_matches_ballot_sum():
    for A, B, C in coprime_triples(8):
        t = TandemModel(A, B, C)
        m = tandem_to_ballot(t)
        assert t.period == m.a + m.b + m.c


@pytest.mark.parametrize("triple", [(2, 4, 6), (0, 1, 1), (-1, 2, 3), (3, 6, 9)])
def test_invalid_triples_rejected(triple):
    with pytest.raises(ValidationError):
        BallotModel(*triple)
    with pytest.raises(ValidationError):
        TandemModel(*triple)


def test_non_integer_rejected():
    with pytest.raises(ValidationError):
        TandemModel(1.5, 1, 1)
    with pytest.raises(ValidationError):
        BallotModel(True, 1, 1)


def test_step_set_validation():
    with pytest.raises(ValidationError):
        StepSet(())
    with pytest.raises(ValidationError):
        StepSet(((1, 0), (1, 0)))
    with pytest.raises(ValidationError):
        StepSet(((1.0, 0),))


def test_half_plane_predicate():
    # every tandem step set spans the plane and has a nonnegative step
    for triple in coprime_triples(5):
        s = tandem_step_set(TandemModel(*triple))
        assert not_in_half_plane(s)
        assert has_nonnegative_step(s)
    # contained examples: a quadrant pair, a collinear pair, an axis pair
    assert not not_in_half_plane(StepSet(((1, 0), (0, 1))))
    assert not not_in_half_plane(StepSet(((1, 1), (-1, -1))))
    assert not not_in_half_plane(StepSet(((1, 0), (-1, 0))))
    assert not not_in_half_plane(StepSet(((2, 1), (1, 2), (-1, 1))))


def test_has_nonnegative_step():
    assert not has_nonnegative_step(StepSet(((-1, 0), (0, -1))))
    assert not has_nonnegative_step(StepSet(((1, -1), (-1, -1))))
    assert has_nonnegative_step(StepSet(((0, 0),)))


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6, unique=True))
def test_half_plane_matches_exhaustive_directions(steps):
    """The candidate-perpendicular test agrees with scanning many directions."""
    s = StepSet(tuple(steps))
    contained = any(
        (u, v) != (0, 0) and all(u * i + v * j >= 0 for i, j in steps)
        for u in range(-40, 41)
        for v in range(-40, 41)
    )
    # candidate perpendiculars have coordinates <= 9, well inside the scan
    assert not_in_half_plane(s) == (not contained)


def test_parse_model():
    assert parse_model("3,2,1") == TandemModel(3, 2, 1)
    assert parse_model(" 3, 2, 1 ") == TandemModel(3, 2, 1)
    assert parse_model("ballot:2,3,6") == TandemModel(3, 2, 1)
    assert parse_model("ballot:1,1,1") == TandemModel(1, 1, 1)


@pytest.mark.parametrize("text", ["3,2", "3,2,1,1", "a,b,c", "ballot:2,4", "3;2;1", ""])
def test_parse_model_rejects(text):
    with pytest.raises(ValidationError):
        parse_model(text)
