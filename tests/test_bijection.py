import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    BudgetExceededError,
    TandemModel,
    ValidationError,
    Walk2,
    Walk3,
    ballot_to_tandem,
    count_excursions,
    generate_ballot_walks,
    map_walk_3to2,
    tandem_step_set,
)

from conftest import (
    coprime_triples,
    generate_excursions,
    generate_quadrant_walks,
    map_walk_2to3,
    phi,
    reverse_reflect,
    walk3_endpoint,
)


def test_phi_examples():
    m = BallotModel(2, 3, 6)
    assert phi(m, (0, 0, 0)) == (0, 0)
    assert phi(m, (1, 0, 0)) == (3, 0)
    assert phi(m, (2, 3, 6)) == (0, 0)
    assert phi(BallotModel(1, 1, 1), (5, 5, 5)) == (0, 0)


@given(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
)
def test_phi_linear(u, v):
    m = BallotModel(2, 3, 6)
    total = tuple(a + b for a, b in zip(u, v))
    pu, pv = phi(m, u), phi(m, v)
    assert phi(m, total) == (pu[0] + pv[0], pu[1] + pv[1])


@pytest.mark.parametrize("triple", [(1, 1, 1), (2, 3, 6), (1, 1, 2)])
def test_phi_cone_iff_quadrant(triple):
    """On walk prefixes (coordinates nonnegative) the cone condition is
    exactly the quadrant condition of the image."""
    m = BallotModel(*triple)
    t = ballot_to_tandem(m)
    for x in range(7):
        for y in range(7):
            for z in range(7):
                in_cone = t.A * x >= t.B * y >= t.C * z >= 0
                img = phi(m, (x, y, z))
                assert in_cone == (img[0] >= 0 and img[1] >= 0)


def test_map_letterwise():
    w = Walk3(BallotModel(1, 1, 1), "XYZ")
    assert map_walk_3to2(w).steps == "RDU"
    assert map_walk_3to2(Walk3(BallotModel(1, 1, 1), "")).steps == ""
    back = map_walk_2to3(Walk2(TandemModel(1, 1, 1), "RDU"))
    assert back == w


def _legal_walk3(model, letters):
    """Build the longest valid prefix walk from a letter-index seed."""
    t = ballot_to_tandem(model)
    x = y = z = 0
    word = []
    for pick in letters:
        options = []
        for letter, (dx, dy, dz) in zip("XYZ", ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            if t.A * (x + dx) >= t.B * (y + dy) >= t.C * (z + dz):
                options.append((letter, dx, dy, dz))
        if not options:
            break
        letter, dx, dy, dz = options[pick % len(options)]
        x, y, z = x + dx, y + dy, z + dz
        word.append(letter)
    return Walk3(model, "".join(word))


@settings(max_examples=60)
@given(st.lists(st.integers(0, 2), max_size=40))
def test_map_round_trip(picks):
    for triple in [(1, 1, 1), (2, 3, 6)]:
        w = _legal_walk3(BallotModel(*triple), picks)
        image = map_walk_3to2(w)
        assert map_walk_2to3(image) == w
        assert phi(w.model, walk3_endpoint(w)) == image.endpoint()


def test_map_bijective_on_small_sets():
    for triple, rounds in [((1, 1, 1), 2), ((2, 3, 6), 1), ((1, 2, 2), 2)]:
        m = BallotModel(*triple)
        p = m.period
        walks = generate_ballot_walks(m, rounds)
        t = ballot_to_tandem(m)
        expected = count_excursions(tandem_step_set(t), p * rounds).values[p * rounds]
        assert len(walks) == expected
        images = {map_walk_3to2(w).steps for w in walks}
        assert len(images) == expected
        target = {w.steps for w in generate_excursions(t, p * rounds)}
        assert images == target


def test_walk_validation():
    with pytest.raises(ValidationError):
        Walk3(BallotModel(1, 1, 1), "XQ")
    with pytest.raises(ValidationError):
        Walk3(BallotModel(1, 1, 1), "Y")  # B*y > A*x immediately
    with pytest.raises(ValidationError):
        Walk2(TandemModel(1, 1, 1), "RQD")
    with pytest.raises(ValidationError):
        Walk2(TandemModel(1, 1, 1), "U")  # leaves the quadrant
    with pytest.raises(ValidationError):
        Walk2(TandemModel(1, 1, 1), "D")


def _excursion_count(triple, n):
    return count_excursions(tandem_step_set(TandemModel(*triple)), n).values[n]


# (A, B, C), a length n = p or 2p and its excursion count, below 5,000
_REVERSAL_CASES = [
    (triple, n, _excursion_count(triple, n))
    for triple in coprime_triples(3)
    for n in (TandemModel(*triple).period, 2 * TandemModel(*triple).period)
    if _excursion_count(triple, n) < 5000
]


def test_reverse_reflect_small():
    walks = generate_excursions(TandemModel(1, 1, 1), 6)
    assert len(walks) == 5
    for w in walks:
        r = reverse_reflect(w)
        assert r.model == TandemModel(1, 1, 1)
        assert len(r.steps) == len(w.steps)
        assert reverse_reflect(r) == w


def test_reverse_reflect_asymmetric_model():
    source = generate_excursions(TandemModel(3, 2, 1), 11)
    target = {w.steps for w in generate_excursions(TandemModel(1, 2, 3), 11)}
    images = {reverse_reflect(w).steps for w in source}
    assert images == target
    assert len(images) == len(source) == 34
    one = reverse_reflect(source[0])
    assert one.model == TandemModel(1, 2, 3)


@settings(max_examples=len(_REVERSAL_CASES), deadline=None)
@given(st.sampled_from(_REVERSAL_CASES))
def test_reverse_reflect_maps_excursions_onto_the_reversed_model(case):
    (A, B, C), n, count = case
    source = generate_excursions(TandemModel(A, B, C), n)
    target = {w.steps for w in generate_excursions(TandemModel(C, B, A), n)}
    images = set()
    for w in source:
        r = reverse_reflect(w)
        assert r.model == TandemModel(C, B, A)
        assert len(r.steps) == n
        assert reverse_reflect(r) == w
        images.add(r.steps)
    assert images == target
    assert len(images) == len(source) == count


def test_reverse_reflect_rejects_non_excursion():
    with pytest.raises(ValidationError):
        reverse_reflect(Walk2(TandemModel(1, 1, 1), "R"))


def test_generators_are_sorted_and_capped():
    walks = generate_ballot_walks(BallotModel(1, 1, 1), 2)
    words = [w.steps for w in walks]
    assert words == sorted(words)
    with pytest.raises(BudgetExceededError):
        generate_quadrant_walks(TandemModel(1, 1, 1), 15, node_budget=100)
    with pytest.raises(BudgetExceededError):
        generate_ballot_walks(BallotModel(1, 1, 1), 8, node_budget=50)
