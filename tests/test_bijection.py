from itertools import product
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    BudgetExceededError,
    TandemModel,
    ValidationError,
    ballot_to_tandem,
    bijection,
    count_ballot_3d,
    count_excursions,
    tandem_step_set,
)

from conftest import (
    Walk2,
    Walk3,
    coprime_triples,
    generate_ballot_walks,
    generate_excursions,
    generate_quadrant_walks,
    map_walk_2to3,
    map_walk_3to2,
    phi,
    reverse_reflect,
    search_ballot_walks,
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


# every coprime ballot triple with entries <= 4 and rounds <= 3 whose walks the
# command line maps at its default --walk-cap
_BALLOT_CASES = [
    (abc, rounds, count)
    for abc in product(range(1, 5), repeat=3)
    if gcd(*abc) == 1
    for rounds, count in enumerate(count_ballot_3d(BallotModel(*abc), 3).values)
    if count <= 2000
]


def _words(matrix):
    return [row.tobytes().decode() for row in matrix]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BALLOT_CASES))
@example(((1, 1, 1), 3, 42))
@example(((2, 3, 6), 1, 34))
def test_array_walks_match_the_oracle(case):
    abc, rounds, count = case
    m = BallotModel(*abc)
    walks, nodes = search_ballot_walks(m, rounds)
    words = bijection.generate_ballot_walks(m, rounds)
    assert words.dtype == np.uint8 and words.shape == (count, m.period * rounds)
    assert _words(words) == [w.steps for w in walks]
    assert _words(bijection.map_walk_3to2(words)) == [map_walk_3to2(w).steps for w in walks]
    # one level per prefix length holds the distinct prefixes of the complete
    # walks: together the oracle's nodes, none more than the walks
    levels = [len({w[:k] for w in _words(words)}) for k in range(m.period * rounds + 1)]
    assert sum(levels) == nodes and max(levels) == count
    assert bijection.generate_ballot_walks(m, rounds, node_budget=nodes).tobytes() == words.tobytes()
    with pytest.raises(BudgetExceededError, match=f"^search exceeded the node budget of {nodes - 1}$"):
        bijection.generate_ballot_walks(m, rounds, node_budget=nodes - 1)
    images = bijection.map_walk_3to2(words)
    assert bijection.bijection_failure(m, words, images, count) is None
    if count > 1:
        # a repeated image stays in the quadrant and ends at the origin
        images[-1] = images[0]
        assert bijection.bijection_failure(m, words, images, count) == (
            f"{count} walks, {count - 1} distinct images, count {count}"
        )


@pytest.mark.parametrize("abc, rounds", [((1, 1, 1), 4), ((1, 1, 3), 3), ((2, 3, 6), 1)])
def test_node_budget_matches_the_depth_first_search(abc, rounds):
    m = BallotModel(*abc)
    walks, nodes = search_ballot_walks(m, rounds)
    assert _words(bijection.generate_ballot_walks(m, rounds, node_budget=nodes)) == [
        w.steps for w in walks
    ]
    with pytest.raises(BudgetExceededError) as oracle:
        search_ballot_walks(m, rounds, node_budget=nodes - 1)
    with pytest.raises(BudgetExceededError) as array:
        bijection.generate_ballot_walks(m, rounds, node_budget=nodes - 1)
    assert str(array.value) == str(oracle.value)


def test_array_rounds_validated():
    # a bool is an int to isinstance, but not a round count
    for rounds in [-1, True, False]:
        with pytest.raises(ValidationError, match="rounds must be a nonnegative integer"):
            bijection.generate_ballot_walks(BallotModel(1, 1, 1), rounds)
    assert bijection.generate_ballot_walks(BallotModel(1, 1, 1), 0).shape == (1, 0)


@pytest.mark.parametrize("budget", [None, True, -1, 2.5])
def test_array_node_budget_validated(budget):
    with pytest.raises(ValidationError, match="^node_budget must be a nonnegative integer"):
        bijection.generate_ballot_walks(BallotModel(1, 1, 1), 2, node_budget=budget)


def test_failure_names_the_first_walk_at_its_shortest_prefix():
    m = BallotModel(1, 1, 1)
    words = bijection.generate_ballot_walks(m, 2)  # XXYYZZ, XXYZYZ, XYXYZZ, ...
    bad = words.copy()
    bad[2] = np.frombuffer(b"XYZZXY", dtype=np.uint8)
    bad[3] = np.frombuffer(b"YXXYZZ", dtype=np.uint8)
    assert bijection.bijection_failure(m, bad, bijection.map_walk_3to2(bad), 5) == (
        "prefix of length 4 leaves the cone at (1, 1, 2)"
    )
    images = bijection.map_walk_3to2(words)[:, :-1]
    assert bijection.bijection_failure(m, words, images, 5) == (
        "image RRDDU ends at (0, 1), not the origin"
    )
    assert bijection.bijection_failure(m, words[1:], images[1:], 5) == (
        "4 walks, 4 distinct images, count 5"
    )
