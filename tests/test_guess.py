import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemwalks import (
    Recurrence,
    TandemModel,
    ValidationError,
    count_excursions,
    guess_recurrence,
    searched_grid,
    tandem_step_set,
    verify_recurrence,
)

P1 = 2147483647  # the filter prime


def excursion_subsequence(model, m_max):
    """Excursion counts on the period progression, as plain integers."""
    p = model.period
    seq = count_excursions(tandem_step_set(model), p * m_max)
    return [seq.values[p * m] for m in range(m_max + 1)]


# The (1,1,1) excursion numbers t_m = 2*(3m)!/(m!(m+1)!(m+2)!) satisfy
# (m+2)(m+3) t_{m+1} = 3(3m+1)(3m+2) t_m, an order 1 degree 2 recurrence.
DIAGONAL_REC = Recurrence(1, 2, ((-6, -27, -27), (6, 5, 1)))


def test_guess_diagonal_model():
    terms = excursion_subsequence(TandemModel(1, 1, 1), 29)
    rec = guess_recurrence(terms, 3, 3)
    assert rec == DIAGONAL_REC


def test_guessed_recurrence_holds_far_beyond_input():
    terms = excursion_subsequence(TandemModel(1, 1, 1), 129)
    rec = guess_recurrence(terms[:30], 3, 3)
    assert rec is not None
    assert verify_recurrence(rec, terms)


def test_verify_rejects_corrupted_data():
    terms = excursion_subsequence(TandemModel(1, 1, 1), 40)
    assert verify_recurrence(DIAGONAL_REC, terms)
    terms[25] += 1
    assert not verify_recurrence(DIAGONAL_REC, terms)


def test_verify_needs_more_terms_than_order():
    with pytest.raises(ValidationError, match="more than 1"):
        verify_recurrence(DIAGONAL_REC, [1])


def test_constant_sequence():
    rec = guess_recurrence([7] * 12, 1, 0)
    assert rec == Recurrence(1, 0, ((-1,), (1,)))


def test_geometric_sequence_normalized_primitive():
    rec = guess_recurrence([3**n for n in range(12)], 1, 0)
    assert rec == Recurrence(1, 0, ((-3,), (1,)))


def test_factorials_found_at_minimal_cell():
    # n! satisfies t_{n+1} = (n+1) t_n; the constant cell (1,0) precedes
    # (1,1) in the grid and must be filtered out, not returned.
    import math

    rec = guess_recurrence([math.factorial(n) for n in range(20)], 2, 2)
    assert rec == Recurrence(1, 1, ((-1, -1), (1, 0)))


def test_searched_grid_order():
    assert searched_grid(2, 2) == [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2)]


def test_searched_grid_degree_zero():
    assert searched_grid(3, 0) == [(1, 0), (2, 0), (3, 0)]


def test_insufficient_terms_rejected():
    # 3x3 grid needs (3+1)*(3+1) + 10 = 26 terms
    with pytest.raises(ValidationError, match="26"):
        guess_recurrence(list(range(20)), 3, 3)


def test_grid_limit_validation():
    terms = [1] * 30
    with pytest.raises(ValidationError):
        guess_recurrence(terms, 0, 2)
    with pytest.raises(ValidationError):
        guess_recurrence(terms, 2, -1)
    with pytest.raises(ValidationError):
        guess_recurrence(terms, True, 2)


def test_held_out_terms_block_spurious_fits():
    # Catalan numbers for the solving window, garbage in the held out tail:
    # the window admits (n+2) c_{n+1} = (4n+2) c_n but full verification
    # must kill every candidate.
    catalan = [1]
    for n in range(29):
        catalan.append(catalan[-1] * (4 * n + 2) // (n + 2))
    corrupted = catalan[:20] + [c + 1 for c in catalan[20:]]
    assert guess_recurrence(catalan, 2, 2) == Recurrence(1, 1, ((-2, -4), (2, 1)))
    assert guess_recurrence(corrupted, 2, 2) is None


def test_random_rational_sequences_yield_nothing():
    rng = random.Random(427)
    for _ in range(20):
        terms = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(100)]
        assert guess_recurrence(terms, 3, 3) is None


def test_shifted_sequence_shifts_the_recurrence():
    terms = excursion_subsequence(TandemModel(1, 1, 1), 40)
    # substituting n -> n + 1 resp. n -> n + 5 in the diagonal recurrence
    rec1 = guess_recurrence(terms[1:31], 3, 3)
    assert rec1 == Recurrence(1, 2, ((-60, -81, -27), (12, 7, 1)))
    rec5 = guess_recurrence(terms[5:35], 3, 3)
    assert rec5 == Recurrence(1, 2, ((-816, -297, -27), (56, 15, 1)))
    assert verify_recurrence(rec5, terms[5:])


def test_prime_denominators_cleared_before_filtering():
    rec = guess_recurrence([Fraction(1, P1)] * 12, 1, 0)
    assert rec == Recurrence(1, 0, ((-1,), (1,)))


def test_filter_prime_power_sequence():
    # every row of the (1,0) system vanishes mod the filter prime,
    # so the exact path must still find t_{n+1} = P1 * t_n
    rec = guess_recurrence([P1**n for n in range(12)], 1, 0)
    assert rec == Recurrence(1, 0, ((-P1,), (1,)))


def test_recurrence_validation():
    with pytest.raises(ValidationError, match="leading polynomial"):
        Recurrence(1, 1, ((1, 2), (0, 0)))
    with pytest.raises(ValidationError, match="polynomials"):
        Recurrence(2, 1, ((1, 2), (3, 4)))
    with pytest.raises(ValidationError, match="coefficients"):
        Recurrence(1, 1, ((1, 2), (3, 4, 5)))
    with pytest.raises(ValidationError):
        Recurrence(-1, 0, ())


def recurrence_series(coeffs, initial, n_terms):
    """Terms of sum_k p_k(n) t_{n+k} = 0 from the initial values, as Fractions."""
    r = len(coeffs) - 1
    t = [Fraction(v) for v in initial]
    for n in range(n_terms - r):
        lead = sum(c * n**i for i, c in enumerate(coeffs[-1]))
        rest = sum(sum(c * n**i for i, c in enumerate(coeffs[k])) * t[n + k] for k in range(r))
        t.append(-rest / lead)
    return t


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
nonzero_rationals = rationals.filter(lambda c: c != 0)


@st.composite
def rational_series(draw):
    """(terms, recurrence): 30 terms of a random order <= 2, degree <= 1
    recurrence whose leading polynomial a + b*n (a, b >= 1) never vanishes, or,
    half of the time, plain random rationals with many distinct denominators
    and None."""
    n_terms = 30
    if draw(st.booleans()):
        return [Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 97)))
                for _ in range(n_terms)], None
    r = draw(st.integers(1, 2))
    small = st.integers(-4, 4)
    coeffs = [(draw(small), draw(small)) for _ in range(r)]
    coeffs.append((draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    initial = [draw(rationals) for _ in range(r)]
    return recurrence_series(coeffs, initial, n_terms), Recurrence(r, 1, tuple(coeffs))


@settings(max_examples=40, deadline=None)
@given(rational_series(), nonzero_rationals)
def test_guess_is_invariant_under_rational_scaling(series, c):
    terms, source = series
    scaled = [c * t for t in terms]
    rec = guess_recurrence(terms, 2, 2)
    assert guess_recurrence(scaled, 2, 2) == rec
    if source is not None:
        assert rec is not None
    if rec is not None:
        assert verify_recurrence(rec, terms) and verify_recurrence(rec, scaled)


@settings(max_examples=40, deadline=None)
@given(
    rational_series(),
    nonzero_rationals,
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=3),
)
def test_verify_is_invariant_under_rational_scaling(series, c, polys):
    terms, source = series
    scaled = [c * t for t in terms]
    if source is not None:
        assert verify_recurrence(source, terms) and verify_recurrence(source, scaled)
    polys[-1] = (polys[-1][0], polys[-1][1] or 1)
    rec = Recurrence(len(polys) - 1, 1, tuple(polys))
    assert verify_recurrence(rec, terms) == verify_recurrence(rec, scaled)
