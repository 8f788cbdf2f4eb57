import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    Recurrence,
    TandemModel,
    ValidationError,
    count_endpoint,
    count_excursions,
    guess_recurrence,
    searched_grid,
    tandem_step_set,
    verify_recurrence,
)
from tandemwalks import guess
from tandemwalks.guess import HELD_OUT

from conftest import full_rank_mod_p, maybe_singular, reference_guess, residue_rows

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
    rec = guess_recurrence([7] * 13, 1, 0)
    assert rec == Recurrence(1, 0, ((-1,), (1,)))


def test_geometric_sequence_normalized_primitive():
    rec = guess_recurrence([3**n for n in range(13)], 1, 0)
    assert rec == Recurrence(1, 0, ((-3,), (1,)))


def test_factorials_found_at_minimal_cell():
    # n! satisfies t_{n+1} = (n+1) t_n; the constant cell (1,0) precedes
    # (1,1) in the grid and must be filtered out, not returned.
    import math

    rec = guess_recurrence([math.factorial(n) for n in range(21)], 2, 2)
    assert rec == Recurrence(1, 1, ((-1, -1), (1, 0)))


def test_searched_grid_order():
    assert searched_grid(2, 2) == [(1, 0), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2)]


def test_searched_grid_degree_zero():
    assert searched_grid(3, 0) == [(1, 0), (2, 0), (3, 0)]


def test_insufficient_terms_rejected():
    # 3x3 grid needs (3+1)*(3+1) + 3 + 10 = 29 terms
    with pytest.raises(ValidationError, match="29"):
        guess_recurrence(list(range(28)), 3, 3)


def motzkin_numbers(n_terms):
    """M_0..M_{n_terms-1}, from (n+4) M_{n+2} = (2n+5) M_{n+1} + 3(n+1) M_n."""
    m = [1, 1]
    for n in range(n_terms - 2):
        m.append(((2 * n + 5) * m[-1] + 3 * (n + 1) * m[-2]) // (n + 4))
    return m[:n_terms]


MOTZKIN_REC = Recurrence(2, 1, ((-3, -3), (-5, -2), (4, 1)))


def test_minimum_length_gives_every_cell_more_rows_than_columns():
    # the 2x1 grid needs 3 * 2 + 2 + 10 = 18 terms.  With 16, the largest
    # cell would have 14 rows for its 6 columns in all, but a system on the
    # first 16 - 10 - 2 rows alone has fewer rows than columns, and its
    # kernel would be arbitrary
    with pytest.raises(ValidationError, match="need at least 18 terms"):
        guess_recurrence(motzkin_numbers(16), 2, 1)
    assert guess_recurrence(motzkin_numbers(18), 2, 1) == MOTZKIN_REC
    # the 11x1 grid needs 12 * 2 + 11 + 10 = 45 terms: at 34 a solve on all
    # 34 - 11 rows of the largest cell would still leave a kernel
    rng = random.Random(34)
    terms = [rng.randrange(10**29, 10**30) for _ in range(45)]
    with pytest.raises(ValidationError, match="need at least 45 terms"):
        guess_recurrence(terms[:34], 11, 1)
    assert guess_recurrence(terms, 11, 1) is None


def test_grid_limit_validation():
    terms = [1] * 30
    with pytest.raises(ValidationError):
        guess_recurrence(terms, 0, 2)
    with pytest.raises(ValidationError):
        guess_recurrence(terms, 2, -1)
    with pytest.raises(ValidationError):
        guess_recurrence(terms, True, 2)


@pytest.mark.parametrize("limits", [(None, 2), (2.5, 1), (-1, 3), (0, 3), (2, -1), (True, 1)])
def test_searched_grid_validates_its_limits(limits):
    with pytest.raises(ValidationError, match=r"^max_(order|degree) must be a"):
        searched_grid(*limits)


def catalan_numbers(n_terms):
    """c_0..c_{n_terms-1}, from (n+2) c_{n+1} = (4n+2) c_n."""
    c = [1]
    for n in range(n_terms - 1):
        c.append(c[-1] * (4 * n + 2) // (n + 2))
    return c


def test_held_out_terms_block_spurious_fits():
    # Catalan numbers for the first 20 terms, garbage in the last 10: the
    # first 20 admit (n+2) c_{n+1} = (4n+2) c_n, but every row of every
    # cell must hold, so no candidate survives.
    catalan = catalan_numbers(30)
    corrupted = catalan[:20] + [c + 1 for c in catalan[20:]]
    assert guess_recurrence(catalan, 2, 2) == Recurrence(1, 1, ((-2, -4), (2, 1)))
    assert guess_recurrence(corrupted, 2, 2) is None


def test_random_rational_sequences_yield_nothing():
    rng = random.Random(427)
    for _ in range(20):
        terms = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(100)]
        assert guess_recurrence(terms, 3, 3) is None


def test_exhausted_grid_at_minimum_length_skips_elimination(monkeypatch):
    # 141 = 11 * 11 + 10 + 10 terms, the fewest a 10x10 grid accepts: the
    # largest cell has 121 columns and 131 rows.  They have full rank mod p,
    # so no cell can hold a recurrence and none reaches Bareiss elimination.
    rng = random.Random(131)
    terms = [rng.randrange(10**29, 10**30) for _ in range(141)]

    def no_elimination(rows):
        raise AssertionError("a cell of full rank on all its rows reached elimination")

    monkeypatch.setattr(guess, "_kernel_vector", no_elimination)
    assert guess_recurrence(terms, 10, 10) is None


def test_shifted_sequence_shifts_the_recurrence():
    terms = excursion_subsequence(TandemModel(1, 1, 1), 40)
    # substituting n -> n + 1 resp. n -> n + 5 in the diagonal recurrence
    rec1 = guess_recurrence(terms[1:31], 3, 3)
    assert rec1 == Recurrence(1, 2, ((-60, -81, -27), (12, 7, 1)))
    rec5 = guess_recurrence(terms[5:35], 3, 3)
    assert rec5 == Recurrence(1, 2, ((-816, -297, -27), (56, 15, 1)))
    assert verify_recurrence(rec5, terms[5:])


def test_prime_denominators_cleared_before_filtering():
    rec = guess_recurrence([Fraction(1, P1)] * 13, 1, 0)
    assert rec == Recurrence(1, 0, ((-1,), (1,)))


def test_filter_prime_power_sequence():
    # every row of the (1,0) system vanishes mod the filter prime,
    # so the exact path must still find t_{n+1} = P1 * t_n
    rec = guess_recurrence([P1**n for n in range(13)], 1, 0)
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
    with pytest.raises(ValidationError, match="^order must be a nonnegative integer, got 1.0$"):
        Recurrence(1.0, 0, ((1,), (1,)))
    with pytest.raises(ValidationError, match="^degree must be a nonnegative integer, got True$"):
        Recurrence(1, True, ((1, 0), (1, 0)))
    for bad in (2.5, "1", True, None):
        with pytest.raises(ValidationError,
                           match=rf"^coefficient 0 of polynomial 1 must be an integer, got {bad!r}$"):
            Recurrence(1, 0, ((2,), (bad,)))
    with pytest.raises(ValidationError, match="^coefficient 0 of polynomial 0 .* got 2.5$"):
        Recurrence(1, 0, ((2.5,), ("1",)))
    for bad in (((1,), 2), None):
        with pytest.raises(ValidationError, match=re.escape(
                f"coefficients must be a sequence of integer sequences, got {bad!r}") + "$"):
            Recurrence(1, 0, bad)


@pytest.mark.parametrize("terms, message", [
    (None, "terms must be a sequence of ints and Fractions, got None"),
    (["x"] * 20, "term 0 must be an int or a Fraction, got 'x'"),
    ([1] * 5 + [2.5] * 15, "term 5 must be an int or a Fraction, got 2.5"),
    ([1, Fraction(1, 2), True] + [1] * 17, "term 2 must be an int or a Fraction, got True"),
    ([1] * 19 + [None], "term 19 must be an int or a Fraction, got None"),
])
def test_terms_must_be_ints_or_fractions(terms, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        guess_recurrence(terms, 1, 1)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        verify_recurrence(DIAGONAL_REC, terms)


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


@st.composite
def grid_series(draw):
    """(terms, max_order, max_degree) on a random grid up to 4x4, with enough
    terms for it: a random order <= 2, degree <= 1 recurrence (its leading
    polynomial positive for n >= 0), the same with one term near the last
    HELD_OUT changed, or random rationals."""
    R, D = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    n_terms = (R + 1) * (D + 1) + R + HELD_OUT + draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["recurrence", "corrupted", "random"]))
    if kind == "random":
        return [Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 97)))
                for _ in range(n_terms)], R, D
    r = draw(st.integers(1, 2))
    small = st.integers(-4, 4)
    coeffs = [(draw(small), draw(small)) for _ in range(r)]
    coeffs.append((draw(st.integers(1, 5)), draw(st.integers(0, 5))))
    terms = recurrence_series(coeffs, [draw(nonzero_rationals) for _ in range(r)], n_terms)
    if kind == "corrupted":
        window = n_terms - HELD_OUT
        terms[draw(st.integers(window - R, min(window + R, n_terms - 1)))] += 1
    return terms, R, D


@st.composite
def long_series(draw):
    """(terms, max_order, max_degree) with n^max_degree > 2^63 in the rows of
    every cell: c^n * Q(n) for a random polynomial Q of degree near
    max_degree (which has an order 1 recurrence of degree deg Q), or random
    rationals."""
    R, D = draw(st.integers(1, 2)), draw(st.integers(9, 10))
    n_rows = int(2 ** (63 / D)) + 2  # rows n = 0..n_rows-1 reach n^D > 2^63
    n_terms = n_rows + R + HELD_OUT + draw(st.integers(0, 5))
    if draw(st.booleans()):
        return [Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 97)))
                for _ in range(n_terms)], R, D
    e = draw(st.integers(D - 2, D))
    q = [draw(st.integers(-9, 9)) for _ in range(e)] + [draw(st.integers(1, 9))]
    c = draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 2)]))
    return [c**n * sum(a * n**i for i, a in enumerate(q)) for n in range(n_terms)], R, D


CATALAN = catalan_numbers(30)
# t_20 is changed: the first 20 terms keep the Catalan kernel of the (1, 1)
# cell, but its system on all 29 rows, which reads t_20, loses it
CATALAN_EDGE = CATALAN[:20] + [CATALAN[20] + 1] + CATALAN[21:]


# random rationals at the fewest terms a 3x3 grid accepts, 4 * 4 + 3 + 10:
# the largest cell has 16 columns and 26 rows
_rng = random.Random(26)
RANDOM_3X3 = [Fraction(_rng.randrange(-30, 31), _rng.randrange(1, 98)) for _ in range(29)]


@settings(max_examples=60, deadline=None)
@given(grid_series())
@example((CATALAN, 2, 2))
@example((CATALAN_EDGE, 1, 1))
@example((RANDOM_3X3, 3, 3))
def test_guess_matches_per_cell_reference(case):
    terms, R, D = case
    assert guess_recurrence(terms, R, D) == reference_guess(terms, R, D)


@settings(max_examples=8, deadline=None)
@given(long_series())
@example(([n**9 + 1 for n in range(140)], 1, 9))
def test_guess_matches_reference_past_int64_powers(case):
    terms, R, D = case
    assert guess_recurrence(terms, R, D) == reference_guess(terms, R, D)


@settings(max_examples=60, deadline=None)
@given(grid_series())
@example((CATALAN_EDGE, 1, 1))
def test_full_rank_largest_cell_certifies_every_cell(case):
    terms, R, D = case
    seq = guess._cleared(terms)
    residues = np.array([t % P1 for t in seq], dtype=np.int64)
    powers = guess._powers_mod_p(len(seq), D)
    if full_rank_mod_p(residue_rows(residues, powers, R, D)):
        for r, d in searched_grid(R, D):
            assert not maybe_singular(guess._integer_rows(seq, r, d, range(len(seq) - r))), (r, d)


# mod the filter prime, 2^n + P 3^n is 2^n and P (n + 1) is 0, so their
# residues obey a smaller recurrence than the integers do
ADVERSARIAL = (
    ([2**n + P1 * 3**n for n in range(18)], Recurrence(2, 0, ((6,), (-5,), (1,)))),
    ([P1 * (n + 1) for n in range(18)], Recurrence(1, 1, ((-2, -1), (1, 1)))),
)


@settings(max_examples=60, deadline=None)
@given(grid_series())
@example((CATALAN_EDGE, 1, 1))
@example((RANDOM_3X3, 3, 3))
@example((ADVERSARIAL[0][0], 2, 1))
@example((ADVERSARIAL[1][0], 2, 1))
def test_order_pivots_decide_every_cell_as_the_per_cell_filter(case):
    # a column of the order-r elimination has a pivot exactly when it is
    # independent mod p of the columns before it; so cell (r, d) has full
    # rank mod p on its own rows exactly when each of its columns has a
    # pivot, and the pivot rows of its columns are independent mod p
    terms, R, D = case
    seq = guess._cleared(terms)
    residues = np.array([t % P1 for t in seq], dtype=np.int64)
    powers = guess._powers_mod_p(len(seq), D)
    for r in range(1, R + 1):
        pivots = guess._pivot_rows(residues, powers, r)
        assert pivots.shape == ((r + 1) * (D + 1),)
        degree_major = [k * (D + 1) + i for i in range(D + 1) for k in range(r + 1)]
        mat = residue_rows(residues, powers, r, D)[:, degree_major]
        for c in range(mat.shape[1]):
            before = [b for b in range(c) if pivots[b] >= 0]
            assert (pivots[c] >= 0) == full_rank_mod_p(mat[:, before + [c]]), (r, c)
        for d in range(D + 1):
            cell = pivots[:(d + 1) * (r + 1)]
            rows = residue_rows(residues, powers, r, d)
            assert (cell.min() >= 0) == full_rank_mod_p(rows.copy()), (r, d)
            chosen = cell[cell >= 0]
            assert len(set(chosen.tolist())) == chosen.size
            if chosen.size:
                assert full_rank_mod_p(rows[chosen].T.copy()), (r, d)


@pytest.mark.parametrize("terms, rec", ADVERSARIAL)
def test_residues_with_a_smaller_recurrence_are_solved_on_every_row(terms, rec):
    # the pivot rows of the cells before the answer have a kernel vector
    # that fails verification, so those cells are solved again on all rows
    assert guess_recurrence(terms, 2, 1) == rec
    assert reference_guess(terms, 2, 1) == rec


def test_search_runs_one_elimination_per_order(monkeypatch):
    # the (1,1,1) walks to (1, 2) obey an order 3, degree 3 recurrence, the
    # last cell of the 3x3 grid: the search reaches every order, and the
    # per-cell filter would have run 16 eliminations
    terms = list(count_endpoint(tandem_step_set(TandemModel(1, 1, 1)), 149, (1, 2)).values)
    orders = []
    pivot_rows = guess._pivot_rows

    def counted(residues, powers, r):
        orders.append(r)
        return pivot_rows(residues, powers, r)

    monkeypatch.setattr(guess, "_pivot_rows", counted)
    rec = guess_recurrence(terms, 3, 3)
    assert (rec.order, rec.degree) == (3, 3)
    assert orders == [3, 1, 2]
    orders.clear()
    assert guess_recurrence(RANDOM_3X3, 3, 3) is None  # the certificate alone
    assert orders == [3]


def rank_over_q(rows):
    """Exact rank by Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def small_matrices(draw):
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


# Hadamard: a minor of order <= 7 with entries in [-3, 3] is at most
# (3 sqrt 7)^7 < 2e6 < p in size, so rank mod p equals rank over Q exactly
@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example([[1, 2], [2, 4], [3, 6]])           # dependent columns: no pivot in column 1
@example([[0, 1], [0, 2], [0, 3]])           # a zero column
@example([[1, 0, 0], [0, 1, 0]])             # fewer rows than columns
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # full rank only after a row swap
def test_full_rank_mod_p_matches_exact_rank(rows):
    mat = np.array(rows, dtype=np.int64) % P1
    assert full_rank_mod_p(mat) == (rank_over_q(rows) == len(rows[0]))
