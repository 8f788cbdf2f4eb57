from math import factorial, gcd, isclose, log
from time import perf_counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    BudgetExceededError,
    CountSequence,
    StepSet,
    TandemModel,
    ValidationError,
    ballot_to_tandem,
    count_ballot_3d,
    count_endpoint,
    count_excursions,
    count_grid_excursions,
    count_walks_total,
    tandem_step_set,
)
from tandemwalks.enumeration import _TERM_CELLS, _last_ballot_point, _quadrant_windows, _sweep

from conftest import (
    cone_walks_3d,
    coprime_triples,
    empirical_period,
    generate_excursions,
    generate_quadrant_walks,
    last_ballot_point_by_scan,
    metered_cells,
    occupancy,
    reachable_from_infinity,
    swapped,
)


def steps_of(*triple):
    return tandem_step_set(TandemModel(*triple))


def product_formula(m):
    # e_{3m} for the unit-step model, via the hypergeometric closed form
    return 2 * factorial(3 * m) // (factorial(m) * factorial(m + 1) * factorial(m + 2))


def test_excursions_111_against_brute_force():
    e = count_excursions(steps_of(1, 1, 1), 12)
    brute = [len(generate_excursions(TandemModel(1, 1, 1), n)) for n in range(13)]
    assert list(e.values) == brute
    assert [e.values[3 * m] for m in range(5)] == [1, 1, 5, 42, 462]
    assert all(e.values[n] == 0 for n in range(13) if n % 3)


def test_excursions_111_product_formula():
    e = count_excursions(steps_of(1, 1, 1), 120)
    for m in range(41):
        assert e.values[3 * m] == product_formula(m)


def test_excursions_321_oracle():
    e = count_excursions(steps_of(3, 2, 1), 11)
    assert all(e.values[n] == 0 for n in range(1, 11))
    assert e.values[11] == 34
    assert len(generate_excursions(TandemModel(3, 2, 1), 11)) == 34


@pytest.mark.parametrize("triple", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)])
def test_excursions_match_brute_force(triple):
    e = count_excursions(steps_of(*triple), 10)
    brute = [len(generate_excursions(TandemModel(*triple), n)) for n in range(11)]
    assert list(e.values) == brute


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((1, 1, 1), [1, 1, 2, 4, 9, 21, 51, 127]),
        ((3, 2, 1), [1, 1, 2, 4, 10, 27, 74, 204]),
        ((2, 6, 3), [1, 1, 1, 1, 2, 4, 8, 15]),
    ],
)
def test_totals_against_brute_force(triple, expected):
    # expected values were produced by the depth-first generator below
    q = count_walks_total(steps_of(*triple), 7)
    assert list(q.values) == expected
    brute = [len(generate_quadrant_walks(TandemModel(*triple), n)) for n in range(8)]
    assert brute == expected


def test_totals_growth_bounds():
    for triple in coprime_triples(4):
        q = count_walks_total(steps_of(*triple), 12)
        for n in range(12):
            assert q.values[n] <= q.values[n + 1] <= 3 * q.values[n]
        assert q.values[1] == 1  # only the step (A, 0) is legal from the origin


def test_endpoint_examples():
    assert list(count_endpoint(steps_of(1, 1, 1), 4, (1, 0)).values) == [0, 1, 0, 0, 3]
    assert list(count_endpoint(steps_of(3, 2, 1), 2, (3, 0)).values) == [0, 1, 0]
    e = count_excursions(steps_of(3, 2, 1), 11)
    z = count_endpoint(steps_of(3, 2, 1), 11, (0, 0))
    assert e.values == z.values


def test_endpoint_unreachable_target():
    # x-coordinates are multiples of gcd(A, B) = 2
    assert all(v == 0 for v in count_endpoint(steps_of(2, 2, 1), 8, (1, 0)).values)


def test_off_lattice_endpoint_skips_the_sweep(monkeypatch, capsys):
    from tandemwalks import cli, enumeration

    def no_sweep(*args, **kwargs):
        raise AssertionError("off-lattice target swept the levels")

    monkeypatch.setattr(enumeration, "_sweep", no_sweep)
    argv = ["enumerate", "--model", "2,2,1", "--what", "endpoint", "--target", "1,0",
            "--n-max", "400"]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == "n,count\n" + "".join(f"{n},0\n" for n in range(401))
    assert cli.run(argv + ["--mode", "logfloat"]) == 0
    assert capsys.readouterr().out == "n,log_count\n" + "".join(f"{n},-inf\n" for n in range(401))


def test_off_lattice_endpoint_keeps_the_budget_check():
    steps = steps_of(2, 2, 1)
    with pytest.raises(BudgetExceededError):
        count_endpoint(steps, 100, (1, 0), cell_budget=100)
    with pytest.raises(BudgetExceededError):
        count_endpoint(steps, 100, (0, 0), cell_budget=100)
    # no walk reaches the off-lattice target, so it sweeps nothing and
    # meters its 101 terms alone; the on-lattice target meters its plan too
    terms = _TERM_CELLS * 101
    assert count_endpoint(steps, 100, (1, 0), cell_budget=terms).values == (0,) * 101
    with pytest.raises(BudgetExceededError, match=f"needs {terms} cells, budget is {terms - 1}$"):
        count_endpoint(steps, 100, (1, 0), cell_budget=terms - 1)
    with pytest.raises(BudgetExceededError):
        count_endpoint(steps, 100, (0, 0), cell_budget=terms)
    swept, e = metered_cells(100, count_endpoint, steps, 100, (0, 0), "exact", 10**80)
    assert swept > terms and e.values[0] == 1


def test_budget_meter_is_closed_form():
    # a count meters its N + 1 terms before it builds a plan of N + 1
    # levels, which would take hours at N = 10**12
    N = 10**12
    start = perf_counter()
    with pytest.raises(BudgetExceededError, match=f"needs {_TERM_CELLS * (N + 1)} cells,"):
        count_excursions(steps_of(1, 1, 1), N)
    assert perf_counter() - start < 0.5
    # (1, 10**20, 1) has a period above 10**20, and its plan to (1, 0) has
    # two levels: only the term charge stops 10**12 zero terms
    start = perf_counter()
    with pytest.raises(BudgetExceededError):
        count_endpoint(steps_of(1, 10**20, 1), N, (1, 0))
    assert perf_counter() - start < 0.5
    # one cell per level: the plan's cells alone would admit 10**8 levels
    K = 10**8 - 1
    start = perf_counter()
    with pytest.raises(BudgetExceededError, match=f"needs {_TERM_CELLS * (K + 1)} cells,"):
        count_endpoint(steps_of(1, 1, 1), K, (K, 0))
    assert perf_counter() - start < 0.5


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)).filter(lambda t: gcd(*t) == 1),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    st.integers(0, 400),
)
@example((1, 10**20, 1), (1, 1), 10**4)  # no ballot point at any level
@example((1, 10**20, 1), (5, 0), 10**4)
@example((10**6, 1, 10**6), (0, 0), 2 * 10**6 + 10)  # period 10**6 + 2
@example((10**6, 1, 10**6), (1, 1), 5000)  # n1 is never an integer
def test_last_ballot_level_is_solved_in_closed_form(triple, target, n_max):
    m = TandemModel(*triple)
    assert _last_ballot_point(m, target, n_max) == last_ballot_point_by_scan(m, target, n_max)


def test_last_ballot_level_takes_no_scan():
    # (1, 10**20, 1) has a period above 10**20 and no walk to (1, 1) of any
    # length up to 10**6: a scan down from n_max would visit every level
    start = perf_counter()
    assert _last_ballot_point(TandemModel(1, 10**20, 1), (1, 1), 10**6) is None
    assert perf_counter() - start < 0.2
    s = steps_of(1, 10**20, 1)
    for mode, zero in (("exact", 0), ("logfloat", float("-inf"))):
        values = count_endpoint(s, 10**6, (1, 1), mode, cell_budget=10**40).values
        assert values == (zero,) * (10**6 + 1)


def test_count_sequence_checks_its_values_by_mode():
    assert CountSequence("exact", [0, 1, 10**40]).values == (0, 1, 10**40)
    nan, inf = float("nan"), float("inf")
    assert CountSequence("logfloat", (0.0, -inf, np.float64(2.5))).values[:2] == (0.0, -inf)
    assert np.isnan(CountSequence("logfloat", (nan,)).values[0])
    for mode, values, message in [
        ("exact", 5, "values must be a sequence, got 5$"),
        ("exact", ("a", None), "exact values must be nonnegative integers, got 'a'$"),
        ("exact", (1, True), "got True$"),
        ("exact", (1, -1), "got -1$"),
        ("exact", (1.0,), "got 1.0$"),
        ("logfloat", (0.0, 1), "logfloat values must be floats, got 1$"),
        ("logfloat", 0.0, "values must be a sequence, got 0.0$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            CountSequence(mode, values)


def test_bad_mode_and_target_fail_before_the_sweep(monkeypatch):
    from tandemwalks import enumeration

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating")

    monkeypatch.setattr(enumeration, "_sweep", no_sweep)
    s = steps_of(1, 1, 1)
    with pytest.raises(ValidationError, match="mode must be"):
        count_walks_total(s, 1200, "float")
    with pytest.raises(ValidationError, match="mode must be"):
        count_excursions(s, 1200, "float")
    for target in [(1,), None, (1, 0, 0), "10", (1.0, 0)]:
        with pytest.raises(ValidationError, match="target must be a quadrant point"):
            count_endpoint(s, 3, target)


@pytest.mark.parametrize("budget", [None, True, -5, 2.5])
def test_cell_budget_must_be_a_nonnegative_integer(budget):
    s = steps_of(1, 1, 1)
    for count in [
        lambda: count_excursions(s, 5, cell_budget=budget),
        lambda: count_endpoint(s, 5, (1, 0), cell_budget=budget),
        lambda: count_walks_total(s, 5, cell_budget=budget),
        lambda: count_walks_total(s, 0, cell_budget=budget),  # q_0 = 1 needs no sweep
        lambda: count_ballot_3d(BallotModel(1, 1, 1), 2, cell_budget=budget),
    ]:
        with pytest.raises(ValidationError, match="^cell_budget must be a nonnegative integer"):
            count()
    # 0 is a budget, which every sweep exceeds
    with pytest.raises(BudgetExceededError):
        count_excursions(s, 5, cell_budget=0)


def test_exact_totals_meter_level_zero():
    # q_0 = 1 needs no sweep, but it is metered as one term in both modes,
    # as the excursions are, before any plan is built
    s = steps_of(1, 1, 1)
    for mode in ["exact", "logfloat"]:
        for count in [count_walks_total, count_excursions]:
            with pytest.raises(BudgetExceededError, match=f"needs {_TERM_CELLS} cells, budget is 0$"):
                count(s, 0, mode, cell_budget=0)
    assert count_walks_total(s, 0, cell_budget=_TERM_CELLS).values == (1,)
    with pytest.raises(BudgetExceededError, match=f"needs {_TERM_CELLS} cells,"):
        count_walks_total(s, 0, cell_budget=_TERM_CELLS - 1)


def test_ballot_3d_rejects_a_bool_rounds_max_by_name():
    with pytest.raises(ValidationError, match="^rounds_max must be a nonnegative integer, got True$"):
        count_ballot_3d(BallotModel(1, 1, 1), True)


@pytest.mark.parametrize(
    "steps",
    [
        ((1, 1), (-1, -1)),  # not tandem at all
        ((1, 0), (0, -1), (-1, 1)),  # the (1,1,1) steps out of order
        ((2, 0), (-2, 2), (0, -2)),  # (2,2,2) is not coprime
        ((1, 0), (-1, 2), (0, -1)),  # D = (-1,2) is not of the form (-B,B)
        ((1, 0), (-1, 1), (0, -1), (1, 1)),  # an extra step
        ((-1, 0), (1, -1), (0, 1)),  # negative (A, B, C)
    ],
    ids=["generic", "reordered", "not_coprime", "not_tandem", "extra_step", "negative"],
)
def test_non_tandem_steps_fail_before_the_sweep(monkeypatch, steps):
    from tandemwalks import enumeration

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a step set that is not tandem")

    monkeypatch.setattr(enumeration, "_sweep", no_sweep)
    s = StepSet(steps)
    for mode in ["exact", "logfloat"]:
        for count in [
            lambda: count_excursions(s, 6, mode),
            lambda: count_endpoint(s, 6, (1, 0), mode),  # off the lattice of (2,2,2)
            lambda: count_walks_total(s, 6, mode),
            lambda: count_walks_total(s, 0, mode),  # q_0 = 1 needs no sweep
        ]:
            with pytest.raises(ValidationError, match="tandem steps"):
                count()


def test_endpoint_rejects_bad_target():
    with pytest.raises(ValidationError):
        count_endpoint(steps_of(1, 1, 1), 4, (-1, 0))


def test_ballot_3d_examples():
    assert list(count_ballot_3d(BallotModel(1, 1, 1), 4).values) == [1, 1, 5, 42, 462]
    seq = count_ballot_3d(BallotModel(2, 3, 6), 2)
    assert list(seq.values) == [1, 34, 164622]


coprime_ballots = st.tuples(*[st.integers(1, 4)] * 3).filter(lambda t: gcd(*t) == 1)


@settings(max_examples=60, deadline=None)
@given(coprime_ballots, st.integers(0, 3))
@example((1, 1, 1), 3)
@example((1, 2, 2), 3)
@example((1, 1, 2), 3)
@example((2, 3, 6), 3)
def test_ballot_3d_matches_excursions(abc, rounds):
    # the 3D/2D bijection at count level: cone walks to (a*n, b*n, c*n), by
    # the dictionary oracle and by the pinned sweep, and tandem excursions of
    # length p*n on the (x, y) grid are equinumerous
    m = BallotModel(*abc)
    p = m.period
    cone = cone_walks_3d(m, rounds)
    assert count_ballot_3d(m, rounds).values == cone
    e = count_grid_excursions(tandem_step_set(ballot_to_tandem(m)), rounds * p)
    assert e.values[::p] == cone


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(1, 8)] * 3).filter(lambda t: gcd(*t) == 1), st.integers(0, 40))
@example((1, 1, 1), 40)  # d = 3: the middle levels are split into classes
@example((5, 7, 3), 40)  # large steps, d = 71: no level is split
@example((1, 1, 1), 0)
def test_grid_excursions_equal_the_pinned_ones(triple, n_max):
    s = steps_of(*triple)
    e = count_grid_excursions(s, n_max)
    assert e == count_excursions(s, n_max)
    assert {type(v) for v in e.values} == {int}


def test_grid_excursions_on_every_small_triple():
    for triple in coprime_triples(6):
        s = steps_of(*triple)
        assert count_grid_excursions(s, 40) == count_excursions(s, 40), triple


@pytest.mark.parametrize("abc, rounds", [((1, 1, 1), 6), ((1, 1, 3), 4), ((2, 3, 6), 2),
                                         ((1, 2, 2), 5)])
def test_ballot_3d_budget_boundary(abc, rounds):
    # the cone walks are the pinned excursions of length p*rounds, so the
    # boundary is their meter: the cells of their plan and p*rounds + 1 terms
    m = BallotModel(*abc)
    cells, counts = metered_cells(m.period * rounds, count_ballot_3d, m, rounds, 10**80)
    assert count_ballot_3d(m, rounds, cell_budget=cells) == counts == count_ballot_3d(m, rounds)
    with pytest.raises(BudgetExceededError, match=f"needs {cells} cells, budget is {cells - 1}$"):
        count_ballot_3d(m, rounds, cell_budget=cells - 1)


def test_ballot_3d_budget_abort_is_upfront():
    t0 = perf_counter()
    with pytest.raises(BudgetExceededError):
        count_ballot_3d(BallotModel(1, 1, 1), 1000, cell_budget=10**6)
    assert perf_counter() - t0 < 0.5


def test_thin_cone_budget_abort_is_upfront():
    # (1, 10**9, 1) is the cone A*x >= B*y >= C*z of the tandem triple
    # (10**9, 1, 10**9): one round is 10**9 + 2 steps, about one cone point
    # per step, and its terms are metered before its plan is built
    cells = _TERM_CELLS * (10**9 + 3)
    t0 = perf_counter()
    with pytest.raises(BudgetExceededError, match=f"^level sweep needs {cells} cells, budget is 200000000$"):
        count_ballot_3d(BallotModel(1, 10**9, 1), 1)
    assert perf_counter() - t0 < 0.5


def test_periodicity_sweep():
    for triple in coprime_triples(4):
        t = TandemModel(*triple)
        p = t.period
        e = count_excursions(tandem_step_set(t), 4 * p)
        assert all(e.values[n] == 0 for n in range(1, 4 * p + 1) if n % p)
        assert e.values[p] >= 1
        assert empirical_period(e) == p


def test_symmetry_small():
    for triple in coprime_triples(3):
        t = TandemModel(*triple)
        e1 = count_excursions(tandem_step_set(t), 2 * t.period)
        e2 = count_excursions(tandem_step_set(swapped(t)), 2 * t.period)
        assert e1.values == e2.values


def test_mode_consistency():
    e = count_excursions(steps_of(1, 1, 1), 300)
    lf = count_excursions(steps_of(1, 1, 1), 300, "logfloat")
    for n in range(301):
        if e.values[n] == 0:
            assert lf.values[n] == float("-inf")
        else:
            assert abs(log(e.values[n]) - lf.values[n]) <= 1e-9 * max(1.0, log(e.values[n]))


def test_logfloat_totals_consistency():
    q = count_walks_total(steps_of(3, 2, 1), 60)
    lf = count_walks_total(steps_of(3, 2, 1), 60, "logfloat")
    for n in range(61):
        assert isclose(log(q.values[n]), lf.values[n], rel_tol=1e-12, abs_tol=1e-12)


def test_budget_abort():
    with pytest.raises(BudgetExceededError):
        count_excursions(steps_of(1, 1, 1), 100, cell_budget=100)
    with pytest.raises(BudgetExceededError):
        count_ballot_3d(BallotModel(1, 1, 1), 10, cell_budget=10)


def test_determinism():
    a = count_excursions(steps_of(4, 3, 2), 40, "logfloat")
    b = count_excursions(steps_of(4, 3, 2), 40, "logfloat")
    assert a.values == b.values  # bitwise identical floats


def test_reachable_from_infinity_unit_steps():
    s = steps_of(1, 1, 1)
    found = reachable_from_infinity(s, 3)
    assert found is not None
    start, path = found
    assert start == (1, 1)
    _check_witness(s, start, path)
    assert reachable_from_infinity(s, 0) is None


def test_reachable_witness_formula():
    # for C >= 2 the point (B, B*C - B) reaches the origin: one D then B U's
    for triple in [(1, 1, 2), (2, 6, 3), (3, 2, 2), (1, 3, 6)]:
        t = TandemModel(*triple)
        s = tandem_step_set(t)
        start = (t.B, t.B * t.C - t.B)
        path = ((-t.B, t.B),) + ((0, -t.C),) * t.B
        _check_witness(s, start, path)
        found = reachable_from_infinity(s, 1 + t.B)
        assert found is not None
        _check_witness(s, found[0], found[1])


def test_reachable_none_for_monotone_steps():
    assert reachable_from_infinity(StepSet(((1, 0), (0, 1))), 6) is None


def _check_witness(s, start, path):
    x, y = start
    assert x > 0 and y > 0
    for i, j in path:
        assert (i, j) in s.steps
        x, y = x + i, y + j
        assert x >= 0 and y >= 0
    assert (x, y) == (0, 0)


def test_empirical_period_undefined():
    e = count_excursions(steps_of(3, 2, 1), 10)
    with pytest.raises(ValidationError):
        empirical_period(e)


def test_level_states_well_formed():
    gx, gy = 1, 2  # gcd(3, 2), gcd(2, 2)
    def copy_grid(n, grid, origin):
        return grid.copy()

    plan = _quadrant_windows(TandemModel(3, 2, 2), 9)
    for level, grid in enumerate(_sweep(plan, "exact", copy_grid)):
        occ = occupancy(grid, gx, gy)
        assert sum(occ.values()) >= 1 or level > 0
        for (x, y), v in occ.items():
            assert x >= 0 and y >= 0
            assert x % gx == 0 and y % gy == 0
            assert v > 0
        if level == 0:
            assert occ == {(0, 0): 1}
