from math import factorial, gcd, isclose, log
from time import perf_counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    BudgetExceededError,
    StepSet,
    TandemModel,
    ValidationError,
    ballot_to_tandem,
    count_ballot_3d,
    count_endpoint,
    count_excursions,
    count_walks_total,
    tandem_step_set,
)
from tandemwalks.enumeration import _sweep

from conftest import (
    coprime_triples,
    empirical_period,
    generate_excursions,
    generate_quadrant_walks,
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
    # the budget that the on-lattice sweep just fits also admits the off-lattice target
    swept = 1 + sum((n + 1) * (2 * n + 1) for n in range(1, 101))
    assert count_endpoint(steps, 100, (0, 0), cell_budget=swept).values[0] == 1
    assert count_endpoint(steps, 100, (1, 0), cell_budget=swept).values == (0,) * 101
    with pytest.raises(BudgetExceededError):
        count_endpoint(steps, 100, (1, 0), cell_budget=swept - 1)


def test_budget_meter_is_closed_form():
    # (1,1,1) meters 1 + sum over n = 1..N of (n + 1)^2 = (N+1)(N+2)(2N+3)/6
    # cells; a loop over n would run for hours at N = 10**12
    N = 10**12
    needed = (N + 1) * (N + 2) * (2 * N + 3) // 6
    start = perf_counter()
    with pytest.raises(BudgetExceededError, match=f"needs {needed} cells,"):
        count_excursions(steps_of(1, 1, 1), N)
    assert perf_counter() - start < 0.5


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
    # the 3D/2D bijection at count level: cone walks to (a*n, b*n, c*n) and
    # tandem excursions of length p*n are equinumerous
    m = BallotModel(*abc)
    p = m.period
    seq3 = count_ballot_3d(m, rounds)
    e = count_excursions(tandem_step_set(ballot_to_tandem(m)), rounds * p)
    assert list(seq3.values) == [e.values[p * n] for n in range(rounds + 1)]


@pytest.mark.parametrize("abc, rounds", [((1, 1, 1), 6), ((1, 1, 3), 4), ((2, 3, 6), 2),
                                         ((1, 2, 2), 5)])
def test_ballot_3d_budget_boundary(abc, rounds):
    # the cone sweep visits each cone point of the box once, so its budget
    # boundary is their number
    m = BallotModel(*abc)
    T = ballot_to_tandem(m)
    cells = sum(
        1
        for x in range(m.a * rounds + 1)
        for y in range(m.b * rounds + 1)
        for z in range(m.c * rounds + 1)
        if T.A * x >= T.B * y >= T.C * z
    )
    assert count_ballot_3d(m, rounds, cell_budget=cells) == count_ballot_3d(m, rounds)
    with pytest.raises(BudgetExceededError, match=f"budget of {cells - 1}$"):
        count_ballot_3d(m, rounds, cell_budget=cells - 1)


def test_ballot_3d_budget_abort_is_upfront():
    t0 = perf_counter()
    with pytest.raises(BudgetExceededError):
        count_ballot_3d(BallotModel(1, 1, 1), 1000, cell_budget=10**6)
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
    for level, grid in enumerate(_sweep(TandemModel(3, 2, 2), 9, "exact", 10**6, None, np.copy)):
        occ = occupancy(grid, gx, gy)
        assert sum(occ.values()) >= 1 or level > 0
        for (x, y), v in occ.items():
            assert x >= 0 and y >= 0
            assert x % gx == 0 and y % gy == 0
            assert v > 0
        if level == 0:
            assert occ == {(0, 0): 1}
