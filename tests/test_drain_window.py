"""The level windows of the sweep against an unpruned reference.

A pinned sweep runs in ballot coordinates (n1, n2), the numbers of R and D
steps, and keeps the cells of the quadrant cone from which the target's
ballot point is still reachable; log-float totals run the same plan with
every cell of the cone kept.  Exact totals run on the quadrant grid, within
the reach of the origin, keep only the corner of cells that can still reach
both boundary slabs, fold the cells past it into two 1-D margins and
update, on flat frames, only the one residue of flat indices that holds the
cells walks can reach.  All of it is checked here against a plain
dictionary dynamic program over the whole quadrant, on random coprime tandem
triples (with examples whose step lattice is coarser than Z^2, and
one with large steps) and random targets (on and off the step lattice).
Log-float levels are scaled by powers of two, which round nothing, so a
log-float term is checked bit for bit: against an unpruned float64 dynamic
program, and across the sweep lengths that move the window.
"""

from math import frexp, gcd, log, ulp
from time import perf_counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BallotModel,
    BudgetExceededError,
    TandemModel,
    count_ballot_3d,
    count_endpoint,
    count_excursions,
    count_grid_excursions,
    count_walks_total,
    tandem_step_set,
    tandem_to_ballot,
)
from tandemwalks import enumeration
from tandemwalks.enumeration import _ballot_boxes, _quadrant_windows, _slab_reader, _sweep

from conftest import (
    ballot_level,
    ballot_point_at,
    cone_walks_3d,
    coprime_triples,
    last_ballot_point_by_scan,
    metered_cells,
    pinned_views_sweep,
    rectangle_cells,
)


def reference_levels(steps, n_max):
    """Quadrant occupancy dicts of levels 0..n_max, with no pruning at all."""
    cur = {(0, 0): 1}
    levels = [cur]
    for _ in range(n_max):
        nxt = {}
        for (x, y), v in cur.items():
            for i, j in steps:
                p = (x + i, y + j)
                if p[0] >= 0 and p[1] >= 0:
                    nxt[p] = nxt.get(p, 0) + v
        cur = nxt
        levels.append(cur)
    return levels


models = st.tuples(
    st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)
).filter(lambda t: gcd(*t) == 1).map(lambda t: TandemModel(*t))

# gx = gcd(A, B) > 1 or gy = gcd(B, C) > 1, so the grid indexes multiples;
# (2,6,3) has both and steps as large as 6
LATTICE_EXAMPLES = [(2, 2, 1), (3, 2, 2), (4, 2, 1), (3, 3, 2), (2, 6, 3)]


def lattice_examples(*rest):
    """Hypothesis examples: each triple of LATTICE_EXAMPLES, then ``rest``."""
    def apply(test):
        for triple in LATTICE_EXAMPLES:
            test = example(TandemModel(*triple), *rest)(test)
        return test
    return apply


def spacings(m):
    """(gx, gy): every reachable x is a multiple of gx and every y of gy."""
    return gcd(m.A, m.B), gcd(m.B, m.C)


def corner(m, n_max, n):
    """(Tx, Ty): level n of a slab sweep to n_max keeps the cells (i, j) of
    the grid with i < Tx and j < Ty, those that can still reach both slabs
    i < B/gx and j < C/gy in the r = n_max - n steps left."""
    gx, gy = spacings(m)
    r = n_max - n
    return (r + 1) * m.B // gx, (r + 1) * m.C // gy


def copy_grid(n, grid, origin):
    return origin, grid.copy()


def box_shape(n, grid, origin):
    return origin, grid.shape


def ballot_point(m, target, n_max):
    """(N1, N2, N3), the numbers of R, D and U steps of a walk ending at
    ``target`` at the last level <= n_max where nonnegative such numbers
    exist, found by search; None if there is no such level."""
    for n in range(n_max, -1, -1):
        for n1 in range(n + 1):
            for n2 in range(n + 1 - n1):
                if (m.A * n1 - m.B * n2, m.B * n2 - m.C * (n - n1 - n2)) == target:
                    return n1, n2, n - n1 - n2
    return None


def ballot_count(m, levels, n, n1, n2):
    """True count of the ballot cell (n1, n2) at level n: the quadrant cell
    that n1 R, n2 D and n - n1 - n2 U steps reach, or 0 if one is negative."""
    n3 = n - n1 - n2
    if min(n1, n2, n3) < 0:
        return 0
    return levels[n].get((m.A * n1 - m.B * n2, m.B * n2 - m.C * n3), 0)


@settings(max_examples=150, deadline=None)
@given(models, st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(0, 12))
@lattice_examples((6, 6), 12)
def test_pinned_counts_match_unpruned_reference(m, target, n_max):
    s = tandem_step_set(m)
    expected = [level.get(target, 0) for level in reference_levels(s.steps, n_max)]
    assert list(count_endpoint(s, n_max, target).values) == expected

    logs = count_endpoint(s, n_max, target, "logfloat").values
    for exact, lf in zip(expected, logs):
        if exact == 0:
            assert lf == float("-inf")
        else:
            assert abs(lf - log(exact)) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(models, st.integers(0, 16))
@lattice_examples(16)
def test_excursions_and_totals_match_unpruned_reference(m, n_max):
    s = tandem_step_set(m)
    levels = reference_levels(s.steps, n_max)
    assert list(count_excursions(s, n_max).values) == [lv.get((0, 0), 0) for lv in levels]
    assert list(count_walks_total(s, n_max).values) == [sum(lv.values()) for lv in levels]


@settings(max_examples=80, deadline=None)
@given(models, st.integers(0, 12))
@lattice_examples(12)
def test_slab_window_holds_reference_values(m, n_max):
    # level n of a slab sweep to n_max is a box within the corner i < Tx,
    # j < Ty (compressed units) that holds every reachable cell of the
    # corner, and each of its cells holds the true count
    gx, gy = spacings(m)
    levels = reference_levels(tandem_step_set(m).steps, n_max)
    plan = _quadrant_windows(m, n_max)
    for n, (_, grid) in enumerate(_sweep(plan, "exact", copy_grid)):
        tx, ty = corner(m, n_max, n)
        w, h = grid.shape
        assert w <= tx and h <= ty, n
        for x, y in levels[n]:
            if x // gx < tx and y // gy < ty:
                assert x // gx < w and y // gy < h, (n, x, y)
        for (i, j), v in np.ndenumerate(grid):
            assert v == levels[n].get((i * gx, j * gy), 0), (n, i, j)


def assert_levels_hold_reference(m, q, n_max):
    """In slab, totals and pinned (to ``q``) sweeps alike, every cell that
    holds walks after n steps and still matters to the sweep holds its true
    count, and every other cell of the grid holds a value between 0 and its
    true count.  To a slab sweep the cells of the corner matter (`corner`).
    A ballot level's box is the bounding box of the cells it keeps: the
    ballot cells of the cone with n1 <= N1, n2 <= N2 and n3 <= N3, where the
    totals plan takes N = (n_max, n_max, n_max), so that each of its levels
    keeps the cone's whole cross-section."""
    steps = tandem_step_set(m).steps
    gx, gy = spacings(m)
    levels = reference_levels(steps, n_max)
    plan = _quadrant_windows(m, n_max)
    for n, (_, grid) in enumerate(_sweep(plan, "exact", copy_grid)):
        w, h = np.shape(grid)
        tx, ty = corner(m, n_max, n)
        for (x, y), v in levels[n].items():
            i, j = x // gx, y // gy
            if i < tx and j < ty:
                assert i < w and j < h and grid[i, j] == v, (n, x, y)
        for (i, j), v in np.ndenumerate(grid):
            assert 0 <= v <= levels[n].get((i * gx, j * gy), 0), (n, i, j)

    N = ballot_point(m, (q[0] * gx, q[1] * gy), n_max)
    ballot_plans = [((n_max,) * 3, n_max)] + ([(N, sum(N))] if N else [])
    for N, n_last in ballot_plans:
        boxes = _sweep(_ballot_boxes(m, N, n_last), "exact", copy_grid)
        assert len(boxes) == n_last + 1
        for n, ((c0, r0), grid) in enumerate(boxes):
            kept = [
                (n1, n2)
                for n1 in range(N[0] + 1)
                for n2 in range(N[1] + 1)
                if 0 <= n - n1 - n2 <= N[2]
                and m.A * n1 >= m.B * n2 >= m.C * (n - n1 - n2)
            ]
            cols, rows = zip(*kept)
            w, h = np.shape(grid)
            assert (c0, r0, w, h) == (
                min(cols), min(rows), max(cols) - min(cols) + 1, max(rows) - min(rows) + 1
            ), n
            for n1, n2 in kept:
                assert grid[n1 - c0, n2 - r0] == ballot_count(m, levels, n, n1, n2), (N, n, n1, n2)
            for (i, j), v in np.ndenumerate(grid):
                assert 0 <= v <= ballot_count(m, levels, n, c0 + i, r0 + j), (N, n, i, j)


@settings(max_examples=100, deadline=None)
@given(models, st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 12))
@lattice_examples((1, 1), 12)
def test_every_level_holds_reference_on_its_window(m, q, n_max):
    assert_levels_hold_reference(m, q, n_max)


# Each level takes its first step whose slice is nonempty by assignment
# and the later steps by addition.  Every level is a flat frame of whole
# columns, where each step is one slice.  A slab level is a corner of the
# lattice-compressed grid, numbered from the left; a totals or pinned level
# is one box of ballot cells (n1 columns, n2 rows), whose steps are
# R = (1,0), D = (0,1) and U = (0,0).


def test_block_copy_falls_to_a_later_step():
    # tandem (2,1,1): the step (2,0) has no source in the columns left of 2,
    # so the level takes the step (-1,1) by assignment.  Slabs: level 5
    # keeps the corner (0..1, 0..1), a frame of 2 columns that R cannot
    # reach, so D's slice is the first.  Totals: level 2's box is the
    # columns 1..2, and R copies only column 2, while column 1 is zeroed.
    # Pinned to (0,0) at n_max = 6, the sweep ends at N = (1,2,2), level 5:
    # at level 2 the box is the cell (1, 1), where R has no source and D
    # copies; at level 5 it is (1, 2), where only U has one.
    assert_levels_hold_reference(TandemModel(2, 1, 1), (0, 0), 6)


def test_block_copy_covers_part_of_its_block():
    # tandem (3,1,1): the step (3,0) has no source in columns 0..2, nor above
    # the previous level's top row.  Totals, level 4: the box is the columns
    # 1..4, and R copies only the columns 2..4; slab sweep, level 4,
    # whose corner is (0..4, 0..3) in a frame of 5 columns of 5 rows: (3,0)
    # copies only the columns 3..4, and the first three are zeroed.  Pinned
    # to (0,0) at n_max = 8, the sweep ends at N = (1,3,3), level 7; at
    # level 3 the box is (1, 1..2) and D copies only (1, 2), at level 5 it
    # is (1, 2..3) and D copies only (1, 3).  The cells around each copy
    # hold zeros and take the later steps by addition.
    assert_levels_hold_reference(TandemModel(3, 1, 1), (0, 0), 8)


def test_window_shapes_unit_model():
    # (1,1,1) has the steps (1,0), (-1,1), (0,-1): after n steps every walk
    # has i + 2j <= n, and a slab sweep's grid is the bounding box of that
    # window cut to the corner i, j < 21 - n.  The totals plan keeps the
    # cone n1 >= n2 >= n3 whole: the columns n/3 <= n1 <= n and the rows
    # 0 <= n2 <= n // 2.
    m = TandemModel(1, 1, 1)
    totals = _sweep(_ballot_boxes(m, (20, 20, 20), 20), "exact", box_shape)
    assert totals == [((c0, 0), (n - c0 + 1, n // 2 + 1)) for n in range(21) for c0 in [-(-n // 3)]]
    slabs = _sweep(_quadrant_windows(m, 20), "exact", box_shape)
    assert slabs == [((0, 0), (min(n + 1, 21 - n), min(n // 2 + 1, 21 - n))) for n in range(21)]
    # Pinned to the origin at n_max = 20, not a multiple of the period 3:
    # the sweep ends at N = (6,6,6), level 18.  The cone is n1 >= n2 >= n3,
    # so level n keeps the columns n1 >= n/3, n1 >= (n - 6)/2 (as n3 <= 6)
    # and n1 >= n - 12, up to min(n, 6); the rows run from the lowest n2 of
    # the last column to min(n // 2, 6).
    pinned = _sweep(_ballot_boxes(m, (6, 6, 6), 18), "exact", box_shape)
    expected = []
    for n in range(19):
        c0, c1 = max(-(-n // 3), -(-(n - 6) // 2), n - 12), min(n, 6)
        r0 = max(-(-(n - c1) // 2), n - c1 - 6, 0)
        expected.append(((c0, r0), (c1 - c0 + 1, min(n // 2, 6) - r0 + 1)))
    assert pinned == expected


def test_pinned_sweep_ends_at_the_last_ballot_level():
    # (1,1,1) has period 3.  Excursions to n_max = 20 sweep to level 18; the
    # endpoint (1,0) is a ballot point only at levels n = 1 mod 3, so at
    # n_max = 12 the sweep ends at N = (4,3,3), level 10.  The levels past
    # the sweep read zero in both modes.
    m = TandemModel(1, 1, 1)
    s = tandem_step_set(m)
    levels = reference_levels(s.steps, 20)
    for target, n_max, N in [((0, 0), 20, (6, 6, 6)), ((1, 0), 12, (4, 3, 3))]:
        assert ballot_point(m, target, n_max) == N
        assert len(_sweep(_ballot_boxes(m, N, sum(N)), "exact", box_shape)) == sum(N) + 1
        expected = [lv.get(target, 0) for lv in levels[: n_max + 1]]
        assert list(count_endpoint(s, n_max, target).values) == expected
        logs = count_endpoint(s, n_max, target, "logfloat").values
        assert logs == tuple(frexp_log(float(v)) for v in expected)


class CutRecorder:
    """Stands in for a level's grid: records how many columns each cut
    zeroes, one cell per column."""

    def __init__(self, shape):
        self.shape, self.columns = shape, []

    def __setitem__(self, index, value):
        self.columns.append(len(index[0]))


class ReadRecorder:
    """Stands in for a level's grid: records the cell that is read."""

    def __init__(self, shape):
        self.shape, self.cell = shape, None

    def __getitem__(self, index):
        self.cell = index
        return 0


def read_cells(m, target, n_max):
    """Per level of `count_endpoint`'s sweep, the cell that its reading
    indexes, in ballot coordinates, or None; each read cell lies in its box."""
    reads, sweep = [], enumeration._sweep

    def recording_sweep(plan, mode, at):
        def recording_at(n, grid, origin):
            probe = ReadRecorder(grid.shape)
            at(n, probe, origin)
            if probe.cell is not None:
                assert all(0 <= i < w for i, w in zip(probe.cell, grid.shape)), n
                probe.cell = probe.cell[0] + origin[0], probe.cell[1] + origin[1]
            reads.append(probe.cell)
            return at(n, grid, origin)
        return sweep(plan, mode, recording_at)

    with patch.object(enumeration, "_sweep", recording_sweep):
        count_endpoint(tandem_step_set(m), n_max, target, cell_budget=10**80)
    return reads


def assert_ballot_plan_matches_oracle(m, target, n_max):
    """Every level of the plan pinned to the target's last ballot point has
    the oracle's box, in Python integers, and cut ends, and the reading
    indexes the target's ballot point where there is one
    (`conftest.ballot_level`, `conftest.ballot_point_at`)."""
    N = last_ballot_point_by_scan(m, target, n_max)
    if N is None:
        return
    steps, levels, stride, p, cut = _ballot_boxes(m, N, sum(N))
    assert steps == ((1, 0), (0, 1), (0, 0)) and len(levels) == sum(N) + 1
    assert stride == max(h for *_, h in levels) + 1 and p == 1
    # the flat sweep reads a box cell's source between rows -1 and H - 1
    # only because row origins rise by 0 or 1 from level to level
    rows = [r0 for _, r0, *_ in levels]
    assert all(b - a in (0, 1) for a, b in zip(rows, rows[1:]))
    for n, (c0, r0, w, h) in enumerate(levels):
        box, ends = ballot_level(m, N, n)
        assert (c0, r0, w, h) == box and {type(v) for v in box} == {int}, n
        grid = CutRecorder((w, stride))
        cut(n, grid, c0, r0)
        assert tuple(c0 + k for k in grid.columns) == ends, n
    expected = [ballot_point_at(m, target, n) for n in range(sum(N) + 1)]
    assert read_cells(m, target, n_max) == [P and P[:2] for P in expected]


# plans whose values pass 2**63: (1, 10**20, 1) has such coefficients, and
# (BIG + 1, BIG, BIG - 1) such values from level 2 on although E and every
# coefficient fit int64, so int64 would wrap them unnoticed and the first
# column that the cone meets would come out wrong
BIG = 16 * 10**8
HUGE_PLANS = [
    (TandemModel(1, 10**20, 1), (5, 0), 7),
    (TandemModel(BIG + 1, BIG, BIG - 1), (8, 8), 24),
    (TandemModel(10**6, 1, 10**6), (2 * 10**6 - 7, 7), 12),
]


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
    .filter(lambda t: gcd(*t) == 1).map(lambda t: TandemModel(*t)),
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.integers(0, 60),
)
@lattice_examples((0, 0), 60)
def test_ballot_plan_matches_the_per_level_oracle(m, target, n_max):
    assert_ballot_plan_matches_oracle(m, target, n_max)


@pytest.mark.parametrize("m, target, n_max", HUGE_PLANS)
def test_ballot_plan_is_exact_for_large_steps(m, target, n_max):
    assert last_ballot_point_by_scan(m, target, n_max) is not None
    assert_ballot_plan_matches_oracle(m, target, n_max)
    s = tandem_step_set(m)
    expected = [lv.get(target, 0) for lv in reference_levels(s.steps, n_max)]
    assert list(count_endpoint(s, n_max, target, cell_budget=10**80).values) == expected


def huge_plan_examples(test):
    """Hypothesis examples: each of HUGE_PLANS in both modes."""
    for m, target, n_max in HUGE_PLANS:
        for mode in ("exact", "logfloat"):
            test = example(m, target, n_max, mode)(test)
    return test


def box_readings(sweep, plan, mode):
    """A pinned sweep's readings, each level's largest cell, and a copy of
    every level's box with its origin."""
    boxes = []

    def read(n, grid, origin):
        boxes.append((origin, grid.copy()))
        return grid.max()

    return sweep(plan, mode, read), boxes


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))
    .filter(lambda t: gcd(*t) == 1).map(lambda t: TandemModel(*t)),
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    st.integers(0, 200),
    st.sampled_from(["exact", "logfloat"]),
)
@example(TandemModel(1, 1, 1), (8, 8), 200, "exact")
@example(TandemModel(1, 1, 1), (8, 8), 200, "logfloat")
@huge_plan_examples
def test_flat_sweep_equals_the_views_sweep(m, target, n_max, mode):
    # every reading and every cell of every box, ints as ints and floats
    # bit for bit, on the pinned plans of small triples and of HUGE_PLANS
    N = last_ballot_point_by_scan(m, target, n_max)
    if N is None:
        return
    plan = _ballot_boxes(m, N, sum(N))
    flat, flat_boxes = box_readings(_sweep, plan, mode)
    views, view_boxes = box_readings(pinned_views_sweep, plan, mode)
    if mode == "exact":
        assert flat == views and {type(v) for v in flat} == {int}
        assert [(o, b.tolist()) for o, b in flat_boxes] == [(o, b.tolist()) for o, b in view_boxes]
    else:
        assert [v.hex() for v in flat] == [v.hex() for v in views]
        assert [(o, b.shape, b.tobytes()) for o, b in flat_boxes] == \
            [(o, b.shape, b.tobytes()) for o, b in view_boxes]


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_large_step_excursions_equal_the_cone_walks(mode):
    # tandem (5,7,3) is the ballot triple (21,15,35), period 71; its (x, y)
    # grid holds one live cell in E = AB + AC + BC = 71
    rounds = 3
    cone = cone_walks_3d(BallotModel(21, 15, 35), rounds)
    e = count_excursions(tandem_step_set(TandemModel(5, 7, 3)), 71 * rounds + 5, mode).values
    assert len(e) == 71 * rounds + 6
    zero = 0 if mode == "exact" else float("-inf")
    assert all(v == zero for n, v in enumerate(e) if n % 71)
    if mode == "exact":
        assert e[::71] == cone
    else:
        for lf, exact in zip(e[::71], cone):
            assert abs(lf - log(exact)) <= 1e-12 * max(1.0, log(exact))


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_budget_meters_full_rectangle(mode):
    # the budget once metered the full reachable rectangles; it now meters
    # the cells that the pinned plan's slices visit, fewer than those, plus
    # the term charge, and a count runs at exactly that budget
    m = TandemModel(1, 1, 1)
    s = tandem_step_set(m)
    for target in [(0, 0), (3, 2)]:
        cells, result = metered_cells(30, count_endpoint, s, 30, target, mode, 10**80)
        assert cells - enumeration._TERM_CELLS * 31 < rectangle_cells(m, 30)
        assert count_endpoint(s, 30, target, mode, cell_budget=cells) == result
        with pytest.raises(BudgetExceededError):
            count_endpoint(s, 30, target, mode, cell_budget=cells - 1)


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_total_budget_meters_full_rectangle(mode):
    # exact totals sweep levels 0..n_max-1 (the last term comes from the
    # slab loss), log-float totals levels 0..n_max; either plan visits fewer
    # cells than the full rectangles of its levels, and each meters its
    # plan plus the charge for the n_max + 1 terms it returns
    m = TandemModel(1, 1, 1)
    s = tandem_step_set(m)
    n_max = 31 if mode == "exact" else 30
    cells, result = metered_cells(n_max, count_walks_total, s, n_max, mode, 10**80)
    assert cells - enumeration._TERM_CELLS * (n_max + 1) < rectangle_cells(m, 30)
    assert count_walks_total(s, n_max, mode, cell_budget=cells) == result
    with pytest.raises(BudgetExceededError):
        count_walks_total(s, n_max, mode, cell_budget=cells - 1)


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
@pytest.mark.parametrize("triple", [(1, 1, 1), (3, 2, 2)])
def test_total_budget_boundary(triple, mode):
    # totals run at exactly their metered cells and abort one cell below,
    # with the cells in the message
    s = tandem_step_set(TandemModel(*triple))
    for n_max in [1, 2, 9, 25]:
        cells, result = metered_cells(n_max, count_walks_total, s, n_max, mode, 10**80)
        assert count_walks_total(s, n_max, mode, cells) == result
        message = f"needs {cells} cells, budget is {cells - 1}$"
        with pytest.raises(BudgetExceededError, match=message):
            count_walks_total(s, n_max, mode, cells - 1)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)).filter(lambda t: gcd(*t) == 1),
    st.tuples(st.integers(0, 20), st.integers(0, 20)),
    st.integers(0, 60),
    st.sampled_from(["exact", "logfloat"]),
)
@example((5, 7, 3), (0, 0), 71, "exact")  # large steps, d = 71
@example((2, 2, 1), (1, 0), 20, "logfloat")  # off the lattice: the terms alone
@example((1, 1, 1), (0, 0), 0, "exact")  # q_0 = 1 needs no sweep
def test_meter_is_the_plan_cells_plus_the_term_charge(triple, target, n_max, mode):
    # every count path meters the cells that the slices of the plans it
    # sweeps visit plus the term charge for each term, and runs at exactly
    # that budget and aborts one cell below
    m = TandemModel(*triple)
    s = tandem_step_set(m)
    ballot = tandem_to_ballot(m)
    rounds = n_max // ballot.period

    def grid_excursions(budget):
        with patch.object(enumeration, "DEFAULT_CELL_BUDGET", budget):
            return count_grid_excursions(s, n_max)

    for n_terms, count in [
        (n_max, lambda budget: count_endpoint(s, n_max, target, mode, budget)),
        (n_max, lambda budget: count_excursions(s, n_max, mode, budget)),
        (n_max, lambda budget: count_walks_total(s, n_max, mode, budget)),
        (n_max, grid_excursions),
        (ballot.period * rounds, lambda budget: count_ballot_3d(ballot, rounds, budget)),
    ]:
        cells, result = metered_cells(n_terms, count, 10**80)
        assert count(cells) == result
        with pytest.raises(BudgetExceededError, match=f"needs {cells} cells, budget is {cells - 1}$"):
            count(cells - 1)


def test_the_plan_meter_admits_what_the_rectangle_meter_admitted():
    # at the largest n_max that the full rectangles admitted at the default
    # budget, excursions and both totals of every coprime triple <= 6 pass
    # the plan meter: only the stubbed sweep stops them.  Exact totals
    # metered the rectangles of levels 0..n_max-1
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    budget = enumeration.DEFAULT_CELL_BUDGET
    with patch.object(enumeration, "_sweep", admitted):
        for triple in coprime_triples(6):
            m = TandemModel(*triple)
            s = tandem_step_set(m)
            n = 0
            while rectangle_cells(m, n + 1) <= budget:
                n += 1
            for count in [
                lambda: count_excursions(s, n),
                lambda: count_walks_total(s, n, "logfloat"),
                lambda: count_walks_total(s, n + 1),
            ]:
                with pytest.raises(Admitted):
                    count()


def float_levels(steps, n_max):
    """Unpruned float64 occupancy dicts of levels 0..n_max, each cell the
    sum of its predecessors added in step order, as the sweep adds them."""
    cur = {(0, 0): 1.0}
    levels = [cur]
    for _ in range(n_max):
        cells = {(x + i, y + j) for x, y in cur for i, j in steps if x + i >= 0 and y + j >= 0}
        nxt = {}
        for x, y in cells:
            v = 0.0
            for i, j in steps:
                v += cur.get((x - i, y - j), 0.0)
            nxt[x, y] = v
        cur = nxt
        levels.append(cur)
    return levels


def frexp_log(v):
    """log(v) read as the sweep reads a level: log(mant) + e * ln 2."""
    mant, e = frexp(v)
    return log(mant) + e * log(2.0) if mant else float("-inf")


def logfloat_terms(s, n_max, target):
    """Log-float endpoint counts to ``target`` and totals, levels 0..n_max."""
    return (
        count_endpoint(s, n_max, target, "logfloat").values,
        count_walks_total(s, n_max, "logfloat").values,
    )


UNIT = TandemModel(1, 1, 1)

# The (1,1,1) examples fail when each level is divided by its peak instead
# of scaled by a power of two: 11 of the 61 terms differ from the float sums,
# and 7 of 301 excursion terms move when the sweep runs on to 600 steps.


@settings(max_examples=80, deadline=None)
@given(models, st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(0, 40))
@example(UNIT, (0, 0), 60)
@lattice_examples((6, 6), 40)
def test_logfloat_terms_equal_unpruned_float_sums(m, target, n_max):
    # 3 steps and at most 60 levels: every count stays below 3^60 < 2^96,
    # so no scaled cell is subnormal and every term is exact to the bit
    s = tandem_step_set(m)
    levels = float_levels(s.steps, n_max)
    expected = [frexp_log(level.get(target, 0.0)) for level in levels]
    assert list(count_endpoint(s, n_max, target, "logfloat").values) == expected


@settings(max_examples=60, deadline=None)
@given(
    models,
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.integers(0, 40),
    st.integers(1, 40),
)
@example(UNIT, (0, 0), 300, 300)
@lattice_examples((6, 6), 40, 40)
def test_logfloat_terms_do_not_depend_on_n_max(m, target, n, extra):
    # a longer sweep keeps a wider drain window at every level
    s = tandem_step_set(m)
    short, longer = logfloat_terms(s, n, target), logfloat_terms(s, n + extra, target)
    for a, b in zip(short, longer):
        assert a == b[: n + 1]


@settings(max_examples=60, deadline=None)
@given(models, st.integers(0, 120))
@example(UNIT, 600)
@lattice_examples(120)
def test_logfloat_totals_are_within_ulps_of_the_exact_logs(m, n_max):
    # log-float totals sum each level's box of the cone in ballot
    # coordinates; q_n >= 1 (n R steps), so every log is finite, and each
    # term lies within 4 ulps of the log of the exact total
    s = tandem_step_set(m)
    exact = count_walks_total(s, n_max).values
    logs = count_walks_total(s, n_max, "logfloat").values
    assert len(logs) == len(exact) == n_max + 1
    for n, (lf, q) in enumerate(zip(logs, exact)):
        assert abs(lf - log(q)) <= 4 * ulp(log(q)), (n, lf, q)


# Exact totals and grid excursions run on flat frames of whole columns whose
# row stride H is = -t (mod d), where level n's cells are those with
# j = t*i - c2*n (mod d) (`_grid`): the cell (i, j) sits at the flat index
# i*H + j = -c2*n (mod d), so each step is one slice of step d.


def lattice(m):
    """(a1, b1, b2, c2, d): the steps R = (a1, 0), D = (-b1, b2), U = (0, -c2)
    in grid units and the index d of the lattice of R - U and D - U."""
    gx, gy = spacings(m)
    a1, b1, b2, c2 = m.A // gx, m.B // gx, m.B // gy, m.C // gy
    return a1, b1, b2, c2, a1 * (b2 + c2) + b1 * c2


def live_cells(m, n, w, h):
    """Mask of the cells (i, j) of a w x h box at the origin that lie in
    level n's coset: n1 and n2 in (i, j) - n*U = n1*(R - U) + n2*(D - U)
    are integers."""
    a1, b1, b2, c2, d = lattice(m)
    i, j = np.ogrid[:w, :h]
    jn = j + c2 * n
    return (((b2 + c2) * i + b1 * jn) % d == 0) & ((a1 * jn - c2 * i) % d == 0)


def dense(plan):
    """``plan`` with phase step 1: each step updates every cell of its slice."""
    steps, levels, stride, _, cut = plan
    return steps, levels, stride, 1, cut


@settings(max_examples=60, deadline=None)
@given(models, st.integers(0, 40))
@example(UNIT, 40)
@lattice_examples(40)
def test_phase_sweep_updates_the_live_coset_only(m, n_max):
    # every cell of a level's box, the corner, holds the reference count, so
    # every cell off the level's coset holds 0, and the dense sweep agrees
    s = tandem_step_set(m)
    gx, gy = spacings(m)
    *_, d = lattice(m)
    assert d == (m.A * m.B + m.A * m.C + m.B * m.C) // (gx * gy)
    levels = reference_levels(s.steps, n_max)
    plan = _quadrant_windows(m, n_max)
    grids = _sweep(plan, "exact", copy_grid)
    whole = _sweep(dense(plan), "exact", copy_grid)
    for n, ((_, grid), (_, dense_grid)) in enumerate(zip(grids, whole)):
        w, h = grid.shape
        true = np.zeros((w, h), dtype=object)
        for (x, y), v in levels[n].items():
            if x // gx < w and y // gy < h:
                true[x // gx, y // gy] = v
        assert (grid == true).all(), n
        assert (grid[~live_cells(m, n, w, h)] == 0).all(), n
        assert (grid == dense_grid).all(), n

    windows = enumeration._quadrant_windows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "_quadrant_windows", lambda *args, **kw: dense(windows(*args, **kw)))
        dense_totals = count_walks_total(s, n_max).values
    totals = count_walks_total(s, n_max).values
    assert totals == dense_totals == tuple(sum(lv.values()) for lv in levels)


@settings(max_examples=100, deadline=None)
@given(models, st.integers(0, 60))
@example(UNIT, 60)
@example(TandemModel(5, 7, 3), 60)
@lattice_examples(60)
def test_phase_step_carries_each_level_to_the_next(m, n_max):
    # with phase step d > 1, the stride is H = -t (mod d), every cell of
    # level n's coset sits at a flat index = -c2*n (mod d), and each step's
    # offset carries that phase to level n + 1's; a sweep takes phase step 1
    # only when d exceeds its stride; and every level equals the sweep of
    # the same plan with phase step 1
    *_, c2, d = lattice(m)
    t = int(np.flatnonzero(live_cells(m, 0, 2, d)[1])[0])  # (1, t) lies in the lattice
    plan = steps, levels, H, p, _ = _quadrant_windows(m, n_max)
    if p > 1:
        assert p == d and (H + t) % d == 0
        for n, (_, _, w, h) in enumerate(levels):
            i, j = np.nonzero(live_cells(m, n, w, h))
            assert ((i * H + j + c2 * n) % d == 0).all(), n
        assert all((si * H + sj + c2) % d == 0 for si, sj in steps)
    else:
        assert d > H
    boxes = [grid.tolist() for _, grid in _sweep(plan, "exact", copy_grid)]
    assert boxes == [grid.tolist() for _, grid in _sweep(dense(plan), "exact", copy_grid)]


def test_exact_totals_plan_visits_one_dth_of_its_frames():
    # (1,1,1) has d = 3 and t = 1.  Built only, not swept: the exact totals
    # plan at n = 600 pads its tallest box of 200 rows by the largest row
    # shift, 1, and raises the stride to 203 = -t (mod 3).  Each step of
    # levels 1..599 is one slice of step 3 over a frame of w*203 cells, so
    # the steps visit at most 6,110,432 cells each, a third of the frames
    _, levels, H, p, _ = _quadrant_windows(UNIT, 599)
    assert (max(h for *_, h in levels), H, p) == (200, 203, 3)
    frames = sum(w * H for _, _, w, _ in levels[1:])
    visited = sum(-(-w * H // p) for _, _, w, _ in levels[1:])
    assert (frames, visited) == (18_330_697, 6_110_432)


def test_exact_totals_plan_keeps_the_corner_alone():
    # built only, not swept: the plan of (1,1,1) at n = 600 held boxes of up
    # to 180,000 cells while it kept every cell that could still reach
    # either slab; keeping only those that can reach both cuts the largest
    # box to a third, and all its boxes to 11,575,100 cells
    _, levels, *_ = _quadrant_windows(UNIT, 599)
    assert sum(w * h for _, _, w, h in levels) == 11_575_100
    assert max(w * h for _, _, w, h in levels) <= 180_000 // 3


def slab_loss(m, level):
    """The walks of a reference level that a D or U step takes out of the
    quadrant: those at x < B, plus those at y < C."""
    return sum(v for (x, _), v in level.items() if x < m.B) + \
        sum(v for (_, y), v in level.items() if y < m.C)


@settings(max_examples=80, deadline=None)
@given(models, st.integers(0, 16))
@example(UNIT, 40)
@lattice_examples(16)
def test_margins_hold_the_sums_past_the_corner(m, n_max):
    # as the exact totals reader reads each level of a slab sweep: every
    # cell of the level's box, the corner, holds its reference count;
    # colm[i] is the reference sum over j >= Ty of column i, and rowm[j] the
    # sum over i >= Tx of row j, each as long as the box; and the reading
    # is the level's slab loss
    gx, gy = spacings(m)
    levels = reference_levels(tandem_step_set(m).steps, n_max)
    plan = _quadrant_windows(m, n_max)
    read, margins = _slab_reader(m, plan[1])

    def checked_read(n, grid, origin):
        tx, ty = corner(m, n_max, n)
        w, h = grid.shape
        true, colm, rowm = np.zeros((w, h), dtype=object), [0] * w, [0] * h
        for (x, y), v in levels[n].items():
            i, j = x // gx, y // gy
            if i < tx and j < ty:
                true[i, j] = v
            elif i < tx:
                colm[i] += v
            elif j < ty:
                rowm[j] += v
        assert grid.tolist() == true.tolist(), n
        assert [v.tolist() for v in margins] == [colm, rowm], n
        return read(n, grid, origin)

    assert _sweep(plan, "exact", checked_read) == [slab_loss(m, lv) for lv in levels]


def test_huge_lattice_index_lists_no_classes():
    # d is about 2*10^20 for (1, 10^20, 1) and 10^12 for (10^6, 1, 10^6): it
    # exceeds every stride, so these sweeps take phase step 1, as a stride
    # raised to a residue mod d could be as long as d.  The corner bounds Tx = n_max*B/gx and Ty = n_max*C/gy of exact totals
    # are as large, so their margins must be as long as the box, not as Tx
    # or Ty.  The budget meters the plans, not the full rectangles, which
    # pass 10^20 cells at n_max = 2, so these run at the default budget
    for triple, n_max, mode, expected in [
        ((1, 10**20, 1), 0, "exact", (1,)),
        ((1, 10**20, 1), 1, "exact", (1, 1)),
        ((10**20, 1, 1), 1, "exact", (1, 1)),
        ((10**8, 1, 10**8), 1, "exact", (1, 1)),
        ((1, 10**20, 1), 2, "exact", (1, 1, 1)),
        ((10**20, 1, 1), 2, "exact", (1, 1, 2)),
        ((1, 10**20, 1), 0, "logfloat", (0.0,)),
        ((10**6, 1, 10**6), 2, "logfloat", (0.0, 0.0, frexp_log(2.0))),
        ((10**6, 1, 10**6), 2, "exact", (1, 1, 2)),
    ]:
        start = perf_counter()
        s = tandem_step_set(TandemModel(*triple))
        assert count_walks_total(s, n_max, mode).values == expected
        assert perf_counter() - start < 0.5, (triple, mode)


@pytest.mark.parametrize("triple", [(1, 1, 10**6), (1, 10**6, 1), (2, 1, 50)])
def test_large_row_shifts_stay_out_of_the_stride(triple):
    # a step whose row shift is at least the tallest box joins no two box
    # cells, so the flat plan leaves it out and pads its stride only for the
    # kept steps: U of (1, 1, 10^6) and (2, 1, 50), D of (1, 10^6, 1).
    # Padded for all three, the stride of (1, 1, 10^6) would pass 10^6 rows.
    # The budget meters the plans, so these run at the default budget
    m = TandemModel(*triple)
    s = tandem_step_set(m)
    levels = reference_levels(s.steps, 50)
    _, boxes, H, _, _ = _quadrant_windows(m, 50)
    assert H <= 2 * (max(h for *_, h in boxes) + 1)
    runs = []
    for count in (
        lambda: count_walks_total(s, 50),
        lambda: count_grid_excursions(s, 50),
        lambda: count_walks_total(s, 50, "logfloat"),
    ):
        start = perf_counter()
        runs.append(count().values)
        assert perf_counter() - start < 0.5
    exact, grid, logs = runs
    totals = [sum(lv.values()) for lv in levels]
    assert list(exact) == totals
    assert list(grid) == [lv.get((0, 0), 0) for lv in levels]
    assert all(abs(lf - log(v)) <= 1e-12 * max(1.0, log(v)) for lf, v in zip(logs, totals))
