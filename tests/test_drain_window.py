"""The level windows of the sweep against an unpruned reference.

Every level updates only the cells within the reach of the origin and, for
a pinned endpoint, those that can still reach the target; exact totals keep
only the cells that can still reach a boundary slab.  All of it is checked
here against a plain dictionary dynamic program over the whole quadrant, on
random coprime tandem triples (with examples whose step lattice is coarser
than Z^2, and one with large steps) and random targets (on and off the step
lattice).  Log-float levels are scaled by powers of two, which round
nothing, so a log-float term is checked bit for bit: against an unpruned
float64 dynamic program, and across the sweep lengths and block counts that
move the window.
"""

from math import frexp, gcd, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    BudgetExceededError,
    TandemModel,
    count_endpoint,
    count_excursions,
    count_walks_total,
    tandem_step_set,
)
from tandemwalks import enumeration
from tandemwalks.enumeration import _sweep


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
    # level n of a slab sweep to n_max holds the true count on the L-shaped
    # window i < (r+1)*nxm or j < (r+1)*nym (r = n_max - n, compressed
    # units, nxm = B/gx, nym = C/gy) and zero everywhere else
    gx, gy = spacings(m)
    nxm, nym = m.B // gx, m.C // gy
    levels = reference_levels(tandem_step_set(m).steps, n_max)
    for n, grid in enumerate(_sweep(m, n_max, "exact", 10**7, "slabs", np.copy)):
        r = n_max - n
        for (i, j), v in np.ndenumerate(grid):
            in_window = i < (r + 1) * nxm or j < (r + 1) * nym
            true = levels[n].get((i * gx, j * gy), 0)
            assert v == (true if in_window or n == 0 else 0), (n, i, j)


def drain_sets(steps, target, n_max):
    """Quadrant cells from which ``target`` is reachable in at most r steps, r = 0..n_max."""
    sets = [{target}]
    for _ in range(n_max):
        grown = set(sets[-1])
        for x, y in sets[-1]:
            for i, j in steps:
                if x - i >= 0 and y - j >= 0:
                    grown.add((x - i, y - j))
        sets.append(grown)
    return sets


def assert_levels_hold_reference(m, q, n_max):
    """In pinned (to ``q``), slab and free sweeps alike, every cell that holds
    walks after n steps and still matters to the sweep holds its true count,
    and every other cell of the grid holds a value between 0 and its true
    count."""
    steps = tandem_step_set(m).steps
    gx, gy = spacings(m)
    nxm, nym = m.B // gx, m.C // gy
    levels = reference_levels(steps, n_max)
    drain = drain_sets(steps, (q[0] * gx, q[1] * gy), n_max)
    needed = {
        q: lambda r, x, y: (x, y) in drain[r],
        "slabs": lambda r, x, y: x < (r + 1) * nxm * gx or y < (r + 1) * nym * gy,
        None: lambda r, x, y: True,
    }
    for target, matters in needed.items():
        for n, grid in enumerate(_sweep(m, n_max, "exact", 10**7, target, np.copy)):
            w, h = np.shape(grid)
            for (x, y), v in levels[n].items():
                if matters(n_max - n, x, y):
                    i, j = x // gx, y // gy
                    assert i < w and j < h and grid[i, j] == v, (target, n, x, y)
            for (i, j), v in np.ndenumerate(grid):
                assert 0 <= v <= levels[n].get((i * gx, j * gy), 0), (target, n, i, j)


@settings(max_examples=100, deadline=None)
@given(models, st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, 12))
@lattice_examples((1, 1), 12)
def test_every_level_holds_reference_on_its_window(m, q, n_max):
    assert_levels_hold_reference(m, q, n_max)


# Each block of a level takes its first step whose rectangle is nonempty by
# assignment and the later steps by addition; blocks are numbered from the
# left, and a block is (columns, rows) of the lattice-compressed grid.


def test_block_copy_falls_to_a_later_step():
    # tandem (2,1,1): the step (2,0) has no source in the columns left of 2,
    # so the block takes the step (-1,1) by assignment.  Pinned to (0,0):
    # level 2, block 0 = (0..0, 0..1); level 4, block 1 = (1..1, 0..0), where
    # (-1,1) has none either and the copy falls to (0,-1).  Slabs: level 5,
    # block 0 = (0..1, 0..3).  Free: level 2, block 0 = (0..1, 0..1).
    assert_levels_hold_reference(TandemModel(2, 1, 1), (0, 0), 6)


def test_block_copy_covers_part_of_its_block():
    # tandem (3,1,1): the step (3,0) has no source in columns 0..2, nor above
    # the previous level's top row.  Free sweep, level 4: block 0 =
    # (0..5, 0..3) and (3,0) copies only (3..5, 0..2); slab sweep, level 3:
    # block 0 = (0..5, 0..2) and the copy is (3..5, 0..1).  Pinned to (0,0),
    # level 4: block 1 = (1..2, 0..2) and (-1,1) copies only (1..1, 1..2).
    # The cells around each copy keep the fill's zeros and take the later
    # steps by addition.
    assert_levels_hold_reference(TandemModel(3, 1, 1), (0, 0), 8)


def test_window_shapes_unit_model():
    # (1,1,1) has the steps (1,0), (-1,1), (0,-1): after n steps every walk
    # has i + 2j <= n, and it can return to the origin in r = 20 - n more
    # steps only if 2i + j <= r.  A grid is the bounding box of its window.
    m = TandemModel(1, 1, 1)
    shapes = _sweep(m, 20, "exact", 10**6, (0, 0), np.shape)
    assert shapes == [(min(n, (20 - n) // 2) + 1, min(n // 2, 20 - n) + 1) for n in range(21)]
    full = _sweep(m, 20, "exact", 10**6, None, np.shape)
    assert full == [(n + 1, n // 2 + 1) for n in range(21)]
    slabs = _sweep(m, 20, "exact", 10**6, "slabs", np.shape)
    assert slabs == full


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_budget_meters_full_rectangle(mode):
    # pinned sweeps touch fewer cells, but the budget still counts the whole
    # reachable rectangle, so the same inputs pass and abort as before
    s = tandem_step_set(TandemModel(1, 1, 1))
    dense = sum((n + 1) ** 2 for n in range(1, 31)) + 1
    for target in [(0, 0), (3, 2)]:
        count_endpoint(s, 30, target, mode, cell_budget=dense)
        with pytest.raises(BudgetExceededError):
            count_endpoint(s, 30, target, mode, cell_budget=dense - 1)


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
def test_total_budget_meters_full_rectangle(mode):
    # exact totals sweep levels 0..n_max-1 (the last term comes from the
    # slab loss), log-float totals levels 0..n_max; both are metered as the
    # whole rectangle, so the same inputs pass and abort as an unpruned sweep
    s = tandem_step_set(TandemModel(1, 1, 1))
    n_max = 31 if mode == "exact" else 30
    dense = sum((n + 1) ** 2 for n in range(1, 31)) + 1
    count_walks_total(s, n_max, mode, cell_budget=dense)
    with pytest.raises(BudgetExceededError):
        count_walks_total(s, n_max, mode, cell_budget=dense - 1)


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
# 7 of 301 excursion terms move when the sweep runs on to 600 steps, and 14
# of 601 when it runs in 1 block instead of 2.


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
@given(models, st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(0, 40))
@example(UNIT, (0, 0), 600)
@lattice_examples((6, 6), 40)
def test_logfloat_terms_do_not_depend_on_block_count(m, target, n_max):
    # the block layout sets the slack cells, and so each level's maximum
    s = tandem_step_set(m)
    terms = []
    for k in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_BLOCKS", k)
            terms.append(logfloat_terms(s, n_max, target))
    assert terms[0] == terms[1] == terms[2]
