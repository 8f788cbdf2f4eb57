"""Exact and floating-point enumeration of quarter-plane and cone walks.

The workhorse is a dense level-by-level dynamic program over the quadrant.
Each level updates only a window cut out by linear bounds: functionals
a*i + b*j with a, b >= 0 (the axes and the normals of the step differences)
that rise and fall by a bounded amount per step.  Forward, they bound the
cells reachable in n steps; backward, the cells from which the sweep's
target is still reachable in the remaining steps.  A pinned endpoint
(excursions, endpoint counts) keeps both; exact free-endpoint totals read
only the two boundary slabs from which a step leaves the quadrant, so their
window is the reachable part of an L-shaped band along both axes; log-float
totals keep every reachable cell.  A level's grid is the bounding box of its
window, and a few column blocks of it cover the window.  Each transition
works on a numpy array held in one of two buffers reused across levels: in
each block the first step that reaches it copies its shifted source slice
in, and the later steps add theirs.  With object dtype the arithmetic is
exact big-integer arithmetic; float64 levels are scaled by powers of two,
which round nothing, and an integer shift keeps the true magnitude, so a
log-float term depends on the steps and n alone (raw floats would overflow
beyond a few hundred steps).

The sweep returns one reading per level from a callback on the level's grid
(the count at the target, the grid sum, or the walks that would leave the
quadrant); in log-float mode it turns each reading into a log itself, so no
caller sees the scaling.

Coordinates are compressed by the lattice the steps actually span: every
reachable x is a multiple of gcd of the horizontal displacements and likewise
for y, so the grid indexes multiples rather than raw coordinates.  For tandem
steps (A,0), (-B,B), (0,-C) this cuts the cell count by gcd(A,B)*gcd(B,C).

Work is metered as the cells of the full reachable rectangles, whatever the
window, checked upfront against a budget, so a mistyped n_max fails fast
instead of thrashing; the 3D cone sweep likewise counts its cone points
against the budget before its first step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import frexp, gcd, log
from typing import Any, Callable

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .models import BALLOT_STEPS, BallotModel, StepSet, ballot_to_tandem

DEFAULT_CELL_BUDGET = 200_000_000

# column blocks covering a pinned or free window, for speed alone: more cut
# fewer cells, but each costs a slice copy and a slice-add per further step
_BLOCKS = 2


@dataclass(frozen=True)
class CountSequence:
    """Terms t_0..t_n of a counting sequence.

    ``values`` holds exact integers in ``exact`` mode and natural logs
    (``-inf`` for zero counts) in ``logfloat`` mode.
    """

    mode: str
    values: tuple

    def __post_init__(self) -> None:
        _validate_mode(self.mode)
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def _validate_n_max(n_max: int) -> None:
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValidationError(f"n_max must be a nonnegative integer, got {n_max!r}")


def _validate_mode(mode: str) -> None:
    if mode not in ("exact", "logfloat"):
        raise ValidationError(f"mode must be 'exact' or 'logfloat', got {mode!r}")


def _step_lattice(s: StepSet) -> tuple[int, int]:
    """Spacings (gx, gy) of the lattice the steps span."""
    return gcd(*(i for i, _ in s.steps)) or 1, gcd(*(j for _, j in s.steps)) or 1


def _check_budget(scaled: list[tuple[int, int]], n_max: int, cell_budget: int) -> None:
    """Meter the dense rectangles of levels 0..n_max of the lattice-compressed
    steps against the budget: 1 + sum over k = 1..n of (k*dxm + 1)(k*dym + 1),
    in closed form."""
    dxm = max((i for i, _ in scaled if i > 0), default=0)
    dym = max((j for _, j in scaled if j > 0), default=0)
    n = n_max
    swept = dxm * dym * n * (n + 1) * (2 * n + 1) // 6 + (dxm + dym) * n * (n + 1) // 2 + n + 1
    if swept > cell_budget:
        raise BudgetExceededError(
            f"level sweep needs {swept} cells, budget is {cell_budget}"
        )


def _functionals(scaled: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The axes and the primitive nonnegative normals of the step differences."""
    phis = {(1, 0), (0, 1)}
    for (i1, j1), (i2, j2) in combinations(scaled, 2):
        a, b = j1 - j2, i2 - i1
        if a * b >= 0:  # one of the two normals lies in the closed first quadrant
            g = gcd(a, b)
            phis.add((abs(a) // g, abs(b) // g))
    return sorted(phis)


def _sweep(
    s: StepSet,
    n_max: int,
    mode: str,
    cell_budget: int,
    target: tuple[int, int] | str | None,
    read: Callable[[np.ndarray], Any],
) -> list:
    """Readings ``read(grid)`` of quadrant occupancy levels 0..n_max for walks
    started at the origin, where ``grid[i, j]`` counts walks ending at
    (i * gx, j * gy), (gx, gy) = ``_step_lattice(s)``.  An exact reading is
    returned as it is; a log-float one (a number) as log(mant) + (e + shift)
    * ln 2, (mant, e) = frexp(reading), or -inf for zero.

    Level n updates only a window of cells cut out by linear bounds.  Each
    functional phi = (a, b) >= 0 among the axes and the normals of the step
    differences (lattice-compressed) rises by at most up = max(0, max phi.s)
    and falls by at most dn = max(0, max -phi.s) per step, so:

    - reach: a cell c holds walks after n steps only if phi.c <= n*up;
    - drain: ``target`` is what the sweep must still reach after level
      n_max.  For an endpoint q (lattice-compressed indices), c can reach q
      in the remaining r = n_max - n steps only if phi.c <= phi.q + r*dn.
      For ``"slabs"``, the boundary slabs i < nxm or j < nym from which a step
      can leave the quadrant (nxm, nym the largest negative step
      components), the drain window is the L-shaped union of the strips
      i < (r+1)*nxm and j < (r+1)*nym.  None has no drain bound.

    The level's grid is the bounding box of the window, and the update
    covers the window with a few column blocks of the box, each as tall as
    the window at its left edge; the slab L is covered by its two strips,
    each cut to the reach bound.  Every predecessor of a walk counted in the
    window of level n+1 lies in the window of level n, so every value in the
    window equals the full sweep's, and any other cell holds a value between
    0 and its true count.  The budget always meters the full rectangle.

    The blocks are disjoint column ranges of a box zero-filled just before,
    so in each block the first step whose rectangle is nonempty assigns its
    source and only the later steps add theirs.  That is exact: 0 + v == v
    for Python integers and for nonnegative float64, so every value and
    every rounding is the same as adding all steps to zeros.

    Log-float levels are multiplied by 2^-k, k = frexp(max)[1], and k joins
    the integer shift.  The product is exact, so a window cell holds its
    unpruned float64 sum (steps added in ``s.steps`` order) times 2^-shift,
    whatever peak the slack cells set, unless it lies more than 2^1022 below
    its level's maximum: then it is subnormal and rounds.

    Levels share two reused buffers, so ``read`` sees a view that the next
    level overwrites: a reading that keeps the grid must copy it.
    """
    gx, gy = _step_lattice(s)
    scaled = [(i // gx, j // gy) for i, j in s.steps]
    _check_budget(scaled, n_max, cell_budget)
    nxm = max((-i for i, _ in scaled if i < 0), default=0)
    nym = max((-j for _, j in scaled if j < 0), default=0)
    rates = []  # (a, b, up, dn) per functional
    for a, b in _functionals(scaled):
        dots = [a * i + b * j for i, j in scaled]
        rates.append((a, b, max(0, max(dots)), max(0, -min(dots))))

    def window(n: int) -> tuple[int, int, tuple[tuple[int, int, int, int], ...]]:
        """Box (w, h) of level n and its destination rectangles (x0, x1, y0, y1)."""
        r = n_max - n
        lims = []
        for a, b, up, dn in rates:
            lim = n * up
            if isinstance(target, tuple):
                lim = min(lim, a * target[0] + b * target[1] + r * dn)
            lims.append((a, b, lim))
        w = min(lim // a for a, _, lim in lims if a) + 1

        def height(x: int) -> int:
            return min((lim - a * x) // b for a, b, lim in lims if b) + 1

        h = height(0)
        if target == "slabs":
            split = min((r + 1) * nxm, w)
            rest = min((r + 1) * nym, height(split)) if split < w else 0
            return w, h, ((0, split, 0, h), (split, w, 0, rest))
        edges = sorted({k * w // _BLOCKS for k in range(_BLOCKS + 1)})
        return w, h, tuple((x0, x1, 0, height(x0)) for x0, x1 in zip(edges, edges[1:]))

    windows = [window(n) for n in range(n_max + 1)]
    size = max(w * h for w, h, _ in windows)
    dtype = object if mode == "exact" else np.float64
    bufs = (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))

    def level_view(n: int) -> np.ndarray:
        w, h, _ = windows[n]
        view = bufs[n % 2][: w * h].reshape(w, h)
        view.fill(0)
        return view

    cur = level_view(0)
    cur[0, 0] = 1
    shift = 0
    readings = []
    for n in range(n_max + 1):
        if n > 0:
            w0, h0 = cur.shape
            nxt = level_view(n)
            for x0, x1, y0, y1 in windows[n][2]:
                first = True
                for si, sj in scaled:
                    # destination cells whose source lies in the previous level
                    a, b = max(x0, si), min(x1, w0 + si)
                    c, d = max(y0, sj), min(y1, h0 + sj)
                    if a < b and c < d:
                        if first:  # the block is still all zeros: 0 + v is v
                            nxt[a:b, c:d] = cur[a - si:b - si, c - sj:d - sj]
                            first = False
                        else:
                            nxt[a:b, c:d] += cur[a - si:b - si, c - sj:d - sj]
            if mode == "logfloat":
                k = frexp(nxt.max())[1]  # 0 for an all-zero level
                np.ldexp(nxt, -k, out=nxt)
                shift += k
            cur = nxt
        v = read(cur)
        if mode == "logfloat":
            mant, e = frexp(float(v))
            v = log(mant) + (e + shift) * log(2.0) if mant else float("-inf")
        readings.append(v)
    return readings


def count_excursions(
    s: StepSet,
    n_max: int,
    mode: str = "exact",
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Numbers e_0..e_{n_max} of quarter-plane walks from the origin back to it."""
    return count_endpoint(s, n_max, (0, 0), mode, cell_budget)


def count_endpoint(
    s: StepSet,
    n_max: int,
    target: tuple[int, int],
    mode: str = "exact",
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Numbers of quarter-plane walks from the origin to ``target``."""
    _validate_n_max(n_max)
    _validate_mode(mode)
    point = tuple(target) if isinstance(target, (tuple, list)) else ()
    if len(point) != 2 or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in point
    ):
        raise ValidationError(f"target must be a quadrant point, got {target!r}")
    gx, gy = _step_lattice(s)
    qi, ri = divmod(point[0], gx)
    qj, rj = divmod(point[1], gy)
    if ri or rj:
        # off the step lattice: no walk gets there, but the same inputs still abort
        _check_budget([(i // gx, j // gy) for i, j in s.steps], n_max, cell_budget)
        zero = 0 if mode == "exact" else float("-inf")
        return CountSequence(mode, (zero,) * (n_max + 1))

    def at_target(grid: np.ndarray):
        w, h = grid.shape
        return grid[qi, qj] if qi < w and qj < h else 0

    return CountSequence(mode, _sweep(s, n_max, mode, cell_budget, (qi, qj), at_target))


def count_walks_total(
    s: StepSet,
    n_max: int,
    mode: str = "exact",
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Numbers q_0..q_{n_max} of quarter-plane walks with free endpoint.

    Exact mode avoids a full-grid big-integer sum per level by the recurrence
    q_{n+1} = |S| * q_n - (walks that would step outside the quadrant), the
    loss being a sum over two boundary slabs per step.  Only the slabs are
    read, so the sweep updates only the cells that can still reach one: an
    L-shaped window that narrows toward the last level.  Log-float mode sums
    the whole reachable rectangle at every level.
    """
    _validate_n_max(n_max)
    _validate_mode(mode)
    if mode == "logfloat":
        return CountSequence(mode, _sweep(s, n_max, mode, cell_budget, None, np.sum))
    if n_max == 0:
        return CountSequence(mode, (1,))
    gx, gy = _step_lattice(s)
    slabs = [(-(i // gx), -(j // gy)) for i, j in s.steps]

    def slab_loss(grid: np.ndarray) -> int:
        loss = 0
        for bx, by in slabs:
            # x + i < 0  <=>  scaled index < -i/gx; then y-violations among the rest
            if bx > 0:
                loss += int(grid[:bx].sum())
            if by > 0:
                loss += int(grid[max(bx, 0):, :by].sum())
        return loss

    q = [1]
    for loss in _sweep(s, n_max - 1, mode, cell_budget, "slabs", slab_loss):
        q.append(len(s.steps) * q[-1] - loss)
    return CountSequence(mode, tuple(q))


def count_ballot_3d(
    m: BallotModel,
    rounds_max: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Exact counts of cone walks ending at (a*n, b*n, c*n), n = 0..rounds_max.

    Direct sparse dynamic program over the cone A*x >= B*y >= C*z >= 0; a walk
    reaching (a*N, b*N, c*N) never exceeds those coordinates because each
    coordinate is nondecreasing, which bounds the state space.
    """
    _validate_n_max(rounds_max)
    T = ballot_to_tandem(m)
    A, B, C = T.A, T.B, T.C
    xm, ym, zm = m.a * rounds_max, m.b * rounds_max, m.c * rounds_max
    _check_cone_budget(A, B, C, xm, ym, cell_budget)
    terms = [1]
    cur: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for t in range(1, m.period * rounds_max + 1):
        nxt: dict[tuple[int, int, int], int] = {}
        for (x, y, z), v in cur.items():
            for dx, dy, dz in BALLOT_STEPS:
                nx, ny, nz = x + dx, y + dy, z + dz
                if nx > xm or ny > ym or nz > zm:
                    continue
                if A * nx >= B * ny >= C * nz >= 0:
                    key = (nx, ny, nz)
                    nxt[key] = nxt.get(key, 0) + v
        cur = nxt
        n, rem = divmod(t, m.period)
        if rem == 0:
            terms.append(cur.get((m.a * n, m.b * n, m.c * n), 0))
    return CountSequence("exact", tuple(terms))


def _check_cone_budget(A: int, B: int, C: int, xm: int, ym: int, cell_budget: int) -> None:
    """Meter the cone sweep before it starts: it visits every lattice point of
    A*x >= B*y >= C*z >= 0 in the box [0, xm] x [0, ym] x [0, zm] once, at step
    x + y + z.  A*xm = B*ym = C*zm, so at height y there are
    xm - ceil(B*y/A) + 1 values of x and floor(B*y/C) + 1 values of z."""
    swept = 0
    for y in range(ym + 1):
        x_lo = -(-B * y // A)  # ceil(B*y/A)
        swept += (xm - x_lo + 1) * (B * y // C + 1)
        if swept > cell_budget:
            raise BudgetExceededError(f"cone sweep needs more cells than the budget of {cell_budget}")
