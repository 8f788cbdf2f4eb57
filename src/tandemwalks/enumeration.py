"""Exact and floating-point enumeration of quarter-plane and cone walks.

Counting takes the tandem steps R = (A,0), D = (-B,B), U = (0,-C) of a
coprime triple, in that order.  The workhorse is a dense level-by-level
dynamic program, in one of two coordinate systems chosen by what it reads.

- Pinned sweeps (excursions, endpoint counts, cone walks) and log-float
  totals run in ballot coordinates, the 3D cone's own: a walk with n1 R,
  n2 D and n3 U steps ends at (A*n1 - B*n2, B*n2 - C*n3), so at level n
  the cell (n1, n2) is one quadrant point, every cell of the quadrant cone
  is live, and the steps are the shifts (1,0), (0,1), (0,0).  The target
  is one ballot point (N1, N2, N3), at the last level whose step numbers
  are nonnegative integers, found by solving one linear congruence in n
  mod d, the index of the grid's lattice below.  The cells that can still
  reach it are those with n1 <= N1, n2 <= N2 and n3 <= N3: each level
  keeps a box of whole columns and zeroes the one cell per column just
  across each cone line after its update.  The boxes and the ends of those
  cuts are computed in closed form for all levels at once, before the
  sweep, so the level loop only slices, cuts and reads the cells of the
  target's walks, whose step numbers differ by multiples of the ballot
  triple.  Log-float totals take the target (n_max, n_max, n_max), which
  bounds no level up to n_max, so each level keeps the cone's whole
  cross-section and reads its sum.
- Exact totals run on the quadrant grid: every reachable x is a multiple
  of gx = gcd(A, B) and every y of gy = gcd(B, C), so the grid indexes
  those multiples, and a window cut out by linear bounds along the two
  axes and the normals of R - D and D - U holds the cells reachable in n
  steps.  Exact totals read only the two boundary slabs from which D or U
  leaves the quadrant, so they keep the corner of cells that can still
  reach both slabs, and fold the cells past it that can reach one into two
  1-D margins, a column sum and a row sum (`_slab_reader`).  The same
  corner holds every cell that can still return to the origin, so the
  grid excursions that the bijection check compares with the pinned ones
  run that plan too.  Exact totals stay on this grid, where the slabs are
  axis-aligned strips.  The cells reachable at level n form one coset of a
  lattice of index d = E/(gx*gy), E = AB + AC + BC: one residue of the row
  mod d for each residue of the column (`_grid`).  The row stride is
  picked so that the coset is one residue of the flat index mod d, and
  only that residue is updated (unless d exceeds the stride).

Each level is held in one of two flat buffers reused across levels, as a
frame of whole columns, all as tall as the sweep's row stride, with zeros
outside its box, so each step is one slice of the buffer: contiguous, or
of step d on the quadrant grid.  The first step that reaches a cell copies
its shifted source in and the later steps add theirs.  With object dtype
the arithmetic is exact big-integer arithmetic; float64 levels are scaled
by powers of two, which round nothing, and an integer shift keeps the true
magnitude, so a log-float term depends on the model and n alone (raw
floats would overflow beyond a few hundred steps).

The sweep runs the plan it is handed and returns one reading per level
from a callback on the level's box (the count at the target, the box sum,
or the walks that would leave the quadrant); in log-float mode it turns each
reading into a log itself, so no caller sees the scaling.

Each count meters its work once, before anything else, as the cells of the
full reachable (x, y) rectangles, whatever the coordinates and the window,
so a mistyped n_max fails fast instead of thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, gcd, log
from typing import Any, Callable

import numpy as np

from .errors import BudgetExceededError, ValidationError, check_integer, is_integer
from .models import BallotModel, StepSet, TandemModel, ballot_to_tandem
from .models import tandem_step_set, tandem_to_ballot

DEFAULT_CELL_BUDGET = 200_000_000

# log-float levels between two power-of-two rescalings: 3^32 < 2^51, so no
# level in between nears the float64 range
_RESCALE = 32


@dataclass(frozen=True)
class CountSequence:
    """Terms t_0..t_n of a counting sequence.

    ``values`` holds exact nonnegative integers in ``exact`` mode and
    natural logs as floats (``-inf`` for zero counts) in ``logfloat`` mode.
    """

    mode: str
    values: tuple

    def __post_init__(self) -> None:
        _validate_mode(self.mode)
        try:
            values = tuple(self.values)
        except TypeError:
            raise ValidationError(f"values must be a sequence, got {self.values!r}") from None
        exact = self.mode == "exact"
        for v in values:
            if not (is_integer(v) if exact else isinstance(v, float)):
                kind = "nonnegative integers" if exact else "floats"
                raise ValidationError(f"{self.mode} values must be {kind}, got {v!r}")
        object.__setattr__(self, "values", values)


def _validate_mode(mode: str) -> None:
    if mode not in ("exact", "logfloat"):
        raise ValidationError(f"mode must be 'exact' or 'logfloat', got {mode!r}")


def _tandem(s: StepSet) -> TandemModel:
    """The model whose steps ``s`` are, in the order R = (A,0), D = (-B,B), U = (0,-C)."""
    try:
        (A, _), (_, B), (_, C) = s.steps
        m = TandemModel(A, B, -C)
    except ValueError:  # not three steps, or no coprime positive triple
        m = None
    if m is None or s != tandem_step_set(m):
        raise ValidationError(f"counting takes tandem steps (A,0), (-B,B), (0,-C), got {s.steps!r}")
    return m


def _grid(m: TandemModel):
    """The quadrant grid of ``m``: (gx, gy, (a1, b1, b2, c2), d, t).

    Every reachable x is a multiple of gx = gcd(A, B) and every y of
    gy = gcd(B, C), so the cell (i, j) of the grid stands for the point
    (i*gx, j*gy), and in grid units the steps are R = (a1, 0),
    D = (-b1, b2) and U = (0, -c2), with a1 = A/gx, b1 = B/gx, b2 = B/gy
    and c2 = C/gy.

    A walk with n1 R, n2 D and n3 U steps, n = n1 + n2 + n3, ends at
    n*U + n1*(R - U) + n2*(D - U), and R - U = (a1, c2) and
    D - U = (-b1, b2 + c2) span a lattice of index d = a1*(b2 + c2) + b1*c2.
    So the cell (i, j) is n*U plus a lattice point exactly when
    d*n1 = (b2 + c2)*i + b1*(j + c2*n) and d*n2 = a1*(j + c2*n) - c2*i
    hold for integers n1 and n2.  d*Z^2 lies in the lattice, and
    gcd(a1, b1) = 1 puts a point (1, t) in it, so the lattice is the cells
    with j = t*i (mod d), and level n's cells lie in the d classes
    j = t*i - c2*n (mod d), one per residue of i.
    """
    A, B, C = m.A, m.B, m.C
    gx, gy = gcd(A, B), gcd(B, C)
    a1, b1, b2, c2 = A // gx, B // gx, B // gy, C // gy
    d = a1 * (b2 + c2) + b1 * c2
    u = pow(a1, -1, b1)  # (1, t) = u*(R - U) + (u*a1 - 1)/b1 * (D - U)
    t = (u * c2 + (u * a1 - 1) // b1 * (b2 + c2)) % d
    return gx, gy, (a1, b1, b2, c2), d, t


def _check_budget(m: TandemModel, n_max: int, cell_budget: int) -> None:
    """Meter the dense rectangles of levels 0..n_max against the budget: a
    step moves at most dxm = a1 columns right and dym = b2 rows up
    (`_grid`), so 1 + sum over k = 1..n of (k*dxm + 1)(k*dym + 1), in
    closed form."""
    _, _, (dxm, _, dym, _), _, _ = _grid(m)
    n = n_max
    swept = dxm * dym * n * (n + 1) * (2 * n + 1) // 6 + (dxm + dym) * n * (n + 1) // 2 + n + 1
    if swept > cell_budget:
        raise BudgetExceededError(
            f"level sweep needs {swept} cells, budget is {cell_budget}"
        )


def _sweep(
    plan: tuple,
    mode: str,
    read: Callable[[int, np.ndarray, tuple[int, int]], Any],
) -> list:
    """Readings ``read(n, grid, origin)`` of the occupancy levels n of walks
    started at the origin, where ``grid`` is level n's box and ``grid[i, j]``
    counts walks ending at the cell (i, j) + origin.  An exact reading is
    returned as it is; a log-float one (a number) as
    log(mant) + (e + shift) * ln 2, (mant, e) = frexp(reading), or -inf for
    zero.

    The ``plan`` (steps, levels, H, p, cut) comes from `_ballot_boxes` or
    `_quadrant_windows`, which describe its coordinates.  Each level is
    (ox, oy, w, h), the origin and shape of its box.  Every cell that the
    sweep keeps has all its predecessors in the previous level's kept
    cells, so a kept cell holds its true count and any other cell of the
    box a value between 0 and its true count.  Each cell adds the steps'
    sources in step order to 0 (0 + v == v for Python integers and for
    nonnegative float64), so every value and every rounding is the same as
    adding all steps, R, D, U in that order, to zeros.

    Level n is the first w*H cells of its buffer, with the row stride H: a
    (w, H) frame with the box in its first h rows and zeros everywhere
    else.  Each step is then one slice: frame cell k takes cell
    k - off of the previous frame, off = (si + px - ox)*H + r with the row
    shift r = sj + py - oy, for the step (si, sj) and the previous origin
    (px, py).  H is at least the tallest box plus every |r|, so a box
    cell's source row leaves its column only below row 0 (r > 0), and then
    wraps into a zero row above the previous box; with r < 0, only the
    guard rows H + r..H - 1, above every box, take sources that wrapped
    from the next column's lowest rows.  The slice takes every p-th cell:
    level n's cells lie in one residue of the flat index mod p, its phase,
    and every step's offset carries the previous level's phase to it.  The
    first step whose slice is nonempty assigns it and zeroes the rest of
    the frame, and a frame that no step reaches is zero-filled.  With p > 1
    the frame's other residues are zero already: once a level's successor
    is computed, the level zeroes its own phase, so the buffer that the
    next level reuses is all zeros.  After the update, the rows above the
    box that the previous box fed and the guard rows are zeroed again, and
    ``cut`` zeroes cells of the frame.

    Log-float levels are multiplied by 2^-k, k = frexp(max)[1], every
    ``_RESCALE`` levels, and k joins the integer shift.  The product is
    exact, so a kept cell holds its unpruned float64 sum times 2^-shift,
    whatever peak the slack cells set, unless it lies more than 2^1022 below
    its level's maximum: then it is subnormal and rounds.

    Levels share two reused buffers, so ``read`` sees a view that the next
    level overwrites: a reading that keeps the grid must copy it.
    """
    steps, levels, H, p, cut = plan
    size = max(w * H for _, _, w, _ in levels)
    dtype = object if mode == "exact" else np.float64
    bufs = (np.zeros(size, dtype=dtype), np.zeros(size, dtype=dtype))
    bufs[0][0] = 1  # level 0: the one walk of length 0
    top, bottom = max(sj for _, sj in steps), min(sj for _, sj in steps)
    shift = phase = 0
    readings = []
    for n, (ox, oy, w, h) in enumerate(levels):
        nxt = bufs[n % 2][: w * H]
        frame = nxt.reshape(w, H)
        if n:
            first = True
            for si, sj in steps:
                # the frame cells of the level's phase whose source lies in
                # the previous frame
                off = (si + px - ox) * H + sj + py - oy
                lo, hi = max(off, 0), min(nxt.size, cur.size + off)
                lo += (phase + off - lo) % p
                if lo < hi and first:  # the rest is zeroed: 0 + v is v
                    nxt[lo:hi:p] = cur[lo - off:hi - off:p]
                    nxt[:lo] = nxt[hi:] = 0
                    first = False
                elif lo < hi:
                    nxt[lo:hi:p] += cur[lo - off:hi - off:p]
            if first:  # no step reaches the frame
                nxt.fill(0)
            if p > 1:  # the previous level, on its phase, so its buffer is all zeros
                cur[phase::p] = 0
                phase = (phase + off) % p
            # the rows above the box that the previous box fed, and the guard
            # rows whose sources wrapped to the next column's lowest rows
            frame[:, h:h0 + top + py - oy] = 0
            frame[:, H + min(bottom + py - oy, 0):] = 0
        if cut is not None:
            cut(n, frame, ox, oy)
        if mode == "logfloat" and n % _RESCALE == 0 < n:
            k = frexp(nxt.max())[1]  # 0 for an all-zero level
            np.ldexp(nxt, -k, out=nxt)
            shift += k
        cur, px, py, h0 = nxt, ox, oy, h
        v = read(n, frame[:, :h], (ox, oy))
        if mode == "logfloat":
            mant, e = frexp(float(v))
            v = log(mant) + (e + shift) * log(2.0) if mant else float("-inf")
        readings.append(v)
    return readings


def _quadrant_windows(m: TandemModel, n_max: int):
    """Steps, levels 0..n_max, row stride, phase step and no cut of an
    exact totals sweep over the quadrant grid.

    A cell (i, j) of the grid (`_grid`) holds walks ending at
    (i * gx, j * gy), and its origin is always (0, 0).  In grid units the
    steps are R = (a1, 0), D = (-b1, b2) and U = (0, -c2).  Each functional
    phi = (a, b) among the two axes, (b2, a1 + b1) normal to R - D and
    (b2 + c2, b1) normal to D - U (R - U has no normal in the closed first
    quadrant) rises by at most up = max phi.s per step s, so a cell c holds
    walks after n steps only if phi.c <= n*up; a multiple of a functional
    scales its limits alike, so none is reduced.

    Of the boundary slabs i < b1 (D leaves) and j < c2 (U leaves), a cell
    can still reach the column slab in the remaining r = n_max - n steps
    only if i < Tx = (r+1)*b1, and the row slab only if j < Ty = (r+1)*c2.
    The level's box is the bounding box of the window cut to the corner
    i < Tx, j < Ty, which holds its true counts, as every cell's
    predecessors lie in the previous level's corner; the reader folds the
    cells past it (`_slab_reader`).

    The sweep runs on flat frames (`_sweep`).  A step whose row shift is at
    least the tallest box joins no two box cells, so it is left out, and
    the row stride H is the tallest box plus the largest row shift of the
    kept steps.  Level n's cells lie in the d classes j = t*i - c2*n
    (mod d) of `_grid`, so with H = -t (mod d) the cell (i, j) has the flat
    index i*H + j = -c2*n (mod d).  H is raised to that residue, by less
    than d, and the sweep takes phase step d: the offsets a1*H, -b1*H + b2
    and -c2 of R, D and U are all -c2 (mod d), as R - U and D - U lie in
    the lattice, so each carries level n's phase to level n + 1's.  When d exceeds H, the stride is left as it is and the phase
    step is 1, so a huge d costs nothing.
    """
    _, _, (a1, b1, b2, c2), d, t = _grid(m)
    steps = ((a1, 0), (-b1, b2), (0, -c2))
    ups = [
        (a, b, max(a * i + b * j for i, j in steps))
        for a, b in ((1, 0), (0, 1), (b2, a1 + b1), (b2 + c2, b1))
    ]

    def window(n: int):
        lims = [(a, b, n * up) for a, b, up in ups]
        w = min(lim // a for a, _, lim in lims if a) + 1
        h = min(lim // b for _, b, lim in lims if b) + 1
        # the corner of the cells that can still reach both slabs
        return 0, 0, min(w, (n_max - n + 1) * b1), min(h, (n_max - n + 1) * c2)

    levels = [window(n) for n in range(n_max + 1)]
    tall = max(h for *_, h in levels)
    steps = tuple((si, sj) for si, sj in steps if abs(sj) < tall)
    H = tall + max(abs(sj) for _, sj in steps)
    p = d if d <= H else 1
    return steps, levels, H + (-t - H) % p, p, None


def _shift_add(size: int, *parts: tuple[int, np.ndarray]) -> np.ndarray:
    """An object array of ``size`` zeros plus each vector v of ``parts``
    shifted by s: out[i] += v[i - s], for the i whose source lies in v."""
    out = np.zeros(size, dtype=object)
    for s, v in parts:
        lo, hi = max(s, 0), min(size, len(v) + s)
        if lo < hi:
            out[lo:hi] += v[lo - s:hi - s]
    return out


def _slab_reader(m: TandemModel, levels: list):
    """The reader of an exact totals sweep over ``levels``, from
    `_quadrant_windows`, and the list [colm, rowm] of the margins it keeps
    for the level it reads next.

    The reading is the level's loss, the sum of its cells in the slabs
    i < b1 and j < c2.  Level n of a sweep to n_max keeps only its corner
    i < Tx = (r+1)*b1, j < Ty = (r+1)*c2, r = n_max - n: within r steps a
    cell with j >= Ty never meets the row slab and U never leaves the
    quadrant from it, so its row no longer matters, and likewise its column
    once i >= Tx.  Those cells are folded into two margins, as long as the
    corner's box: colm[i] = sum over j >= Ty of the count at (i, j), and
    rowm[j] = sum over i >= Tx (cells past both bounds reach no slab).
    colm moves by R, D and U as the 1-D shifts +a1, -b1 and 0, rowm by 0,
    +b2 and -c2, and each also takes the corner cells that a step carries
    past the next level's Ty or Tx.  Then each is cut to the next corner.
    """
    _, _, (a1, b1, b2, c2), _, _ = _grid(m)
    last = len(levels) - 1
    margins = [np.zeros(1, dtype=object)] * 2  # level 0's box is its one cell

    def read(n: int, grid: np.ndarray, origin: tuple[int, int]) -> int:
        colm, rowm = margins
        loss = sum(int(v.sum()) for v in (grid[:b1], grid[:, :c2], colm[:b1], rowm[:c2]))
        if n < last:
            tx, ty = (last - n) * b1, (last - n) * c2  # the next corner
            _, _, w, h, *_ = levels[n + 1]
            # colm is zero while the next window ends below Ty, as its box
            # does, and rowm while it ends left of Tx
            margins[:] = (
                _shift_add(w, (a1, colm + grid[:, ty:].sum(axis=1)),
                           (-b1, colm + grid[:, max(ty - b2, 0):].sum(axis=1)), (0, colm))
                if h == ty else np.zeros(w, dtype=object),
                _shift_add(h, (0, rowm + grid[max(tx - a1, 0):].sum(axis=0)), (b2, rowm),
                           (-c2, rowm + grid[tx:].sum(axis=0)))
                if w == tx else np.zeros(h, dtype=object),
            )
        return loss

    return read, margins


def _ballot_boxes(m: TandemModel, target: tuple[int, int, int], n_last: int):
    """Steps, levels 0..n_last, row stride, phase step 1 and cut of a
    sweep toward the ballot point ``target`` = (N1, N2, N3).

    A pinned count ends at the target's level, n_last = N1 + N2 + N3.
    Log-float totals take N1 = N2 = N3 = n_last, which bounds no level up
    to n_last, so each of their levels keeps the cone's whole cross-section.

    A walk with n1 R, n2 D and n3 U steps ends at (A*n1 - B*n2, B*n2 - C*n3),
    so at level n = n1 + n2 + n3 the cell (n1, n2) is one point of the
    quadrant, and the steps are the shifts (1, 0), (0, 1) and (0, 0).  The
    quadrant is the cone A*n1 >= B*n2, (B+C)*n2 >= C*(n - n1), whose every
    lattice point is reachable, and the cells that can still reach the
    target are those with n1 <= N1, n2 <= N2 and n3 <= N3.  So column n1
    keeps the rows lo(n1) <= n2 <= hi(n1) with

        lo = max(ceil(C*(n - n1)/(B+C)), n - n1 - N3, 0),
        hi = min(floor(A*n1/B), n - n1, N2).

    The lower bounds fall as n1 grows, and each upper bound but n - n1
    rises or stays, so the columns where lo <= hi run from one column c0 to
    min(n, N1).  c0 is the largest of three closed-form columns (where
    n - n1 - N3 <= hi and ceil(C*(n - n1)/(B+C)) <= N2 begin to hold) and
    of the first column k that the cone meets, where
    ceil(C*(n - k)/(B+C)) <= floor(A*k/B).  That test is monotone in k; it
    fails below B*C*n/E, E = AB + AC + BC, and holds once the rows between
    the two lines span B*(B+C)/E or more, so one bisection over that range
    finds the column for every level at once.  The box is those columns
    times the rows from lo(min(n, N1)) to the largest hi, which lies where
    floor(A*n1/B) and n - n1 cross.  Within the box only the one cell per
    column just across each cone line can become nonzero (a cell further
    out has every source out too), and ``cut`` zeroes both after each
    update; cells with n3 < 0 have only such sources and stay zero.

    Every box and both ends of each cut are computed here for all levels at
    once, on object arrays of Python integers, so they are exact for any
    triple; the level loop only slices and cuts.  Each level is its box
    (c0, r0, w, h).  The row origin r0 rises by 0 or 1 from one level to the
    next, as each of its bounds does, so one row more than the tallest box
    of levels 0..n_last is a row stride that `_sweep` can update every
    level with.  The arrays are dropped as soon as they are consumed.
    """
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    N1, N2, N3 = target
    n = np.arange(n_last + 1, dtype=object)
    # bisection for the first column that the cone meets; it meets the
    # column end, so a settled level (lo == end) keeps its column
    lo, end = -(-B * C * n // E), -(-(B * C * n + B * (B + C)) // E)
    while (lo < end).any():
        mid = (lo + end) // 2
        meets = -(-C * (n - mid) // (B + C)) <= A * mid // B
        lo, end = np.where(meets, lo, mid + 1), np.where(meets, mid, end)
    c0 = np.maximum.reduce([lo, n - N2 - N3, n - (B + C) * N2 // C, -(-B * (n - N3) // (A + B))])
    del lo, end, mid, meets  # level 0 starts unsettled, so the loop ran
    c1 = np.minimum(n, N1) + 1
    r0 = np.maximum(np.maximum(-(-C * (n - c1 + 1) // (B + C)), n - c1 + 1 - N3), 0)
    top = -(-B * (n + 1) // (A + B)) - 1  # the last column with A*k // B <= n - k
    tops = (np.minimum(np.maximum(k, c0), c1 - 1) for k in (top, top + 1))
    r1 = np.maximum.reduce([np.minimum(np.minimum(A * k // B, n - k), N2) for k in tops]) + 1
    del top
    # the row just across each cone line: above A*n1 >= B*n2 by column, and
    # below (B+C)*n2 >= C*(n - n1) by d = n - n1; each line's cells lie in
    # the box for a first run of its columns, as the row above rises with
    # n1 and the row below falls, up to the column where the line leaves it
    above = (np.minimum(n[: N1 + 1] * A // B, N2) + 1).astype(np.intp)
    below = (-(-C * n // (B + C)) - 1).astype(np.intp)
    ends_above = np.maximum(c0, np.minimum(c1, -(-B * (r1 - 1) // A))).tolist()
    ends_below = np.maximum(c0, np.minimum(c1, n - r0 * (B + C) // C)).tolist()
    del n
    cols = np.arange(N1 + 1)

    def cut(n: int, frame: np.ndarray, c0: int, r0: int) -> None:
        k = ends_above[n]
        frame[cols[: k - c0], above[c0:k] - r0] = 0
        k = ends_below[n]
        frame[cols[: k - c0], below[n - k + 1:n - c0 + 1][::-1] - r0] = 0

    levels = list(zip(c0.tolist(), r0.tolist(), (c1 - c0).tolist(), (r1 - r0).tolist()))
    return ((1, 0), (0, 1), (0, 0)), levels, max(h for *_, h in levels) + 1, 1, cut


def _last_ballot_point(m: TandemModel, target: tuple[int, int], n_max: int):
    """The numbers (N1, N2, N3) of R, D and U steps of a walk ending at
    ``target`` at the last level n <= n_max where they are nonnegative
    integers, or None if there is no such level.

    Every endpoint lies on the quadrant grid (`_grid`), so there is none
    unless gx divides x and gy divides y.  A walk of length n then ends at
    the cell (i, j) = (x/gx, y/gy) with d*n1 = (b2 + c2)*i + b1*(j + c2*n)
    and d*n2 = a1*(j + c2*n) - c2*i, which are multiples of d exactly when
    n solves the one linear congruence c2*n = t*i - j (mod d).  With
    g = gcd(c2, d) it has solutions only if g divides t*i - j, and then
    they are one residue mod d/g, from one modular inverse; the largest
    n <= n_max is taken.  Below it the solutions step down by the period,
    and the step numbers by the ballot triple, so a number negative at n is
    negative at every lower level too.
    """
    gx, gy, (a1, b1, b2, c2), d, t = _grid(m)
    x, y = target
    if x % gx or y % gy:
        return None
    i, j = x // gx, y // gy
    g = gcd(c2, d)
    if (t * i - j) % g:
        return None
    q = d // g
    s = (t * i - j) // g * pow(c2 // g, -1, q)  # the levels are n = s (mod q)
    n = n_max - (n_max - s) % q
    n1 = ((b2 + c2) * i + b1 * (j + c2 * n)) // d
    n2 = (a1 * (j + c2 * n) - c2 * i) // d
    N = (n1, n2, n - n1 - n2)
    return N if min(N) >= 0 else None


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
    """Numbers of quarter-plane walks from the origin to ``target``.

    The sweep is pinned to the target's ballot point at the last level
    n <= n_max that has one, solved for in closed form from one linear
    congruence in n mod d (`_last_ballot_point`); with none, every term is
    zero.  The budget is checked before that level is found.  The integer
    step numbers of walks with one endpoint differ by multiples of the
    ballot triple (a, b, c), so the walks that end at the target are those
    at level N1 + N2 + N3 - k*(a + b + c) with the step numbers
    (N1, N2, N3) - k*(a, b, c), for each k that leaves all three
    nonnegative; the reading only indexes those cells.
    """
    check_integer("n_max", n_max)
    check_integer("cell_budget", cell_budget)
    _validate_mode(mode)
    point = tuple(target) if isinstance(target, (tuple, list)) else ()
    if len(point) != 2 or not all(is_integer(v) for v in point):
        raise ValidationError(f"target must be a quadrant point, got {target!r}")
    m = _tandem(s)
    # before the target's level is solved for, and also when no walk gets there
    _check_budget(m, n_max, cell_budget)
    zero = 0 if mode == "exact" else float("-inf")
    N = _last_ballot_point(m, point, n_max)
    if N is None:
        return CountSequence(mode, (zero,) * (n_max + 1))
    ballot = tandem_to_ballot(m)
    n_last = sum(N)
    cells = {
        n_last - k * ballot.period: (N[0] - k * ballot.a, N[1] - k * ballot.b)
        for k in range(min(N[0] // ballot.a, N[1] // ballot.b, N[2] // ballot.c) + 1)
    }

    def at_target(n: int, grid: np.ndarray, origin: tuple[int, int]):
        cell = cells.get(n)
        return grid[cell[0] - origin[0], cell[1] - origin[1]] if cell else 0

    values = _sweep(_ballot_boxes(m, N, n_last), mode, at_target)
    return CountSequence(mode, tuple(values) + (zero,) * (n_max - n_last))


def count_walks_total(
    s: StepSet,
    n_max: int,
    mode: str = "exact",
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Numbers q_0..q_{n_max} of quarter-plane walks with free endpoint.

    Exact mode avoids a full-grid big-integer sum per level by the recurrence
    q_{n+1} = 3 * q_n - (walks that would step outside the quadrant): D
    leaves it from the columns x < B and U from the rows y < C, so the loss
    is the sum over those two boundary slabs.  Only the slabs are read, so
    the sweep updates only the corner of cells that can still reach both,
    which shrinks toward the last level.  It runs on flat frames whose row
    stride puts the cells that walks can reach at one residue of the flat
    index mod d, and each step updates only that residue, one slice of step
    d (`_quadrant_windows`).  The reader keeps the cells past the corner
    that can still reach one slab as two 1-D margins, their column sums and
    their row sums, and adds their part of each slab to the loss
    (`_slab_reader`).  Log-float mode sweeps in ballot coordinates, where
    every cell of the cone is reachable, and sums each level's cross-section
    of the cone (`_ballot_boxes`).
    """
    check_integer("n_max", n_max)
    check_integer("cell_budget", cell_budget)
    _validate_mode(mode)
    m = _tandem(s)
    exact = mode == "exact"
    # exact totals sweep levels 0..n_max-1, and level 0 alone at n_max = 0
    _check_budget(m, n_max - 1 if exact and n_max else n_max, cell_budget)
    if not exact:
        plan = _ballot_boxes(m, (n_max,) * 3, n_max)
        return CountSequence(mode, _sweep(plan, mode, lambda n, grid, origin: np.sum(grid)))
    if n_max == 0:
        return CountSequence(mode, (1,))
    plan = _quadrant_windows(m, n_max - 1)
    read, _ = _slab_reader(m, plan[1])
    q = [1]
    for loss in _sweep(plan, mode, read):
        q.append(3 * q[-1] - loss)
    return CountSequence(mode, tuple(q))


def count_grid_excursions(s: StepSet, n_max: int) -> CountSequence:
    """Exact numbers e_0..e_{n_max} of `count_excursions`, swept on the
    (x, y) quadrant grid instead of in ballot coordinates.

    The sweep runs the exact-totals plan of `_quadrant_windows` and reads the
    origin's cell at each level.  That plan keeps at level n the corner
    i < (r+1)*b1, j < (r+1)*c2, r = n_max - n, which holds every cell that
    can still return to the origin: a return needs at most r D steps of b1
    columns and at most r U steps of c2 rows, and the corner holds its true
    counts.  As for exact totals, each step updates one slice of step d of
    a flat frame, the residue that holds the cells walks can reach.
    """
    check_integer("n_max", n_max)
    m = _tandem(s)
    _check_budget(m, n_max, DEFAULT_CELL_BUDGET)
    plan = _quadrant_windows(m, n_max)
    return CountSequence("exact", _sweep(plan, "exact", lambda n, grid, origin: grid[0, 0]))


def count_ballot_3d(
    m: BallotModel,
    rounds_max: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CountSequence:
    """Exact counts of cone walks ending at (a*n, b*n, c*n), n = 0..rounds_max.

    A cone walk with x X, y Y and z Z steps is a walk of the tandem model
    with x R, y D and z U steps, and it stays in the cone
    A*x >= B*y >= C*z >= 0 exactly when that walk stays in the quadrant.
    Ballot coordinates are the cone's own, so the counts are the excursions
    of length p*n of the pinned sweep, metered like every count.
    """
    check_integer("rounds_max", rounds_max)
    s = tandem_step_set(ballot_to_tandem(m))
    e = count_excursions(s, m.period * rounds_max, "exact", cell_budget)
    return CountSequence("exact", e.values[:: m.period])
