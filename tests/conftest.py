"""Shared test data, helpers, and the oracles the library is checked against."""

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache
from itertools import product
from math import exp, frexp, gcd, hypot, log, sqrt

import numpy as np

from tandemwalks import (
    RATIONAL_ALPHA,
    BudgetExceededError,
    TandemModel,
    ValidationError,
    ballot_to_tandem,
    searched_grid,
    tandem_step_set,
    tandem_to_ballot,
)
from tandemwalks import enumeration, fit, guess


def coprime_triples(bound):
    """All (A, B, C) with 1 <= A,B,C <= bound and gcd 1, lexicographic."""
    for triple in product(range(1, bound + 1), repeat=3):
        if gcd(*triple) == 1:
            yield triple


def ballot_point_at(m, target, n):
    """The numbers (n1, n2, n3) of R, D and U steps of a walk of length n
    ending at ``target``, or None if they are not all nonnegative integers."""
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    x, y = target
    n1, r1 = divmod((B + C) * x + B * (y + C * n), E)
    n2, r2 = divmod(A * (y + C * n) - C * x, E)
    if r1 == r2 == 0 and min(n1, n2, n - n1 - n2) >= 0:
        return n1, n2, n - n1 - n2
    return None


def last_ballot_point_by_scan(m, target, n_max):
    """`ballot_point_at` at the last level <= n_max where it is not None, or
    None: the levels with integer step numbers differ by the period, so the
    scan looks one period down from n_max at most."""
    levels = range(n_max, max(n_max - m.period, -1), -1)
    return next(filter(None, (ballot_point_at(m, target, n) for n in levels)), None)


def ballot_level(m, N, n):
    """Level n of a sweep pinned to the ballot point N, one level at a time:
    ((c0, r0, w, h), (end_above, end_below)), its box and the columns where
    its two cuts end, by the formulas that `_ballot_boxes` evaluates for all
    levels at once.  The first column that the cone meets is bisected for
    on Python integers; `bisect.bisect_left` over a range cannot do it for
    large steps, as a range longer than 2**63 has no length."""
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    N1, N2, N3 = N
    lo, end = -(-B * C * n // E), -(-(B * C * n + B * (B + C)) // E)
    while lo < end:
        mid = (lo + end) // 2
        if -(-C * (n - mid) // (B + C)) <= A * mid // B:
            end = mid
        else:
            lo = mid + 1
    c0 = max(lo, n - N2 - N3, n - (B + C) * N2 // C, -(-B * (n - N3) // (A + B)))
    c1 = min(n, N1) + 1
    r0 = max(-(-C * (n - c1 + 1) // (B + C)), n - c1 + 1 - N3, 0)
    top = -(-B * (n + 1) // (A + B)) - 1  # the last column with A*k // B <= n - k
    r1 = max(min(A * k // B, n - k, N2) for k in (min(max(t, c0), c1 - 1) for t in (top, top + 1)))
    r1 += 1
    ends = (
        max(c0, min(c1, -(-B * (r1 - 1) // A))),
        max(c0, min(c1, n - r0 * (B + C) // C)),
    )
    return (c0, r0, c1 - c0, r1 - r0), ends


def pinned_views_sweep(plan, mode, read):
    """`enumeration._sweep` run on a pinned plan (steps, levels, stride, 1, cut)
    as it ran before pinned levels had a row stride: level n is a
    zero-filled (w, h) box, and each step updates one view of it, the cells
    whose source lies in the previous box; the first step whose view is
    nonempty assigns its source and the later ones add theirs.  The cut,
    the rescaling and the readings are `_sweep`'s."""
    steps, levels, _, _, cut = plan
    dtype = object if mode == "exact" else np.float64
    cur = np.ones((1, 1), dtype=dtype)
    shift, readings = 0, []
    for n, (ox, oy, w, h) in enumerate(levels):
        if n > 0:
            w0, h0 = cur.shape
            nxt = np.zeros((w, h), dtype=dtype)
            first = True
            for si, sj in steps:
                a, b = max(ox, px + si), min(ox + w, px + w0 + si)
                c, e = max(oy, py + sj), min(oy + h, py + h0 + sj)
                if a < b and c < e:
                    src = cur[a - si - px:b - si - px, c - sj - py:e - sj - py]
                    if first:
                        nxt[a - ox:b - ox, c - oy:e - oy] = src
                        first = False
                    else:
                        nxt[a - ox:b - ox, c - oy:e - oy] += src
            cut(n, nxt, ox, oy)
            if mode == "logfloat" and n % enumeration._RESCALE == 0:
                k = frexp(nxt.max())[1]
                np.ldexp(nxt, -k, out=nxt)
                shift += k
            cur = nxt
        px, py = ox, oy
        v = read(n, cur, (ox, oy))
        if mode == "logfloat":
            mant, e = frexp(float(v))
            v = log(mant) + (e + shift) * log(2.0) if mant else float("-inf")
        readings.append(v)
    return readings


def occupancy(grid, gx, gy):
    """Nonzero cells of a level grid, keyed by uncompressed coordinates."""
    return {
        (i * gx, j * gy): v
        for (i, j), v in np.ndenumerate(grid)
        if v
    }


def has_nonnegative_step(s):
    """True when some step points into the closed first quadrant."""
    return any(i >= 0 and j >= 0 for i, j in s.steps)


def reachable_from_infinity(s, depth_bound):
    """A strictly positive quadrant point with a walk to the origin, or None.

    Breadth-first search backwards from the origin through reversed steps,
    restricted to the quadrant; ties within a depth are broken by
    lexicographic point order, so the result is deterministic.  Returns
    (start, path) with path the steps from start to the origin.
    """
    visited = {(0, 0)}
    frontier = [(0, 0)]
    parent = {}
    for _ in range(depth_bound):
        discovered = []
        for x, y in frontier:
            for i, j in s.steps:
                q = (x - i, y - j)
                if q[0] >= 0 and q[1] >= 0 and q not in visited:
                    visited.add(q)
                    parent[q] = ((x, y), (i, j))
                    discovered.append(q)
        positives = sorted(q for q in discovered if q[0] > 0 and q[1] > 0)
        if positives:
            start = positives[0]
            path = []
            cur = start
            while cur != (0, 0):
                cur, step = parent[cur]
                path.append(step)
            return start, tuple(path)
        if not discovered:
            return None
        frontier = sorted(discovered)
    return None


def empirical_period(e):
    """gcd of the indices n >= 1 with a nonzero term."""
    zero = 0 if e.mode == "exact" else float("-inf")
    support = [n for n in range(1, len(e.values)) if e.values[n] != zero]
    if not support:
        raise ValidationError("period undefined: every term with n >= 1 is zero")
    return gcd(*support)


def generate_quadrant_walks(m, length, node_budget=10_000_000):
    """Every quadrant walk of the given length, depth-first in R < D < U."""
    return _generate_walks2(m, length, False, node_budget)


def generate_excursions(m, length, node_budget=10_000_000):
    """Every excursion of the given length, depth-first in R < D < U."""
    return _generate_walks2(m, length, True, node_budget)


def _generate_walks2(m, length, excursions_only, node_budget):
    out = []
    nodes = 0
    displacements = list(zip("RDU", tandem_step_set(m).steps))

    def rec(x, y, remaining, word):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"search exceeded the node budget of {node_budget}")
        if remaining == 0:
            if not excursions_only or (x == 0 and y == 0):
                out.append(Walk2(m, "".join(word)))
            return
        for letter, (dx, dy) in displacements:
            nx, ny = x + dx, y + dy
            if nx < 0 or ny < 0:
                continue
            # an excursion must still be able to drain both coordinates
            if excursions_only and (nx > (remaining - 1) * m.B or ny > (remaining - 1) * m.C):
                continue
            word.append(letter)
            rec(nx, ny, remaining - 1, word)
            word.pop()

    rec(0, 0, length, [])
    return out


def residue_rows(residues, powers, r, d):
    """The (r, d) system mod p: one row per n < len(residues) - r, columns in
    `guess._integer_rows` order."""
    n_rows = len(residues) - r
    shifted = np.lib.stride_tricks.sliding_window_view(residues, r + 1)
    return (shifted[:, :, None] * powers[:n_rows, None, :d + 1] % guess._FILTER_PRIME
            ).reshape(n_rows, -1)


def full_rank_mod_p(mat):
    """Full column rank mod p, which proves it over Q: elimination in place
    that returns False at the first column without a pivot, at column nrows
    of a wide matrix at the latest.  The per-cell filter that the per-order
    pivots of `guess._pivot_rows` must agree with."""
    p = guess._FILTER_PRIME
    for c in range(mat.shape[1]):
        nz = np.nonzero(mat[c:, c])[0]
        if nz.size == 0:
            return False
        piv = c + int(nz[0])
        if piv != c:
            mat[[c, piv]] = mat[[piv, c]]
        inv = pow(int(mat[c, c]), p - 2, p)
        mat[c, c:] = (mat[c, c:] * inv) % p
        nzr = np.nonzero(mat[c + 1:, c])[0]
        if nzr.size:
            idx = c + 1 + nzr
            # entries < p < 2^31, so every product fits in int64
            mat[idx, c:] = (mat[idx, c:] - np.outer(mat[idx, c], mat[c, c:])) % p
    return True


def maybe_singular(rows):
    """The big-integer cell filter: False only when full column rank is
    certain (full rank mod the prime), each entry reduced on its own."""
    p = guess._FILTER_PRIME
    mat = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    return not full_rank_mod_p(mat)


def reference_guess(terms, max_order, max_degree):
    """guess_recurrence as a per-cell search: every cell's rows are built as
    big integers and filtered on their own, with no grid certificate, and
    solved on all of them."""
    seq = guess._cleared(terms)
    for r, d in searched_grid(max_order, max_degree):
        rows = guess._integer_rows(seq, r, d, range(len(seq) - r))
        if not maybe_singular(rows):
            continue
        vec = guess._kernel_vector(rows, (r + 1) * (d + 1))
        if vec is None:
            continue
        rec = guess._normalize(vec, r, d)
        if guess.verify_recurrence(rec, seq):
            return rec
    return None


def swapped(m):
    """The reversal partner (C, B, A) of a tandem model."""
    return TandemModel(m.C, m.B, m.A)


def not_in_half_plane(s):
    """True when no closed half-plane through the origin contains every step.

    Exact integer test: if a direction u with u . s >= 0 for all steps s
    exists, the cone of such u is closed and its boundary is attained at a
    direction perpendicular to one of the steps, so checking the 2*|S|
    candidate perpendiculars (plus each step's own direction, which covers
    the case |S| = 1 or all steps parallel) decides containment.  A zero
    step lies in every half-plane, so only nonzero steps anchor candidates.
    """
    nonzero = [step for step in s.steps if step != (0, 0)]
    if not nonzero:
        return False
    candidates = []
    for i, j in nonzero:
        candidates.extend([(-j, i), (j, -i), (i, j)])
    for u in candidates:
        if all(u[0] * i + u[1] * j >= 0 for i, j in s.steps):
            return False
    return True


# The generic route to the critical data, for any step set: the oracle the
# closed forms of tandemwalks.exponent are checked against.
GRAD_TOL = 1e-12
MAX_NEWTON_ITER = 200


def step_polynomial(s, x, y):
    return sum(x**i * y**j for i, j in s.steps)


def _log_moments(s, u, v):
    """Sum of w = exp(i*u + j*v) over the steps, with its gradient and Hessian in (u, v).

    Returns (f, f_u, f_v, f_uu, f_uv, f_vv, scale), where scale is the norm
    of (sum |i|*w, sum |j|*w), the size of the terms the gradient cancels.
    """
    f = gu = gv = huu = huv = hvv = su = sv = 0.0
    for i, j in s.steps:
        w = exp(i * u + j * v)
        f += w
        gu += i * w
        gv += j * w
        huu += i * i * w
        huv += i * j * w
        hvv += j * j * w
        su += abs(i) * w
        sv += abs(j) * w
    return f, gu, gv, huu, huv, hvv, hypot(su, sv)


def solve_critical_point(s, grad_tol=GRAD_TOL, max_iter=MAX_NEWTON_ITER):
    """Positive critical point of the step polynomial, by damped Newton.

    In the coordinates u = log x, v = log y the objective
    f(u, v) = sum exp(i*u + j*v) is strictly convex whenever the steps are
    not confined to a half-plane, so Newton with step-halving from (0, 0)
    converges to the unique minimum.

    The stopping test is relative: the gradient norm must fall to
    ``grad_tol`` times the norm of (sum |i|*w, sum |j|*w), the size of the
    terms it cancels, w = exp(i*u + j*v).  Rounding alone leaves a gradient
    of about one ulp of that size, which for steps of 10^6 lies far above any
    fixed absolute tolerance.  Raises RuntimeError after ``max_iter`` steps.
    """
    if not not_in_half_plane(s):
        raise ValidationError("step set is contained in a half-plane; no critical point")

    u = v = 0.0
    f, gu, gv, huu, huv, hvv, scale = _log_moments(s, u, v)
    for _ in range(max_iter):
        if hypot(gu, gv) <= grad_tol * scale:
            return exp(u), exp(v)
        det = huu * hvv - huv * huv
        du = -(hvv * gu - huv * gv) / det
        dv = -(huu * gv - huv * gu) / det
        if abs(du) + abs(dv) <= 1e-8:
            # deep in the quadratic basin the decrease per step falls below
            # one ulp of f, so monotone line search would freeze; the
            # undamped Newton step is safe here and converges quadratically
            u, v = u + du, v + dv
            f, gu, gv, huu, huv, hvv, scale = _log_moments(s, u, v)
            continue
        t = 1.0
        while True:
            cand = _log_moments(s, u + t * du, v + t * dv)
            if cand[0] <= f or t <= 1e-18:
                break
            t /= 2
        u, v = u + t * du, v + t * dv
        f, gu, gv, huu, huv, hvv, scale = cand
    raise RuntimeError(
        f"Newton did not reach relative gradient norm {grad_tol} in {max_iter} iterations"
    )


def gamma_general(s, u, v):
    """gamma = S_xy / sqrt(S_xx * S_yy) at the point x = exp(u), y = exp(v).

    With w = x^i y^j, x^2 S_xx = sum i(i-1) w, xy S_xy = sum ij w and
    y^2 S_yy = sum j(j-1) w, so the powers of x and y cancel.  Taking the
    point in logs keeps each exponent i*u + j*v as exact as u and v are;
    a step component near 10^6 would multiply the rounding of a float x.
    """
    _, gu, gv, huu, huv, hvv, _ = _log_moments(s, u, v)
    sxx, syy = huu - gu, hvv - gv
    if sxx <= 0.0 or syy <= 0.0:
        raise ValidationError("degenerate Hessian: S_xx and S_yy must be positive")
    return huv / sqrt(sxx * syy)


# Three infinite parametric families, one per rational-exponent class, named
# in the order of RATIONAL_ALPHA:
#
#     quarter        (A, (A-1)A, (A-1)(3A-4))    for odd A > 1,
#     half           (A, (A-1)A, (A-1)(A-2))     for odd A > 1,
#     three_quarter  (A, (A-1)A, (A-1)(A-4)/3)   for A = 6k+1, k > 0.
FAMILIES = dict(zip(("quarter", "half", "three_quarter"), RATIONAL_ALPHA))


def family(kind, A):
    """The family member with first parameter A; raises outside the domain."""
    if kind not in FAMILIES:
        raise ValidationError(f"unknown family {kind!r}, expected one of {sorted(FAMILIES)}")
    if not isinstance(A, int) or isinstance(A, bool):
        raise ValidationError(f"A must be an integer, got {A!r}")
    if kind in ("quarter", "half"):
        if A <= 1 or A % 2 == 0:
            raise ValidationError(f"{kind} family requires odd A > 1, got A = {A}")
        C = (A - 1) * (3 * A - 4) if kind == "quarter" else (A - 1) * (A - 2)
    else:
        if A <= 1 or A % 6 != 1:
            raise ValidationError(f"three_quarter family requires A = 6k+1 with k > 0, got A = {A}")
        C = (A - 1) * (A - 4) // 3  # 18k(2k-1) / 3 for A = 6k+1
    model = TandemModel(A, (A - 1) * A, C)
    # the defining equality, re-checked exactly
    r = FAMILIES[kind]
    if model.B**2 * r.denominator != (model.A + model.B) * (model.B + model.C) * r.numerator:
        raise ValidationError(f"family member {model} misses gamma^2 = {r}")
    return model


# unit steps x+1, y+1, z+1 of the 3D ballot walk, in fixed order
BALLOT_STEPS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def cone_walks_3d(m, rounds_max):
    """Numbers of cone walks from the origin to (a*n, b*n, c*n), n = 0..rounds_max,
    by a dictionary over the points of the 3D cone A*x >= B*y >= C*z >= 0,
    one step at a time: the oracle of `count_ballot_3d` and
    `count_grid_excursions`, with no plan, no pruning and no kernel.  A walk
    to (a*N, b*N, c*N) never exceeds those coordinates, as each is
    nondecreasing, which bounds the state space."""
    T = ballot_to_tandem(m)
    A, B, C = T.A, T.B, T.C
    xm, ym, zm = m.a * rounds_max, m.b * rounds_max, m.c * rounds_max
    terms = [1]
    cur = {(0, 0, 0): 1}
    for t in range(1, m.period * rounds_max + 1):
        nxt = {}
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
    return tuple(terms)


# Walks one object at a time: the oracle of the array walk-level check in
# tandemwalks.bijection, the inverse map, the projection behind it, and the
# reversal symmetry.
_3TO2 = str.maketrans("XYZ", "RDU")
_2TO3 = str.maketrans("RDU", "XYZ")
_UNIT_STEPS = dict(zip("XYZ", BALLOT_STEPS))


@cache
def _displacements(m):
    """The letters R, D, U mapped to the tandem model's steps."""
    return dict(zip("RDU", tandem_step_set(m).steps))


@dataclass(frozen=True)
class Walk3:
    """A cone walk: a word over X, Y, Z whose every prefix stays in the cone."""

    model: object
    steps: str

    def __post_init__(self):
        T = ballot_to_tandem(self.model)
        x = y = z = 0
        for k, letter in enumerate(self.steps):
            if letter not in _UNIT_STEPS:
                raise ValidationError(f"step {k} is {letter!r}, expected one of X, Y, Z")
            dx, dy, dz = _UNIT_STEPS[letter]
            x, y, z = x + dx, y + dy, z + dz
            if not (T.A * x >= T.B * y >= T.C * z >= 0):
                raise ValidationError(
                    f"prefix of length {k + 1} leaves the cone at ({x}, {y}, {z})"
                )


@dataclass(frozen=True)
class Walk2:
    """A quadrant walk: a word over R, D, U whose every prefix stays in x, y >= 0."""

    model: object
    steps: str

    def __post_init__(self):
        displacements = _displacements(self.model)
        x = y = 0
        for k, letter in enumerate(self.steps):
            if letter not in displacements:
                raise ValidationError(f"step {k} is {letter!r}, expected one of R, D, U")
            dx, dy = displacements[letter]
            x, y = x + dx, y + dy
            if x < 0 or y < 0:
                raise ValidationError(
                    f"prefix of length {k + 1} leaves the quadrant at ({x}, {y})"
                )

    def endpoint(self):
        x = y = 0
        for letter, (dx, dy) in _displacements(self.model).items():
            k = self.steps.count(letter)
            x, y = x + k * dx, y + k * dy
        return (x, y)

    def is_excursion(self):
        return self.endpoint() == (0, 0)


def map_walk_3to2(w):
    return Walk2(ballot_to_tandem(w.model), w.steps.translate(_3TO2))


def search_ballot_walks(m, rounds, node_budget=10_000_000):
    """Every cone walk ending at (a*n, b*n, c*n) with n = rounds, depth-first
    and lexicographic in X < Y < Z, and the number of search-tree nodes.
    Raises when the search tree exceeds the node budget."""
    if not isinstance(rounds, int) or rounds < 0:
        raise ValidationError(f"rounds must be a nonnegative integer, got {rounds!r}")
    T = ballot_to_tandem(m)
    tx, ty, tz = m.a * rounds, m.b * rounds, m.c * rounds
    out = []
    nodes = 0

    def rec(x, y, z, word):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"search exceeded the node budget of {node_budget}")
        if x == tx and y == ty and z == tz:
            out.append(Walk3(m, "".join(word)))
            return
        for letter, (dx, dy, dz) in _UNIT_STEPS.items():
            nx, ny, nz = x + dx, y + dy, z + dz
            if nx > tx or ny > ty or nz > tz:
                continue
            if not (T.A * nx >= T.B * ny >= T.C * nz):
                continue
            word.append(letter)
            rec(nx, ny, nz, word)
            word.pop()

    rec(0, 0, 0, [])
    return out, nodes


def generate_ballot_walks(m, rounds, node_budget=10_000_000):
    """Every cone walk of ``rounds`` rounds, as Walk3 objects in lexicographic order."""
    return search_ballot_walks(m, rounds, node_budget)[0]
_REVERSE_SWAP = str.maketrans("RU", "UR")


def phi(m, point):
    """The linear projection (x, y, z) -> (A*x - B*y, B*y - C*z)."""
    T = ballot_to_tandem(m)
    x, y, z = point
    return (T.A * x - T.B * y, T.B * y - T.C * z)


def map_walk_2to3(w):
    return Walk3(tandem_to_ballot(w.model), w.steps.translate(_2TO3))


def reverse_reflect(w):
    """Reverse an excursion and swap R with U: an excursion of (C, B, A)."""
    if not w.is_excursion():
        raise ValidationError("reverse_reflect is defined on excursions only")
    return Walk2(swapped(w.model), w.steps[::-1].translate(_REVERSE_SWAP))


def walk3_endpoint(w):
    """The end (x, y, z) of a cone walk: its letter counts."""
    return (w.steps.count("X"), w.steps.count("Y"), w.steps.count("Z"))


def estimate_mu(e, p, alpha_hat, max_levels=fit.MAX_RICHARDSON_LEVELS):
    """exp of the stable Richardson level's tail mean of the log mu estimator."""
    m_lo, u = fit._subsequence_logs(e, p)
    return exp(fit._log_mu(m_lo, u, p, alpha_hat, max_levels))


# The closed forms again, to 60 digits in stdlib decimal: the oracle that
# tandemwalks.exponent's floats are checked against at any triple size.
# log t = (BC log A + AC log B + AB log C)/E is the log of the common value
# t = A X^A = B (Y/X)^B = C Y^-C of the three terms of S at its critical
# point; every weight is at most E, so an absolute error in a log never
# grows, and mu = t (1/A + 1/B + 1/C) = t E/(ABC).
def _decimal_atan(z):
    """arctan(z) for z >= 0: halve the angle to below 1e-3, then sum the Taylor series."""
    halvings = 0
    while z > Decimal("1e-3"):
        z = z / (1 + (1 + z * z).sqrt())
        halvings += 1
    total, term, z2, k = Decimal(0), z, z * z, 1
    while term > z.scaleb(-getcontext().prec):
        total += term / k if k % 4 == 1 else -term / k
        term *= z2
        k += 2
    return total * 2**halvings


def decimal_closed_forms(m, digits=60):
    """(X, Y, mu, alpha) of a tandem model as Decimals correct to about `digits` digits."""
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    with localcontext() as ctx:
        ctx.prec = digits + 10
        la, lb, lc = Decimal(A).ln(), Decimal(B).ln(), Decimal(C).ln()
        log_t = (B * C * la + A * C * lb + A * B * lc) / E
        x = ((log_t - la) / A).exp()
        y = ((lc - log_t) / C).exp()
        mu = (log_t + Decimal(E).ln() - la - lb - lc).exp()
        alpha = -1 - 4 * _decimal_atan(Decimal(1)) / _decimal_atan(Decimal(E).sqrt() / B)
    return x, y, mu, alpha


# The 15-model exponent table: ballot triple, tandem triple, exact gamma^2,
# printed alpha approximation, and the tolerance implied by its digit count.
# gamma^2 entries recomputed by hand from B^2/((A+B)(B+C)); alpha values are
# the published six-digit approximations (four digits for (2,1,1)).
TABLE1_EXPECTED = [
    ((1, 1, 1), (1, 1, 1), Fraction(1, 4), -4.0, 0.0),
    ((1, 2, 2), (2, 1, 1), Fraction(1, 6), -3.7312, 1e-4),
    ((1, 1, 2), (2, 2, 1), Fraction(1, 3), -4.28854, 5e-6),
    ((1, 3, 3), (3, 1, 1), Fraction(1, 8), -3.59758, 5e-6),
    ((2, 3, 6), (3, 2, 1), Fraction(4, 15), -4.05556, 5e-6),
    ((2, 3, 3), (3, 2, 2), Fraction(1, 5), -3.83755, 5e-6),
    ((1, 1, 3), (3, 3, 1), Fraction(3, 8), -4.44572, 5e-6),
    ((2, 2, 3), (3, 3, 2), Fraction(3, 10), -4.16962, 5e-6),
    ((1, 4, 4), (4, 1, 1), Fraction(1, 10), -3.51519, 5e-6),
    ((1, 2, 4), (4, 2, 1), Fraction(2, 9), -3.90911, 5e-6),
    ((3, 4, 12), (4, 3, 1), Fraction(9, 28), -4.24544, 5e-6),
    ((3, 4, 6), (4, 3, 2), Fraction(9, 35), -4.02370, 5e-6),
    ((3, 4, 4), (4, 3, 3), Fraction(3, 14), -3.88346, 5e-6),
    ((1, 1, 4), (4, 4, 1), Fraction(2, 5), -4.54551, 5e-6),
    ((3, 3, 4), (4, 4, 3), Fraction(2, 7), -4.12021, 5e-6),
]

# the three exceptional classes: gamma^2 -> (alpha, example quintuple)
TABLE2_QUINTUPLES = {
    Fraction(1, 4): [(1, 1, 1), (1, 3, 6), (2, 14, 35), (3, 6, 10), (3, 15, 35)],
    Fraction(1, 2): [(2, 6, 3), (3, 15, 10), (4, 28, 21), (5, 20, 12), (5, 45, 36)],
    Fraction(3, 4): [(4, 60, 15), (5, 45, 9), (6, 42, 7), (7, 189, 54), (9, 99, 22)],
}
