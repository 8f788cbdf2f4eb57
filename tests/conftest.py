"""Shared test data, helpers, and the oracles the library is checked against."""

from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import cache
from itertools import product
from math import exp, gcd, hypot, sqrt

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
from tandemwalks import fit, guess
from tandemwalks.models import BALLOT_STEPS


def coprime_triples(bound):
    """All (A, B, C) with 1 <= A,B,C <= bound and gcd 1, lexicographic."""
    for triple in product(range(1, bound + 1), repeat=3):
        if gcd(*triple) == 1:
            yield triple


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
    support = [n for n in range(1, e.n_max + 1) if e.values[n] != zero]
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


def maybe_singular(rows):
    """The big-integer cell filter: False only when full column rank is
    certain (full rank mod the prime), each entry reduced on its own."""
    p = guess._FILTER_PRIME
    mat = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    return not guess._full_rank_mod_p(mat)


def reference_guess(terms, max_order, max_degree):
    """guess_recurrence as a per-cell search: every cell's rows are built as
    big integers and filtered on their own, with no grid certificate."""
    seq = guess._cleared(terms)
    for r, d in searched_grid(max_order, max_degree):
        rows = guess._integer_rows(seq, r, d)
        if not maybe_singular(rows):
            continue
        vec = guess._kernel_vector(rows)
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
