"""Shared test data and helpers."""

from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from tandemwalks import BudgetExceededError, ValidationError, Walk2, tandem_step_set


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
