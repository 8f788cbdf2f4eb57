"""Guessing and verifying P-recursive recurrences over exact rationals.

A candidate of order r and degree d is a nontrivial kernel vector of the
homogeneous system sum_k sum_i c_{k,i} n^i t_{n+k} = 0, one row per
n < len - r: every row the input gives the cell.  A grid up to order R and
degree D needs (R+1)(D+1) + R + 10 terms, so every cell has at least 10
more equations than unknowns, and every candidate must annihilate the
complete input before being returned; a returned recurrence is never an
artifact of an underdetermined system.

The series is cleared to integers once, by the lcm of its denominators; the
system is homogeneous, so this changes no kernel and no residual.  It is then
reduced once modulo one large prime p, next to a table of n^i mod p.  Full
column rank mod p on a cell's rows implies full rank over the rationals, so
such a cell has no kernel and is skipped.  The cells of one order r share
their rows: with the columns (k, i) of the order-(r, D) system in
degree-major order, i(r+1) + k, cell (r, d) is its first (d+1)(r+1)
columns.  So one elimination mod p per order, which records the pivot row of
each column and goes on past a column without one, decides every degree of
that order: cell (r, d) has full rank exactly when each of its columns has a
pivot.  The order-R elimination runs first and is the grid certificate: the
first len - R rows of any cell (r, d) with r <= R, d <= D are a subset of
the columns of the largest cell (R, D), so if it has full rank no cell has a
kernel.  Every other order is eliminated when the search first reaches it.

A cell the filter passes goes through fraction-free Bareiss elimination with
integer back-substitution, first on its mod-p pivot rows alone.  They are
independent mod p, so over the rationals too, and fewer than its columns;
the vector with the first free column set to 1 and the later ones 0 has
support up to that column.  If it annihilates the whole series, that column
is also the first free column of all the cell's rows, whose kernel vector of
that support is unique up to scale, so the result is the one the full rows
give.  If it does not (the residues can obey a relation the integers do not),
the cell is solved again on all its rows.  No floating point anywhere.

Cells are searched by increasing r + d with ties to smaller r, so the
structurally simplest verified recurrence wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ValidationError, check_integer, is_integer

HELD_OUT = 10
_FILTER_PRIME = 2147483647


@dataclass(frozen=True)
class Recurrence:
    """sum_{k=0}^{order} p_k(n) * t_{n+k} = 0 with integer polynomials p_k."""

    order: int
    degree: int
    coefficients: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_integer("order", self.order)
        check_integer("degree", self.degree)
        try:
            coeffs = tuple(tuple(poly) for poly in self.coefficients)
        except TypeError:
            raise ValidationError(
                f"coefficients must be a sequence of integer sequences, got {self.coefficients!r}"
            ) from None
        if len(coeffs) != self.order + 1:
            raise ValidationError(f"expected {self.order + 1} polynomials, got {len(coeffs)}")
        if any(len(p) != self.degree + 1 for p in coeffs):
            raise ValidationError(f"every polynomial must have {self.degree + 1} coefficients")
        for k, poly in enumerate(coeffs):
            for i, c in enumerate(poly):
                if not is_integer(c, None):
                    raise ValidationError(f"coefficient {i} of polynomial {k} must be an integer, got {c!r}")
        if all(c == 0 for c in coeffs[-1]):
            raise ValidationError("the leading polynomial must not be identically zero")
        object.__setattr__(self, "coefficients", coeffs)


def _poly_eval(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _cleared(terms) -> list[int]:
    """The series times the lcm of its denominators, as integers; every term
    must be an int or a Fraction, and an int is its own numerator."""
    try:
        seq = list(terms)
    except TypeError:
        raise ValidationError(f"terms must be a sequence of ints and Fractions, got {terms!r}") from None
    for k, t in enumerate(seq):
        if not (is_integer(t, None) or isinstance(t, Fraction)):
            raise ValidationError(f"term {k} must be an int or a Fraction, got {t!r}")
    den = lcm(*(t.denominator for t in seq))
    return [t.numerator * (den // t.denominator) for t in seq]


def verify_recurrence(rec: Recurrence, terms) -> bool:
    """Exact check of the recurrence against every admissible window of terms."""
    seq = _cleared(terms)
    if len(seq) <= rec.order:
        raise ValidationError(f"need more than {rec.order} terms to verify, got {len(seq)}")
    for n in range(len(seq) - rec.order):
        if sum(_poly_eval(poly, n) * seq[n + k] for k, poly in enumerate(rec.coefficients)):
            return False
    return True


def searched_grid(max_order: int, max_degree: int) -> list[tuple[int, int]]:
    """(r, d) cells in search order: increasing r + d, ties to smaller r."""
    check_integer("max_order", max_order, 1)
    check_integer("max_degree", max_degree)
    grid = []
    for total in range(1, max_order + max_degree + 1):
        for r in range(max(1, total - max_degree), min(total, max_order) + 1):
            grid.append((r, total - r))
    return grid


def guess_recurrence(terms, max_order: int, max_degree: int) -> Recurrence | None:
    cells = searched_grid(max_order, max_degree)
    seq = _cleared(terms)
    needed = (max_order + 1) * (max_degree + 1) + max_order + HELD_OUT
    if len(seq) < needed:
        raise ValidationError(
            f"need at least {needed} terms for the {max_order}x{max_degree} grid, got {len(seq)}"
        )
    residues = np.array([t % _FILTER_PRIME for t in seq], dtype=np.int64)
    powers = _powers_mod_p(len(seq), max_degree)
    pivots = {max_order: _pivot_rows(residues, powers, max_order)}
    if pivots[max_order].min() >= 0:
        return None  # the largest cell certifies every cell empty
    for r, d in cells:
        if r not in pivots:
            pivots[r] = _pivot_rows(residues, powers, r)
        cell = pivots[r][:(d + 1) * (r + 1)]
        if cell.min() >= 0:
            continue  # full rank mod p, so no kernel
        # its pivot rows first: their kernel vector is the cell's if it verifies
        for ns in (cell[cell >= 0].tolist(), range(len(seq) - r)):
            vec = _kernel_vector(_integer_rows(seq, r, d, ns), cell.size)
            if vec is not None:
                rec = _normalize(vec, r, d)
                if verify_recurrence(rec, seq):
                    return rec
    return None


def _integer_rows(seq: list[int], r: int, d: int, ns) -> list[list[int]]:
    """The rows n in ``ns`` of the (r, d) system: entries n^i * t_{n+k},
    column k(d+1) + i."""
    return [[n**i * seq[n + k] for k in range(r + 1) for i in range(d + 1)] for n in ns]


def _powers_mod_p(n_rows: int, max_degree: int) -> np.ndarray:
    """powers[n, i] = n^i mod p, reduced at every power so no int64 overflows."""
    n = np.arange(n_rows, dtype=np.int64)  # n < n_rows, far below p
    powers = np.ones((n_rows, max_degree + 1), dtype=np.int64)
    for i in range(1, max_degree + 1):
        powers[:, i] = powers[:, i - 1] * n % _FILTER_PRIME
    return powers


def _pivot_rows(residues: np.ndarray, powers: np.ndarray, r: int) -> np.ndarray:
    """Elimination mod p of the order-(r, D) system on its rows n < len - r,
    column (k, i) at i(r+1) + k: the row n that is the pivot of each column,
    or -1 where a column has none.  A column without a pivot does not stop
    it, and rows are never swapped."""
    p = _FILTER_PRIME
    n_rows = len(residues) - r
    shifted = np.lib.stride_tricks.sliding_window_view(residues, r + 1)
    mat = (powers[:n_rows, :, None] * shifted[:, None, :] % p).reshape(n_rows, -1)
    free = np.ones(n_rows, dtype=bool)
    pivots = np.full(mat.shape[1], -1)
    for c in range(mat.shape[1]):
        nz = np.flatnonzero(free & (mat[:, c] != 0))
        if nz.size == 0:
            continue
        piv, rest = nz[0], nz[1:]
        pivots[c] = piv
        free[piv] = False
        mat[piv, c:] = mat[piv, c:] * pow(int(mat[piv, c]), p - 2, p) % p
        # entries < p < 2^31, so every product fits in int64
        mat[rest, c:] = (mat[rest, c:] - np.outer(mat[rest, c], mat[piv, c:])) % p
    return pivots


def _kernel_vector(rows: list[list[int]], ncols: int) -> list[int] | None:
    """A nontrivial integer kernel vector of the rows, each of ncols entries,
    by fraction-free elimination, or None; its first free column is 1 and
    every later non-pivot column 0."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots: list[tuple[int, int]] = []
    prev = 1
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[rank][c] * m[i][j] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        pivots.append((rank, c))
        rank += 1
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [0] * ncols
    x[free] = 1
    for ri, ci in reversed(pivots):
        acc = sum(m[ri][j] * x[j] for j in range(ci + 1, ncols) if x[j])
        g = gcd(acc, m[ri][ci])
        # scale x by pivot/g, so that x[ci] = -acc/g solves the row in integers
        x = [v * (m[ri][ci] // g) for v in x]
        x[ci] = -acc // g
    return x


def _normalize(vec: list[int], r: int, d: int) -> Recurrence:
    """Primitive integer form with positive leading coefficient, trimmed.
    _kernel_vector sets one entry to 1 and scales only by nonzero pivot
    quotients, so vec is nonzero and some polynomial survives the trim."""
    content = gcd(*vec)
    ints = [v // content for v in vec]
    polys = [ints[k * (d + 1):(k + 1) * (d + 1)] for k in range(r + 1)]
    while not any(polys[-1]):
        polys.pop()
    degree = max(i for poly in polys for i, c in enumerate(poly) if c)
    polys = [poly[:degree + 1] for poly in polys]
    lead = next(c for c in reversed(polys[-1]) if c)
    if lead < 0:
        polys = [[-c for c in poly] for poly in polys]
    return Recurrence(len(polys) - 1, degree, tuple(tuple(p) for p in polys))
