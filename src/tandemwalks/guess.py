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
reduced once modulo one large prime p, next to a table of n^i mod p, and
every cell's filter matrix is a product of slices of these two residue
tables.  Full column rank mod p on a cell's rows implies full rank over the
rationals, so such a cell has no kernel and is skipped; the filter is one
elimination mod p that stops at the first column without a pivot.  The
first len - R rows of any cell (r, d) with r <= R, d <= D are a subset of
the columns of the largest cell (R, D), so one full-rank largest cell
certifies the whole grid empty with a single elimination.  Otherwise the
cells are searched in turn; the ones the filter passes go through
fraction-free Bareiss elimination with integer back-substitution on the
same rows.  No floating point anywhere.

Cells are searched by increasing r + d with ties to smaller r, so the
structurally simplest verified recurrence wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ValidationError, check_integer

HELD_OUT = 10
_FILTER_PRIME = 2147483647


@dataclass(frozen=True)
class Recurrence:
    """sum_{k=0}^{order} p_k(n) * t_{n+k} = 0 with integer polynomials p_k."""

    order: int
    degree: int
    coefficients: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        coeffs = tuple(tuple(int(c) for c in poly) for poly in self.coefficients)
        if self.order < 0 or self.degree < 0:
            raise ValidationError("order and degree must be nonnegative")
        if len(coeffs) != self.order + 1:
            raise ValidationError(f"expected {self.order + 1} polynomials, got {len(coeffs)}")
        if any(len(p) != self.degree + 1 for p in coeffs):
            raise ValidationError(f"every polynomial must have {self.degree + 1} coefficients")
        if all(c == 0 for c in coeffs[-1]):
            raise ValidationError("the leading polynomial must not be identically zero")
        object.__setattr__(self, "coefficients", coeffs)


def _poly_eval(coeffs: tuple[int, ...], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def _cleared(terms) -> list[int]:
    """The series times the lcm of its denominators, as integers."""
    seq = [Fraction(t) for t in terms]
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
    if _full_rank_mod_p(_residue_rows(residues, powers, max_order, max_degree)):
        return None  # the largest cell certifies every cell empty
    for r, d in cells:
        if _full_rank_mod_p(_residue_rows(residues, powers, r, d)):
            continue
        vec = _kernel_vector(_integer_rows(seq, r, d))
        if vec is not None:
            rec = _normalize(vec, r, d)
            if verify_recurrence(rec, seq):
                return rec
    return None


def _integer_rows(seq: list[int], r: int, d: int) -> list[list[int]]:
    """One row per n < len(seq) - r: entries n^i * t_{n+k}."""
    return [
        [n**i * seq[n + k] for k in range(r + 1) for i in range(d + 1)]
        for n in range(len(seq) - r)
    ]


def _powers_mod_p(n_rows: int, max_degree: int) -> np.ndarray:
    """powers[n, i] = n^i mod p, reduced at every power so no int64 overflows."""
    n = np.arange(n_rows, dtype=np.int64)  # n < n_rows, far below p
    powers = np.ones((n_rows, max_degree + 1), dtype=np.int64)
    for i in range(1, max_degree + 1):
        powers[:, i] = powers[:, i - 1] * n % _FILTER_PRIME
    return powers


def _residue_rows(residues: np.ndarray, powers: np.ndarray, r: int, d: int) -> np.ndarray:
    """The (r, d) system mod p: one row per n < len(residues) - r, columns in
    _integer_rows order."""
    n_rows = len(residues) - r
    shifted = np.lib.stride_tricks.sliding_window_view(residues, r + 1)
    return (shifted[:, :, None] * powers[:n_rows, None, :d + 1] % _FILTER_PRIME).reshape(n_rows, -1)


def _full_rank_mod_p(mat: np.ndarray) -> bool:
    """Full column rank mod p, which proves it over Q: elimination in place
    that returns False at the first column without a pivot, at column nrows
    of a wide matrix at the latest."""
    p = _FILTER_PRIME
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


def _kernel_vector(rows: list[list[int]]) -> list[int] | None:
    """A nontrivial integer kernel vector by fraction-free elimination, or None."""
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
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
