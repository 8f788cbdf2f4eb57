"""Guessing and verifying P-recursive recurrences over exact rationals.

A candidate of order r and degree d is a nontrivial kernel vector of the
homogeneous system sum_k sum_i c_{k,i} n^i t_{n+k} = 0 over a solving
window; the last 10 input terms are held out of the window and every
candidate must annihilate the complete input before being returned, so a
returned recurrence is never an artifact of an underdetermined system.

The series is cleared to integers once, by the lcm of its denominators; the
system is homogeneous, so this changes no kernel and no residual.  It is then
reduced once modulo one large prime p, next to a table of n^i mod p, and
every cell's filter matrix is a product of slices of these two residue
tables.  Full column rank mod p implies full rank over the rationals, so a
full-rank cell can never hold a kernel and is skipped.  The first
window - R rows of any cell (r, d) with r <= R, d <= D are a subset of the
columns of the largest cell (R, D), so one full-rank largest cell certifies
the whole grid empty with a single elimination.  Otherwise the cells are
searched in turn, and the ones the filter passes go through fraction-free
Bareiss elimination with integer back-substitution on big-integer rows.  No
floating point anywhere.

Cells are searched by increasing r + d with ties to smaller r, so the
structurally simplest verified recurrence wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ValidationError

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
    grid = []
    for total in range(1, max_order + max_degree + 1):
        for r in range(max(1, total - max_degree), min(total, max_order) + 1):
            grid.append((r, total - r))
    return grid


def guess_recurrence(terms, max_order: int, max_degree: int) -> Recurrence | None:
    for v in (max_order, max_degree):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValidationError(f"grid limits must be nonnegative integers, got {v!r}")
    if max_order < 1:
        raise ValidationError("max_order must be at least 1")
    seq = _cleared(terms)
    needed = (max_order + 1) * (max_degree + 1) + HELD_OUT
    if len(seq) < needed:
        raise ValidationError(
            f"need at least {needed} terms for the {max_order}x{max_degree} grid, got {len(seq)}"
        )
    window = len(seq) - HELD_OUT
    residues = np.array([t % _FILTER_PRIME for t in seq], dtype=np.int64)
    powers = _powers_mod_p(window, max_degree)
    if _grid_certified(residues, powers, window, max_order, max_degree):
        return None
    for r, d in searched_grid(max_order, max_degree):
        if _full_rank_mod_p(_residue_rows(residues, powers, window - r, r, d)):
            continue
        vec = _kernel_vector(_integer_rows(seq, window, r, d))
        if vec is None:
            continue
        rec = _normalize(vec, r, d)
        if rec is not None and verify_recurrence(rec, seq):
            return rec
    return None


def _integer_rows(seq: list[int], window: int, r: int, d: int) -> list[list[int]]:
    """One row per n: entries n^i * t_{n+k}."""
    return [
        [n**i * seq[n + k] for k in range(r + 1) for i in range(d + 1)]
        for n in range(window - r)
    ]


def _powers_mod_p(n_rows: int, max_degree: int) -> np.ndarray:
    """powers[n, i] = n^i mod p, reduced at every power so no int64 overflows."""
    n = np.arange(n_rows, dtype=np.int64)  # n < n_rows, far below p
    powers = np.ones((n_rows, max_degree + 1), dtype=np.int64)
    for i in range(1, max_degree + 1):
        powers[:, i] = powers[:, i - 1] * n % _FILTER_PRIME
    return powers


def _residue_rows(
    residues: np.ndarray, powers: np.ndarray, n_rows: int, r: int, d: int
) -> np.ndarray:
    """Rows n < n_rows of the (r, d) system mod p, columns in _integer_rows order."""
    shifted = np.lib.stride_tricks.sliding_window_view(residues, r + 1)[:n_rows]
    return (shifted[:, :, None] * powers[:n_rows, None, :d + 1] % _FILTER_PRIME).reshape(n_rows, -1)


def _grid_certified(
    residues: np.ndarray, powers: np.ndarray, window: int, max_order: int, max_degree: int
) -> bool:
    """True when no cell of the grid can hold a kernel: the largest cell has
    full column rank mod p on its window - max_order rows.  Those rows of any
    smaller cell are a subset of its columns, hence of full rank too."""
    n_rows = window - max_order
    return _full_rank_mod_p(_residue_rows(residues, powers, n_rows, max_order, max_degree))


def _full_rank_mod_p(mat: np.ndarray) -> bool:
    """Full column rank mod p (which proves full column rank over Q)."""
    nrows, ncols = mat.shape
    return nrows >= ncols and _rank_mod_p(mat, _FILTER_PRIME) == ncols


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    nrows, ncols = mat.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        col = mat[rank:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        inv = pow(int(mat[rank, c]), p - 2, p)
        mat[rank, c:] = (mat[rank, c:] * inv) % p
        below = mat[rank + 1:, c]
        nzr = np.nonzero(below)[0]
        if nzr.size:
            idx = rank + 1 + nzr
            # eliminate in blocks to stay within int64 (entries < p < 2^31)
            mat[idx, c:] = (mat[idx, c:] - np.outer(mat[idx, c], mat[rank, c:])) % p
        rank += 1
    return rank


def _kernel_vector(rows: list[list[int]]) -> list[int] | None:
    """A nontrivial integer kernel vector by fraction-free elimination, or None."""
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivots: list[tuple[int, int]] = []
    prev = 1
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
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


def _normalize(vec: list[int], r: int, d: int) -> Recurrence | None:
    """Primitive integer form with positive leading coefficient, trimmed."""
    content = gcd(*vec)
    if content == 0:
        return None
    ints = [v // content for v in vec]
    polys = [ints[k * (d + 1):(k + 1) * (d + 1)] for k in range(r + 1)]
    while polys and not any(polys[-1]):
        polys.pop()
    if not polys:
        return None
    degree = 0
    for poly in polys:
        nonzero = [i for i, c in enumerate(poly) if c]
        if nonzero:
            degree = max(degree, nonzero[-1])
    polys = [poly[:degree + 1] for poly in polys]
    lead = next(c for c in reversed(polys[-1]) if c)
    if lead < 0:
        polys = [[-c for c in poly] for poly in polys]
    return Recurrence(len(polys) - 1, degree, tuple(tuple(p) for p in polys))
