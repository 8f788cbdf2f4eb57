"""Reference computations for the benchmark's output checks.

Written apart from the program: none of this imports tandemwalks.  The
tandem model (A, B, C) has the quarter-plane steps (A, 0), (-B, B), (0, -C).

    python3 perfbench/reference.py      runs the self-test on small known values
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import acos, comb, factorial, gcd, lcm, log, pi, sqrt

import numpy as np

# a prime below 2^61: three residues sum to less than 2^63, so int64 never wraps
PRIME = 2**61 - 1


@lru_cache(maxsize=None)
def walk_counts_mod_p(model, n_max: int, target=(0, 0)) -> tuple[int, ...]:
    """Counts of quarter-plane walks of length 0..n_max, modulo PRIME.

    ``target`` is the endpoint (x, y) of the counted walks, or None for walks
    with a free endpoint.  Level DP over the lattice the steps span, in int64.
    Cached: a benchmark run checks the same inputs in every round.
    """
    A, B, C = model
    gx, gy = gcd(A, B), gcd(B, C)
    a, b, c = A // gx, B // gx, C // gy
    b_up = B // gy  # the step (-B, B) in lattice units: (-b, b_up)
    if target is not None:
        tx, ty = target
        if tx % gx or ty % gy:
            return (0,) * (n_max + 1)
        tx, ty = tx // gx, ty // gy
    grid = np.zeros((1, 1), dtype=np.int64)
    grid[0, 0] = 1
    out = []
    for n in range(n_max + 1):
        if n:
            w, h = grid.shape
            nxt = np.zeros((w + a, h + b_up), dtype=np.int64)
            nxt[a:, :h] += grid  # (A, 0)
            if w > b:
                nxt[: w - b, b_up:] += grid[b:, :]  # (-B, B)
            if h > c:
                nxt[:w, : h - c] += grid[:, c:]  # (0, -C)
            np.remainder(nxt, PRIME, out=nxt)
            grid = nxt
        if target is None:
            # split residues < 2^61 into 29 + 32 bits so the int64 sums cannot wrap
            hi, lo = int((grid >> 32).sum()), int((grid & 0xFFFFFFFF).sum())
            out.append(((hi << 32) + lo) % PRIME)
        elif tx < grid.shape[0] and ty < grid.shape[1]:
            out.append(int(grid[tx, ty]))
        else:
            out.append(0)
    return tuple(out)


def syt_three_rows(n: int) -> int:
    """Standard Young tableaux of shape (n, n, n), by the hook-length formula."""
    return 2 * factorial(3 * n) // (factorial(n) * factorial(n + 1) * factorial(n + 2))


def motzkin(n_max: int) -> list[int]:
    """Motzkin numbers M_0..M_{n_max}: (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2}."""
    m = [1, 1]
    for n in range(2, n_max + 1):
        m.append(((2 * n + 1) * m[-1] + 3 * (n - 1) * m[-2]) // (n + 2))
    return m[: n_max + 1]


def gamma_sq(model) -> Fraction:
    A, B, C = model
    return Fraction(B * B, (A + B) * (B + C))


def alpha(model) -> float:
    """alpha = -1 - pi/arccos(-gamma), with gamma = -sqrt(gamma^2) < 0."""
    gamma = -sqrt(gamma_sq(model))
    return -1.0 - pi / acos(-gamma)


def log_mu(model) -> float:
    """log of mu = C (A^B B^A / C^(A+B))^(C/E) (1/A + 1/B + 1/C), E = AB + AC + BC."""
    A, B, C = model
    E = A * B + A * C + B * C
    return log(C) + C * (B * log(A) + A * log(B) - (A + B) * log(C)) / E + log(
        1 / A + 1 / B + 1 / C
    )


def period(model) -> int:
    A, B, C = model
    M = lcm(A, B, C)
    return M // A + M // B + M // C


def dense_cells(steps, n_max: int) -> int:
    """sum_{n=1..N} (n*dxm + 1)(n*dym + 1) + 1 for planar steps, N = n_max.

    dxm and dym are the largest positive step coordinates in units of the
    lattice the steps span: the cells a dense level DP sweeps up to length N.
    """
    gx, gy = gcd(*(i for i, _ in steps)) or 1, gcd(*(j for _, j in steps)) or 1
    dxm = max(0, *(i // gx for i, _ in steps))
    dym = max(0, *(j // gy for _, j in steps))
    N = n_max
    return dxm * dym * N * (N + 1) * (2 * N + 1) // 6 + (dxm + dym) * N * (N + 1) // 2 + N + 1


def tandem_steps(model) -> tuple[tuple[int, int], ...]:
    A, B, C = model
    return ((A, 0), (-B, B), (0, -C))


def poly_from_roots_scaled(scale: int, roots: list[Fraction]) -> list[int]:
    """Coefficients, low degree first, of scale * prod (n - r) (integral by choice)."""
    coeffs = [Fraction(scale)]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("polynomial is not integral")
    return [int(c) for c in coeffs]


def syt_recurrence(shift: int) -> tuple[tuple[int, ...], ...]:
    """Primitive order-1 recurrence of t_n = SYT(n + shift), from the hook-length ratio.

    SYT(m+1)/SYT(m) = 3(3m+1)(3m+2)/((m+2)(m+3)), so with m = n + shift
    (m+2)(m+3) t_{n+1} - 27(m+1/3)(m+2/3) t_n = 0; the leading polynomial is
    monic, so the integer form is already primitive.
    """
    s = Fraction(shift)
    p0 = poly_from_roots_scaled(-27, [-s - Fraction(1, 3), -s - Fraction(2, 3)])
    p1 = poly_from_roots_scaled(1, [-s - 2, -s - 3])
    return (tuple(p0), tuple(p1))


def recurrence_residuals(coefficients, terms) -> list[int]:
    """sum_k p_k(n) t_{n+k} for every window of the terms, exactly."""
    order = len(coefficients) - 1
    out = []
    for n in range(len(terms) - order):
        total = 0
        for k, poly in enumerate(coefficients):
            value = 0
            for c in reversed(poly):
                value = value * n + c
            total += value * terms[n + k]
        out.append(total)
    return out


def self_test() -> None:
    """Fast checks on small known values; raises AssertionError on a mismatch."""
    syt = [syt_three_rows(n) for n in range(7)]
    if syt != [1, 1, 5, 42, 462, 6006, 87516]:
        raise AssertionError(f"hook-length SYT counts wrong: {syt}")
    if motzkin(9) != [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]:
        raise AssertionError("Motzkin recurrence wrong")
    if motzkin(30)[30] != sum(comb(30, 2 * k) * comb(2 * k, k) // (k + 1) for k in range(16)):
        raise AssertionError("Motzkin recurrence disagrees with the binomial sum")
    exc = walk_counts_mod_p((1, 1, 1), 18)
    if [exc[3 * k] for k in range(7)] != syt or any(exc[n] for n in range(19) if n % 3):
        raise AssertionError(f"(1,1,1) excursion DP wrong: {exc}")
    if list(walk_counts_mod_p((1, 1, 1), 9, None)) != motzkin(9):
        raise AssertionError("(1,1,1) total DP wrong")
    # (3,2,1) has period 11 and e_11 = 34; its reversal (1,2,3) has the same counts
    e321 = walk_counts_mod_p((3, 2, 1), 22)
    if e321[11] != 34 or e321 != walk_counts_mod_p((1, 2, 3), 22) or period((3, 2, 1)) != 11:
        raise AssertionError("(3,2,1) excursion DP wrong")
    # (2,2,1) compresses x by 2: the target (1, 0) is off the lattice
    if any(walk_counts_mod_p((2, 2, 1), 8, (1, 0))):
        raise AssertionError("off-lattice endpoint must have no walks")
    big = walk_counts_mod_p((1, 1, 1), 240)[240]
    if big != syt_three_rows(80) % PRIME:
        raise AssertionError("DP modulo PRIME wrong beyond 64 bits")
    if abs(alpha((1, 1, 1)) + 4.0) > 1e-12:
        raise AssertionError("alpha(1,1,1) != -4")
    if abs(alpha((2, 1, 1)) + 3.7312) > 1e-4 or abs(alpha((3, 2, 1)) + 4.05556) > 5e-6:
        raise AssertionError("alpha disagrees with the published table")
    if abs(log_mu((1, 1, 1)) - log(3)) > 1e-14:
        raise AssertionError("mu(1,1,1) != 3")
    # (1,1,1): dxm = dym = 1; (4,2,1): gcd(4,2) = 2, so dxm = 2, dym = 2
    if (dense_cells(tandem_steps((1, 1, 1)), 2) != 4 + 9 + 1
            or dense_cells(tandem_steps((4, 2, 1)), 2) != 9 + 25 + 1):
        raise AssertionError("dense-cell count wrong")
    rec = syt_recurrence(0)
    if rec != ((-6, -27, -27), (6, 5, 1)):
        raise AssertionError(f"SYT recurrence wrong: {rec}")
    if any(recurrence_residuals(syt_recurrence(4), [syt_three_rows(n + 4) for n in range(12)])):
        raise AssertionError("shifted SYT recurrence does not vanish")


if __name__ == "__main__":
    self_test()
    print("reference self-test ok")
