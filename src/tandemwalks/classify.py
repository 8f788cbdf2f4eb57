"""Search for tandem models with a prescribed gamma^2.

The exponent is rational exactly when gamma^2 = B^2/((A+B)(B+C)) is one of
the three classes of ``exponent.RATIONAL_ALPHA`` (gamma^2 = 1/4, 1/2, 3/4,
alpha = -4, -5, -7).  Fixing two of A, B, C determines the third, so the
search below is quadratic in the bound rather than cubic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ValidationError
from .models import TandemModel


def search_triples(r, bound: int) -> list[TandemModel]:
    """All coprime (A, B, C) within the bound with gamma^2 equal to r exactly.

    For fixed A and B the equality B^2 * den(r) = (A+B)(B+C) * num(r) has at
    most one integer solution C, checked with exact integer arithmetic.
    Sorted lexicographically; a triple and its (C, B, A) swap both appear.
    """
    r = Fraction(r)
    if not Fraction(0) < r < Fraction(1):
        raise ValidationError(f"gamma^2 must lie strictly between 0 and 1, got {r}")
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
        raise ValidationError(f"bound must be a positive integer, got {bound!r}")
    out = []
    for A in range(1, bound + 1):
        for B in range(1, bound + 1):
            sum_bc, rem = divmod(B * B * r.denominator, r.numerator * (A + B))
            if rem:
                continue
            C = sum_bc - B
            if 1 <= C <= bound and gcd(A, B, C) == 1:
                out.append(TandemModel(A, B, C))
    out.sort(key=lambda t: (t.A, t.B, t.C))
    return out
