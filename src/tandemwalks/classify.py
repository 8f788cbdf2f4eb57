"""Search and generation of tandem models with rational critical exponent.

The exponent is rational exactly when gamma^2 = B^2/((A+B)(B+C)) is one of
the three classes of ``exponent.RATIONAL_ALPHA`` (gamma^2 = 1/4, 1/2, 3/4,
alpha = -4, -5, -7).  Fixing two of A, B, C determines the third, so the
search below is quadratic in the bound rather than cubic.  Three infinite
parametric families, one per class; ``FAMILIES`` maps each name to its
gamma^2:

    quarter        (A, (A-1)A, (A-1)(3A-4))    for odd A > 1,
    half           (A, (A-1)A, (A-1)(A-2))     for odd A > 1,
    three_quarter  (A, (A-1)A, (A-1)(A-4)/3)   for A = 6k+1, k > 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ValidationError
from .exponent import RATIONAL_ALPHA
from .models import TandemModel

# family name -> gamma^2, named in the order of the rational-exponent table
FAMILIES = dict(zip(("quarter", "half", "three_quarter"), RATIONAL_ALPHA))


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


def family(kind: str, A: int) -> TandemModel:
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
