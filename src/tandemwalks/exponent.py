"""Growth constants and critical exponents of tandem quarter-plane models, in closed form.

For steps S the step polynomial is S(x, y) = sum of x^i y^j.  When the steps
span the plane in every direction (no containing half-plane), S has a unique
critical point (X, Y) with positive coordinates, and excursion counts obey

    e_n ~ kappa * mu^n * n^alpha      (n in the period's progression)

with mu = S(X, Y) and alpha = -1 - pi/arccos(-gamma), where

    gamma = S_xy / sqrt(S_xx * S_yy)   evaluated at (X, Y).

For the tandem steps (A, 0), (-B, B), (0, -C) everything is in closed form:
with E = A*B + A*C + B*C,

    X = (B^C * C^B / A^(B+C))^(1/E),
    Y = (C^(A+B) / (A^B * B^A))^(1/E),
    mu = C * (A^B * B^A / C^(A+B))^(C/E) * (1/A + 1/B + 1/C),
    gamma^2 = B^2 / ((A+B) * (B+C))     exactly, as a rational number.

alpha is rational exactly when gamma^2 is 1/4, 1/2 or 3/4 (values -4, -5,
-7); for every other rational gamma^2 the exponent is irrational, which
rules out a differentially finite excursion series.  The generic route (a
Newton solve for (X, Y) and gamma from the Hessian, for any step set) is a
test oracle in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acos, exp, log, pi, sqrt

from .errors import ValidationError
from .models import TandemModel

# gamma^2 -> alpha for the three rational-exponent classes, the one list of them
RATIONAL_ALPHA = {
    Fraction(1, 4): Fraction(-4),
    Fraction(1, 2): Fraction(-5),
    Fraction(3, 4): Fraction(-7),
}


@dataclass(frozen=True)
class ExponentReport:
    """Everything the exponent pipeline knows about one tandem model."""

    x: float
    y: float
    mu: float
    gamma: float
    gamma_sq: Fraction
    alpha: float
    alpha_exact: Fraction | None
    rationality: str  # "rational" | "irrational"
    dfiniteness: str  # "known_dfinite" | "not_dfinite_proven" | "unknown"
    alpha_closed_form: str


def _closed_form_logs(m: TandemModel) -> tuple[float, float]:
    """(log X, log Y) as E-weighted sums of logs.

    The integer powers overflow a float for large triples, and log(X) of a
    rounded X loses the digits that a step component near 10^6 multiplies.
    """
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    la, lb, lc = log(A), log(B), log(C)
    return (C * lb + B * lc - (B + C) * la) / E, ((A + B) * lc - B * la - A * lb) / E


def closed_form_critical_point(m: TandemModel) -> tuple[float, float]:
    u, v = _closed_form_logs(m)
    return exp(u), exp(v)


def growth_constant(m: TandemModel) -> float:
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    la, lb, lc = log(A), log(B), log(C)
    return C * exp(C * (B * la + A * lb - (A + B) * lc) / E) * (1 / A + 1 / B + 1 / C)


def gamma_exact_sq(m: TandemModel) -> Fraction:
    A, B, C = m.A, m.B, m.C
    return Fraction(B * B, (A + B) * (B + C))


def alpha_from_gamma(gamma: float) -> float:
    if not -1.0 < gamma < 1.0:
        raise ValidationError(f"gamma must lie strictly between -1 and 1, got {gamma}")
    return -1.0 - pi / acos(-gamma)


def classify_rationality(gamma_sq: Fraction) -> tuple[str, Fraction | None]:
    """('rational', alpha) for the three algebraic classes, else ('irrational', None)."""
    gamma_sq = Fraction(gamma_sq)
    if not Fraction(0) < gamma_sq < Fraction(1):
        raise ValidationError(f"gamma^2 must lie strictly between 0 and 1, got {gamma_sq}")
    if gamma_sq in RATIONAL_ALPHA:
        return "rational", RATIONAL_ALPHA[gamma_sq]
    return "irrational", None


def exponent_report(m: TandemModel) -> ExponentReport:
    x, y = closed_form_critical_point(m)
    mu = growth_constant(m)
    gsq = gamma_exact_sq(m)
    gamma = -sqrt(float(gsq))
    rationality, alpha_exact = classify_rationality(gsq)
    if alpha_exact is not None:
        alpha = float(alpha_exact)
        closed = str(alpha_exact)
    else:
        alpha = alpha_from_gamma(gamma)
        closed = f"-1 - pi/arccos(sqrt({gsq.numerator}/{gsq.denominator}))"
    if (m.A, m.B, m.C) == (1, 1, 1):
        dfiniteness = "known_dfinite"
    elif rationality == "irrational":
        dfiniteness = "not_dfinite_proven"
    else:
        dfiniteness = "unknown"
    return ExponentReport(
        x=x,
        y=y,
        mu=mu,
        gamma=gamma,
        gamma_sq=gsq,
        alpha=alpha,
        alpha_exact=alpha_exact,
        rationality=rationality,
        dfiniteness=dfiniteness,
        alpha_closed_form=closed,
    )
