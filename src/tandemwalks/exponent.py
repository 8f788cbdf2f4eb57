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
    gamma^2 = B^2 / ((A+B) * (B+C))     exactly, as a rational number,
    alpha = -1 - pi/arctan(sqrt(E)/B),  since 1 - gamma^2 = E/((A+B)(B+C)).

X, Y and mu are E-weighted sums of logs, and alpha comes from the integers
without a float gamma, so every integer enters a float only after division
by a power of four that brings it below 2^1002 (1 for integers below 2^1000).
X, Y and mu are finite for a triple of any size; alpha, about
-pi*sqrt(B/(A+C)) when B is far larger than A and C, leaves the float range
near B = 10^616.5 for A = C = 1, and there the report raises a
ValidationError.  alpha is rational exactly when gamma^2 is 1/4, 1/2 or 3/4
(values -4, -5, -7); for every other rational gamma^2 the exponent is
irrational, which rules out a differentially finite excursion series.  The
generic route (a Newton solve for (X, Y) and gamma from the Hessian, for any
step set) is a test oracle in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import atan2, exp, inf, isfinite, isqrt, log, pi, sqrt

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


def _scale(n: int) -> int:
    """The power of four that brings n below 2^1002; 1 below 2^1000."""
    return 4 ** max(0, n.bit_length() // 2 - 500)


def _closed_form_logs(m: TandemModel) -> tuple[float, float]:
    """(log X, log Y) as E-weighted sums of logs.

    The integer powers overflow a float for large triples, and log(X) of a
    rounded X loses the digits that a step component near 10^6 multiplies.
    """
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    q = _scale(E)
    la, lb, lc = log(A), log(B), log(C)
    return (
        (C / q * lb + B / q * lc - (B + C) / q * la) / (E / q),
        ((A + B) / q * lc - B / q * la - A / q * lb) / (E / q),
    )


def _alpha(m: TandemModel) -> float:
    """-1 - pi/arccos(-gamma) as -1 - pi/arctan(sqrt(E)/B), with no float gamma.

    B may exceed sqrt(E) by any factor, so both sides of the angle are scaled
    by the root of the scale of E + B^2 = (A+B)(B+C).  When alpha is below
    the float range the result is -inf, also where the angle underflows to 0.
    """
    B = m.B
    E = m.A * B + m.A * m.C + B * m.C
    q = _scale(E + B * B)
    angle = atan2(sqrt(E / q), B / isqrt(q))
    return -1.0 - pi / angle if angle else -inf


def exponent_report(m: TandemModel) -> ExponentReport:
    A, B, C = m.A, m.B, m.C
    E = A * B + A * C + B * C
    x, y = (exp(t) for t in _closed_form_logs(m))
    # mu = C e^w (1/A + 1/B + 1/C) with w = -C log Y.  C e^w lies within a
    # factor 3 of min(A, B, C), and the weights of w are at most E/C, so
    # dividing C, the weights and the sum's terms by the scales of C, E/C and
    # the minimum keeps every factor finite and normal
    qe, qc, qm = _scale(E), _scale(C), _scale(min(A, B, C))
    qw = qe // qc
    la, lb, lc = log(A), log(B), log(C)
    w = C / qc * (B / qw * la + A / qw * lb - (A + B) / qw * lc) / (E / qe)
    mu = C / qc * exp(w + log(qc // qm)) * (qm / A + qm / B + qm / C)
    gsq = Fraction(B * B, (A + B) * (B + C))
    alpha_exact = RATIONAL_ALPHA.get(gsq)
    if alpha_exact is not None:
        rationality, alpha, closed = "rational", float(alpha_exact), str(alpha_exact)
    else:
        rationality, alpha = "irrational", _alpha(m)
        if not isfinite(alpha):
            raise ValidationError(
                "alpha is below the float range (about -pi*sqrt(B/(A+C)) for A, C much smaller than B)"
            )
        closed = f"-1 - pi/arccos(sqrt({gsq.numerator}/{gsq.denominator}))"
    if (A, B, C) == (1, 1, 1):
        dfiniteness = "known_dfinite"
    elif rationality == "irrational":
        dfiniteness = "not_dfinite_proven"
    else:
        dfiniteness = "unknown"
    return ExponentReport(
        x=x,
        y=y,
        mu=mu,
        gamma=-sqrt(float(gsq)),
        gamma_sq=gsq,
        alpha=alpha,
        alpha_exact=alpha_exact,
        rationality=rationality,
        dfiniteness=dfiniteness,
        alpha_closed_form=closed,
    )
