"""Growth constants and critical exponents of tandem quarter-plane models.

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
rules out a differentially finite excursion series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import acos, exp, hypot, log, pi, sqrt

from .errors import NonConvergenceError, ValidationError
from .models import StepSet, TandemModel, tandem_step_set

GRAD_TOL = 1e-12
MAX_NEWTON_ITER = 200

# gamma^2 -> alpha for the three rational-exponent classes, the one list of them;
# classify.FAMILIES names them in this order
RATIONAL_ALPHA = {
    Fraction(1, 4): Fraction(-4),
    Fraction(1, 2): Fraction(-5),
    Fraction(3, 4): Fraction(-7),
}


@dataclass(frozen=True)
class ExponentReport:
    """Everything the exponent pipeline knows about one tandem model."""

    model: TandemModel
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


def step_polynomial(s: StepSet, x: float, y: float) -> float:
    return sum(x**i * y**j for i, j in s.steps)


def _log_moments(s: StepSet, u: float, v: float):
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


def solve_critical_point(
    s: StepSet,
    grad_tol: float = GRAD_TOL,
    max_iter: int = MAX_NEWTON_ITER,
) -> tuple[float, float]:
    """Positive critical point of the step polynomial, by damped Newton.

    In the coordinates u = log x, v = log y the objective
    f(u, v) = sum exp(i*u + j*v) is strictly convex whenever the steps are
    not confined to a half-plane, so Newton with step-halving from (0, 0)
    converges to the unique minimum.

    The stopping test is relative: the gradient norm must fall to
    ``grad_tol`` times the norm of (sum |i|*w, sum |j|*w), the size of the
    terms it cancels, w = exp(i*u + j*v).  Rounding alone leaves a gradient
    of about one ulp of that size, which for steps of 10^6 lies far above any
    fixed absolute tolerance.
    """
    if not s.not_in_half_plane():
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
    raise NonConvergenceError(
        f"Newton did not reach relative gradient norm {grad_tol} in {max_iter} iterations"
    )


def gamma_general(s: StepSet, u: float, v: float) -> float:
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
        model=m,
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
