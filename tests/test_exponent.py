from decimal import Decimal
from fractions import Fraction
from math import gcd, isclose, isfinite, pi, ulp

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tandemwalks import (
    RATIONAL_ALPHA,
    StepSet,
    TandemModel,
    ValidationError,
    exponent_report,
    tandem_step_set,
)
from tandemwalks.exponent import _alpha, _closed_form_logs

from conftest import (
    TABLE1_EXPECTED,
    coprime_triples,
    decimal_closed_forms,
    family,
    gamma_general,
    solve_critical_point,
    step_polynomial,
    swapped,
)

# gamma at the closed-form logs is as exact as the exact gamma^2, at any step size
GAMMA_REL_TOL = 1e-13


def _gradient(s, x, y):
    sx = sum(i * x ** (i - 1) * y**j for i, j in s.steps)
    sy = sum(j * x**i * y ** (j - 1) for i, j in s.steps)
    return sx, sy


def test_closed_form_unit_model():
    rep = exponent_report(TandemModel(1, 1, 1))
    assert isclose(rep.x, 1.0, abs_tol=1e-14)
    assert isclose(rep.y, 1.0, abs_tol=1e-14)
    assert isclose(rep.mu, 3.0, abs_tol=1e-14)


def test_closed_form_211():
    # solving S_x = S_y = 0 for S = x^2 + y/x + 1/y by hand gives
    # X^5 = 1/4 and Y^5 = 1/2
    rep = exponent_report(TandemModel(2, 1, 1))
    assert isclose(rep.x, 0.25 ** 0.2, abs_tol=1e-14)
    assert isclose(rep.y, 0.5 ** 0.2, abs_tol=1e-14)
    assert isclose(rep.mu, 2.5 * 2 ** 0.2, rel_tol=1e-14)


def test_closed_form_residuals():
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        rep = exponent_report(m)
        sx, sy = _gradient(s, rep.x, rep.y)
        assert abs(sx) <= 1e-10 and abs(sy) <= 1e-10
        assert isclose(step_polynomial(s, rep.x, rep.y), rep.mu, rel_tol=1e-12)


def test_solver_matches_closed_forms():
    for triple in coprime_triples(6):
        m = TandemModel(*triple)
        rep = exponent_report(m)
        xs, ys = solve_critical_point(tandem_step_set(m))
        assert abs(xs - rep.x) <= 1e-10 and abs(ys - rep.y) <= 1e-10


def test_solver_on_generic_steps():
    # small-step diagonal set, critical point known by symmetry at (1, 1)
    s = StepSet(((1, 0), (-1, 0), (0, 1), (0, -1)))
    x, y = solve_critical_point(s)
    assert isclose(x, 1.0, abs_tol=1e-10) and isclose(y, 1.0, abs_tol=1e-10)


def test_solver_rejects_half_plane():
    with pytest.raises(ValidationError):
        solve_critical_point(StepSet(((1, 0), (0, 1))))


def test_solver_iteration_cap():
    s = tandem_step_set(TandemModel(3, 2, 1))
    with pytest.raises(RuntimeError, match="Newton did not reach"):
        solve_critical_point(s, grad_tol=1e-12, max_iter=1)


# every member up to A = 1001: steps near 10^6, where an absolute gradient
# test never stops and x**i at a float x loses five digits of gamma
FAMILY_MEMBERS = (
    [family("quarter", A) for A in range(3, 1002, 2)]
    + [family("half", A) for A in range(3, 1002, 2)]
    + [family("three_quarter", A) for A in range(7, 1002, 6)]
)


def test_family_closed_forms_match_solver_and_exact_gamma():
    assert len(FAMILY_MEMBERS) == 1166
    for m in FAMILY_MEMBERS:
        s = tandem_step_set(m)
        rep = exponent_report(m)
        xs, ys = solve_critical_point(s)
        assert isclose(xs, rep.x, rel_tol=1e-12) and isclose(ys, rep.y, rel_tol=1e-12), m
        g = gamma_general(s, *_closed_form_logs(m))
        assert isclose(g * g, float(rep.gamma_sq), rel_tol=GAMMA_REL_TOL), m


def test_mu_is_minimum_of_step_polynomial():
    for triple in coprime_triples(5):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        rep = exponent_report(m)
        assert rep.mu <= 3.0 + 1e-12
        for fx, fy in [(1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)]:
            assert step_polynomial(s, rep.x * fx, rep.y * fy) >= rep.mu - 1e-12


def test_gamma_exact_examples():
    assert exponent_report(TandemModel(1, 1, 1)).gamma_sq == Fraction(1, 4)
    assert exponent_report(TandemModel(3, 2, 1)).gamma_sq == Fraction(4, 15)
    assert exponent_report(TandemModel(4, 4, 3)).gamma_sq == Fraction(2, 7)


def test_gamma_general_matches_exact():
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        g = gamma_general(s, *_closed_form_logs(m))
        assert g < 0
        assert isclose(g * g, float(exponent_report(m).gamma_sq), rel_tol=GAMMA_REL_TOL)


def test_hessian_closed_forms():
    # the simplified factored forms of the second derivatives at (X, Y)
    for triple in coprime_triples(6):
        A, B, C = triple
        m = TandemModel(A, B, C)
        s = tandem_step_set(m)
        rep = exponent_report(m)
        X, Y = rep.x, rep.y
        sxx = sum(i * (i - 1) * X ** (i - 2) * Y**j for i, j in s.steps)
        syy = sum(j * (j - 1) * X**i * Y ** (j - 2) for i, j in s.steps)
        sxy = sum(i * j * X ** (i - 1) * Y ** (j - 1) for i, j in s.steps)
        assert isclose(sxx, (A + B) * B * Y**B / X ** (B + 2), rel_tol=1e-10)
        assert isclose(syy, (B + C) * B * Y ** (B - 2) / X**B, rel_tol=1e-10)
        assert isclose(sxy, -(B**2) * Y ** (B - 1) / X ** (B + 1), rel_tol=1e-10)


def test_gamma_general_validation():
    with pytest.raises(ValidationError):
        gamma_general(StepSet(((1, 0), (-1, 0))), 0.0, 0.0)  # S_yy = 0
    with pytest.raises(ValidationError):
        gamma_general(StepSet(((0, 1), (1, 1))), 0.3, -0.2)  # S_xx = 0


def test_alpha_from_gamma():
    # the reports of the rational classes read alpha from the table; the
    # arctan route meets the same values; gamma^2 = 1/6 and 4/15 below
    assert isclose(_alpha(TandemModel(1, 1, 1)), -4.0, abs_tol=1e-12)
    assert isclose(_alpha(TandemModel(2, 6, 3)), -5.0, abs_tol=1e-12)
    assert isclose(_alpha(TandemModel(4, 60, 15)), -7.0, abs_tol=1e-12)
    assert isclose(_alpha(TandemModel(2, 1, 1)), -3.7312, abs_tol=1e-4)
    assert isclose(_alpha(TandemModel(3, 2, 1)), -4.05556, abs_tol=5e-6)


def test_alpha_range():
    # gamma in (-1, 0) puts alpha strictly below -3
    for triple in coprime_triples(8):
        rep = exponent_report(TandemModel(*triple))
        assert rep.alpha < -3.0
        assert isclose(
            rep.alpha, -1.0 - pi / _arccos_minus(rep.gamma), rel_tol=1e-12
        )


def _arccos_minus(g):
    from math import acos

    return acos(-g)


def test_classify_rationality():
    for triple, alpha in [((1, 1, 1), -4), ((2, 6, 3), -5), ((4, 60, 15), -7), ((3, 2, 1), None)]:
        rep = exponent_report(TandemModel(*triple))
        assert rep.rationality == ("irrational" if alpha is None else "rational")
        assert rep.alpha_exact == (None if alpha is None else Fraction(alpha))


def test_exponent_report_unit_model():
    rep = exponent_report(TandemModel(1, 1, 1))
    assert rep.alpha == -4.0
    assert rep.alpha_exact == Fraction(-4)
    assert rep.rationality == "rational"
    assert rep.dfiniteness == "known_dfinite"
    assert rep.alpha_closed_form == "-4"


def test_exponent_report_irrational():
    rep = exponent_report(TandemModel(3, 3, 1))
    assert rep.gamma_sq == Fraction(3, 8)
    assert rep.rationality == "irrational"
    assert rep.dfiniteness == "not_dfinite_proven"
    assert isclose(rep.alpha, -4.44572, abs_tol=5e-6)
    assert rep.alpha_closed_form == "-1 - pi/arccos(sqrt(3/8))"


def test_exponent_report_rational_nonunit():
    rep = exponent_report(TandemModel(2, 6, 3))
    assert rep.gamma_sq == Fraction(1, 2)
    assert rep.alpha == -5.0
    assert rep.rationality == "rational"
    assert rep.dfiniteness == "unknown"


def test_swap_invariance():
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        w = swapped(m)
        rep, rep_w = exponent_report(m), exponent_report(w)
        assert rep.gamma_sq == rep_w.gamma_sq
        assert isclose(rep.mu, rep_w.mu, rel_tol=1e-12)
        assert isclose(rep.alpha, rep_w.alpha, rel_tol=1e-12)


def test_exponent_table_rows():
    for _, tandem, gamma_sq, alpha, tol in TABLE1_EXPECTED:
        rep = exponent_report(TandemModel(*tandem))
        assert rep.gamma_sq == gamma_sq
        if tol == 0.0:
            assert rep.alpha == alpha
        else:
            assert abs(rep.alpha - alpha) <= tol


@pytest.mark.parametrize(
    "model",
    [TandemModel(9, 153, 136), family("half", 15), family("quarter", 1001), family("half", 1001)],
)
def test_closed_forms_large_triples(model):
    # the integer powers B^C * C^B / A^(B+C) of these triples overflow a float
    s = tandem_step_set(model)
    rep = exponent_report(model)
    X, Y = rep.x, rep.y
    assert isclose(step_polynomial(s, X, Y), rep.mu, rel_tol=1e-12)
    # x*S_x = y*S_y = 0 as balances of powers; an exponent near 1e6 turns one
    # ulp in X or Y into a relative error near 1e-10
    A, B, C = model.A, model.B, model.C
    assert isclose(A * X**A, B * Y**B / X**B, rel_tol=1e-9)
    assert isclose(C / Y**C, B * Y**B / X**B, rel_tol=1e-9)


def _rel(value, reference):
    return float(abs((Decimal(value) - reference) / reference))


# entries near 1 and entries far beyond a float's range, in every position
_HALF = family("half", 10**100 + 1)
_entries = st.one_of(st.integers(1, 50), st.integers(1, 10**400))


@settings(max_examples=150, deadline=None)
@given(st.tuples(_entries, _entries, _entries).filter(lambda t: gcd(*t) == 1))
@example((1, 10**20, 1))
@example((1, 10**400, 1))
@example((10**400, 1, 1))
@example((5, 10**15, 7))
@example((10**140 + 1, 10**46, 10**407))  # C e^w near 10^46 next to C near 10^407
@example((10**400 + 1, 10**400, 10**400 - 1))
@example((_HALF.A, _HALF.B, _HALF.C))
def test_closed_forms_match_the_decimal_oracle_at_any_size(triple):
    m = TandemModel(*triple)
    rep = exponent_report(m)
    x, y, mu, alpha = decimal_closed_forms(m)
    assert all(isfinite(v) for v in (rep.x, rep.y, rep.mu, rep.alpha))
    assert rep.alpha <= -3.0
    if rep.rationality == "rational":
        assert rep.alpha == float(RATIONAL_ALPHA[rep.gamma_sq]) == rep.alpha_exact
        assert abs(alpha - Decimal(rep.alpha)) < Decimal("1e-50")
    else:
        assert rep.alpha_exact is None and _rel(rep.alpha, alpha) <= 1e-15
    assert _rel(rep.x, x) <= 1e-12 and _rel(rep.y, y) <= 1e-12 and _rel(rep.mu, mu) <= 1e-12


def test_alpha_within_two_ulps_of_the_oracle():
    # (1, B, 1) took arccos within ~1/B of 1 through a float gamma: 8 ulps at B = 36
    triples = set(coprime_triples(8)) | {(1, B, 1) for B in range(1, 41)}
    for triple in sorted(triples):
        m = TandemModel(*triple)
        alpha = decimal_closed_forms(m, 50)[3]
        got = exponent_report(m).alpha
        assert abs(Decimal(got) - alpha) <= 2 * Decimal(ulp(float(alpha))), triple
