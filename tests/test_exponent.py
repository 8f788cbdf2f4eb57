from fractions import Fraction
from math import isclose, pi, sqrt

import pytest

from tandemwalks import (
    NonConvergenceError,
    StepSet,
    TandemModel,
    ValidationError,
    alpha_from_gamma,
    classify_rationality,
    closed_form_critical_point,
    exponent_report,
    family,
    gamma_exact_sq,
    gamma_general,
    growth_constant,
    solve_critical_point,
    step_polynomial,
    tandem_step_set,
)
from tandemwalks.exponent import _closed_form_logs

from conftest import TABLE1_EXPECTED, coprime_triples

# gamma at the closed-form logs is as exact as gamma_exact_sq, at any step size
GAMMA_REL_TOL = 1e-13


def _gradient(s, x, y):
    sx = sum(i * x ** (i - 1) * y**j for i, j in s.steps)
    sy = sum(j * x**i * y ** (j - 1) for i, j in s.steps)
    return sx, sy


def test_closed_form_unit_model():
    X, Y = closed_form_critical_point(TandemModel(1, 1, 1))
    assert isclose(X, 1.0, abs_tol=1e-14)
    assert isclose(Y, 1.0, abs_tol=1e-14)
    assert isclose(growth_constant(TandemModel(1, 1, 1)), 3.0, abs_tol=1e-14)


def test_closed_form_211():
    # solving S_x = S_y = 0 for S = x^2 + y/x + 1/y by hand gives
    # X^5 = 1/4 and Y^5 = 1/2
    X, Y = closed_form_critical_point(TandemModel(2, 1, 1))
    assert isclose(X, 0.25 ** 0.2, abs_tol=1e-14)
    assert isclose(Y, 0.5 ** 0.2, abs_tol=1e-14)
    mu = growth_constant(TandemModel(2, 1, 1))
    assert isclose(mu, 2.5 * 2 ** 0.2, rel_tol=1e-14)


def test_closed_form_residuals():
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        X, Y = closed_form_critical_point(m)
        sx, sy = _gradient(s, X, Y)
        assert abs(sx) <= 1e-10 and abs(sy) <= 1e-10
        assert isclose(step_polynomial(s, X, Y), growth_constant(m), rel_tol=1e-12)


def test_solver_matches_closed_forms():
    for triple in coprime_triples(6):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        X, Y = closed_form_critical_point(m)
        xs, ys = solve_critical_point(s)
        assert abs(xs - X) <= 1e-10 and abs(ys - Y) <= 1e-10


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
    with pytest.raises(NonConvergenceError):
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
        X, Y = closed_form_critical_point(m)
        xs, ys = solve_critical_point(s)
        assert isclose(xs, X, rel_tol=1e-12) and isclose(ys, Y, rel_tol=1e-12), m
        g = gamma_general(s, *_closed_form_logs(m))
        assert isclose(g * g, float(gamma_exact_sq(m)), rel_tol=GAMMA_REL_TOL), m


def test_mu_is_minimum_of_step_polynomial():
    for triple in coprime_triples(5):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        X, Y = closed_form_critical_point(m)
        mu = growth_constant(m)
        assert mu <= 3.0 + 1e-12
        for fx, fy in [(1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)]:
            assert step_polynomial(s, X * fx, Y * fy) >= mu - 1e-12


def test_gamma_exact_examples():
    assert gamma_exact_sq(TandemModel(1, 1, 1)) == Fraction(1, 4)
    assert gamma_exact_sq(TandemModel(3, 2, 1)) == Fraction(4, 15)
    assert gamma_exact_sq(TandemModel(4, 4, 3)) == Fraction(2, 7)


def test_gamma_general_matches_exact():
    for triple in coprime_triples(10):
        m = TandemModel(*triple)
        s = tandem_step_set(m)
        g = gamma_general(s, *_closed_form_logs(m))
        assert g < 0
        assert isclose(g * g, float(gamma_exact_sq(m)), rel_tol=GAMMA_REL_TOL)


def test_hessian_closed_forms():
    # the simplified factored forms of the second derivatives at (X, Y)
    for triple in coprime_triples(6):
        A, B, C = triple
        m = TandemModel(A, B, C)
        s = tandem_step_set(m)
        X, Y = closed_form_critical_point(m)
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
    assert isclose(alpha_from_gamma(-0.5), -4.0, abs_tol=1e-12)
    assert isclose(alpha_from_gamma(-1 / sqrt(2)), -5.0, abs_tol=1e-12)
    assert isclose(alpha_from_gamma(-sqrt(3) / 2), -7.0, abs_tol=1e-12)
    assert isclose(alpha_from_gamma(-1 / sqrt(6)), -3.7312, abs_tol=1e-4)
    assert isclose(alpha_from_gamma(-2 / sqrt(15)), -4.05556, abs_tol=5e-6)
    for bad in (-1.0, 1.0, -1.5, 2.0):
        with pytest.raises(ValidationError):
            alpha_from_gamma(bad)


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
    assert classify_rationality(Fraction(1, 4)) == ("rational", Fraction(-4))
    assert classify_rationality(Fraction(1, 2)) == ("rational", Fraction(-5))
    assert classify_rationality(Fraction(3, 4)) == ("rational", Fraction(-7))
    assert classify_rationality(Fraction(4, 15)) == ("irrational", None)
    for bad in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 4)):
        with pytest.raises(ValidationError):
            classify_rationality(bad)


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
        w = m.swapped()
        assert gamma_exact_sq(m) == gamma_exact_sq(w)
        assert isclose(growth_constant(m), growth_constant(w), rel_tol=1e-12)
        assert isclose(exponent_report(m).alpha, exponent_report(w).alpha, rel_tol=1e-12)


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
    X, Y = closed_form_critical_point(model)
    assert isclose(step_polynomial(s, X, Y), growth_constant(model), rel_tol=1e-12)
    # x*S_x = y*S_y = 0 as balances of powers; an exponent near 1e6 turns one
    # ulp in X or Y into a relative error near 1e-10
    A, B, C = model.A, model.B, model.C
    assert isclose(A * X**A, B * Y**B / X**B, rel_tol=1e-9)
    assert isclose(C / Y**C, B * Y**B / X**B, rel_tol=1e-9)
    assert exponent_report(model).mu == growth_constant(model)
