import re
from math import log

import pytest

from tandemwalks import (
    CountSequence,
    TandemModel,
    ValidationError,
    count_excursions,
    estimate_alpha,
    tandem_step_set,
)
from tandemwalks.fit import MAX_RICHARDSON_LEVELS, _richardson

from conftest import estimate_mu


def synthetic_logfloat(kappa, mu, alpha, p, m_max, noise=None):
    """u_m = log kappa + pm log mu + alpha log(pm) on the progression."""
    values = []
    for n in range(p * m_max + 1):
        if n == 0:
            values.append(0.0)
        elif n % p == 0:
            u = log(kappa) + n * log(mu) + alpha * log(n)
            if noise is not None:
                u += noise(n)
            values.append(u)
        else:
            values.append(float("-inf"))
    return CountSequence("logfloat", tuple(values))


def test_estimator_exact_on_pure_model():
    seq = synthetic_logfloat(2.3, 2.87, -3.7312, 5, 205)
    res = estimate_alpha(seq, 5)
    # the estimator cancels kappa and mu algebraically; only float noise,
    # amplified by the m^2 division, remains
    assert max(abs(v + 3.7312) for v in res.alpha_estimates) < 1e-6
    assert abs(res.alpha_final + 3.7312) < 1e-7
    assert abs(res.mu_final - 2.87) < 1e-9


def test_constant_ratio_sequence():
    values = [0] * 81
    for m in range(21):
        values[4 * m] = 2**m
    seq = CountSequence("exact", tuple(values))
    res = estimate_alpha(seq, 4)
    assert max(abs(v) for v in res.alpha_estimates) < 1e-8
    assert abs(res.alpha_final) < 1e-8
    assert abs(estimate_mu(seq, 4, 0.0) - 2 ** 0.25) < 1e-12


def test_geometric_with_unit_period():
    values = tuple(2**n for n in range(30))
    seq = CountSequence("exact", values)
    assert abs(estimate_mu(seq, 1, 0.0) - 2.0) < 1e-12


def test_richardson_levels_improve():
    # exact unit-model data: each retained extrapolation level cuts the
    # worst error over the last 20 indices; the capped deepest level is
    # noise-bound and excluded by the stability pick
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 363)
    res = estimate_alpha(seq, 3)
    errors = []
    # the fit's extrapolation table, rebuilt from its own estimates
    levels = _richardson(res.ms, list(res.alpha_estimates), MAX_RICHARDSON_LEVELS)
    for level in levels[: res.level_used + 1]:
        errors.append(max(abs(v + 4.0) for v in level[-20:]))
    assert all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))
    assert res.level_used >= 1
    assert abs(res.alpha_final - -4.0) < 1e-3


def test_fit_accuracy_exact_unit_model():
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 363)
    res = estimate_alpha(seq, 3)
    assert abs(res.alpha_final - -4.0) < 1e-3
    assert abs(res.mu_final - 3.0) < 1e-3


def test_fit_accuracy_logfloat_211():
    m = TandemModel(2, 1, 1)
    seq = count_excursions(tandem_step_set(m), 505, "logfloat")
    res = estimate_alpha(seq, 5)
    assert abs(res.alpha_final - -3.7312) < 0.01
    assert abs(res.mu_final - 2.5 * 2 ** 0.2) < 0.01


def test_progression_only_consumption():
    # terms off the arithmetic progression never influence the fit
    base = synthetic_logfloat(1.7, 2.5, -4.0, 3, 60)
    tweaked = list(base.values)
    for n in range(len(tweaked)):
        if n % 3:
            tweaked[n] = 123.456  # garbage off the progression
    other = CountSequence("logfloat", tuple(tweaked))
    r1 = estimate_alpha(base, 3)
    r2 = estimate_alpha(other, 3)
    assert r1.alpha_estimates == r2.alpha_estimates
    assert r1.alpha_final == r2.alpha_final
    assert r1.mu_final == r2.mu_final


def test_zero_term_inside_progression():
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 36)
    msg = "zero term inside the progression at m = 1 (n = 2)"
    with pytest.raises(ValidationError, match=re.escape(msg)):
        estimate_alpha(seq, 2)  # e_{2m} vanishes unless 3 | m


def test_insufficient_data():
    seq = count_excursions(tandem_step_set(TandemModel(3, 2, 1)), 33)
    with pytest.raises(ValidationError):
        estimate_alpha(seq, 11)  # only m = 0..3 available


def test_all_zero_progression():
    seq = CountSequence("exact", (0,) * 20)
    with pytest.raises(ValidationError, match="no nonzero"):
        estimate_alpha(seq, 5)


def test_short_progression():
    seq = count_excursions(tandem_step_set(TandemModel(3, 2, 1)), 10)
    with pytest.raises(ValidationError):
        estimate_alpha(seq, 5)  # only m = 0 is nonzero


def test_period_validation():
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 30)
    with pytest.raises(ValidationError):
        estimate_alpha(seq, 0)
    with pytest.raises(ValidationError):
        estimate_mu(seq, -3, 0.0)


@pytest.mark.parametrize("levels", [-1, 2.5, True])
def test_max_levels_validation(levels):
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 30)
    with pytest.raises(ValidationError, match="max_levels"):
        estimate_alpha(seq, 3, max_levels=levels)
    with pytest.raises(ValidationError, match="max_levels"):
        estimate_mu(seq, 3, -4.0, levels)


def test_richardson_level_zero_only():
    seq = count_excursions(tandem_step_set(TandemModel(1, 1, 1)), 363)
    res = estimate_alpha(seq, 3, max_levels=0)
    assert res.level_used == 0
    assert len(_richardson(res.ms, list(res.alpha_estimates), 0)) == 1


@pytest.mark.parametrize("mode", ["exact", "logfloat"])
@pytest.mark.parametrize("levels", [0, 3])
def test_estimate_mu_matches_fit(mode, levels):
    # estimate_alpha's mu_final comes from the same logs and the same
    # extrapolation as estimate_mu, so the two agree exactly
    m = TandemModel(3, 2, 1)
    seq = count_excursions(tandem_step_set(m), 30 * m.period, mode)
    res = estimate_alpha(seq, m.period, max_levels=levels)
    assert estimate_mu(seq, m.period, res.alpha_final, levels) == res.mu_final
