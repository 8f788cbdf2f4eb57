"""Numerical estimation of mu and alpha from excursion subsequences.

Counts on the period's progression behave like e_{pm} ~ kappa * mu^{pm} *
(pm)^alpha.  With u_m = log e_{pm}, the second difference

    alpha_hat_m = (u_{m+1} - 2 u_m + u_{m-1}) / log((m+1)(m-1)/m^2)

cancels kappa and mu exactly and converges to alpha like alpha + c_1/m +
c_2/m^2 + ...  Richardson extrapolation removes the leading corrections one
power at a time:

    R^k_m = (m * R^{k-1}_m - (m-k) * R^{k-1}_{m-1}) / k.

Deeper levels amplify rounding noise in the float logs, so levels are capped
(default 3) and the reported value comes from the last stable level.  Each
level is summarized by the mean of its last few entries; descending the
table stops when successive level means agree within ``STABILITY_TOL``, or
when a level starts diverging: its gap to the previous level grows, or its
tail spread blows up relative to the level before (the signature of noise
amplification).  The log-mu estimator (u_{m+1} - u_m - alpha_hat *
log((m+1)/m)) / p goes through the same extrapolation and pick, on the same
logs.

Results print to 17 digits, but extrapolation amplifies the rounding of the
input logs: logs moved by 1.2e-15 relative moved alpha_final of
``fit --model 1,1,1 --m-max 60`` by 2.0e-6.

For periods p > 1 only the Theta bound is guaranteed; the fit assumes the
subsequence itself behaves smoothly and consumes no terms off the
progression.  The fit knows no closed form: a caller measures its deviation
against ``exponent_report(model).alpha``, as ``fit --format json`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, log1p

from .enumeration import CountSequence
from .errors import ValidationError

MAX_RICHARDSON_LEVELS = 3
STABILITY_TOL = 1e-3


@dataclass(frozen=True)
class FitResult:
    m_range: tuple[int, int]
    ms: tuple[int, ...]
    alpha_estimates: tuple[float, ...]
    richardson_levels: tuple[tuple[float, ...], ...]
    level_used: int
    alpha_final: float
    mu_final: float


def _subsequence_logs(e: CountSequence, p: int) -> tuple[int, list[float]]:
    """(m_lo, [u_{m_lo}, ...]) over the contiguous nonzero support of e_{pm}."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValidationError(f"period must be a positive integer, got {p!r}")
    zero_log = float("-inf")
    if e.mode == "exact":
        logs = [log(v) if v != 0 else zero_log for v in e.values[::p]]
    else:
        logs = [float(v) for v in e.values[::p]]
    support = [m for m, u in enumerate(logs) if u != zero_log]
    if not support:
        raise ValidationError("no nonzero terms on the progression; check the period")
    m_lo, m_hi = support[0], support[-1]
    if len(support) != m_hi - m_lo + 1:
        missing = logs.index(zero_log, m_lo)
        raise ValidationError(f"zero term inside the progression at m = {missing} (n = {p * missing})")
    if len(support) < 5:
        raise ValidationError(f"need a contiguous nonzero run of length >= 5, got {len(support)}")
    return m_lo, logs[m_lo:m_hi + 1]


def _richardson(ms: range, values: list[float], max_levels: int) -> list[list[float]]:
    """Levels 0..k of the extrapolation table; level k is aligned to ms[k:]."""
    if not isinstance(max_levels, int) or isinstance(max_levels, bool) or max_levels < 0:
        raise ValidationError(f"max_levels must be a nonnegative integer, got {max_levels!r}")
    levels = [values]
    for k in range(1, min(max_levels, len(values) - 1) + 1):
        prev, m = levels[-1], ms[k - 1:]
        levels.append([(m[i] * prev[i] - (m[i] - k) * prev[i - 1]) / k for i in range(1, len(prev))])
    return levels


_TAIL_WINDOW = 10


def _pick_stable(levels: list[list[float]]) -> tuple[int, float]:
    """Last stable level's tail mean, per the stop-or-diverge rule."""
    tails = [lev[-_TAIL_WINDOW:] for lev in levels]
    stats = [(sum(t) / len(t), max(t) - min(t)) for t in tails]
    prev_gap = None
    for k in range(1, len(stats)):
        value, spread = stats[k]
        prev_value, prev_spread = stats[k - 1]
        gap = abs(value - prev_value)
        noise_blowup = spread > max(5 * prev_spread, 1e-9)
        if noise_blowup or (prev_gap is not None and gap > prev_gap):
            return k - 1, prev_value
        if gap < STABILITY_TOL:
            return k, value
        prev_gap = gap
    return len(stats) - 1, stats[-1][0]


def _log_mu(m_lo: int, u: list[float], p: int, alpha_hat: float, max_levels: int) -> float:
    """Stable Richardson level's tail mean of the log mu estimator."""
    ms = range(max(m_lo, 1), m_lo + len(u) - 1)
    estimates = [(u[m + 1 - m_lo] - u[m - m_lo] - alpha_hat * log((m + 1) / m)) / p for m in ms]
    return _pick_stable(_richardson(ms, estimates, max_levels))[1]


def estimate_alpha(e: CountSequence, p: int, max_levels: int = MAX_RICHARDSON_LEVELS) -> FitResult:
    m_lo, u = _subsequence_logs(e, p)
    m_hi = m_lo + len(u) - 1
    ms = range(max(m_lo + 1, 2), m_hi)
    # the denominator is log((m+1)(m-1)/m^2)
    estimates = [
        (u[m + 1 - m_lo] - 2 * u[m - m_lo] + u[m - 1 - m_lo]) / log1p(-1.0 / (m * m)) for m in ms
    ]
    levels = _richardson(ms, estimates, max_levels)
    level_used, alpha_final = _pick_stable(levels)
    return FitResult(
        m_range=(m_lo, m_hi),
        ms=tuple(ms),
        alpha_estimates=tuple(estimates),
        richardson_levels=tuple(tuple(lev) for lev in levels),
        level_used=level_used,
        alpha_final=alpha_final,
        mu_final=exp(_log_mu(m_lo, u, p, alpha_final, max_levels)),
    )
