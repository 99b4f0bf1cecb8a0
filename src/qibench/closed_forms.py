"""Closed-form benchmark bounds for coherent-state microwave illumination.

Implements the printed error-probability bounds for the amplified and the
cryogenically attenuated (maser) coherent-state sources,

    P_err <= (1 / (2 xi1)) exp(-M mu xi2),

their optical and high-background limits, the TMSV error-exponent asymptote,
and the relative-entropy pairs (D, V) for the asymmetric setting, all in
received photon numbers per mode: signal mu, excess noise e and background
N_B. The three coherent sources share one bound and one (D, V) primitive:
the maser is the amplified form with N_A -> n_T, the optical source the same
at e = 0. :func:`closed_bound` and :func:`closed_qre` read (mu, e, N_B) from
``Scenario``, the one place that applies the reflectivity. Square-root
differences are evaluated through their conjugate forms, e.g.

    sqrt(N_B + 1) - sqrt(N_B) = 1 / (sqrt(N_B + 1) + sqrt(N_B)),

which are mathematically identical to the printed expressions but keep full
relative precision at N_B ~ 1e3..1e8; the test suite pins them against
literal transcriptions in cancellation-free parameter ranges.
"""

from __future__ import annotations

import math

import numpy as np

from .chernoff import BoundResult
from .gaussian import _check_copies
from .protocols import Scenario

_SERIES_EPS = 1e-18


def _sqrt_gap(n: float) -> float:
    """sqrt(n + 1) - sqrt(n) via the conjugate form."""
    return 1.0 / (math.sqrt(n + 1.0) + math.sqrt(n))


def _xi1(n1: float, n_b: float) -> float:
    """Prefactor coefficient for H1 occupation n1 = N_B + e.

    Conjugate form of the printed radical: xi1 equals
    sqrt((N_B+1)(n1+1)) - sqrt(N_B n1), rewritten as
    (1 + N_B + n1) / (sqrt((N_B+1)(n1+1)) + sqrt(N_B n1)).
    """
    return (1.0 + n_b + n1) / (math.sqrt((n_b + 1.0) * (n1 + 1.0)) + math.sqrt(n_b * n1))


def _xi2(n1: float, n_b: float) -> float:
    """Exponent coefficient for H1 occupation n1 = N_B + e."""
    numerator = _sqrt_gap(n_b) * _sqrt_gap(n1)
    return numerator / _xi1(n1, n_b)


def _printed_value(prefactor: float, exponent: float, copies: int | np.ndarray) -> float | np.ndarray:
    """(1/2) prefactor exp(-M exponent) at one copy count M or elementwise at an int array of them."""
    return 0.5 * prefactor * np.exp(-copies * exponent)


def _bound(prefactor: float, exponent: float, copies: int) -> BoundResult:
    return BoundResult(
        value=float(_printed_value(prefactor, exponent, copies)),
        per_mode_overlap=math.exp(-exponent),
        s_star=0.5,
        copies=copies,
        prefactor=prefactor,
        mean_exponent=exponent,
    )


def _check_limit_inputs(
    mu: float, n_b: float, copies: int = 1, excess: float = 0.0, zero_background: bool = False
) -> None:
    """Reject inputs outside a closed form's domain, NaN and inf included; n_b = 0 only with ``zero_background``."""
    n_b_ok = 0.0 < n_b < math.inf or zero_background and n_b == 0.0
    if not (0.0 <= mu < math.inf and 0.0 <= excess < math.inf and n_b_ok):
        rule = ">=" if zero_background else ">"
        raise ValueError(
            f"requires finite n_s >= 0, excess >= 0 and n_b {rule} 0, got n_s={mu!r}, excess={excess!r}, n_b={n_b!r}"
        )
    _check_copies(copies)


def qcb_coherent(mu: float, excess: float, n_b: float, copies: int = 1) -> BoundResult:
    """Coherent-source bound (1/(2 xi1)) exp(-M mu xi2) with H1 occupation N_B + excess.

    The excess is ``Scenario.received_excess``: the amplifier noise N_A or the
    stage occupation n_T as received, and 0 for the optical source, where the
    bound reduces to (1/2) exp(-M mu (sqrt(N_B+1)-sqrt(N_B))^2). N_B = 0 is
    allowed here, as in :class:`~qibench.protocols.Scenario`.
    """
    _check_limit_inputs(mu, n_b, copies, excess=excess, zero_background=True)
    n1 = excess + n_b
    return _bound(1.0 / _xi1(n1, n_b), mu * _xi2(n1, n_b), copies)


def qcb_high_background(mu: float, n_b: float, copies: int = 1) -> BoundResult:
    """Large-background limit (1/2) exp(-M mu / (4 N_B))."""
    _check_limit_inputs(mu, n_b, copies)
    return _bound(1.0, mu / (4.0 * n_b), copies)


def tmsv_asymptote(mu: float, n_b: float, copies: int = 1) -> BoundResult:
    """Entangled-source asymptote (1/2) exp(-M mu / N_B), for comparison curves."""
    _check_limit_inputs(mu, n_b, copies)
    return _bound(1.0, mu / n_b, copies)


def _log1p_minus_x(x: float) -> float:
    """log1p(x) - x, by series for small x to keep relative precision."""
    if abs(x) > 0.5:
        return math.log1p(x) - x
    total = 0.0
    term = x
    m = 1
    while True:
        m += 1
        term *= -x
        contribution = term / m
        total += contribution
        if abs(contribution) <= _SERIES_EPS * max(abs(total), 1e-300) or m > 120:
            return total


def _covariance_divergence(excess: float, n_b: float) -> float:
    """(1 + 2 N_B)(g1 - g0) + ln R for H1 occupation N_B + excess.

    Equals 2 (N_B + 1) log1p(e / (N_B + 1)) - 2 N_B log1p(e / N_B); the
    linear parts cancel identically, so for small e / N_B the series form
    of log1p(x) - x is used to retain the O(e^2) remainder.
    """
    if excess == 0.0:
        return 0.0
    a = n_b
    b = n_b + 1.0
    if excess <= 0.5 * a:
        return 2.0 * (b * _log1p_minus_x(excess / b) - a * _log1p_minus_x(excess / a))
    return 2.0 * (b * math.log1p(excess / b) - a * math.log1p(excess / a))


def _delta_g(n1: float, n_b: float) -> float:
    """g0 - g1 = ln(1 + 1/N_B) - ln(1 + 1/n1), cancellation-free."""
    u0 = 0.5 / (n_b + 0.5)
    u1 = 0.5 / (n1 + 0.5)
    return 2.0 * math.atanh((u0 - u1) / (1.0 - u0 * u1))


def qre_coherent(mu: float, excess: float, n_b: float) -> tuple[float, float]:
    """(D, V) for received signal mu and H1 excess noise e over N_B; requires N_B > 0."""
    _check_limit_inputs(mu, n_b, excess=excess)
    n1 = excess + n_b
    g1 = math.log1p(1.0 / n1)
    d = mu * g1 + 0.5 * _covariance_divergence(excess, n_b)
    dg = _delta_g(n1, n_b)
    v = n_b * (1.0 + n_b) * dg * dg + mu * (2.0 * n_b + 1.0) * g1 * g1
    return d, v


def closed_bound(scenario: Scenario) -> BoundResult:
    """Closed-form symmetric bound for a scenario."""
    return qcb_coherent(scenario.received_signal, scenario.received_excess, scenario.background, scenario.copies)


def closed_qre(scenario: Scenario) -> tuple[float, float]:
    """Closed-form (D, V) for a scenario."""
    return qre_coherent(scenario.received_signal, scenario.received_excess, scenario.background)
