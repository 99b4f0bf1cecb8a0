"""Special functions shared by the detection formulas.

erfc is delegated to scipy's implementation (relative error below 1e-14 on
the ranges used here); the inverse is an accurate seed refined by Newton
iterations on erfc itself so the round trip closes to 1e-12.
"""

from __future__ import annotations

import math

from ._lazy import lazy_module

sp = lazy_module("scipy.special")

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


def erfc(x: float) -> float:
    """Complementary error function."""
    return float(sp.erfc(x))


def erfc_inv(y: float) -> float:
    """Inverse of erfc on (0, 2), Newton-refined to round-trip accuracy 1e-12.

    Below y ~ 1.2e-310, where erfc(x) underflows to 0 and so does a Newton
    step on it, and at the smallest subnormal, where scipy's seed is inf, the
    root comes from the asymptotic tail of ln erfc instead.
    """
    if not 0.0 < y < 2.0:
        raise ValueError("erfc_inv is defined on the open interval (0, 2)")
    x = float(sp.erfcinv(y))
    for _ in range(3):
        value = float(sp.erfc(x))
        if value == 0.0:
            # erfc underflows (and scipy's seed is inf at the smallest
            # subnormal) exactly where exp(x*x) in the step overflows
            return _erfc_inv_tail(y)
        residual = value - y
        if residual == 0.0:
            break
        # d/dx erfc(x) = -2/sqrt(pi) exp(-x^2)
        step = residual * math.exp(x * x) / _TWO_OVER_SQRT_PI
        x_new = x + step
        if x_new == x:
            break
        x = x_new
    return x + 0.0


def _erfc_inv_tail(y: float) -> float:
    """Root of ln erfc(x) = ln y for y far below the range where erfc(x) is normal.

    Newton steps on ln erfc(x) = -x^2 - ln(x sqrt(pi)) + ln S(x), with the
    asymptotic series S(x) = 1 - z + 3z^2 - 15z^3 + 105z^4 in z = 1/(2x^2)
    (truncation error below 3e-13 for x > 26) and d/dx ln erfc = -2x / S.
    """
    ln_y = math.log(y)
    x = math.sqrt(-ln_y)
    for _ in range(10):
        z = 0.5 / (x * x)
        series = 1.0 - z * (1.0 - 3.0 * z * (1.0 - 5.0 * z * (1.0 - 7.0 * z)))
        residual = -x * x - math.log(x * _SQRT_PI) + math.log(series) - ln_y
        x_new = x + residual * series / (2.0 * x)
        if x_new == x:
            break
        x = x_new
    return x


def normal_quantile(epsilon: float) -> float:
    """Standard normal quantile, Phi^{-1}(eps) = -sqrt(2) * erfc_inv(2 eps)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    return -math.sqrt(2.0) * erfc_inv(2.0 * epsilon) + 0.0
