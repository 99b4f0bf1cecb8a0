"""Special functions shared by the detection formulas, evaluated elementwise.

Each takes a float or an array and returns a float for a 0-d input, else an
array of the input's shape; one element outside the domain raises ValueError.
erfc is scipy's (relative error below 1e-14 on the ranges used here). Its
inverse is scipy's erfcinv refined by Newton steps on erfc, so the round trip
closes to 1e-12. One loop serves the whole array, and each element stops where
a loop over it alone would: at a zero residual, at a step that no longer moves
it, or after three steps. The step takes numpy's exp, which may differ from
libm's in the last bit; the seed is within about ten ulps of the root, so the
step is too, and that bit does not reach x. A test holds the result bit for bit
to the loop with libm's exp. scipy.special is imported inside the two
functions that call it, so importing this module loads numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


def _in_open_interval(values, lo: float, hi: float, message: str) -> np.ndarray:
    """``values`` as a float array, or ValueError(message) unless all lie in (lo, hi)."""
    a = np.asarray(values, dtype=float)
    if not np.all((lo < a) & (a < hi)):
        raise ValueError(message)
    return a


def _float_if_0d(a):
    return float(a) if np.ndim(a) == 0 else a


def erfc(x):
    """Complementary error function."""
    import scipy.special as sp

    return _float_if_0d(sp.erfc(x))


def erfc_inv(y):
    """Inverse of erfc on (0, 2), Newton-refined to round-trip accuracy 1e-12.

    Below y ~ 1.2e-310, where erfc(x) underflows to 0 and so does a Newton
    step on it, and at the smallest subnormal, where scipy's seed is inf, the
    root comes from the asymptotic tail of ln erfc instead.
    """
    y = _in_open_interval(y, 0.0, 2.0, "erfc_inv is defined on the open interval (0, 2)")
    import scipy.special as sp

    flat = y.reshape(-1)
    x = sp.erfcinv(flat)
    tail = np.zeros(flat.shape, dtype=bool)
    live = np.arange(flat.size)
    # the step of a tail element overflows; that element is dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            x_live = x[live]
            value = sp.erfc(x_live)
            # erfc underflows (and scipy's seed is inf at the smallest
            # subnormal) exactly where exp(x*x) in the step overflows
            underflow = value == 0.0
            tail[live[underflow]] = True
            residual = value - flat[live]
            # d/dx erfc(x) = -2/sqrt(pi) exp(-x^2)
            x_new = x_live + residual * np.exp(x_live * x_live) / _TWO_OVER_SQRT_PI
            moves = ~underflow & (residual != 0.0) & (x_new != x_live)
            live = live[moves]
            if not live.size:
                break
            x[live] = x_new[moves]
    for i in np.flatnonzero(tail):
        x[i] = _erfc_inv_tail(float(flat[i]))
    return _float_if_0d((x + 0.0).reshape(y.shape))


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


def normal_quantile(epsilon):
    """Standard normal quantile, Phi^{-1}(eps) = -sqrt(2) * erfc_inv(2 eps)."""
    eps = _in_open_interval(epsilon, 0.0, 1.0, "quantile argument must lie in (0, 1)")
    return -math.sqrt(2.0) * erfc_inv(2.0 * eps) + 0.0
