import math

import numpy as np
import pytest
import scipy.special as sp

from qibench.special import erfc, erfc_inv, normal_quantile


def bisect_erfc_inv(y, lo=-30.0, hi=30.0, iters=200):
    """Independent bisection oracle for erfc(x) = y (erfc is decreasing)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if erfc(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_erfc_inv_unit_is_zero():
    assert erfc_inv(1.0) == 0.0


def test_erfc_inv_against_bisection():
    for y in (0.5, 0.1, 1.5, 1.9, 1e-6):
        assert erfc_inv(y) == pytest.approx(bisect_erfc_inv(y), abs=1e-12)
    assert erfc_inv(0.5) == pytest.approx(0.4769362762044699, abs=1e-14)


def test_erfc_inv_round_trip():
    ys = np.concatenate([np.geomspace(1e-12, 1.0, 300), 2.0 - np.geomspace(1e-12, 1.0, 300)])
    for y in ys:
        x = erfc_inv(float(y))
        assert abs(erfc(x) - y) / y <= 1e-12


def test_erfc_inv_near_two_is_large_negative():
    x = erfc_inv(2.0 - 1e-12)
    assert x < -4.0
    assert abs(erfc(x) - (2.0 - 1e-12)) / (2.0 - 1e-12) <= 1e-12


def test_erfc_inv_domain():
    for y in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(ValueError):
            erfc_inv(y)


def test_normal_quantile_median_exact():
    value = normal_quantile(0.5)
    assert value == 0.0
    assert math.copysign(1.0, value) == 1.0


def test_normal_quantile_against_ndtri():
    # scipy's ndtri is an independent implementation of the same quantile
    for eps in (1e-9, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9):
        assert normal_quantile(eps) == pytest.approx(float(sp.ndtri(eps)), rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_erfc_inv_where_erfc_underflows():
    # erfc underflows to 0 below y ~ 1.2e-310; the Newton step would overflow there
    ys = {float(y) for y in np.geomspace(1e-290, 1e-323, 200)} | {1e-315, 2e-320, 5e-324}
    ys = sorted(ys, reverse=True)
    xs = [erfc_inv(y) for y in ys]
    assert not any(math.isnan(x) for x in xs)
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    assert math.isfinite(erfc_inv(2e-320)) and erfc_inv(2e-320) > erfc_inv(1e-315)
    assert math.isfinite(normal_quantile(1e-320))
    # mpmath root of ln erfc(x) = ln(1e-315); scipy's unrefined seed is 3.4e-12 off
    assert erfc_inv(1e-315) == pytest.approx(26.85983275331074, rel=1e-12)
    # scipy's seed is inf at the smallest subnormal; mpmath root of ln erfc(x) = ln(2^-1074)
    assert erfc_inv(5e-324) == pytest.approx(27.21329321081295, rel=1e-12)
