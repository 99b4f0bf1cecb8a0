import math

import numpy as np
import pytest
import scipy.special as sp

from qibench import special
from qibench.homodyne import DEFAULT_PFA_GRID
from qibench.relent import DEFAULT_EPSILON_GRID
from qibench.special import _erfc_inv_seed, _erfc_inv_tail, erfc, erfc_inv, normal_quantile


def erfc_inv_reference(y):
    """erfc_inv of one point as a per-point loop: scalar scipy calls and libm's exp.

    The reference for bit identity of the elementwise evaluation.
    """
    x = float(sp.erfcinv(y))
    for _ in range(3):
        value = float(sp.erfc(x))
        if value == 0.0:
            return _erfc_inv_tail(y)
        residual = value - y
        if residual == 0.0:
            break
        x_new = x + residual * math.exp(x * x) / (2.0 / math.sqrt(math.pi))
        if x_new == x:
            break
        x = x_new
    return x + 0.0


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


def test_erfc_inv_array_bit_identical_to_per_point_loop():
    rng = np.random.default_rng(20250808)
    ys = np.concatenate(
        [
            rng.uniform(0.0, 2.0, 6000),
            10.0 ** rng.uniform(-323.0, 0.0, 4000),  # down through the underflow tail
            2.0 - 10.0 ** rng.uniform(-15.5, 0.0, 1000),
            [1.0, 1e-320, 5e-324, np.nextafter(2.0, 0.0), 2.0 - 4e-16, 2.0 - 1e-15],
            2.0 * DEFAULT_EPSILON_GRID,
            2.0 * DEFAULT_PFA_GRID,
        ]
    )
    expected = np.array([erfc_inv_reference(float(y)) for y in ys])
    assert erfc_inv(ys).tobytes() == expected.tobytes()
    eps = ys[ys < 1.0] / 2.0
    eps = eps[eps > 0.0]  # half the smallest subnormal rounds to 0
    expected = np.array([-math.sqrt(2.0) * erfc_inv_reference(float(2.0 * e)) + 0.0 for e in eps])
    assert normal_quantile(eps).tobytes() == expected.tobytes()
    assert erfc(ys).tobytes() == np.array([float(sp.erfc(float(y))) for y in ys]).tobytes()


def test_elementwise_type_shape_and_domain():
    for f, arg in ((erfc, 0.3), (erfc_inv, 0.3), (normal_quantile, 0.3)):
        for scalar in (arg, np.float64(arg), np.array(arg)):
            assert type(f(scalar)) is float
        grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        out = f(grid)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert out.ravel().tolist() == [f(float(a)) for a in grid.ravel()]
    for f, bad in ((erfc_inv, [0.5, 2.0, 1.0]), (erfc_inv, [math.nan, 0.5]), (normal_quantile, [0.5, 0.0])):
        with pytest.raises(ValueError):
            f(np.array(bad))


def around(values, ulps=3):
    """Each value and its neighbours up to ``ulps`` units in the last place away."""
    out = []
    for v in values:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)


def test_erfc_bit_identical_to_scipy():
    # scipy evaluates the same Cephes approximations in C: an independent reference
    rng = np.random.default_rng(20261019)
    root_maxlog = math.sqrt(special._MAXLOG)  # ~26.64, where exp(-x^2) leaves the normal range
    edges = around([1.0, -1.0, 8.0, -8.0, root_maxlog, -root_maxlog, 27.3, -27.3, 0.0, 5e-324, -5e-324])
    xs = np.concatenate(
        [
            rng.uniform(-30.0, 30.0, 300_000),
            rng.uniform(-1.2, 1.2, 100_000),
            rng.choice([-1.0, 1.0], 60_000) * rng.uniform(7.5, 8.5, 60_000),
            rng.choice([-1.0, 1.0], 60_000) * rng.uniform(26.0, 28.0, 60_000),
            10.0 ** rng.uniform(-320.0, 0.0, 20_000),
            edges,
            [-0.0, math.nan, -math.nan, math.inf, -math.inf, 28.0, 1e300, -1e300],
        ]
    )
    assert xs.size >= 500_000
    assert erfc(xs).tobytes() == sp.erfc(xs).tobytes()
    assert erfc(-0.0) == 1.0 and erfc(27.3) == 0.0 and erfc(-27.3) == 2.0


def test_erfc_inv_seed_bit_identical_to_scipy():
    rng = np.random.default_rng(20261020)
    e2 = math.exp(-2.0)
    edges = around(
        [
            2.0 * e2,  # ndtri's central piece ends at y/2 = exp(-2) ...
            2.0 * (1.0 - e2),  # ... and at 1 - exp(-2)
            2.0 * math.exp(-32.0),  # z = sqrt(-2 ln(y/2)) = 8, between P1/Q1 and P2/Q2
            2.0 - 2.0 * math.exp(-32.0),
            1.0,
            1e-310,
            2.2250738585072014e-308,  # the smallest normal
        ]
    )
    ys = np.concatenate(
        [
            rng.uniform(0.0, 2.0, 200_000),
            10.0 ** rng.uniform(-323.5, 0.3, 200_000),  # down through the subnormals
            2.0 - 10.0 ** rng.uniform(-15.7, 0.0, 100_000),
            edges,
            [5e-324, 1e-323, 1e-320, np.nextafter(2.0, 0.0)],
        ]
    )
    ys = ys[(0.0 < ys) & (ys < 2.0)]
    assert ys.size >= 500_000
    seed = _erfc_inv_seed(ys)
    assert seed.tobytes() == sp.erfcinv(ys).tobytes()
    assert seed[ys == 5e-324][0] == math.inf  # half the smallest subnormal rounds to 0


def test_erfc_inv_cache_returns_the_same_bits():
    ys = 2.0 * DEFAULT_PFA_GRID
    special._cached_erfc_inv.cache_clear()
    first = erfc_inv(ys)
    assert special._cached_erfc_inv.cache_info().misses == 1
    again = erfc_inv(ys.copy())  # an equal copy is a hit
    square = erfc_inv(ys.reshape(20, 10))  # so is the same content in another shape
    assert special._cached_erfc_inv.cache_info().hits == 2
    assert again.tobytes() == first.tobytes() == square.tobytes()
    assert square.shape == (20, 10)
    special._cached_erfc_inv.cache_clear()
    assert erfc_inv(ys).tobytes() == first.tobytes()
    # an input changed in place is a new key
    changed = ys.copy()
    changed[0] = 0.5
    assert erfc_inv(changed)[0] == erfc_inv(0.5)


def test_erfc_inv_results_cannot_be_written():
    ys = 2.0 * DEFAULT_EPSILON_GRID
    expected = erfc_inv(ys).tobytes()
    for out in (erfc_inv(ys), erfc_inv(ys.reshape(6, 10))):
        with pytest.raises(ValueError):
            out[0] = 1.0
        with pytest.raises(ValueError):
            out.flags.writeable = True
        with pytest.raises(ValueError):
            out += 1.0
    assert erfc_inv(ys).tobytes() == expected
