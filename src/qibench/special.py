"""Special functions shared by the detection formulas, evaluated elementwise.

Each takes a float or an array and returns a float for a 0-d input, else an
array of the input's shape; one element outside the domain raises ValueError.

erfc and the seed of its inverse are a numpy port of the Cephes rational
approximations (S. L. Moshier, Methods and Programs for Mathematical
Functions, 1989; ``ndtr.c`` and ``ndtri.c``), the same ones scipy evaluates,
and they give scipy's results bit for bit. erfc takes T/U in x^2 below
|x| = 1 (as 1 - erf), P/Q up to 8 and R/S beyond, and is 0 or 2 once x^2
exceeds MAXLOG; the seed is -ndtri(y/2)/sqrt(2), with ndtri's P0/Q0 piece in
the centre and P1/Q1, P2/Q2 in z = sqrt(-2 ln y) below and above z = 8. Each
piece is evaluated only on the elements of its branch. Bit identity needs two
things beyond the verbatim coefficients and Horner's rule: the products keep
Cephes' order, (x p)/q and not x (p/q), and exp and log are libm's, taken one
element at a time, since numpy's vectorized exp and log may differ from libm
in the last bit.

The inverse refines the seed by Newton steps on erfc, so the round trip
closes to 1e-12. One loop serves the whole array, and each element stops
where a loop over it alone would: at a zero residual, at a step that no
longer moves it, or after three steps. The step takes numpy's exp; the seed
is within about ten ulps of the root, so the step is too, and that last bit
does not reach x. erfc_inv keeps its last 8 results by the content of
their input, because every ROC curve inverts the same probability grid: a
repeated grid costs a hash of its bytes instead of a pass through the port
and the Newton loop. The arrays it returns are read-only, so no caller can
change a cached result.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_ERFC_INV_CACHE_SIZE = 8

# Cephes ndtr.c: erf on |x| < 1 (T/U in x^2), erfc on 1 <= |x| < 8 (P/Q) and
# |x| >= 8 (R/S). Cephes leaves the leading 1 of each denominator implicit
# (p1evl); it is written out here, and 1*x + c rounds exactly as x + c does.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # ln(DBL_MAX)

# Cephes ndtri.c: |y - 1/2| <= 1/2 - exp(-2) (P0/Q0), then in z = sqrt(-2 ln y)
# on 2 <= z < 8 (P1/Q1) and z >= 8 (P2/Q2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440


def _in_open_interval(values, lo: float, hi: float, message: str) -> np.ndarray:
    """``values`` as a float array, or ValueError(message) unless all lie in (lo, hi)."""
    a = np.asarray(values, dtype=float)
    if not np.all((lo < a) & (a < hi)):
        raise ValueError(message)
    return a


def _float_if_0d(a):
    return float(a) if np.ndim(a) == 0 else a


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] by Horner's rule, in Cephes' order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` (math.exp or math.log) of each element of the 1-d ``a``."""
    return np.fromiter(map(fn, a.tolist()), dtype=float, count=a.size)


def _erfc(a: np.ndarray) -> np.ndarray:
    """Cephes erfc of each element of the 1-d ``a``."""
    out = np.full(a.shape, np.nan)  # what Cephes returns for a NaN, whatever its sign
    ax = np.abs(a)
    small = ax < 1.0
    # 1 - erf(x), with erf(x) = x T(x^2)/U(x^2) odd as Cephes' erf(-x) = -erf(x)
    x = a[small]
    z = x * x
    out[small] = 1.0 - (x * _polevl(z, _T)) / _polevl(z, _U)
    # exp(-x^2) below the normal range (inf included): erfc is 0, or 2 for x < 0
    with np.errstate(over="ignore"):
        under = a * a > _MAXLOG
    out[under] = np.where(a[under] < 0.0, 2.0, 0.0)
    for piece, num, den in ((~small & ~under & (ax < 8.0), _P, _Q), (~under & (ax >= 8.0), _R, _S)):
        x, signed = ax[piece], a[piece]
        value = (_libm(math.exp, -signed * signed) * _polevl(x, num)) / _polevl(x, den)
        out[piece] = np.where(signed < 0.0, 2.0 - value, value)
    return out


def erfc(x):
    """Complementary error function."""
    a = np.asarray(x, dtype=float)
    return _float_if_0d(_erfc(a.reshape(-1)).reshape(a.shape))


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Cephes ndtri of each element of the 1-d ``y0`` in [0, 1): -inf at 0."""
    out = np.full(y0.shape, -np.inf)
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    central = y > _EXP_M2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * ((c2 * _polevl(c2, _P0)) / _polevl(c2, _Q0))) * _S2PI
    tails = ~central & (y > 0.0)
    x = np.sqrt(-2.0 * _libm(math.log, y[tails]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    for piece, num, den in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        zp = z[piece]
        x1[piece] = (zp * _polevl(zp, num)) / _polevl(zp, den)
    # the root is x0 - x1 in the upper tail and its negative in the lower one
    out[tails] = np.where(upper[tails], x0 - x1, x1 - x0)
    return out


def erfc_inv(y):
    """Inverse of erfc on (0, 2), Newton-refined to round-trip accuracy 1e-12.

    Below y ~ 1.2e-310, where erfc(x) underflows to 0 and so does a Newton
    step on it, and at the smallest subnormal, where the Cephes seed is inf,
    the root comes from the asymptotic tail of ln erfc instead. An array
    result is read-only: it may be the cached result of an equal input.
    """
    y = _in_open_interval(y, 0.0, 2.0, "erfc_inv is defined on the open interval (0, 2)")
    return _float_if_0d(_cached_erfc_inv(y.tobytes()).reshape(y.shape))


def _erfc_inv_seed(y: np.ndarray) -> np.ndarray:
    """Cephes erfcinv of each element of the 1-d ``y`` in (0, 2): inf at 5e-324."""
    return -_ndtri(0.5 * y) * _SQRT1_2


@functools.lru_cache(maxsize=_ERFC_INV_CACHE_SIZE)
def _cached_erfc_inv(y_bytes: bytes) -> np.ndarray:
    flat = np.frombuffer(y_bytes)
    x = _erfc_inv_seed(flat)
    tail = np.zeros(flat.shape, dtype=bool)
    live = np.arange(flat.size)
    # the step of a tail element overflows; that element is dropped below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            x_live = x[live]
            value = _erfc(x_live)
            # erfc underflows (and the seed is inf at the smallest subnormal)
            # exactly where exp(x*x) in the step overflows
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
    x += 0.0
    x.flags.writeable = False
    return x


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
