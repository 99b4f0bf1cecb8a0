"""Quantum Chernoff and Bhattacharyya bounds for Gaussian state discrimination.

The s-overlap C_s = Tr(rho0^s rho1^(1-s)) of two Gaussian states is computed
from the Williamson forms of the two covariance matrices. In the vacuum-1/2
convention used throughout the library,

    C_s = 2^N sqrt(det Pi_s / det Sigma_s) * exp(-d^T Sigma_s^{-1} d),

with Pi_s built from G_s(nu) = 1 / ((nu+1/2)^s - (nu-1/2)^s), Sigma_s from
Lambda_s(nu) = ((nu+1/2)^s + (nu-1/2)^s) / ((nu+1/2)^s - (nu-1/2)^s)
conjugated by the symplectic factors, and d the mean difference. The
exponent carries no extra factor 1/2 in this convention; the expression is
validated against pure-state overlaps, thermal-state spectral sums and
Fock-space numerics in the test suite.

The work is split in two steps. Preparing a pair (``_prepare``) takes from
``gaussian._spectra``, the cached f64 decomposition that the relative
entropy shares, the clamped ln(nu + 1/2) and theta = artanh(1/(2 nu)) of
each symplectic eigenvalue and the projector P_k = S_k S_k^T of each mode
of both states, joined into one list of modes, and forms d; ``qbb`` and
``qcb`` on one pair decompose each state once between them.
Evaluating (``_evaluate``) takes an array of s and handles all of it in one
numpy pass: every mode takes the power s (rho0) or 1 - s (rho1), ln det
Pi_s is a sum of elementwise functions of that power and nu, and
Sigma_s = sum_k coth(t_k theta_k) P_k is one weighted sum over all modes of
both states. A stacked Cholesky factorization Sigma_s = L L^T then gives
ln det Sigma_s from the diagonal of L and the displacement term as
|L^{-1} d|^2. ``s_overlap`` and ``qbb`` evaluate a one-element array;
``qcb`` evaluates a grid of s per step of its search, each zoom clustered
geometrically at a parabolic vertex, about four calls in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, NumericError, _check_copies, _spectra

_S_EDGE = 1e-9
_S_TOL = 1e-10
_SCAN_POINTS = 33
# the search grid on [-1, 1], scaled onto each bracket; an odd point count
# puts its middle point exactly at the centre, so the first scan has s = 1/2
_UNIT_GRID = np.linspace(-1.0, 1.0, _SCAN_POINTS)
_MID = _SCAN_POINTS // 2
# offsets of a zoom grid from the parabolic vertex, as fractions of the
# distance to each end of the bracket: 1 down to 1e-12, geometrically
_GEOM = np.geomspace(1.0, 1e-12, _MID)


@dataclass
class OverlapResult:
    """One evaluation of the s-overlap, with its prefactor/exponent split.

    c_s = prefactor * exp(-mean_exponent); the prefactor collects the
    covariance mismatch and the mean_exponent the displacement term
    d^T Sigma_s^{-1} d.
    """

    c_s: float
    s: float
    prefactor: float
    mean_exponent: float
    clamped: bool


@dataclass
class BoundResult:
    """Discrimination error bound (1/2) * C^M with the evaluation point s.

    For oracle results value = (1/2) * exp(copies * min(ln prefactor -
    mean_exponent, 0)). per_mode_overlap is min(c_s, 1) of the overlap,
    formed separately, so (1/2) * per_mode_overlap**copies matches value
    only up to rounding amplified by copies (seen up to ~1e-8 relative).
    Closed-form results produced by :mod:`qibench.closed_forms` keep the
    printed single prefactor, value = (1/2) * prefactor * exp(-copies *
    mean_exponent), the expression and bits of the fig2 figure rows. Both
    underflow to 0 through exp alone.
    clamped flags a pure-mode regularization in the underlying overlap.
    evaluations counts the s-points the bound evaluated (1 for qbb, 0 for
    closed forms), s_bracket is the width of the final bracket of the
    s-search and stop says why :func:`qcb` returned ("bracket", "flat",
    "half" or "indistinguishable"); both are None where no search ran.
    """

    value: float
    per_mode_overlap: float
    s_star: float
    copies: int
    prefactor: float
    mean_exponent: float
    clamped: bool = False
    evaluations: int = 0
    s_bracket: float | None = None
    stop: str | None = None

    @property
    def per_mode_exponent(self) -> float:
        """-ln of the per-mode overlap (+0.0, not -0.0, at overlap 1)."""
        return 0.0 - math.log(self.per_mode_overlap)


@dataclass(frozen=True)
class _PreparedPair:
    """The s-independent part of the s-overlap of one pair of states.

    The modes of rho0 come first, then those of rho1, and ``of_rho0`` marks
    the first. Per mode, ``ln_top`` is ln(nu + 1/2) and ``theta`` is
    artanh(1/(2 nu)) of its clamped symplectic eigenvalue, so that
    (nu - 1/2)/(nu + 1/2) = exp(-2 theta), and ``projectors`` holds its
    P_k = S_k S_k^T. The per-state parts come from the spectrum cache.
    """

    modes: int
    ln_top: np.ndarray
    theta: np.ndarray
    projectors: np.ndarray
    of_rho0: np.ndarray
    d: np.ndarray
    clamped: bool


def _prepare(rho0: GaussianState, rho1: GaussianState) -> _PreparedPair:
    """Spectra of both states, joined into one list of modes, and the mean difference."""
    if rho0.modes != rho1.modes:
        raise ValueError("states must have the same number of modes")
    (_, ln0, theta0, proj0, clamped0), (_, ln1, theta1, proj1, clamped1) = _spectra(rho0.cov, rho1.cov)
    return _PreparedPair(
        modes=rho0.modes,
        ln_top=np.concatenate((ln0, ln1)),
        theta=np.concatenate((theta0, theta1)),
        projectors=np.concatenate((proj0, proj1)),
        of_rho0=np.arange(2 * rho0.modes) < rho0.modes,
        # a (1, 2n, 1) stack of one column, which np.linalg.solve broadcasts
        # the same way in every numpy version
        d=(rho0.mean - rho1.mean).reshape(1, -1, 1),
        clamped=clamped0 or clamped1,
    )


def _evaluate(pair: _PreparedPair, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln prefactor and mean exponent of the s-overlap at every s of a 1-D array.

    Every s must lie in the open interval (0, 1). Each s is evaluated by the
    same elementwise arithmetic, so an s gives the same bits alone as inside
    a longer array.
    """
    # the power of each mode: s for rho0's, 1 - s for rho1's
    t = np.where(pair.of_rho0, s[:, None], 1.0 - s[:, None])
    t_theta = t * pair.theta
    # ln[(nu+1/2)^t - (nu-1/2)^t] = -ln G_t(nu) and Lambda_t(nu) = coth(t theta),
    # both free of cancellation for large nu
    sum_ln_g = (t * pair.ln_top + np.log(-np.expm1(-2.0 * t_theta))).sum(axis=1)
    # a multiply-and-sum, not a matrix product, keeps the bits independent of
    # the batch size
    sigma = ((1.0 / np.tanh(t_theta))[:, :, None, None] * pair.projectors).sum(axis=1)

    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Sigma_s is not positive definite for s in [{s.min()}, {s.max()}]: {exc}") from exc
    ln_det_sigma = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)

    y = np.linalg.solve(chol, pair.d)[..., 0]
    ln_pre = pair.modes * math.log(2.0) + 0.5 * (-2.0 * sum_ln_g - ln_det_sigma)
    return ln_pre, (y * y).sum(axis=1)


def _overlap(pair: _PreparedPair, s: float) -> OverlapResult:
    """The s-overlap of a prepared pair at one s, as a one-element evaluation."""
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError("s must lie in [0, 1]")
    s_eff = np.array([min(max(s, _S_EDGE), 1.0 - _S_EDGE)])
    ln_pre, mean_exponent = _evaluate(pair, s_eff)
    return _overlap_result(pair, s, ln_pre[0], mean_exponent[0])


def _overlap_result(pair: _PreparedPair, s: float, ln_pre: float, mean_exponent: float) -> OverlapResult:
    return OverlapResult(
        c_s=math.exp(ln_pre - mean_exponent),
        s=s,
        prefactor=math.exp(ln_pre),
        mean_exponent=float(mean_exponent),
        clamped=pair.clamped,
    )


def s_overlap(rho0: GaussianState, rho1: GaussianState, s: float) -> OverlapResult:
    """s-overlap Tr(rho0^s rho1^(1-s)) of two Gaussian states.

    s must lie in (0, 1); values within 1e-12 of an endpoint are evaluated
    at the interior point 1e-9 away. Pure modes (nu = 1/2) are clamped to
    1/2 + 1e-12 and flagged.
    """
    return _overlap(_prepare(rho0, rho1), s)


def _ln_c(res: OverlapResult) -> float:
    return math.log(res.prefactor) - res.mean_exponent


def _bound_from_overlap(
    res: OverlapResult, copies: int, evaluations: int, s_bracket: float | None = None, stop: str | None = None
) -> BoundResult:
    # C_s <= 1 for any two states (Hoelder), so a positive ln C is rounding
    ln_c = min(_ln_c(res), 0.0)
    return BoundResult(
        value=math.exp(math.log(0.5) + copies * ln_c),
        per_mode_overlap=min(res.c_s, 1.0),
        s_star=res.s,
        copies=copies,
        prefactor=res.prefactor,
        mean_exponent=res.mean_exponent,
        clamped=res.clamped,
        evaluations=evaluations,
        s_bracket=s_bracket,
        stop=stop,
    )


def qbb(rho0: GaussianState, rho1: GaussianState, copies: int = 1) -> BoundResult:
    """Quantum Bhattacharyya bound, the s-overlap fixed at s = 1/2."""
    _check_copies(copies)
    return _bound_from_overlap(s_overlap(rho0, rho1, 0.5), copies, evaluations=1)


def qcb(rho0: GaussianState, rho1: GaussianState, copies: int = 1) -> BoundResult:
    """Quantum Chernoff bound (1/2) (inf_s C_s)^M.

    ln C_s is convex in s, so on any sorted grid its minimum over
    [1e-9, 1 - 1e-9] lies between the neighbours of the lowest point. The
    search evaluates ln C_s at 33 evenly spaced s (the middle one exactly
    1/2) in one batched call, then lays a fresh 33-point grid over that
    bracket: v and 16 points on each side of it, at 1 down to 1e-12 of the
    way to that end, where v is the vertex of the parabola through the three
    points when the middle one is the lowest; otherwise a uniform 16x zoom
    onto the lowest point, which is what a flat ln C_s needs. It stops once
    the bracket is at most 1e-10 wide (``stop`` "bracket"), or below 1e-6
    with its three values within 1e-13 of each other ("flat"); that vertex
    is then s*, evaluated again on its own, as :func:`s_overlap` does. The
    s = 1/2 overlap of the first scan is returned instead when it is lower
    ("half") or the states are indistinguishable, C > 1 - 1e-12
    ("indistinguishable"), so the result never exceeds :func:`qbb`'s.
    ``evaluations`` counts the s-points evaluated (33 per grid, 1 for s*)
    and ``s_bracket`` is the final bracket width. The pair is decomposed once.
    """
    _check_copies(copies)

    pair = _prepare(rho0, rho1)
    s = 0.5 + (0.5 - _S_EDGE) * _UNIT_GRID
    ln_pre, mean_exponent = _evaluate(pair, s)
    half = _overlap_result(pair, 0.5, ln_pre[_MID], mean_exponent[_MID])
    evaluations = s.size
    while True:
        ln_c = ln_pre - mean_exponent
        best = int(np.argmin(ln_c))
        # the minimum lies between the neighbours of the lowest grid point
        j = min(max(best, 1), _SCAN_POINTS - 2)
        (x0, x1, x2), (f0, f1, f2) = s[j - 1 : j + 2].tolist(), ln_c[j - 1 : j + 2].tolist()
        width = x2 - x0
        # the vertex of the parabola through the three points, which lies
        # between the outer two when the middle one is the lowest
        denom = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)
        vertex = x1 - 0.5 * ((x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)) / denom if denom else x1
        parabolic = best == j and x0 < vertex < x2
        if width <= _S_TOL or (width < 1e-6 and max(f0, f1, f2) - min(f0, f1, f2) < 1e-13):
            break
        if parabolic:
            s = np.concatenate((vertex - (vertex - x0) * _GEOM, [vertex], vertex + (x2 - vertex) * _GEOM[::-1]))
        else:
            # the lowest point is an end of the bracket: a uniform 16x zoom on s[j]
            s = x1 + 0.5 * width * _UNIT_GRID
        ln_pre, mean_exponent = _evaluate(pair, s)
        evaluations += s.size

    # one parabolic step through the final three points
    s_star = vertex if parabolic else float(s[best])
    result = _overlap(pair, s_star)
    evaluations += 1
    stop = "bracket" if width <= _S_TOL else "flat"

    # indistinguishable hypotheses (C = 1 for every s) report s* = 1/2, and
    # so does a search that ended a rounding error above the s = 1/2 overlap,
    # in C or in the ln C that value is formed from: neither exceeds qbb's
    if result.c_s > 1.0 - 1e-12:
        result, stop = half, "indistinguishable"
    elif result.s != 0.5 and (half.c_s < result.c_s or _ln_c(half) < _ln_c(result)):
        result, stop = half, "half"
    return _bound_from_overlap(result, copies, evaluations, width, stop)
