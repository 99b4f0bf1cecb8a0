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

The work is split in two steps. Preparing a pair (``_prepare``) runs the two
Williamson decompositions, the physicality check and the pure-mode clamp and
forms d; none of it depends on s. Evaluating at one s (``_evaluate``) builds
Pi_s and Sigma_s from the prepared symplectic eigenvalues and matrices, then
factors Sigma_s = L L^T with numpy's Cholesky: ln det Sigma_s comes from the
diagonal of L and the displacement term is |L^{-1} d|^2. ``s_overlap`` and
``qbb`` prepare and evaluate once; ``qcb`` prepares once and evaluates at
every s of its search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, NumericError, williamson

_S_EDGE = 1e-9
_NU_CLAMP = 0.5 + 1e-12
_S_TOL = 1e-10
_MAX_ITER = 200


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
    mean_exponent, 0)), and 0 when that exponent is at or below -745.
    per_mode_overlap is min(c_s, 1) of the overlap, formed separately, so
    (1/2) * per_mode_overlap**copies matches value only up to rounding
    amplified by copies (seen up to ~1e-8 relative). Closed-form results
    produced by :mod:`qibench.closed_forms` keep the printed single
    prefactor, value = (1/2) * prefactor * exp(-copies * mean_exponent).
    clamped flags a pure-mode regularization in the underlying overlap.
    """

    value: float
    per_mode_overlap: float
    s_star: float
    copies: int
    prefactor: float
    mean_exponent: float
    clamped: bool = False

    @property
    def per_mode_exponent(self) -> float:
        """-ln of the per-mode overlap (+0.0, not -0.0, at overlap 1)."""
        return 0.0 - math.log(self.per_mode_overlap)


def _atanh_u(nu: np.ndarray) -> np.ndarray:
    return np.arctanh(0.5 / nu)


def _lambda_s(nu: np.ndarray, s: float) -> np.ndarray:
    """Lambda_s over a vector of symplectic eigenvalues, cancellation-free."""
    return 1.0 / np.tanh(s * _atanh_u(nu))


def _ln_g_minus(nu: np.ndarray, s: float) -> np.ndarray:
    """ln[(nu+1/2)^s - (nu-1/2)^s] = -ln G_s(nu), stable for large nu."""
    return s * np.log(nu + 0.5) + np.log(-np.expm1(-2.0 * s * _atanh_u(nu)))


@dataclass(frozen=True)
class _PreparedPair:
    """The s-independent part of the s-overlap of one pair of states."""

    modes: int
    nu0: np.ndarray
    nu1: np.ndarray
    sym0: np.ndarray
    sym1: np.ndarray
    d: np.ndarray
    clamped: bool


def _prepare(rho0: GaussianState, rho1: GaussianState) -> _PreparedPair:
    """Williamson forms, pure-mode clamp and mean difference of a pair."""
    if rho0.modes != rho1.modes:
        raise ValueError("states must have the same number of modes")
    w0 = williamson(rho0.cov)
    w1 = williamson(rho1.cov)
    if not (w0.physical and w1.physical):
        raise ValueError("s_overlap requires physical states")
    return _PreparedPair(
        modes=rho0.modes,
        nu0=np.maximum(w0.nus, _NU_CLAMP),
        nu1=np.maximum(w1.nus, _NU_CLAMP),
        sym0=w0.S,
        sym1=w1.S,
        d=rho0.mean - rho1.mean,
        clamped=bool(w0.nus.min() < _NU_CLAMP or w1.nus.min() < _NU_CLAMP),
    )


def _evaluate(pair: _PreparedPair, s: float) -> OverlapResult:
    """The s-overlap of a prepared pair at one s."""
    if s < -1e-12 or s > 1.0 + 1e-12:
        raise ValueError("s must lie in [0, 1]")
    s_eff = min(max(s, _S_EDGE), 1.0 - _S_EDGE)
    nu0, nu1 = pair.nu0, pair.nu1

    ln_det_pi = -2.0 * (np.sum(_ln_g_minus(nu0, s_eff)) + np.sum(_ln_g_minus(nu1, 1.0 - s_eff)))
    lam0 = np.repeat(_lambda_s(nu0, s_eff), 2)
    lam1 = np.repeat(_lambda_s(nu1, 1.0 - s_eff), 2)
    sigma = (pair.sym0 * lam0[None, :]) @ pair.sym0.T + (pair.sym1 * lam1[None, :]) @ pair.sym1.T
    sigma = 0.5 * (sigma + sigma.T)

    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Sigma_s is not positive definite at s={s_eff}: {exc}") from exc
    ln_det_sigma = 2.0 * float(np.sum(np.log(np.diag(chol))))

    y = np.linalg.solve(chol, pair.d)
    mean_exponent = float(y @ y)
    ln_pre = pair.modes * math.log(2.0) + 0.5 * (ln_det_pi - ln_det_sigma)
    prefactor = math.exp(ln_pre)
    return OverlapResult(
        c_s=math.exp(ln_pre - mean_exponent),
        s=s,
        prefactor=prefactor,
        mean_exponent=mean_exponent,
        clamped=pair.clamped,
    )


def s_overlap(rho0: GaussianState, rho1: GaussianState, s: float) -> OverlapResult:
    """s-overlap Tr(rho0^s rho1^(1-s)) of two Gaussian states.

    s must lie in (0, 1); values within 1e-12 of an endpoint are evaluated
    at the interior point 1e-9 away. Pure modes (nu = 1/2) are clamped to
    1/2 + 1e-12 and flagged.
    """
    return _evaluate(_prepare(rho0, rho1), s)


def _bound_from_overlap(res: OverlapResult, copies: int) -> BoundResult:
    # C_s <= 1 for any two states (Hoelder), so a positive ln C is rounding
    ln_c = min(math.log(res.prefactor) - res.mean_exponent, 0.0)
    value = math.exp(math.log(0.5) + copies * ln_c) if ln_c * copies > -745.0 else 0.0
    return BoundResult(
        value=value,
        per_mode_overlap=min(res.c_s, 1.0),
        s_star=res.s,
        copies=copies,
        prefactor=res.prefactor,
        mean_exponent=res.mean_exponent,
        clamped=res.clamped,
    )


def qbb(rho0: GaussianState, rho1: GaussianState, copies: int = 1) -> BoundResult:
    """Quantum Bhattacharyya bound, the s-overlap fixed at s = 1/2."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    return _bound_from_overlap(s_overlap(rho0, rho1, 0.5), copies)


def qcb(rho0: GaussianState, rho1: GaussianState, copies: int = 1) -> BoundResult:
    """Quantum Chernoff bound (1/2) (inf_s C_s)^M.

    ln C_s is minimized over s in [1e-9, 1 - 1e-9] by golden-section search
    (assuming unimodality) followed by a few parabolic refinement steps;
    the search stops once the bracket is below a fixed 1e-10, after 200
    steps, or once the exponent stops changing by more than 1e-13. The pair
    is decomposed once and every step of the search evaluates C_s on that
    prepared pair. The s = 1/2 overlap is evaluated too and returned when it
    is lower than the search's best, so the result never exceeds
    :func:`qbb`'s.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")

    pair = _prepare(rho0, rho1)
    cache: dict[float, OverlapResult] = {}

    def overlap(s: float) -> OverlapResult:
        res = cache.get(s)
        if res is None:
            res = cache[s] = _evaluate(pair, s)
        return res

    def ln_c(s: float) -> float:
        res = overlap(s)
        return math.log(res.prefactor) - res.mean_exponent

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = _S_EDGE, 1.0 - _S_EDGE
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = ln_c(c), ln_c(d)
    iterations = 0
    while (b - a) > _S_TOL and iterations < _MAX_ITER:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = ln_c(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = ln_c(d)
        if abs(fc - fd) < 1e-13 and (b - a) < 1e-6:
            break

    # parabolic polish on the final bracket
    lo, hi = a, b
    mid = c if fc < fd else d
    f_mid = min(fc, fd)
    for _ in range(5):
        f_lo, f_hi = ln_c(lo), ln_c(hi)
        denom = (mid - lo) * (f_mid - f_hi) - (mid - hi) * (f_mid - f_lo)
        if denom == 0.0:
            break
        num = (mid - lo) ** 2 * (f_mid - f_hi) - (mid - hi) ** 2 * (f_mid - f_lo)
        cand = mid - 0.5 * num / denom
        if not lo < cand < hi or cand == mid:
            break
        f_cand = ln_c(cand)
        converged = abs(f_cand - f_mid) < 1e-13
        if f_cand < f_mid:
            lo, hi = (lo, mid) if cand < mid else (mid, hi)
            mid, f_mid = cand, f_cand
        elif cand < mid:
            lo = cand
        else:
            hi = cand
        if converged:
            break
    best_s = mid

    # indistinguishable hypotheses (C = 1 for every s) report s* = 1/2, and
    # so does a search that ended a rounding error above the s = 1/2 overlap:
    # the result never exceeds qbb's
    if ln_c(best_s) > math.log1p(-1e-12) or overlap(0.5).c_s < overlap(best_s).c_s:
        best_s = 0.5
    return _bound_from_overlap(overlap(best_s), copies)
