"""Quantum relative entropy, its variance, and asymmetric-testing ROC curves.

For Gaussian states the relative entropy is evaluated through the Gibbs
matrix G = 2i Omega acoth(2i V Omega) and the function

    Sigma(V0, V1) = [ln det(V1 + i Omega/2) + Tr(V0 G1) + delta^T G1 delta] / 2,

with D = Sigma(V0, V1) - Sigma(V0, V0). The log-determinant is accumulated
as sum_k ln(nu_k^2 - 1/4) over symplectic eigenvalues, and the difference of
the two Sigma terms is assembled pairwise so nearby states do not lose all
significance. The f64 path reads each spectrum from ``gaussian._spectra``,
which the s-overlap shares, and forms G = Omega (sum_k 2 theta_k P_k)
Omega^T from its projectors P_k = S_k S_k^T, without inverting S. For grid
corners where D itself is a near-cancellation below float64 resolution,
:func:`relative_entropy` accepts ``dps`` to run the identical formulas in
mpmath arbitrary precision, whose cache keeps the mp forms of recent
covariances and the mean-free terms of D and V of recent pairs of them (128
entries by content and dps, evicted as in ``gaussian._spectra``). mpmath is
imported inside the functions of that path, so the f64 path never loads it.
Both paths reject an unphysical state and a pure mode (nu <= 1/2 + 1e-10)
by the same checks and messages, the mp path on its spectrum in float64.

A result is the pair (d, v) alone; :func:`gibbs_matrix` gives the Gibbs
matrix of one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .gaussian import (
    GaussianState, NumericError, _cache_lock, _check_copies, _check_physical, _recent, _spectra, symplectic_form
)
from .special import normal_quantile

if TYPE_CHECKING:
    import mpmath as mp

_PURE_NU_TOL = 1e-10
_NEGATIVE_CLAMP = -1e-12
# mp forms and pair terms kept: the validation grid needs 48 of each
_MP_CACHE_SIZE = 128


@dataclass
class RelEntResult:
    """Relative entropy d (nats) and relative entropy variance v (nats^2)."""

    d: float
    v: float


@dataclass
class RocCurve:
    """Sampled (P_fa, P_md) operating curve for M copies."""

    p_fa: np.ndarray
    p_md: np.ndarray
    copies: int
    meta: dict = field(default_factory=dict)

    def is_monotone(self) -> bool:
        return bool(np.all(np.diff(self.p_fa) > 0) and np.all(np.diff(self.p_md) <= 1e-15))


def _check_mixed(nus: np.ndarray, who: str) -> None:
    """Reject a spectrum, sorted descending, with a pure mode (nu <= 1/2 + 1e-10), naming state and mode."""
    bad = np.nonzero(nus <= 0.5 + _PURE_NU_TOL)[0]
    if bad.size:
        raise ValueError(
            f"Gibbs matrix diverges for pure modes; {who} has symplectic "
            f"eigenvalue {nus[bad[0]]:.12g} at mode index {bad[0]}"
        )


def _gibbs(spectrum: tuple, who: str) -> np.ndarray:
    """Gibbs matrix of a covariance from its cached spectrum; see :func:`gibbs_matrix`."""
    nus, _, theta, projectors, _ = spectrum
    _check_mixed(nus, who)
    omega = symplectic_form(nus.size)
    # exactly symmetric: a signed permutation of a weighted sum of exactly symmetric P_k
    return omega @ ((2.0 * theta)[:, None, None] * projectors).sum(axis=0) @ omega.T


def gibbs_matrix(state: GaussianState) -> np.ndarray:
    """Gibbs matrix of a strictly mixed Gaussian state.

    The map g(nu) = ln((nu + 1/2) / (nu - 1/2)) = 2 theta on each symplectic
    eigenvalue, conjugated back: S^{-T} diag(g) S^{-1} = Omega (sum_k g_k P_k) Omega^T.
    """
    return _gibbs(_spectra(state.cov)[0], "state")


def _clamp_nonneg(x: float, what: str) -> float:
    if x < 0.0:
        if x < _NEGATIVE_CLAMP:
            raise NumericError(f"{what} evaluated to {x:.6e} < 0 beyond tolerance")
        return 0.0
    return x


def _rel_ent_f64(rho0: GaussianState, rho1: GaussianState) -> RelEntResult:
    # the misses of both states in one stacked decomposition
    spectrum0, spectrum1 = _spectra(rho0.cov, rho1.cov)
    nus0, nus1 = spectrum0[0], spectrum1[0]
    gibbs1, gibbs0 = _gibbs(spectrum1, "rho1"), _gibbs(spectrum0, "rho0")

    # ln det(V1 + i Omega/2) - ln det(V0 + i Omega/2), paired by sorted spectra
    lndet_diff = float(np.sum(np.log1p((nus1 - nus0) * (nus1 + nus0) / (nus0**2 - 0.25))))
    trace_diff = float(np.trace(rho0.cov @ (gibbs1 - gibbs0)))
    delta = rho0.mean - rho1.mean
    quad = float(delta @ gibbs1 @ delta)
    d = _clamp_nonneg(0.5 * (lndet_diff + trace_diff + quad), "relative entropy")

    gamma = gibbs0 - gibbs1
    omega = symplectic_form(rho0.modes)
    gv = gamma @ rho0.cov
    go = gamma @ omega
    v = (
        0.5 * float(np.trace(gv @ gv))
        + 0.125 * float(np.trace(go @ go))
        + float(delta @ gibbs1 @ rho0.cov @ gibbs1 @ delta)
    )
    return RelEntResult(d=d, v=_clamp_nonneg(v, "relative entropy variance"))


def _mp_gibbs_lndet(cov: np.ndarray, who: str) -> tuple[mp.matrix, mp.matrix, mp.mpf]:
    """The covariance as an mp.matrix, its Gibbs matrix and ln det(V + i Omega/2) at working precision.

    Uses the Hermitian form W = V^{1/2} (i Omega) V^{1/2}, whose eigenvalues
    are +-nu_k, and G = V^{-1/2} U diag(nu g(nu)) U^H V^{-1/2}.
    """
    import mpmath as mp

    cov = mp.matrix(cov)
    n = cov.rows // 2
    evals, q = mp.eigsy(cov)
    if min(evals) <= 0:
        raise ValueError(f"{who} covariance matrix is not positive definite")
    roots = [mp.sqrt(x) for x in evals]
    sqrt_cov = q * mp.diag(roots) * q.T
    isqrt_cov = q * mp.diag([1 / r for r in roots]) * q.T

    w = sqrt_cov * (mp.mpc(0, 1) * mp.matrix(symplectic_form(n))) * sqrt_cov
    e, u = mp.eighe(w)
    # e ascends from -nu_max to +nu_max: its negated first half is the spectrum, sorted descending
    spectrum = np.array([-float(e[i]) for i in range(n)])
    _check_physical(spectrum[-1])
    _check_mixed(spectrum, who)
    half = mp.mpf(1) / 2
    nus = [abs(x) for x in e]
    lndet = sum(mp.log(nu**2 - half**2) for x, nu in zip(e, nus) if x > 0)
    phi = mp.diag([nu * mp.log((nu + half) / (nu - half)) for nu in nus])
    return cov, (isqrt_cov * (u * phi * u.H) * isqrt_cov).apply(mp.re), lndet


def _mp_trace_of_product(a: mp.matrix, b: mp.matrix) -> mp.mpf:
    """Tr(a b) = sum_ij a_ij b_ji as one dot product, without forming a b."""
    import mpmath as mp

    n = a.rows
    return mp.fdot((a[i, j], b[j, i]) for i in range(n) for j in range(n))


# (shape, covariance bytes, dps) -> (mp covariance, Gibbs matrix, ln det), and
# (shape, bytes of rho0's and rho1's covariances, dps) -> the pair's terms in
# _rel_ent_mp, least recently used first; the role is not in the key
_mp_cache: dict = {}


def _mp_forms(cov: np.ndarray, dps: int, who: str) -> tuple[mp.matrix, mp.matrix, mp.mpf]:
    """:func:`_mp_gibbs_lndet` at ``dps`` digits, cached by the contents of ``cov``; call under ``_cache_lock``.

    A covariance changed in place is decomposed again; one that fails to
    decompose is not kept, and raises naming ``who`` on every call.
    """
    key = (cov.shape, cov.tobytes(), dps)
    if key not in _mp_cache:
        _mp_cache[key] = _mp_gibbs_lndet(cov, who)
    return _recent(_mp_cache, [key], _MP_CACHE_SIZE)[0]


def _rel_ent_mp(rho0: GaussianState, rho1: GaussianState, dps: int) -> RelEntResult:
    import mpmath as mp

    # one call at a time: the cache and mpmath's working precision are shared by all threads
    with _cache_lock, mp.workdps(dps):
        # the terms of D and V that need no means, with V0 and G1 as lists of
        # rows, shared by the pairs of equal covariances
        key = (rho0.cov.shape, rho0.cov.tobytes(), rho1.cov.tobytes(), dps)
        if key not in _mp_cache:
            cov0, gibbs0, lndet0 = _mp_forms(rho0.cov, dps, "rho0")
            _, gibbs1, lndet1 = _mp_forms(rho1.cov, dps, "rho1")
            gamma = gibbs0 - gibbs1
            gv = gamma * cov0
            go = gamma * mp.matrix(symplectic_form(rho0.modes))
            _mp_cache[key] = (
                lndet1 - lndet0 + _mp_trace_of_product(cov0, gibbs1 - gibbs0),
                _mp_trace_of_product(gv, gv) / 2 + _mp_trace_of_product(go, go) / 8,
                cov0.tolist(),
                gibbs1.tolist(),
            )
        d_cov, v_cov, cov0, gibbs1 = _recent(_mp_cache, [key], _MP_CACHE_SIZE)[0]
        delta = [mp.mpf(a) - mp.mpf(b) for a, b in zip(rho0.mean.tolist(), rho1.mean.tolist())]
        # each entry of an mp.matrix product is one fdot, rounded once, so
        # these lists give the bits of the matrix products
        g1_delta = [mp.fdot(row, delta) for row in gibbs1]
        d = (d_cov + mp.fdot(delta, g1_delta)) / 2
        v = v_cov + mp.fdot([mp.fdot(g1_delta, column) for column in zip(*cov0)], g1_delta)
        return RelEntResult(
            d=_clamp_nonneg(float(d), "relative entropy"),
            v=_clamp_nonneg(float(v), "relative entropy variance"),
        )


def relative_entropy(
    rho0: GaussianState, rho1: GaussianState, *, dps: int | None = None
) -> RelEntResult:
    """Relative entropy D(rho0 || rho1) between Gaussian states.

    Both states must be strictly mixed: a pure mode in either raises
    ValueError naming the state and the mode index. Pass the keyword ``dps``
    for an arbitrary-precision evaluation (used by the validation suite at
    parameter corners where the result is a deep cancellation).
    """
    if rho0.modes != rho1.modes:
        raise ValueError("states must have the same number of modes")
    if dps is not None:
        return _rel_ent_mp(rho0, rho1, dps)
    return _rel_ent_f64(rho0, rho1)


DEFAULT_EPSILON_GRID = np.geomspace(1e-4, 0.9, 60)


def _probability_grid(grid: Sequence[float] | None, default: np.ndarray, name: str) -> np.ndarray:
    """``grid`` (``default`` if None) sorted, or ValueError if empty or outside (0, 1)."""
    values = np.sort(np.asarray(default if grid is None else grid, dtype=float))
    if values.size == 0:
        raise ValueError(f"{name} grid is empty")
    if values[0] <= 0.0 or values[-1] >= 1.0:
        raise ValueError(f"{name} grid values must lie in (0, 1)")
    return values


def roc_from_rates(d: float, v: float, copies: int, grid: Sequence[float] | None = None) -> RocCurve:
    """ROC curve P_md(eps) = exp(-[M d + sqrt(M v) Phi^{-1}(eps)]), clamped to [0, 1].

    The O(log M) and O(1) corrections are set to zero; the clamped points are counted.
    """
    if not (math.isfinite(d) and math.isfinite(v) and d >= 0 and v >= 0):
        raise ValueError(f"d and v must be finite and non-negative, got d={d!r}, v={v!r}")
    _check_copies(copies)
    eps = _probability_grid(grid, DEFAULT_EPSILON_GRID, "epsilon")
    exponent = copies * d + math.sqrt(copies * v) * normal_quantile(eps)
    # libm's exp on each point: numpy's may differ from it in the last bit
    values = np.array([1.0 if e < 0.0 else math.exp(-e) if e < 745.0 else 0.0 for e in exponent.tolist()])
    meta = {
        "d": d,
        "v": v,
        "clamped_points": int(np.count_nonzero(exponent < 0.0)),
        "truncation": "second-order: O(log M) and O(1) terms set to zero",
    }
    return RocCurve(p_fa=eps, p_md=values, copies=copies, meta=meta)


def roc_asymmetric(
    rho0: GaussianState, rho1: GaussianState, copies: int, grid: Sequence[float] | None = None
) -> RocCurve:
    """ROC curve from the relative entropy and its variance of a state pair."""
    res = relative_entropy(rho0, rho1)
    return roc_from_rates(res.d, res.v, copies, grid)
