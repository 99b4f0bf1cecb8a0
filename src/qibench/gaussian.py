"""Gaussian states in phase space and the channels used by the benchmarks.

Conventions: quadrature ordering (q1, p1, ..., qN, pN), vacuum variance 1/2,
so a thermal state with n photons per mode has covariance (n + 1/2) * I.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """A numerical procedure failed (factorization, convergence, ...)."""


# absolute slack allowed on |V - V^T| and below the vacuum bound nu >= 1/2
_SYMMETRY_TOL = 1e-12
_PHYSICALITY_TOL = 1e-10
# pure modes are clamped to this symplectic eigenvalue in the cached spectra
_NU_CLAMP = 0.5 + 1e-12
# covariances whose spectra are kept: the 48 distinct states of the
# validation grid, far fewer than the distinct states of a sweep
_SPECTRUM_CACHE_SIZE = 64


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form Omega for the given number of modes.

    Satisfies Omega @ Omega = -I and Omega.T = -Omega.
    """
    if modes < 1:
        raise ValueError("modes must be a positive integer")
    omega = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@functools.lru_cache(maxsize=8)
def _i_omega(modes: int) -> np.ndarray:
    """i Omega, built once per mode count and read-only."""
    form = 1j * symplectic_form(modes)
    form.flags.writeable = False
    return form


@dataclass
class GaussianState:
    """An N-mode Gaussian state given by its mean vector and covariance matrix."""

    modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = np.asarray(self.cov, dtype=float)
        if self.modes < 1:
            raise ValueError("modes must be a positive integer")
        dim = 2 * self.modes
        if self.mean.shape != (dim,):
            raise ValueError(f"mean must have length {dim}, got {self.mean.shape}")
        if self.cov.shape != (dim, dim):
            raise ValueError(f"cov must be {dim}x{dim}, got {self.cov.shape}")
        # in Python, cheaper than numpy on a few entries; inf - inf below would warn
        if not all(map(math.isfinite, [*self.mean.tolist(), *self.cov.ravel().tolist()])):
            raise ValueError("mean and cov must be finite")
        asym = np.abs(self.cov - self.cov.T).max()
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"cov is not symmetric (max asymmetry {asym:.3e})")


@dataclass
class WilliamsonDecomposition:
    """Symplectic matrix S and symplectic eigenvalues of a covariance matrix.

    The input V is recovered as S @ diag(nu_1, nu_1, ..., nu_N, nu_N) @ S.T,
    with S @ Omega @ S.T = Omega and nus sorted descending. For a stack of
    covariances every field carries the stack's leading axes: S is
    (..., 2N, 2N), nus (..., N) and physical a boolean array (...).
    """

    S: np.ndarray
    nus: np.ndarray
    physical: bool | np.ndarray

    def diagonal_form(self) -> np.ndarray:
        """diag(nu_1, nu_1, ..., nu_N, nu_N), or one such matrix per slice of a stack."""
        d = np.repeat(self.nus, 2, axis=-1)
        return d[..., None] * np.eye(d.shape[-1])


def _symplectic_pairs(cov: np.ndarray) -> WilliamsonDecomposition:
    """Williamson decomposition without the canonical in-block rotation of each mode's column pair.

    The column pair of mode k is fixed only up to a rotation within the
    pair, which leaves S_k S_k^T, the spectrum and ``physical`` unchanged;
    :func:`williamson` takes this result and fixes that rotation.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim < 2 or cov.size == 0 or cov.shape[-1] != cov.shape[-2] or cov.shape[-1] % 2:
        raise ValueError("cov must be a square 2N x 2N matrix or a stack of them")
    asym = np.abs(cov - cov.swapaxes(-1, -2)).max()
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"cov is not symmetric (max asymmetry {asym:.3e})")
    modes = cov.shape[-1] // 2

    w, U = np.linalg.eigh(cov)
    if w.min() <= 0.0:
        raise ValueError(f"cov is not positive definite (min eigenvalue {w.min():.3e})")
    sqrt_cov = (U * np.sqrt(w)[..., None, :]) @ U.swapaxes(-1, -2)
    # H is Hermitian with eigenvalues +-nu_k; the top N eigenpairs, in
    # descending order of nu, are kept (the -nu_k partners are their conjugates)
    nus, vecs = np.linalg.eigh(sqrt_cov @ _i_omega(modes) @ sqrt_cov)
    nus, vecs = nus[..., : -modes - 1 : -1], vecs[..., : -modes - 1 : -1]
    cols = np.empty(cov.shape)
    cols[..., 0::2] = vecs.imag
    cols[..., 1::2] = vecs.real
    S = sqrt_cov @ (math.sqrt(2.0) * cols)
    # uv views S as (slice, row, mode, u/v): each column pair of a mode is
    # divided by sqrt(nu_k)
    uv = S.reshape(-1, 2 * modes, modes, 2)
    uv /= np.sqrt(nus).reshape(-1, 1, modes, 1)

    physical = nus[..., -1] >= 0.5 - _PHYSICALITY_TOL
    return WilliamsonDecomposition(S=S, nus=nus, physical=bool(physical) if cov.ndim == 2 else physical)


def williamson(cov: np.ndarray) -> WilliamsonDecomposition:
    """Williamson normal form of a symmetric positive-definite matrix or of a stack of them.

    ``cov`` is one 2N x 2N matrix or a stack of shape (..., 2N, 2N). Each
    eigenvector u_k of H = V^(1/2) (i Omega) V^(1/2) with eigenvalue
    nu_k > 0 gives the column pair V^(1/2) [sqrt2 Im u_k, sqrt2 Re u_k] /
    sqrt(nu_k) of S, the algorithm of the mpmath relative entropy. Pairs are
    sorted by descending symplectic eigenvalue, and each is rotated so its
    first significant q entry is positive with vanishing p partner, which
    makes the output deterministic. nu_min < 1/2 marks V as unphysical:
    ``physical`` is a bool for one matrix and a boolean array with one entry
    per slice for a stack. A V that is not positive definite has no
    symplectic spectrum and raises ValueError, for a stack if any slice is
    not. Every step is a per-slice LAPACK or BLAS call or an elementwise
    operation, so each slice of a stack gives the same bits as a call on
    that slice alone.
    """
    w = _symplectic_pairs(cov)
    modes = w.nus.shape[-1]
    # canonical in-block rotation of each mode's column pair (u, v): its
    # first significant row -> (positive, 0)
    uv = w.S.reshape(-1, 2 * modes, modes, 2)
    u, v = uv[..., 0], uv[..., 1]
    norms = np.hypot(u, v)
    i0 = (norms > 1e-8 * norms.max(axis=1, keepdims=True)).argmax(axis=1)
    cs = uv[np.arange(len(uv))[:, None], i0, np.arange(modes)]
    cs = cs / np.hypot(cs[..., :1], cs[..., 1:])
    # (u, v) -> (c u + s v, c v - s u)
    c_uv, s_uv = uv * cs[:, None, :, :1], uv * cs[:, None, :, 1:]
    np.add(c_uv[..., 0], s_uv[..., 1], out=u)
    np.subtract(c_uv[..., 1], s_uv[..., 0], out=v)
    return w


# content key (dimension, covariance bytes) -> spectrum, least recently used first
_spectrum_cache: dict[tuple[int, bytes], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]] = {}
# held by every read and change of the package's caches, which threads share
_cache_lock = threading.Lock()


def _spectra(*covs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]]:
    """nu, ln(nu + 1/2), theta, the per-mode projectors and the clamp flag of each covariance.

    The one f64 decomposition of the s-overlap and the relative entropy, for
    covariances of one dimension. ``nus`` is the raw spectrum, sorted
    descending; ln(nu + 1/2) and theta = artanh(1/(2 nu)) take nu clamped to
    1/2 + 1e-12, which the flag marks. P_k = S_k S_k^T does not see a
    rotation within the column pair of mode k, so the misses are decomposed
    in one stacked call without :func:`williamson`'s canonical rotation.
    The last 64 covariances are cached by content: an equal copy is a hit,
    one changed in place is decomposed again, and every cached array is
    read-only. An unphysical covariance is never cached and raises
    ValueError on every call; the physical misses of that call are kept.
    """
    keys = [(cov.shape[0], cov.tobytes()) for cov in covs]
    with _cache_lock:
        misses = {key: cov for key, cov in zip(keys, covs) if key not in _spectrum_cache}
        if misses:
            w = _symplectic_pairs(np.array(list(misses.values())))
            nu = np.maximum(w.nus, _NU_CLAMP)
            # P_k = S_k S_k^T as a sum of the outer products of the columns 2k and
            # 2k + 1, formed elementwise and so exactly symmetric
            cols = w.S.swapaxes(-1, -2).reshape(*nu.shape, 2, -1)
            projectors = (cols[..., None] * cols[..., None, :]).sum(axis=-3)
            ln_top, theta = np.log(nu + 0.5), np.arctanh(0.5 / nu)
            for a in (w.nus, ln_top, theta, projectors):
                a.flags.writeable = False
            physical, clamped = w.physical.tolist(), (w.nus[..., -1] < _NU_CLAMP).tolist()
            for k, key in enumerate(misses):
                if physical[k]:
                    _spectrum_cache[key] = (w.nus[k], ln_top[k], theta[k], projectors[k], clamped[k])
            if not all(physical):
                _check_physical(w.nus[physical.index(False), -1])
        return _recent(_spectrum_cache, keys, _SPECTRUM_CACHE_SIZE)


def _check_physical(nu_min: float) -> None:
    """Reject a smallest symplectic eigenvalue below the vacuum bound 1/2 by more than 1e-10."""
    if not nu_min >= 0.5 - _PHYSICALITY_TOL:
        raise ValueError(f"covariance is not physical (nu_min = {nu_min:.12g} < 1/2)")


def _recent(cache: dict, keys: list, size: int) -> list:
    """The values of ``keys``, moved last in ``cache``; the least recently used beyond ``size`` go. Call under ``_cache_lock``."""
    for key in keys:
        cache[key] = cache.pop(key)
    values = [cache[key] for key in keys]
    while len(cache) > size:
        del cache[next(iter(cache))]
    return values


def _check_copies(copies: int) -> None:
    """Reject a copy count that is not a whole number >= 1 (NaN and inf included)."""
    if not (isinstance(copies, numbers.Real) and float(copies).is_integer() and copies >= 1):
        raise ValueError(f"copies must be a whole number >= 1, got {copies!r}")


def make_coherent(n_s: float) -> GaussianState:
    """Single-mode coherent state with n_s mean photons, displaced along q."""
    if n_s < 0:
        raise ValueError("mean photon number must be non-negative")
    return GaussianState(1, np.array([math.sqrt(2.0 * n_s), 0.0]), 0.5 * np.eye(2))


def make_thermal(n_bar: float) -> GaussianState:
    """Single-mode thermal state with n_bar mean photons."""
    if n_bar < 0:
        raise ValueError("mean photon number must be non-negative")
    return GaussianState(1, np.zeros(2), (n_bar + 0.5) * np.eye(2))


def apply_amplifier(state: GaussianState, gain: float) -> GaussianState:
    """Phase-preserving quantum-limited amplifier on a single mode, input rescaled.

    The quadrature map is x -> sqrt(g) x + sqrt(g - 1) x_idler with a
    vacuum idler, applied to the input divided by sqrt(g): the mean is
    unchanged and (g - 1)/2 noise is added per quadrature.
    """
    if gain < 1.0:
        raise ValueError("amplifier gain must be >= 1")
    if state.modes != 1:
        raise ValueError("amplifier acts on a single mode")
    return GaussianState(1, state.mean.copy(), state.cov + (gain - 1.0) * 0.5 * np.eye(2))


def apply_beamsplitter(
    state: GaussianState, transmissivity: float, environment: GaussianState
) -> GaussianState:
    """Mix a single-mode state with an environment mode, keeping the output port.

    mean -> sqrt(t) mean + sqrt(1 - t) mean_env,
    cov  -> t cov + (1 - t) cov_env.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    if state.modes != 1 or environment.modes != 1:
        raise ValueError("beamsplitter mixes two single-mode states")
    t = transmissivity
    mean = math.sqrt(t) * state.mean + math.sqrt(1.0 - t) * environment.mean
    cov = t * state.cov + (1.0 - t) * environment.cov
    return GaussianState(1, mean, cov)
