"""Independent mpmath reference for the qibench benchmark.

Imports nothing from qibench. Every hypothesis pair the benchmark builds is
single-mode and isotropic: the target-absent state is thermal with
nu0 = N_B + 1/2, the target-present state has nu1 = nu0 + n_add and signal
mu = eta * N_S^trans. For such pairs the quantities qibench computes have
closed expressions, evaluated here at DPS decimal digits:

    D   = ln(n1+1) - [(n0+1) ln(n0+1) - n0 ln n0] + (n0+mu) ln((n1+1)/n1)
    V   = (b1-b0)^2 n0 (n0+1) + b1^2 mu (2 n0 + 1),   b = ln((n+1)/n)
    ln C_s = ln 2 - ln[g_s(nu0) g_{1-s}(nu1) Sigma] - 2 mu / Sigma,
        g_s(nu) = (nu+1/2)^s - (nu-1/2)^s,
        Lambda_s(nu) = ((nu+1/2)^s + (nu-1/2)^s) / g_s(nu),
        Sigma = Lambda_s(nu0) + Lambda_{1-s}(nu1)
    homodyne P_md = 1/2 erfc((M sqrt(2 mu) - sqrt(2 M l0) erfcinv(2 P_fa)) / sqrt(2 M l1))
    second-order P_md = min(1, exp(-[M D + sqrt(M V) Phi^-1(eps)]))

Floats are converted to mpf exactly, so the reference answers for the same
float inputs the program receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

DPS = 50

# exact SI values (2019 redefinition)
PLANCK_H = "6.62607015e-34"
BOLTZMANN_K = "1.380649e-23"


def _mpf(x) -> mp.mpf:
    return mp.mpf(x)


@dataclass(frozen=True)
class Pair:
    """Reference hypothesis pair: thermal occupation n0, excess n_add, signal mu (floats)."""

    n0: float
    n_add: mp.mpf
    mu: mp.mpf


def planck(freq: float, temp: float) -> mp.mpf:
    """Bose-Einstein occupation at frequency freq (Hz) and temperature temp (K)."""
    with mp.workdps(DPS):
        x = _mpf(PLANCK_H) * _mpf(freq) / (_mpf(BOLTZMANN_K) * _mpf(temp))
        return 1 / mp.expm1(x)


def pair_from_params(
    kind: str,
    n_s: float,
    eta: float,
    n_b: float,
    n_a: float = 0.0,
    n_t: float = 0.0,
    phi: float = 1.0,
    energy_matched: bool = False,
) -> Pair:
    """Hypothesis pair of a scenario, from its raw parameters.

    Amplified: mu = eta N_S, n_add = eta N_A. Maser: mu = eta (N_S + N_A - n_T)
    with energy matching, eta phi N_S without; n_add = eta n_T. Optical:
    mu = eta (N_S + N_A) with energy matching, eta N_S without; n_add = 0.
    """
    with mp.workdps(DPS):
        eta_m, n_s_m, n_a_m, n_t_m = _mpf(eta), _mpf(n_s), _mpf(n_a), _mpf(n_t)
        if kind == "amplified":
            sent, excess = n_s_m, n_a_m
        elif kind == "maser":
            sent = n_s_m + n_a_m - n_t_m if energy_matched else _mpf(phi) * n_s_m
            excess = n_t_m
        elif kind == "optical":
            sent = n_s_m + n_a_m if energy_matched else n_s_m
            excess = _mpf(0)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        return Pair(n0=n_b, n_add=eta_m * excess, mu=eta_m * sent)


def _g(nu: mp.mpf, s: mp.mpf) -> mp.mpf:
    half = mp.mpf(1) / 2
    return (nu + half) ** s - (nu - half) ** s


def _lam(nu: mp.mpf, s: mp.mpf) -> mp.mpf:
    half = mp.mpf(1) / 2
    return ((nu + half) ** s + (nu - half) ** s) / _g(nu, s)


def ln_overlap(n0, n_add, mu, s) -> mp.mpf:
    """ln C_s = ln Tr(rho0^s rho1^(1-s)) for the isotropic single-mode pair."""
    with mp.workdps(DPS):
        nu0 = _mpf(n0) + mp.mpf(1) / 2
        nu1 = nu0 + _mpf(n_add)
        s = _mpf(s)
        sigma = _lam(nu0, s) + _lam(nu1, 1 - s)
        return mp.log(2) - mp.log(_g(nu0, s) * _g(nu1, 1 - s) * sigma) - 2 * _mpf(mu) / sigma


def mean_exponent(n0, n_add, mu) -> mp.mpf:
    """Displacement part 2 mu / Sigma of the s = 1/2 overlap."""
    with mp.workdps(DPS):
        half = mp.mpf(1) / 2
        nu0 = _mpf(n0) + half
        nu1 = nu0 + _mpf(n_add)
        return 2 * _mpf(mu) / (_lam(nu0, half) + _lam(nu1, half))


def rel_entropy(n0, n_add, mu) -> tuple[mp.mpf, mp.mpf]:
    """(D, V) of the relative entropy D(rho0 || rho1) and its variance."""
    with mp.workdps(DPS):
        n0 = _mpf(n0)
        n1 = n0 + _mpf(n_add)
        mu = _mpf(mu)
        b0 = mp.log((n0 + 1) / n0)
        b1 = mp.log((n1 + 1) / n1)
        d = mp.log(n1 + 1) - ((n0 + 1) * mp.log(n0 + 1) - n0 * mp.log(n0)) + (n0 + mu) * b1
        v = (b1 - b0) ** 2 * n0 * (n0 + 1) + b1**2 * mu * (2 * n0 + 1)
        return d, v


@lru_cache(maxsize=4096)
def _erfcinv(y: float) -> mp.mpf:
    # y lies in (0, 2) and is at least ~1e-6 on every grid used, so 1 - y
    # keeps DPS - 6 significant digits
    with mp.workdps(DPS):
        return mp.erfinv(1 - _mpf(y))


def normal_quantile(eps: float) -> mp.mpf:
    """Phi^-1(eps) = -sqrt(2) erfcinv(2 eps)."""
    with mp.workdps(DPS):
        return -mp.sqrt(2) * _erfcinv(2.0 * eps)


def pmd_second_order(d, v, copies: int, eps: float) -> mp.mpf:
    """min(1, exp(-[M D + sqrt(M V) Phi^-1(eps)]))."""
    with mp.workdps(DPS):
        m = _mpf(copies)
        x = m * _mpf(d) + mp.sqrt(m * _mpf(v)) * normal_quantile(eps)
        return mp.mpf(1) if x < 0 else mp.exp(-x)


def pmd_homodyne(mu, lambda0, lambda1, copies: int, p_fa: float) -> mp.mpf:
    """Homodyne missed-detection probability at false-alarm probability p_fa."""
    with mp.workdps(DPS):
        m = _mpf(copies)
        thr = mp.sqrt(2 * m * _mpf(lambda0)) * _erfcinv(2.0 * p_fa)
        return mp.erfc((m * mp.sqrt(2 * _mpf(mu)) - thr) / mp.sqrt(2 * m * _mpf(lambda1))) / 2


def homodyne_variances(pair: Pair) -> tuple[mp.mpf, mp.mpf]:
    """Quadrature variances (lambda0, lambda1) = (N_B + 1/2, N_B + 1/2 + n_add)."""
    with mp.workdps(DPS):
        lambda0 = _mpf(pair.n0) + mp.mpf(1) / 2
        return lambda0, lambda0 + pair.n_add


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref| as a float (ref must be nonzero)."""
    with mp.workdps(DPS):
        return float(abs(_mpf(value) - ref) / abs(ref))


def tail_ok(value: float, ref, rtol: float, floor: float = 1e-300) -> bool:
    """A probability agrees with its reference: to rtol where ref >= floor,
    and below 10 * floor (including an underflowed 0) where ref < floor."""
    if ref >= floor:
        return rel_err(value, ref) <= rtol
    return 0.0 <= value <= 10.0 * floor
