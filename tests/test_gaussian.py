import math

import numpy as np
import pytest

from qibench.gaussian import (
    GaussianState,
    _check_physical,
    _symplectic_pairs,
    apply_amplifier,
    apply_beamsplitter,
    make_coherent,
    make_thermal,
    symplectic_form,
    williamson,
)
from qibench.validation import random_physical_cov


def test_symplectic_form_invariants():
    for modes in (1, 2, 3):
        omega = symplectic_form(modes)
        assert np.array_equal(omega @ omega, -np.eye(2 * modes))
        assert np.array_equal(omega.T, -omega)


@pytest.mark.parametrize(
    "n_s, mean_q",
    [(0.0, 0.0), (1e-2, math.sqrt(0.02)), (2.0, 2.0)],
)
def test_make_coherent(n_s, mean_q):
    state = make_coherent(n_s)
    assert state.mean == pytest.approx([mean_q, 0.0], abs=1e-15)
    assert np.allclose(state.cov, 0.5 * np.eye(2))
    photons = float(state.mean @ state.mean) / 2.0 + np.trace(state.cov) / 2.0 - 0.5
    assert photons == pytest.approx(n_s, abs=1e-12)


@pytest.mark.parametrize("n_bar, variance", [(0.0, 0.5), (6250.0, 6250.5), (0.5, 1.0)])
def test_make_thermal(n_bar, variance):
    state = make_thermal(n_bar)
    assert np.allclose(state.mean, 0.0)
    assert np.allclose(state.cov, variance * np.eye(2))


def test_negative_photon_numbers_rejected():
    with pytest.raises(ValueError):
        make_coherent(-1e-3)
    with pytest.raises(ValueError):
        make_thermal(-0.1)


def test_state_validation():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(3), 0.5 * np.eye(2))
    asym = np.array([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), asym)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 1])
def test_state_rejects_a_non_finite_mean(bad, index):
    # a NaN mean used to give qbb and qcb value 0.0 and relative_entropy NaN
    mean = np.zeros(2)
    mean[index] = bad
    with pytest.raises(ValueError, match="^mean and cov must be finite$"):
        GaussianState(1, mean, 0.7 * np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1), (2, 3)])
def test_state_rejects_a_non_finite_cov(bad, entry):
    # a NaN covariance used to fail only later, as "not physical (nu_min = nan)"
    cov = 0.7 * np.eye(4)
    cov[entry] = cov[entry[::-1]] = bad
    with pytest.raises(ValueError, match="^mean and cov must be finite$"):
        GaussianState(2, np.zeros(4), cov)


def test_amplifier_identity_at_unit_gain():
    state = make_coherent(0.3)
    out = apply_amplifier(state, 1.0)
    assert np.allclose(out.mean, state.mean)
    assert np.allclose(out.cov, state.cov)


def test_amplifier_rescaled_adds_half_gain_noise():
    state = make_coherent(1e-2)
    out = apply_amplifier(state, 3.0)
    assert np.allclose(out.mean, state.mean)
    assert np.allclose(out.cov, (0.5 + 1.0) * np.eye(2))


def test_amplified_source_matches_benchmark_convention():
    # the scenario's amplified source: gain 1 + 2 N_A adds N_A photons, cov (1/2 + N_A) I
    source = apply_amplifier(make_coherent(1e-2), gain=1.0 + 2.0 * 6250.0)
    assert source.mean == pytest.approx([math.sqrt(0.02), 0.0])
    assert np.allclose(source.cov, 6250.5 * np.eye(2))


def test_amplifier_domain_errors():
    with pytest.raises(ValueError):
        apply_amplifier(make_coherent(0.1), 0.9)


def test_beamsplitter_endpoints():
    state = make_coherent(0.7)
    env = make_thermal(3.0)
    out1 = apply_beamsplitter(state, 1.0, env)
    assert np.allclose(out1.mean, state.mean) and np.allclose(out1.cov, state.cov)
    out0 = apply_beamsplitter(state, 0.0, env)
    assert np.allclose(out0.mean, env.mean) and np.allclose(out0.cov, env.cov)
    with pytest.raises(ValueError):
        apply_beamsplitter(state, 1.2, env)


def test_beamsplitter_on_amplified_source():
    # oracle: direct affine map tau*cov + (1-tau)*cov_env on the N_A*I source
    eta, n_a, n_b = 1e-2, 6250.0, 6250.0
    source = GaussianState(1, np.array([math.sqrt(2e-2), 0.0]), n_a * np.eye(2))
    out = apply_beamsplitter(source, eta, make_thermal(n_b / (1.0 - eta)))
    expected = eta * n_a + (1.0 - eta) * (n_b / (1.0 - eta) + 0.5)
    assert np.allclose(out.cov, expected * np.eye(2), rtol=1e-14)
    assert out.mean[0] == pytest.approx(math.sqrt(2.0 * eta * 1e-2), rel=1e-14)


def test_source_chain_reproduces_return_state():
    # coherent -> amplifier adding N_A -> beamsplitter against N_B/(1-eta)
    # must land on mean (sqrt(2 eta N_S), 0) and cov (1/2 + eta N_A + N_B) I
    n_s, n_a, n_b, eta = 1e-2, 6250.0, 6250.0, 1e-2
    source = apply_amplifier(make_coherent(n_s), gain=1.0 + 2.0 * n_a)
    out = apply_beamsplitter(source, eta, make_thermal(n_b / (1.0 - eta)))
    expected_cov = (0.5 + eta * n_a + n_b) * np.eye(2)
    assert np.abs(out.cov - expected_cov).max() / expected_cov.max() < 1e-12
    assert out.mean[0] == pytest.approx(math.sqrt(2.0 * eta * n_s), rel=1e-12)
    assert out.cov[0, 0] == pytest.approx(6313.0, rel=1e-12)


def test_beamsplitter_energy_bookkeeping(rng):
    for _ in range(25):
        n_state = float(rng.uniform(0.0, 5.0))
        n_env = float(rng.uniform(0.0, 5.0))
        tau = float(rng.uniform(0.0, 1.0))
        out = apply_beamsplitter(make_thermal(n_state), tau, make_thermal(n_env))
        expected = tau * n_state + (1.0 - tau) * n_env
        # thermal inputs: zero mean, so the photon number is Tr V / 2 - 1/2
        assert np.trace(out.cov) / 2.0 - 0.5 == pytest.approx(expected, abs=1e-12)


def test_williamson_isotropic():
    dec = williamson(6250.5 * np.eye(2))
    assert np.allclose(dec.S, np.eye(2), atol=1e-12)
    assert dec.nus == pytest.approx([6250.5])
    assert dec.physical


def test_williamson_squeezed_is_pure():
    r = 0.7
    cov = 0.5 * np.diag([math.exp(r), math.exp(-r)])
    dec = williamson(cov)
    assert dec.nus == pytest.approx([0.5], rel=1e-12)
    assert np.allclose(dec.S, np.diag([math.exp(r / 2), math.exp(-r / 2)]), atol=1e-10)


def test_williamson_reconstruction_property(rng, random_cov):
    worst_recon = worst_sympl = 0.0
    for _ in range(200):
        modes = int(rng.integers(1, 4))
        cov = random_cov(rng, modes)
        dec = williamson(cov)
        omega = symplectic_form(modes)
        recon = np.linalg.norm(dec.S @ dec.diagonal_form() @ dec.S.T - cov) / np.linalg.norm(cov)
        sympl = np.abs(dec.S @ omega @ dec.S.T - omega).max()
        worst_recon = max(worst_recon, recon)
        worst_sympl = max(worst_sympl, sympl)
    assert worst_recon < 1e-10
    assert worst_sympl < 1e-10


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_stacked_williamson_matches_each_slice(rng, random_cov, modes):
    dim = 2 * modes
    covs = np.stack([random_cov(rng, modes) for _ in range(6)] + [2.5 * np.eye(dim), 0.25 * np.eye(dim)])
    for shape in ((8,), (2, 4)):
        dec = williamson(covs.reshape(*shape, dim, dim))
        assert dec.S.shape == (*shape, dim, dim)
        assert dec.nus.shape == (*shape, modes)
        assert dec.physical.shape == shape and dec.physical.dtype == bool
        assert np.array_equal(dec.diagonal_form().reshape(-1, dim, dim)[3], williamson(covs[3]).diagonal_form())
        for k in range(8):
            one = williamson(covs[k])
            assert np.array_equal(dec.S.reshape(-1, dim, dim)[k], one.S)
            assert np.array_equal(dec.nus.reshape(-1, modes)[k], one.nus)
            assert dec.physical.reshape(-1)[k] == one.physical
    assert list(williamson(covs).physical) == [True] * 7 + [False]
    assert type(williamson(covs[0]).physical) is bool


def test_stacked_williamson_rejects_a_slice_without_spectrum(rng, random_cov):
    covs = np.stack([random_cov(rng, 1), np.diag([1.0, -0.5]), make_thermal(1.0).cov])
    with pytest.raises(ValueError, match="positive definite"):
        williamson(covs)
    asymmetric = covs.copy()
    asymmetric[1] = [[1.0, 0.2], [0.0, 1.0]]
    with pytest.raises(ValueError, match="symmetric"):
        williamson(asymmetric)
    for bad in (np.ones((2, 3, 3)), np.ones(4), np.empty((0, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            williamson(bad)


def test_williamson_input_validation():
    with pytest.raises(ValueError):
        williamson(np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        williamson(np.diag([1.0, -0.5]))
    dec = williamson(0.25 * np.eye(2))
    assert not dec.physical


def test_is_physical():
    dec = williamson(make_thermal(0.0).cov)
    assert dec.physical and dec.nus[-1] == pytest.approx(0.5)
    dec = williamson(0.25 * np.eye(2))
    assert not dec.physical and dec.nus[-1] == pytest.approx(0.25)
    dec = williamson(make_thermal(6250.0).cov)
    assert dec.physical and dec.nus[-1] == pytest.approx(6250.5)
    # an indefinite covariance has no symplectic spectrum: rejected, not |eigenvalue|
    for cov in (np.diag([1.0, -0.5]), -np.eye(2)):
        with pytest.raises(ValueError, match="positive definite"):
            williamson(cov)


@pytest.mark.parametrize("nu", [0.25, 0.5 - 1e-9, 0.5 - 1e-11, 0.5])
def test_physical_flag_and_check_apply_one_rule(nu):
    # williamson's flag and the check behind the oracles' "not physical" share the 1e-10 slack
    dec = williamson(nu * np.eye(2))
    assert dec.physical == (nu >= 0.5 - 1e-10)
    if dec.physical:
        _check_physical(dec.nus[-1])
    else:
        with pytest.raises(ValueError, match="^covariance is not physical"):
            _check_physical(dec.nus[-1])


def test_symplectic_eigenvalues_multimode(rng, random_cov):
    # oracle: the eigenvalues of i Omega V are +-nu_k
    cov = random_cov(rng, 3)
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(3) @ cov)))[::-1]
    assert williamson(cov).nus == pytest.approx(moduli[::2], rel=1e-10)


def _tmsv_cov(n_idler, n_return, corr):
    z = np.diag([1.0, -1.0])
    return np.block([[n_return * np.eye(2), corr * z], [corr * z, n_idler * np.eye(2)]])


_N_S, _ETA, _N_B = 1e-2, 1e-3, 6250.0


@pytest.mark.parametrize(
    "cov",
    [
        2.5 * np.eye(6),
        6250.5 * np.eye(4),
        _tmsv_cov(_N_S + 0.5, _N_S + 0.5, math.sqrt(_N_S * (_N_S + 1.0))),
        np.diag([_N_B + 0.5, _N_B + 0.5, _N_S + 0.5, _N_S + 0.5]),
        _tmsv_cov(_N_S + 0.5, _ETA * _N_S + _N_B + 0.5, math.sqrt(_ETA * _N_S * (_N_S + 1.0))),
        0.5 * np.diag([math.exp(8.0), math.exp(-8.0)]),
    ],
    ids=["thermal_3mode", "thermal_nb6250_2mode", "tmsv_pure", "tmsv_return_h0", "tmsv_return_h1", "squeezed_r8"],
)
def test_williamson_degenerate_and_extreme_spectra(cov):
    # degenerate eigenspaces of V^(1/2) (i Omega) V^(1/2) and extreme squeezing
    modes = cov.shape[0] // 2
    dec = williamson(cov)
    omega = symplectic_form(modes)
    recon = np.linalg.norm(dec.S @ dec.diagonal_form() @ dec.S.T - cov) / np.linalg.norm(cov)
    assert recon <= 1e-10
    assert np.abs(dec.S @ omega @ dec.S.T - omega).max() <= 1e-10
    assert np.all(np.diff(dec.nus) <= 0.0)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_unrotated_symplectic_pairs_meet_the_structural_bounds(modes):
    # the structural_invariants bounds, on 100 seeded covariances per mode count
    rng = np.random.default_rng(20261019 + modes)
    cov = np.array([random_physical_cov(rng, modes) for _ in range(100)])
    pairs = _symplectic_pairs(cov)
    rotated = williamson(cov)
    assert np.array_equal(pairs.nus, rotated.nus)
    assert np.array_equal(pairs.physical, rotated.physical)
    omega = symplectic_form(modes)
    s, s_t = pairs.S, pairs.S.swapaxes(-1, -2)
    assert np.abs(s @ omega @ s_t - omega).max() <= 1e-10
    recon = np.linalg.norm(s @ pairs.diagonal_form() @ s_t - cov, axis=(1, 2)) / np.linalg.norm(cov, axis=(1, 2))
    assert recon.max() <= 1e-10
