import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

from qibench import gaussian, relent
from qibench.chernoff import qbb
from qibench.closed_forms import closed_qre
from qibench.gaussian import GaussianState, make_coherent, make_thermal, symplectic_form, williamson
from qibench.protocols import figure_grid, hypothesis_pair
from qibench.relent import (
    DEFAULT_EPSILON_GRID,
    gibbs_matrix,
    relative_entropy,
    roc_asymmetric,
    roc_from_rates,
)
from qibench.validation import benchmark_combos, random_physical_cov
from test_chernoff import displaced_thermal_fock, displaced_thermal_state
from test_special import erfc_inv_reference


def fock_relative_entropy(rho0, rho1):
    """Independent oracle: D and V from truncated Fock-basis matrices."""
    w0, u0 = np.linalg.eigh(rho0)
    w1, u1 = np.linalg.eigh(rho1)
    log0 = (u0 * np.log(np.clip(w0, 1e-300, None))) @ u0.conj().T
    log1 = (u1 * np.log(np.clip(w1, 1e-300, None))) @ u1.conj().T
    op = log0 - log1
    d = float(np.real(np.trace(rho0 @ op)))
    second = float(np.real(np.trace(rho0 @ op @ op)))
    return d, second - d * d


def test_gibbs_thermal_scalar():
    gibbs = gibbs_matrix(make_thermal(6250.0))
    expected = math.log1p(1.0 / 6250.0)
    assert np.allclose(gibbs, expected * np.eye(2), rtol=1e-12)
    assert expected == pytest.approx(1.599872e-4, rel=1e-6)


def test_gibbs_half_photon_thermal():
    # nu = 1: g = ln((1 + 1/2) / (1 - 1/2)) = ln 3
    gibbs = gibbs_matrix(make_thermal(0.5))
    assert np.allclose(gibbs, math.log(3.0) * np.eye(2), rtol=1e-12)


def test_gibbs_rejects_pure_states():
    with pytest.raises(ValueError, match=r"^Gibbs matrix diverges for pure modes; state has .* at mode index 0$"):
        gibbs_matrix(make_thermal(0.0))


def test_unphysical_state_is_named_by_its_nu_min():
    unphysical = GaussianState(1, np.zeros(2), 0.4 * np.eye(2))
    mixed = make_thermal(1.0)
    calls = [
        lambda: qbb(unphysical, mixed),
        lambda: relative_entropy(unphysical, mixed),
        lambda: relative_entropy(mixed, unphysical),
        lambda: gibbs_matrix(unphysical),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^covariance is not physical \(nu_min = 0\.4 < 1/2\)$"):
            call()


@pytest.mark.parametrize("nu", [0.25, 0.5, 0.5 + 1e-11])
def test_both_precisions_reject_a_state_with_one_message(nu):
    # the mp path once called nu = 1/4 a pure mode and returned D = 23.94
    # for nu = 1/2 + 1e-11, which the f64 path rejects
    bad, mixed = GaussianState(1, np.zeros(2), nu * np.eye(2)), make_thermal(1.0)
    for pair in ((bad, mixed), (mixed, bad)):
        messages = []
        for dps in (None, 50):
            with pytest.raises(ValueError) as info:
                relative_entropy(*pair, dps=dps)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        expected = "not physical" if nu < 0.5 else "Gibbs matrix diverges for pure modes"
        assert expected in messages[0]


def test_both_precisions_reject_a_covariance_that_is_not_positive_definite_with_one_message():
    # the mp path once raised its own "rho0 covariance matrix is not positive definite"
    bad, mixed = GaussianState(1, np.zeros(2), np.diag([1.0, -0.5])), make_thermal(1.0)
    for pair in ((bad, mixed), (mixed, bad)):
        for dps in (None, 50):
            with pytest.raises(ValueError, match=r"^cov is not positive definite \(min eigenvalue -5\.000e-01\)$"):
                relative_entropy(*pair, dps=dps)


def inverse_gibbs(cov):
    """The Gibbs matrix S^{-T} diag(g) S^{-1}, from williamson's S and an inverse of it, symmetrized."""
    dec = williamson(cov)
    g = 2.0 * np.arctanh(0.5 / dec.nus)
    s_inv = np.linalg.solve(dec.S, np.eye(dec.S.shape[0]))
    gibbs = s_inv.T @ np.diag(np.repeat(g, 2)) @ s_inv
    return 0.5 * (gibbs + gibbs.T), dec.nus


def test_gibbs_from_projectors_matches_the_inverse_of_s():
    rng = np.random.default_rng(20261019)
    for k in range(300):
        modes = 1 + k % 3
        cov = random_physical_cov(rng, modes)
        reference, _ = inverse_gibbs(cov)
        gibbs = gibbs_matrix(GaussianState(modes, np.zeros(2 * modes), cov))
        assert np.array_equal(gibbs, gibbs.T)
        assert np.abs(gibbs - reference).max() <= 1e-14 * np.abs(reference).max()


def test_f64_relative_entropy_on_the_grid_matches_the_inverse_of_s():
    """(D, V) from the cached projectors are bit-equal to the formula on inverse_gibbs."""
    for scenario in benchmark_combos():
        pair = hypothesis_pair(scenario)
        rho0, rho1 = pair.rho0, pair.rho1
        (gibbs0, nus0), (gibbs1, nus1) = inverse_gibbs(rho0.cov), inverse_gibbs(rho1.cov)
        lndet_diff = float(np.sum(np.log1p((nus1 - nus0) * (nus1 + nus0) / (nus0**2 - 0.25))))
        delta = rho0.mean - rho1.mean
        d = 0.5 * (lndet_diff + float(np.trace(rho0.cov @ (gibbs1 - gibbs0))) + float(delta @ gibbs1 @ delta))
        gv = (gibbs0 - gibbs1) @ rho0.cov
        go = (gibbs0 - gibbs1) @ symplectic_form(rho0.modes)
        v = (
            0.5 * float(np.trace(gv @ gv))
            + 0.125 * float(np.trace(go @ go))
            + float(delta @ gibbs1 @ rho0.cov @ gibbs1 @ delta)
        )
        res = relative_entropy(rho0, rho1)
        assert (res.d, res.v) == (max(d, 0.0), max(v, 0.0)), scenario.label


def test_gibbs_isotropic_matches_scalar_map(rng):
    for n in rng.uniform(0.1, 50.0, size=5):
        gibbs = gibbs_matrix(make_thermal(float(n)))
        scalar = 2.0 * math.atanh(0.5 / (n + 0.5))
        assert np.abs(gibbs - scalar * np.eye(2)).max() < 1e-12 * scalar


def test_relative_entropy_identical_states():
    state = make_thermal(6250.0)
    res = relative_entropy(state, state)
    assert res.d == 0.0
    assert res.v == 0.0


def test_relative_entropy_optical_closed_form():
    # equal covariances: D = eta N_S_eff ln(1 + 1/N_B),
    # V = eta N_S_eff (2 N_B + 1) ln^2(1 + 1/N_B)
    n_b, received = 6250.0, 62.5001
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(n_b, math.sqrt(received))
    res = relative_entropy(rho0, rho1)
    g = math.log1p(1.0 / n_b)
    assert res.d == pytest.approx(received * g, rel=1e-12)
    assert res.v == pytest.approx(received * (2.0 * n_b + 1.0) * g * g, rel=1e-12)


@pytest.mark.parametrize(
    "n0, a0, n1, a1",
    [(0.8, 0.0, 1.7, 0.6), (0.3, 0.2, 3.0, 1.1), (1.5, -0.4, 0.9, 0.3)],
)
def test_relative_entropy_against_fock_numerics(n0, a0, n1, a1):
    d_ref, v_ref = fock_relative_entropy(
        displaced_thermal_fock(n0, a0), displaced_thermal_fock(n1, a1)
    )
    res = relative_entropy(displaced_thermal_state(n0, a0), displaced_thermal_state(n1, a1))
    assert res.d == pytest.approx(d_ref, rel=1e-7)
    assert res.v == pytest.approx(v_ref, rel=1e-7)


def test_relative_entropy_amp_pair_matches_closed_form():
    from qibench.closed_forms import qre_coherent

    n_s, n_a, n_b, eta = 1e-2, 6250.0, 6250.0, 1e-2
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(eta * n_a + n_b, math.sqrt(eta * n_s))
    res = relative_entropy(rho0, rho1)
    d_closed, v_closed = qre_coherent(eta * n_s, eta * n_a, n_b)
    assert res.d == pytest.approx(d_closed, rel=1e-8)
    assert res.v == pytest.approx(v_closed, rel=1e-8)


def test_relative_entropy_maser_pair_matches_closed_form():
    from qibench.closed_forms import qre_coherent

    n_s, phi, n_t, n_b, eta = 6042.0, 1.0, 207.866591170045, 6250.0, 1e-2
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(eta * n_t + n_b, math.sqrt(eta * phi * n_s))
    res = relative_entropy(rho0, rho1)
    d_closed, v_closed = qre_coherent(eta * phi * n_s, eta * n_t, n_b)
    assert res.d == pytest.approx(d_closed, rel=1e-8)
    assert res.v == pytest.approx(v_closed, rel=1e-8)


def test_relative_entropy_mp_path_agrees_with_float():
    rho0 = displaced_thermal_state(1.1, 0.2)
    rho1 = displaced_thermal_state(2.3, -0.5)
    f64 = relative_entropy(rho0, rho1)
    hp = relative_entropy(rho0, rho1, dps=40)
    assert f64.d == pytest.approx(hp.d, rel=1e-10)
    assert f64.v == pytest.approx(hp.v, rel=1e-10)


def test_relative_entropy_errors():
    two_mode = GaussianState(2, np.zeros(4), 0.7 * np.eye(4))
    with pytest.raises(ValueError):
        relative_entropy(make_thermal(1.0), two_mode)
    with pytest.raises(TypeError):  # dps is keyword-only
        relative_entropy(make_thermal(1.0), make_thermal(2.0), 50)


@pytest.mark.parametrize("dps", [None, 30])
def test_relative_entropy_rejects_pure_states(dps):
    # either state pure: the error names the state and the mode index
    with pytest.raises(ValueError, match=r"rho0 has symplectic eigenvalue 0\.5\d* at mode index 0"):
        relative_entropy(make_coherent(0.1), make_thermal(1.0), dps=dps)
    with pytest.raises(ValueError, match=r"rho1 has symplectic eigenvalue 0\.5\d* at mode index 0"):
        relative_entropy(make_thermal(1.0), make_thermal(0.0), dps=dps)
    # modes are indexed by descending symplectic eigenvalue
    mixed_pure = GaussianState(2, np.zeros(4), np.diag([0.5, 0.5, 2.0, 2.0]))
    mixed = GaussianState(2, np.zeros(4), 1.5 * np.eye(4))
    with pytest.raises(ValueError, match="rho0 has .* at mode index 1"):
        relative_entropy(mixed_pure, mixed, dps=dps)


def test_relative_entropy_nonnegative_and_faithful():
    base = make_thermal(1.0)
    assert relative_entropy(base, base).d < 1e-10
    shifted = displaced_thermal_state(1.0, 1e-3)
    assert relative_entropy(base, shifted).d > 1e-10
    warmer = make_thermal(1.001)
    assert relative_entropy(base, warmer).d > 1e-10


def one_point_pmd(d, v, copies, epsilon):
    """The second-order P_md at one point: a one-point roc_from_rates."""
    return float(roc_from_rates(d, v, copies, grid=[epsilon]).p_md[0])


def test_pmd_second_order_degenerate_cases():
    assert one_point_pmd(0.0, 0.0, 100, 0.01) == 1.0
    d = 1e-2
    for m in (1, 10, 1000):
        assert one_point_pmd(d, 0.123, m, 0.5) == pytest.approx(math.exp(-m * d), rel=1e-14)


def test_pmd_second_order_against_high_precision():
    d, v, m, eps = 1e-2, 2e-2, 100_000, 1e-3
    with mp.workdps(50):
        quantile = mp.sqrt(2) * mp.erfinv(2 * mp.mpf(eps) - 1)
        expected = float(mp.e ** (-(m * mp.mpf(d) + mp.sqrt(m * mp.mpf(v)) * quantile)))
    assert one_point_pmd(d, v, m, eps) == pytest.approx(expected, rel=1e-12)


def test_pmd_second_order_domain():
    with pytest.raises(ValueError):
        one_point_pmd(1e-2, 1e-2, 10, 0.0)
    with pytest.raises(ValueError):
        one_point_pmd(1e-2, 1e-2, 10, 1.0)


@pytest.mark.parametrize(
    "evaluate",
    [roc_from_rates, lambda d, v, copies: one_point_pmd(d, v, copies, 0.5)],
    ids=["roc_from_rates", "pmd_second_order"],
)
@pytest.mark.parametrize(
    "d, v, copies",
    [
        (0.1, 0.1, 0),
        (-0.1, 0.1, 10),
        (0.1, -0.1, 10),
        (math.nan, 0.1, 10),
        (0.1, math.nan, 10),
        (math.inf, 0.1, 10),
        (0.1, 0.1, 2.5),
        (0.1, 0.1, math.inf),
    ],
)
def test_rates_and_copies_are_checked(evaluate, d, v, copies):
    with pytest.raises(ValueError):
        evaluate(d, v, copies)


def test_pmd_doubling_copies_squares_median_point():
    d = 3.7e-4
    single = one_point_pmd(d, 0.31, 1000, 0.5)
    double = one_point_pmd(d, 0.31, 2000, 0.5)
    assert math.log(double) == pytest.approx(2.0 * math.log(single), rel=1e-10)


def pmd_reference(d, v, copies, epsilon):
    """The second-order P_md at one point as a per-point loop, and whether it was clamped."""
    quantile = -math.sqrt(2.0) * erfc_inv_reference(2.0 * epsilon) + 0.0
    exponent = copies * d + math.sqrt(copies * v) * quantile
    if exponent < 0.0:
        return 1.0, True
    return (math.exp(-exponent) if exponent < 745.0 else 0.0), False


@pytest.mark.parametrize("figure", ["fig3_upper", "fig3_lower", "fig4_upper", "fig4_mid", "fig4_lower"])
def test_roc_from_rates_bit_identical_to_per_point_loop(figure):
    for scenario in figure_grid(figure):
        d, v = closed_qre(scenario)
        for copies in (1, 1000, scenario.copies, 10**8):
            curve = roc_from_rates(d, v, copies)
            expected, clamped = zip(*(pmd_reference(d, v, copies, float(e)) for e in DEFAULT_EPSILON_GRID))
            assert curve.p_md.tobytes() == np.array(expected).tobytes()
            assert curve.meta["clamped_points"] == sum(clamped)


def test_roc_from_rates_inverts_its_grid_in_one_call(erfc_inv_calls):
    roc_from_rates(1e-2, 2e-2, 1000)
    assert len(erfc_inv_calls) == 1


def test_roc_identical_states_is_flat_one():
    state = make_thermal(10.0)
    curve = roc_asymmetric(state, state, copies=100)
    assert np.all(curve.p_md == 1.0)
    assert curve.is_monotone()


def test_roc_amp_above_optical():
    # extra amplifier noise can only hurt: pointwise larger missed detection
    n_s, n_a, n_b, eta, copies = 1e-2, 6250.0, 6250.0, 1e-2, 100_000
    rho0 = make_thermal(n_b)
    amp = displaced_thermal_state(eta * n_a + n_b, math.sqrt(eta * n_s))
    optical = displaced_thermal_state(n_b, math.sqrt(eta * (n_s + n_a)))
    curve_amp = roc_asymmetric(rho0, amp, copies)
    curve_opt = roc_asymmetric(rho0, optical, copies)
    assert np.all(curve_amp.p_md >= curve_opt.p_md)
    assert curve_amp.is_monotone() and curve_opt.is_monotone()


def test_roc_grid_validation():
    state = make_thermal(1.0)
    with pytest.raises(ValueError, match=r"^epsilon grid values must lie in \(0, 1\)$"):
        roc_asymmetric(state, state, 10, grid=[0.5, 1.5])
    with pytest.raises(ValueError, match="^epsilon grid is empty$"):
        roc_asymmetric(state, state, 10, grid=[])


def test_roc_from_rates_rejects_a_nan_grid_value_as_its_grid():
    # a NaN sorts last and once reached normal_quantile, which raised its own message
    with pytest.raises(ValueError, match=r"^epsilon grid values must lie in \(0, 1\)$"):
        roc_from_rates(0.1, 0.1, 10, grid=[0.1, math.nan])


def _fields(res):
    return res.d, res.v


def _cold(rho0, rho1, dps):
    """(D, V) at ``dps`` digits computed from an empty mp cache."""
    relent._mp_cache.clear()
    return _fields(relative_entropy(rho0, rho1, dps=dps))


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_shared_mp_forms_change_no_bits(mp_decompositions, rng, random_cov, modes):
    a, b, c = (
        GaussianState(modes, rng.normal(size=2 * modes), random_cov(rng, modes)) for _ in range(3)
    )
    # pairs that share covariances, in both roles
    pairs = [(a, b), (b, a), (a, c), (c, b), (a, a)]
    cold = [_cold(x, y, 50) for x, y in pairs]
    relent._mp_cache.clear()
    mp_decompositions.clear()
    warm = [_fields(relative_entropy(x, y, dps=50)) for x, y in pairs]
    assert warm == cold
    assert len(mp_decompositions) == 3

    # a covariance changed in place is decomposed again
    c.cov *= 1.5
    mutated = _fields(relative_entropy(a, c, dps=50))
    assert len(mp_decompositions) == 4
    assert mutated != cold[2]
    assert mutated == _cold(a, c, 50)


def test_mp_cache_keys_on_dps_and_keeps_no_failure(mp_decompositions):
    calls = mp_decompositions
    rho0, rho1 = make_thermal(1.0), displaced_thermal_state(2.0, 0.3)
    relative_entropy(rho0, rho1, dps=30)
    # the role is not part of the key
    relative_entropy(rho1, rho0, dps=30)
    assert len(calls) == 2
    # the precision is part of the key
    relative_entropy(rho0, rho1, dps=40)
    assert len(calls) == 4
    # 4 covariance forms and 3 pairs; a failed decomposition is not kept
    assert len(relent._mp_cache) == 7
    for _ in range(2):
        with pytest.raises(ValueError):
            relative_entropy(make_coherent(0.1), rho1, dps=30)
    assert len(calls) == 6
    assert len(relent._mp_cache) == 7


def test_mp_cache_keeps_the_last_128(mp_decompositions):
    size = relent._MP_CACHE_SIZE
    # each pair of new covariances adds their two forms and the pair's terms
    states = [make_thermal(0.1 * n) for n in range(1, 2 * (size // 3) + 5)]
    pairs = list(zip(states[0::2], states[1::2]))
    for rho0, rho1 in pairs:
        relative_entropy(rho0, rho1, dps=15)
    assert 3 * len(pairs) > size
    assert len(relent._mp_cache) == size
    # the last pair is a hit; the first was dropped and is decomposed again
    relative_entropy(*pairs[-1], dps=15)
    assert len(mp_decompositions) == len(states)
    relative_entropy(*pairs[0], dps=15)
    assert len(mp_decompositions) == len(states) + 2
    assert len(relent._mp_cache) == size


def test_mp_pure_state_error_names_its_role_after_its_partner_is_cached(mp_decompositions):
    # the mixed partner is cached by content, whatever its role; the pure
    # state is decomposed, and rejected with its own role, on every call
    def two_mode(*variances):
        return GaussianState(2, np.zeros(4), np.diag(variances))

    for mixed, pure, other, index in (
        (make_thermal(1.0), make_coherent(0.1), make_thermal(2.0), 0),
        # modes are indexed by descending symplectic eigenvalue
        (two_mode(1.5, 1.5, 1.5, 1.5), two_mode(0.5, 0.5, 2.0, 2.0), two_mode(2.5, 2.5, 2.5, 2.5), 1),
    ):
        relative_entropy(other, mixed, dps=30)
        relative_entropy(mixed, other, dps=30)
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"rho0 has symplectic eigenvalue 0\.5\d* at mode index {index}"):
                relative_entropy(pure, mixed, dps=30)
            with pytest.raises(ValueError, match=rf"rho1 has symplectic eigenvalue 0\.5\d* at mode index {index}"):
                relative_entropy(mixed, pure, dps=30)
        assert not any(pure.cov.tobytes() in key for key in relent._mp_cache)
    assert len(mp_decompositions) == 2 * (2 + 4)


@pytest.mark.parametrize("precisions, rounds", [((None,), 10), ((15, 25), 1)])
def test_caches_are_safe_across_threads(monkeypatch, precisions, rounds):
    # more threads than cores and more states than either cache holds: a lost
    # update or an eviction under another thread's look-up raises, and an mp
    # call at the other precision's digits changes the bits
    monkeypatch.setattr(gaussian, "_spectrum_cache", {})
    monkeypatch.setattr(relent, "_mp_cache", {})
    states = [make_thermal(0.1 * n) for n in range(1, 81)]
    calls = [((states[i], states[(i + 7) % 80]), dps) for i in range(80) for dps in precisions]
    expected = [_fields(relative_entropy(*pair, dps=dps)) for pair, dps in calls]

    def work(first):
        for i in range(first, first + rounds * len(calls)):
            pair, dps = calls[i % len(calls)]
            assert _fields(relative_entropy(*pair, dps=dps)) == expected[i % len(calls)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(work, 61 * k) for k in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    f64 = None in precisions
    assert len(gaussian._spectrum_cache) == (gaussian._SPECTRUM_CACHE_SIZE if f64 else 0)
    assert len(relent._mp_cache) == (0 if f64 else relent._MP_CACHE_SIZE)


def _matrix_mp_oracle(rho0, rho1, dps):
    """(D, V) at ``dps`` digits from whole mp.matrix products, term by term as the oracle sums them."""
    with mp.workdps(dps):
        cov0, gibbs0, lndet0 = relent._mp_gibbs_lndet(rho0.cov, "rho0")
        _, gibbs1, lndet1 = relent._mp_gibbs_lndet(rho1.cov, "rho1")
        delta = mp.matrix(rho0.mean) - mp.matrix(rho1.mean)
        g1_delta = gibbs1 * delta
        quad = (delta.T * g1_delta)[0]
        d = (lndet1 - lndet0 + relent._mp_trace_of_product(cov0, gibbs1 - gibbs0) + quad) / 2
        gamma = gibbs0 - gibbs1
        gv = gamma * cov0
        go = gamma * mp.matrix(symplectic_form(rho0.modes))
        v = (
            relent._mp_trace_of_product(gv, gv) / 2
            + relent._mp_trace_of_product(go, go) / 8
            + (g1_delta.T * cov0 * g1_delta)[0]
        )
        return float(d), float(v)


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_pairs_differing_in_means_share_their_covariance_terms(pair_terms, rng, random_cov, modes):
    cov0, cov1 = random_cov(rng, modes), random_cov(rng, modes)
    pairs = [
        tuple(GaussianState(modes, rng.normal(size=2 * modes), cov) for cov in (cov0, cov1)) for _ in range(4)
    ]
    cold = [_cold(x, y, 50) for x, y in pairs]
    assert len(pair_terms) == 3 * len(pairs)
    # the list-based mean terms give the bits of the matrix products
    assert cold == [_matrix_mp_oracle(x, y, 50) for x, y in pairs]

    relent._mp_cache.clear()
    pair_terms.clear()
    warm = [_fields(relative_entropy(x, y, dps=50)) for x, y in pairs]
    assert len(pair_terms) == 3
    # the order of the pair and the precision are part of the key
    relative_entropy(pairs[0][1], pairs[0][0], dps=50)
    relative_entropy(*pairs[0], dps=40)
    assert len(pair_terms) == 9
    assert warm == [_fields(relative_entropy(x, y, dps=50)) for x, y in pairs]
    assert len(pair_terms) == 9
    assert warm == cold


def _two_mode_pair():
    cov0 = [[2.0, 0.3, 0.5, 0.0], [0.3, 1.5, 0.0, -0.4], [0.5, 0.0, 2.5, 0.2], [0.0, -0.4, 0.2, 1.8]]
    cov1 = [[3.0, -0.2, 0.0, 0.6], [-0.2, 1.2, 0.1, 0.0], [0.0, 0.1, 1.4, -0.3], [0.6, 0.0, -0.3, 2.2]]
    return GaussianState(2, [0.1, -0.2, 0.0, 0.3], cov0), GaussianState(2, [0.0, 0.4, -0.1, 0.0], cov1)


# dps=50 (D, V) as exact floats: the mp path is the oracle behind
# qre_closed_vs_oracle, so a rewrite of it must not move a single bit. The
# first combo is that check's worst, the second the worst f64 corner.
PINNED_ORACLE = {
    "mas_eta1e-08_ns0.001_nt6250_nb6250": (8.499279998245252e-16, 1.6998559863976177e-15),
    "mas_eta1e-08_ns0.001_nt207.9_nb6250": (7.999913224097909e-16, 1.5999826476999324e-15),
    "amp_eta1e-06_ns0.1_na5e+08_nb1": (4.834299777378105, 0.9553853865566763),
    "amp_eta0.01_ns1_na6250_nb100": (0.10021959481650616, 0.14709970379281861),
    "two_mode": (0.5342008321060592, 1.5683708795007332),
}


@pytest.mark.parametrize("label", PINNED_ORACLE)
def test_mp_oracle_is_pinned(label):
    if label == "two_mode":
        rho0, rho1 = _two_mode_pair()
    else:
        pair = hypothesis_pair(next(s for s in benchmark_combos() if s.label == label))
        rho0, rho1 = pair.rho0, pair.rho1
    res = relative_entropy(rho0, rho1, dps=50)
    assert (res.d, res.v) == PINNED_ORACLE[label]
