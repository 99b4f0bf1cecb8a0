import math

import numpy as np
import pytest
import scipy.linalg as sla

from qibench import chernoff, gaussian
from qibench.chernoff import qbb, qcb, s_overlap
from qibench.gaussian import GaussianState, NumericError, _symplectic_pairs, make_coherent, make_thermal, williamson
from qibench.protocols import build_scenario, hypothesis_pair
from qibench.relent import relative_entropy
from qibench.validation import benchmark_combos, random_physical_cov


def thermal_overlap(n0, n1, s):
    """Independent oracle: Tr(rho0^s rho1^(1-s)) for thermal states by the
    geometric sum over the Fock spectrum."""
    t = (n0 / (n0 + 1.0)) ** s * (n1 / (n1 + 1.0)) ** (1.0 - s)
    return (n0 + 1.0) ** (-s) * (n1 + 1.0) ** (-(1.0 - s)) / (1.0 - t)


def displaced_thermal_fock(nbar, alpha, dim=160):
    """Fock-basis density matrix of a displaced thermal state (alpha real)."""
    n = np.arange(dim)
    populations = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar)
    rho = np.diag(populations).astype(complex)
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    displace = sla.expm(alpha * lower.conj().T - alpha * lower)
    return displace @ rho @ displace.conj().T


def fock_s_overlap(rho0, rho1, s):
    w0, u0 = np.linalg.eigh(rho0)
    w1, u1 = np.linalg.eigh(rho1)
    r0 = (u0 * np.power(np.clip(w0, 0, None), s)) @ u0.conj().T
    r1 = (u1 * np.power(np.clip(w1, 0, None), 1.0 - s)) @ u1.conj().T
    return float(np.real(np.trace(r0 @ r1)))


def displaced_thermal_state(nbar, alpha):
    return GaussianState(1, np.array([math.sqrt(2.0) * alpha, 0.0]), (nbar + 0.5) * np.eye(2))


def test_identical_states_overlap_is_one():
    state = make_thermal(6250.0)
    for s in (0.1, 0.5, 0.9):
        res = s_overlap(state, state, s)
        assert res.c_s == pytest.approx(1.0, abs=1e-12)


def test_pure_coherent_overlap():
    # |<0|alpha>|^2 = exp(-n_s) for all s; the nu -> 1/2 clamp costs ~1e-6 n_s
    vacuum = make_thermal(0.0)
    res = s_overlap(vacuum, make_coherent(0.01), 0.5)
    assert res.clamped
    assert res.c_s == pytest.approx(math.exp(-0.01), rel=1e-6)
    assert res.c_s == pytest.approx(0.990050, abs=5e-7)
    res1 = s_overlap(vacuum, make_coherent(1.0), 0.5)
    assert res1.c_s == pytest.approx(math.exp(-1.0), rel=1e-5)


@pytest.mark.parametrize(
    "n0, n1, s",
    [(1.0, 2.0, 0.5), (1.0, 2.0, 0.3), (0.2, 3.7, 0.77), (6250.0, 6312.5, 0.5), (0.6, 0.6, 0.25)],
)
def test_thermal_overlap_against_spectral_sum(n0, n1, s):
    res = s_overlap(make_thermal(n0), make_thermal(n1), s)
    assert res.c_s == pytest.approx(thermal_overlap(n0, n1, s), rel=1e-12)


@pytest.mark.parametrize(
    "n0, a0, n1, a1, s",
    [
        (0.8, 0.0, 1.7, 0.6, 0.5),
        (0.8, 0.0, 1.7, 0.6, 0.31),
        (2.0, 0.4, 0.6, -0.3, 0.5),
        (0.3, 0.2, 3.0, 1.1, 0.72),
    ],
)
def test_overlap_against_fock_numerics(n0, a0, n1, a1, s):
    reference = fock_s_overlap(displaced_thermal_fock(n0, a0), displaced_thermal_fock(n1, a1), s)
    result = s_overlap(displaced_thermal_state(n0, a0), displaced_thermal_state(n1, a1), s)
    assert result.c_s == pytest.approx(reference, rel=5e-9)


def test_overlap_symmetry_under_s_reversal(rng):
    rho0 = displaced_thermal_state(1.4, 0.3)
    rho1 = displaced_thermal_state(0.7, -0.5)
    for s in rng.uniform(0.05, 0.95, size=5):
        a = s_overlap(rho0, rho1, float(s)).c_s
        b = s_overlap(rho1, rho0, 1.0 - float(s)).c_s
        assert a == pytest.approx(b, rel=1e-12)


def test_overlap_bounded_for_physical_pairs(rng):
    for _ in range(20):
        rho0 = displaced_thermal_state(float(rng.uniform(0.0, 4.0)), float(rng.normal()))
        rho1 = displaced_thermal_state(float(rng.uniform(0.0, 4.0)), float(rng.normal()))
        res = s_overlap(rho0, rho1, float(rng.uniform(0.05, 0.95)))
        assert 0.0 < res.c_s <= 1.0 + 1e-10


def test_overlap_domain_errors():
    with pytest.raises(ValueError):
        s_overlap(make_thermal(1.0), make_thermal(1.0), 1.5)
    with pytest.raises(ValueError):
        s_overlap(make_thermal(1.0), make_thermal(1.0), -0.2)
    with pytest.raises(ValueError):
        s_overlap(make_thermal(1.0), make_thermal(1.0), math.nan)
    two_mode = GaussianState(2, np.zeros(4), 0.7 * np.eye(4))
    with pytest.raises(ValueError):
        s_overlap(make_thermal(1.0), two_mode, 0.5)


@pytest.mark.parametrize("bound", [qbb, qcb])
@pytest.mark.parametrize("copies", [math.nan, math.inf, 2.5, 0])
def test_bounds_reject_copies_that_are_not_whole(bound, copies):
    # NaN and inf used to give value 0.0, and 2.5 a bound for a fractional copy count
    with pytest.raises(ValueError, match="whole number"):
        bound(make_thermal(1.0), make_coherent(0.5), copies)


def test_qcb_identical_states():
    state = make_thermal(6250.0)
    bound = qcb(state, state, copies=100)
    assert bound.value == pytest.approx(0.5, abs=1e-12)
    assert bound.s_star == 0.5


def test_qcb_equal_covariance_pair_matches_coefficient():
    # equal covariances: prefactor is 1 at every s and s* = 1/2 exactly,
    # so the full bound reduces to exp(-eta N_S_eff (sqrt(N_B+1)-sqrt(N_B))^2)
    n_b, received = 6250.0, 62.5001
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(n_b, math.sqrt(received))
    coefficient = received / (math.sqrt(n_b + 1.0) + math.sqrt(n_b)) ** 2
    bound = qcb(rho0, rho1, copies=1)
    assert bound.per_mode_exponent == pytest.approx(coefficient, rel=1e-9)
    assert bound.value == pytest.approx(0.5 * math.exp(-coefficient), rel=1e-9)
    assert bound.s_star == pytest.approx(0.5, abs=1e-4)
    assert bound.prefactor == pytest.approx(1.0, abs=1e-12)


def test_qcb_not_above_grid_search():
    rho0 = displaced_thermal_state(1.2, 0.0)
    rho1 = displaced_thermal_state(2.9, 0.8)
    bound = qcb(rho0, rho1)
    grid_min = min(s_overlap(rho0, rho1, s).c_s for s in np.linspace(1e-6, 1 - 1e-6, 2001))
    assert bound.per_mode_overlap <= grid_min + 1e-12


def _tmsv_return_pair(n_s, n_b, eta):
    """thermal(N_B) x thermal(N_S) against the correlated two-mode squeezed return."""
    z = np.diag([1.0, -1.0])
    corr = math.sqrt(eta * n_s * (n_s + 1.0))
    idler = (n_s + 0.5) * np.eye(2)
    background = np.block([[(n_b + 0.5) * np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), idler]])
    returned = np.block([[(eta * n_s + n_b + 0.5) * np.eye(2), corr * z], [corr * z, idler]])
    return GaussianState(2, np.zeros(4), background), GaussianState(2, np.zeros(4), returned)


def _random_pair(modes, seed):
    rng = np.random.default_rng(seed)
    return tuple(GaussianState(modes, rng.normal(size=2 * modes), random_physical_cov(rng, modes)) for _ in range(2))


@pytest.mark.parametrize(
    "rho0, rho1",
    [
        (make_thermal(0.0), make_thermal(3.0)),
        (make_coherent(0.5), make_thermal(2.0)),
        _tmsv_return_pair(1e-2, 1000.0, 1e-2),
        _random_pair(2, 20261019),
        _random_pair(3, 20261020),
        (make_thermal(1.0), make_thermal(1.0)),
    ],
    ids=["vacuum_thermal3", "coherent_thermal2", "tmsv_return", "random_2mode", "random_3mode", "identical"],
)
def test_qcb_not_above_grid_search_off_centre(rho0, rho1):
    # minima near s = 0.10 and a 4x4 pair; the grid goes through the batched
    # evaluator, which gives s_overlap's bits at every s
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    ln_pre, mean_exponent = chernoff._evaluate(chernoff._prepare(rho0, rho1), grid)
    grid_min = float(np.exp(ln_pre - mean_exponent).min())
    assert qcb(rho0, rho1).per_mode_overlap <= grid_min + 1e-12


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_batched_evaluation_matches_single_points(rng, random_cov, modes):
    rho0 = GaussianState(modes, rng.normal(size=2 * modes), random_cov(rng, modes))
    rho1 = GaussianState(modes, rng.normal(size=2 * modes), random_cov(rng, modes))
    pair = chernoff._prepare(rho0, rho1)
    s = np.concatenate([np.sort(rng.uniform(1e-9, 1.0 - 1e-9, size=32)), [0.5]])
    ln_pre, mean_exponent = chernoff._evaluate(pair, s)
    singles = [chernoff._evaluate(pair, s[k : k + 1]) for k in range(s.size)]
    assert np.array_equal(ln_pre, [one[0][0] for one in singles])
    assert np.array_equal(mean_exponent, [one[1][0] for one in singles])


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_one_sum_sigma_matches_per_state_products(rng, random_cov, modes):
    # reference: Sigma_s = sum over states of S diag(Lambda_t(nu)) S^T, with
    # the determinant and the quadratic form taken by numpy's dense routines
    rho0 = GaussianState(modes, rng.normal(size=2 * modes), random_cov(rng, modes))
    rho1 = GaussianState(modes, rng.normal(size=2 * modes), random_cov(rng, modes))
    s = np.array([1e-3, 0.2, 0.5, 0.77, 1.0 - 1e-3])
    ln_pre, mean_exponent = chernoff._evaluate(chernoff._prepare(rho0, rho1), s)
    for k, sk in enumerate(s):
        sigma, ln_g = np.zeros((2 * modes, 2 * modes)), 0.0
        for rho, t in ((rho0, sk), (rho1, 1.0 - sk)):
            w = williamson(rho.cov)
            top, bottom = (w.nus + 0.5) ** t, (w.nus - 0.5) ** t
            ln_g -= np.log(top - bottom).sum()
            sigma += w.S @ np.diag(np.repeat((top + bottom) / (top - bottom), 2)) @ w.S.T
        d = rho0.mean - rho1.mean
        ref_pre = modes * math.log(2.0) + ln_g - 0.5 * np.linalg.slogdet(sigma)[1]
        assert ln_pre[k] == pytest.approx(ref_pre, rel=1e-12, abs=1e-12)
        assert mean_exponent[k] == pytest.approx(d @ np.linalg.solve(sigma, d), rel=1e-12)


@pytest.fixture
def evaluator_calls(monkeypatch):
    """List that grows by one entry, the s array, per call of chernoff._evaluate."""
    grids = []
    evaluate = chernoff._evaluate

    def counting(pair, s):
        grids.append(s)
        return evaluate(pair, s)

    monkeypatch.setattr(chernoff, "_evaluate", counting)
    return grids


@pytest.mark.parametrize(
    "rho0, rho1",
    [
        (displaced_thermal_state(1.2, 0.0), displaced_thermal_state(2.9, 0.8)),
        (make_thermal(6250.0), displaced_thermal_state(6312.5, math.sqrt(1e-4))),
        (displaced_thermal_state(0.5, 0.1), displaced_thermal_state(2.5, 1.0)),
        (make_thermal(1.0), make_thermal(3.0)),
    ],
)
def test_qcb_batches_its_search(evaluator_calls, rho0, rho1):
    # counts evaluator calls, not time; a serial search makes one per s-point (33 and more)
    bound = qcb(rho0, rho1)
    assert len(evaluator_calls) <= 10
    assert bound.evaluations == sum(s.size for s in evaluator_calls)
    # one single-point evaluation, at s*: s = 1/2 comes from the first scan
    assert [s.size for s in evaluator_calls].count(1) == 1
    assert 0.0 < bound.s_bracket < 1e-6


def test_qcb_call_budget_over_the_grid(evaluator_calls):
    # a uniform 16x zoom takes 6.24 calls per qcb on average over these pairs
    calls, stops = [], set()
    for scenario in benchmark_combos():
        pair = hypothesis_pair(scenario)
        before = len(evaluator_calls)
        stops.add(qcb(pair.rho0, pair.rho1, scenario.copies).stop)
        calls.append(len(evaluator_calls) - before)
    assert max(calls) <= 8
    assert sum(calls) / len(calls) <= 4.5
    assert stops == {"bracket", "flat", "half", "indistinguishable"}


def test_qcb_finds_a_minimum_far_from_one_half(evaluator_calls):
    bound = qcb(make_thermal(0.0), make_thermal(1e4))
    assert len(evaluator_calls) <= 8
    assert 0.04 < bound.s_star < 0.06
    assert 0.0 < bound.s_bracket < 1e-6


@pytest.mark.parametrize(
    "rho0, rho1, stop",
    [
        (displaced_thermal_state(1.2, 0.0), displaced_thermal_state(2.9, 0.8), "bracket"),
        (make_thermal(1.0), make_thermal(3.0), "flat"),
        # equal covariances: ln C_s is symmetric about s = 1/2, and the
        # search's vertex lands a rounding error above that value
        (make_thermal(6250.0), displaced_thermal_state(6250.0, math.sqrt(62.5001)), "half"),
        (make_thermal(1.0), make_thermal(1.0), "indistinguishable"),
    ],
)
def test_qcb_says_why_it_stopped(rho0, rho1, stop):
    bound = qcb(rho0, rho1, 3)
    assert bound.stop == stop
    if stop == "bracket":
        assert 0.0 < bound.s_bracket <= 1e-10
    elif stop == "flat":
        assert 1e-10 < bound.s_bracket < 1e-6
    else:
        assert bound.s_star == 0.5
        assert bound.per_mode_overlap == qbb(rho0, rho1, 3).per_mode_overlap
    assert qbb(rho0, rho1, 3).stop is None


def test_qbb_dominates_qcb():
    pairs = [
        (make_thermal(6250.0), displaced_thermal_state(6312.5, math.sqrt(1e-4))),
        (displaced_thermal_state(0.5, 0.1), displaced_thermal_state(2.5, 1.0)),
        (make_thermal(1.0), make_thermal(3.0)),
    ]
    for rho0, rho1 in pairs:
        assert qbb(rho0, rho1, 10).value >= qcb(rho0, rho1, 10).value - 1e-15


def test_qbb_pure_coherent_value():
    bound = qbb(make_thermal(0.0), make_coherent(0.01), copies=1)
    assert bound.value == pytest.approx(0.5 * math.exp(-0.01), rel=1e-6)
    assert (bound.evaluations, bound.s_bracket) == (1, None)


def test_qcb_symmetric_in_arguments():
    rho0 = displaced_thermal_state(1.2, 0.2)
    rho1 = displaced_thermal_state(2.1, -0.4)
    a = qcb(rho0, rho1, 7)
    b = qcb(rho1, rho0, 7)
    assert a.value == pytest.approx(b.value, rel=1e-10)
    assert a.per_mode_overlap == pytest.approx(b.per_mode_overlap, rel=1e-10)


def test_qcb_monotonic_in_copies():
    rho0 = make_thermal(1.0)
    rho1 = displaced_thermal_state(1.0, 0.5)
    values = [qcb(rho0, rho1, m).value for m in (1, 2, 5, 20)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert qcb(rho0, rho1, 5).value == pytest.approx(
        0.5 * qcb(rho0, rho1, 1).per_mode_overlap ** 5, rel=1e-12
    )


def test_mean_exponent_quadratic_in_displacement():
    rho0 = make_thermal(2.0)
    small = s_overlap(rho0, displaced_thermal_state(2.0, 0.3), 0.5)
    large = s_overlap(rho0, displaced_thermal_state(2.0, 0.6), 0.5)
    assert large.mean_exponent == pytest.approx(4.0 * small.mean_exponent, rel=1e-9)


def test_amp_pair_exponent_matches_closed_form():
    # the Bhattacharyya split of the general machinery must reproduce the
    # closed-form exponent coefficient on the amplified-source pair
    from qibench.closed_forms import qcb_coherent

    n_s, n_a, n_b, eta = 1e-2, 6250.0, 6250.0, 1e-2
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(eta * n_a + n_b, math.sqrt(eta * n_s))
    oracle = qbb(rho0, rho1, 1)
    closed = qcb_coherent(eta * n_s, eta * n_a, n_b)
    assert closed.mean_exponent == pytest.approx(oracle.mean_exponent, rel=1e-8)
    assert closed.prefactor == pytest.approx(oracle.prefactor, rel=1e-10)


def test_qcb_not_above_qbb_exactly():
    # a flat optical minimum where the search's best lands 4e-16 above the
    # s = 1/2 overlap
    scenario = build_scenario(
        "optical",
        energy_matched=False,
        label="t",
        n_s=0.6553847824965731,
        eta=0.00032568221565784346,
        n_b=14.58113862094628,
        copies=6139,
    )
    pair = hypothesis_pair(scenario)
    chernoff = qcb(pair.rho0, pair.rho1, scenario.copies)
    bhattacharyya = qbb(pair.rho0, pair.rho1, scenario.copies)
    assert chernoff.per_mode_overlap <= bhattacharyya.per_mode_overlap
    assert chernoff.value <= bhattacharyya.value


def test_qcb_value_not_above_qbb_value():
    # C ties at s* and s = 1/2 while ln prefactor - mean_exponent, which value
    # is formed from, puts s* a rounding error above s = 1/2 (9e-11 relative
    # at 4.9e7 copies before value was compared too)
    scenario = build_scenario(
        "optical",
        energy_matched=False,
        label="t",
        n_s=0.0013631572955928697,
        eta=0.0008936760258408607,
        n_b=4990.5341955363465,
        copies=49254520,
    )
    pair = hypothesis_pair(scenario)
    minimized = qcb(pair.rho0, pair.rho1, scenario.copies)
    bhattacharyya = qbb(pair.rho0, pair.rho1, scenario.copies)
    assert minimized.per_mode_overlap <= bhattacharyya.per_mode_overlap
    assert minimized.value <= bhattacharyya.value


@pytest.mark.parametrize("bound", [qbb, qcb])
def test_overlap_of_identical_states_capped_at_one(bound):
    # C_s <= 1 for any two states; rounding puts the raw overlap at 1 + 4e-16
    state = make_thermal(1.0)
    result = bound(state, state, 3)
    assert result.per_mode_overlap == 1.0
    assert math.copysign(1.0, result.per_mode_exponent) == 1.0
    assert result.value == 0.5


@pytest.fixture
def decompositions(monkeypatch):
    """List of the covariances the spectrum cache decomposes, one entry per covariance, starting from an empty cache.

    A stacked decomposition adds one entry per matrix of its stack.
    """
    decomposed = []

    def counting(cov):
        cov = np.asarray(cov)
        decomposed.extend(cov.reshape(-1, *cov.shape[-2:]))
        return _symplectic_pairs(cov)

    monkeypatch.setattr(gaussian, "_spectrum_cache", {})
    monkeypatch.setattr(gaussian, "_symplectic_pairs", counting)
    return decomposed


@pytest.mark.parametrize("call", [qcb, qbb, lambda rho0, rho1: s_overlap(rho0, rho1, 0.3)])
def test_each_state_decomposed_once(decompositions, call):
    call(displaced_thermal_state(1.2, 0.0), displaced_thermal_state(2.9, 0.8))
    assert len(decompositions) == 2


def test_bounds_on_one_pair_decompose_each_state_once(decompositions):
    rho0, rho1 = displaced_thermal_state(1.2, 0.0), displaced_thermal_state(2.9, 0.8)
    qbb(rho0, rho1, 3)
    qcb(rho0, rho1, 3)
    s_overlap(rho1, rho0, 0.3)
    relative_entropy(rho0, rho1)
    assert len(decompositions) == 2


def test_spectrum_cache_is_keyed_by_content(rng, random_cov, decompositions):
    cov = random_cov(rng, 2)
    [(nus, ln_top, theta, projectors, _)] = gaussian._spectra(cov)
    assert gaussian._spectra(cov.copy())[0][3] is projectors
    assert len(decompositions) == 1
    for cached in (nus, ln_top, theta, projectors):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
    assert np.array_equal(projectors, projectors.transpose(0, 2, 1))

    changed = cov.copy()
    changed[0, 0] += 1e-9
    assert gaussian._spectra(changed)[0][3] is not projectors
    cov *= 2.0
    gaussian._spectra(cov)
    assert len(decompositions) == 3

    # the unphysical state is decomposed, and rejected, on every call; its
    # physical partner only on the first, where both missed the cache
    unphysical = GaussianState(1, np.zeros(2), 0.4 * np.eye(2))
    partner = make_thermal(1.0)
    for _ in range(2):
        with pytest.raises(ValueError, match="physical"):
            qbb(unphysical, partner)
    assert len(decompositions) == 6
    assert [np.array_equal(m, unphysical.cov) for m in decompositions[3:]] == [True, False, True]
    assert np.array_equal(decompositions[4], partner.cov)


def test_spectrum_cache_keeps_the_last_64(decompositions):
    states = [make_thermal(n) for n in range(66)]
    for state in states:
        gaussian._spectra(state.cov)
    assert len(decompositions) == 66
    # 0 and 1 were dropped; the hit on 2 refreshes it, so adding 0 drops 3
    gaussian._spectra(states[2].cov)
    gaussian._spectra(states[0].cov, states[65].cov)
    assert len(decompositions) == 67
    gaussian._spectra(states[2].cov, states[4].cov)
    assert len(decompositions) == 67
    gaussian._spectra(states[3].cov)
    assert len(decompositions) == 68
    assert len(gaussian._spectrum_cache) == 64
    # a call with more distinct covariances than the cache holds returns them all
    spectra = gaussian._spectra(*(state.cov for state in states))
    assert [nus[0] for nus, *_ in spectra] == pytest.approx([n + 0.5 for n in range(66)], rel=1e-14)
    assert len(gaussian._spectrum_cache) == 64


def _projectors_of(S):
    """P_k = S_k S_k^T per mode, by the elementwise sum of gaussian._spectra."""
    cols = S.swapaxes(-1, -2).reshape(S.shape[-1] // 2, 2, -1)
    return (cols[..., None] * cols[..., None, :]).sum(axis=-3)


def test_cached_projectors_match_williamson_on_the_grid(monkeypatch):
    monkeypatch.setattr(gaussian, "_spectrum_cache", {})
    covs = {}
    for scenario in benchmark_combos():
        pair = hypothesis_pair(scenario)
        for cov in (pair.rho0.cov, pair.rho1.cov):
            covs[cov.tobytes()] = cov
    for cov in covs.values():
        assert np.array_equal(gaussian._spectra(cov)[0][3], _projectors_of(williamson(cov).S))


def test_cached_projectors_match_williamson_on_random_covariances(monkeypatch):
    monkeypatch.setattr(gaussian, "_spectrum_cache", {})
    rng = np.random.default_rng(20261019)
    for k in range(300):
        cov = random_physical_cov(rng, 1 + k % 3)
        reference = _projectors_of(williamson(cov).S)
        projectors = gaussian._spectra(cov)[0][3]
        assert np.abs(projectors - reference).max() <= 1e-14 * np.abs(reference).max()


def test_factorization_failure_is_a_numeric_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    with pytest.raises(NumericError, match="Sigma_s is not positive definite"):
        s_overlap(make_thermal(1.0), make_thermal(2.0), 0.3)


def test_bounds_use_the_single_evaluator():
    rho0 = displaced_thermal_state(1.2, 0.0)
    rho1 = displaced_thermal_state(2.9, 0.8)
    minimized = qcb(rho0, rho1, 4)
    assert minimized.s_star != 0.5
    assert minimized.per_mode_overlap == s_overlap(rho0, rho1, minimized.s_star).c_s
    assert qbb(rho0, rho1, 4).per_mode_overlap == s_overlap(rho0, rho1, 0.5).c_s
