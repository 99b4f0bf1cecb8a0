import math

import numpy as np
import pytest

from qibench.protocols import (
    AMPLIFIED,
    FIGURE_IDS,
    MASER,
    OPTICAL,
    Scenario,
    build_scenario,
    figure_grid,
    hypothesis_pair,
    hypothesis_pair_via_channels,
    planck_occupation,
)

# frozen from direct evaluation of 1/(expm1(h f / k T)) with CODATA constants
PLANCK_1GHZ_300K = 6250.485750329502
PLANCK_1GHZ_10K = 207.866591170045


def test_planck_occupation_reference_values():
    assert planck_occupation(1e9, 300.0) == pytest.approx(PLANCK_1GHZ_300K, rel=1e-12)
    assert planck_occupation(1e9, 10.0) == pytest.approx(PLANCK_1GHZ_10K, rel=1e-12)
    # consistent with the N_B = 6250 benchmark value at the default frequency
    assert planck_occupation(1e9, 300.0) == pytest.approx(6250.0, rel=1e-4)


def test_planck_occupation_limits_and_monotonicity():
    with pytest.warns(RuntimeWarning):
        assert planck_occupation(1e9, 1e-6) == 0.0
    temps = [1.0, 10.0, 100.0, 300.0]
    values = [planck_occupation(1e9, t) for t in temps]
    assert all(a < b for a, b in zip(values, values[1:]))
    freqs = [1e8, 1e9, 1e10]
    values = [planck_occupation(f, 300.0) for f in freqs]
    assert all(a > b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        planck_occupation(0.0, 300.0)
    with pytest.raises(ValueError):
        planck_occupation(1e9, -1.0)


def test_planck_underflow_warns():
    with pytest.warns(RuntimeWarning):
        assert planck_occupation(1e15, 1e-3) == 0.0


def test_build_scenario_maser_energy_matching():
    scenario = build_scenario(
        MASER, label="m", n_s=1e-2, n_a=6250.0, t_fridge=10.0, eta=1e-2, copies=1, n_b=6250.0
    )
    expected = 1e-2 + 6250.0 - PLANCK_1GHZ_10K
    assert scenario.transmitted_signal == pytest.approx(expected, rel=1e-12)
    assert scenario.transmitted_signal == pytest.approx(6042.143408829956, rel=1e-12)


def test_build_scenario_optical_energy_matching():
    scenario = build_scenario(
        OPTICAL, label="o", n_s=1e-2, n_a=6250.0, eta=1e-2, copies=1, n_b=6250.0
    )
    assert scenario.transmitted_signal == pytest.approx(6250.01, rel=1e-14)


def test_build_scenario_amp_passthrough():
    scenario = build_scenario(
        AMPLIFIED, label="a", n_s=1e-2, n_a=6250.0, eta=1e-2, copies=1, n_b=6250.0
    )
    assert scenario.transmitted_signal == 1e-2
    assert scenario.n_added == 6250.0


def test_energy_matching_infeasible_raises():
    # 300 K attenuation with Planck occupation exceeds N_S + N_A = 6250.01
    with pytest.raises(ValueError):
        build_scenario(
            MASER, label="m", n_s=1e-2, n_a=6250.0, t_fridge=300.0, eta=1e-2, copies=1, n_b=6250.0
        )


def test_scenario_validation():
    with pytest.raises(ValueError):
        build_scenario("laser", label="x", n_s=0.1, eta=0.1, copies=1)
    with pytest.raises(ValueError):
        build_scenario(AMPLIFIED, label="x", n_s=0.1, eta=1.5, copies=1)
    with pytest.raises(ValueError):
        build_scenario(MASER, label="x", n_s=0.1, eta=0.1, copies=1)  # no fridge info
    with pytest.raises(ValueError):
        # an infinite temperature would reach Planck's law as 1 / expm1(0)
        build_scenario(AMPLIFIED, label="x", n_s=0.1, eta=0.1, copies=1, t_target=math.inf)


@pytest.mark.parametrize("copies", [0, -3, 2.5, math.nan, math.inf, "3"])
def test_scenario_rejects_copy_counts_as_the_bounds_do(copies):
    # the rule of gaussian._check_copies, which qbb, qcb and the closed forms apply
    with pytest.raises(ValueError, match=r"^copies must be a whole number >= 1, got "):
        build_scenario(AMPLIFIED, label="x", n_s=0.1, eta=0.1, copies=copies, n_b=1.0)


def test_hypothesis_pair_zero_reflectivity_collapses():
    scenario = build_scenario(
        OPTICAL, label="o", n_s=1e-2, n_a=6250.0, eta=0.0, copies=1, n_b=6250.0
    )
    pair = hypothesis_pair(scenario)
    assert np.array_equal(pair.rho0.cov, pair.rho1.cov)
    assert np.array_equal(pair.rho1.mean, np.zeros(2))


def test_hypothesis_pair_amp_fig2_upper():
    scenario = build_scenario(
        AMPLIFIED, label="a", n_s=1e-2, n_a=6250.0, eta=1e-2, copies=1, n_b=6250.0
    )
    pair = hypothesis_pair(scenario)
    assert pair.rho1.cov[0, 0] == pytest.approx(6313.0, rel=1e-14)
    assert pair.rho1.mean[0] == pytest.approx(math.sqrt(2e-4), rel=1e-14)
    assert np.allclose(pair.rho0.cov, 6250.5 * np.eye(2))
    assert pair.mu == pytest.approx(1e-4)
    assert pair.n_added == pytest.approx(62.5)


def test_hypothesis_pair_covariance_ordering():
    for fig in ("fig2_upper", "fig2_lower"):
        for scenario in figure_grid(fig):
            pair = hypothesis_pair(scenario)
            difference = pair.rho1.cov - pair.rho0.cov
            assert np.linalg.eigvalsh(difference).min() >= -1e-12


@pytest.mark.parametrize("fig", ["fig2_upper", "fig2_lower"])
def test_hypothesis_pair_path_independence(fig):
    for scenario in figure_grid(fig):
        direct = hypothesis_pair(scenario)
        composed = hypothesis_pair_via_channels(scenario)
        assert np.abs(direct.rho1.mean - composed.rho1.mean).max() < 1e-12
        scale = np.abs(direct.rho1.cov).max()
        assert np.abs(direct.rho1.cov - composed.rho1.cov).max() / scale < 1e-12


def test_path_independence_unmatched_maser():
    scenario = build_scenario(
        MASER,
        energy_matched=False,
        label="m",
        n_s=100.0,
        phi=0.05,
        n_t=207.9,
        eta=1e-3,
        copies=1,
        n_b=6250.0,
    )
    direct = hypothesis_pair(scenario)
    composed = hypothesis_pair_via_channels(scenario)
    assert np.abs(direct.rho1.mean - composed.rho1.mean).max() < 1e-12
    scale = np.abs(direct.rho1.cov).max()
    assert np.abs(direct.rho1.cov - composed.rho1.cov).max() / scale < 1e-12


def test_energy_matching_conservation_across_kinds():
    # photons irradiating the target: transmitted signal + source excess noise
    scenarios = {s.label: s for s in figure_grid("fig2_upper")}
    budget = {
        label: s.transmitted_signal + s.n_added for label, s in scenarios.items()
    }
    reference = budget["amp"]
    for label, total in budget.items():
        assert total == pytest.approx(reference, rel=1e-12), label


def test_figure_grid_contents():
    scenarios = figure_grid("fig2_upper")
    labels = [s.label for s in scenarios]
    assert labels == ["amp", "mas_300K", "mas_77K", "mas_10K", "mas_4K", "optical"]
    assert all(s.n_b == 6250.0 for s in scenarios)
    assert figure_grid("fig4_mid")[0].copies == 1000
    assert figure_grid("fig4_mid")[0].eta == 1e-8
    assert figure_grid("fig3_lower")[0].copies == 100_000
    with pytest.raises(ValueError):
        figure_grid("fig9_upper")
    assert set(FIGURE_IDS) == {
        "fig2_upper",
        "fig2_lower",
        "fig3_upper",
        "fig3_lower",
        "fig4_upper",
        "fig4_mid",
        "fig4_lower",
    }


def test_figure_grid_300k_maser_coincides_with_amp():
    scenarios = {s.label: s for s in figure_grid("fig2_upper")}
    mas = scenarios["mas_300K"]
    amp = scenarios["amp"]
    assert mas.fridge_occupation == amp.n_a
    assert mas.transmitted_signal == pytest.approx(amp.n_s, rel=1e-10)


def test_scenario_json_round_trip():
    scenario = figure_grid("fig3_upper")[2]
    text = scenario.to_json()
    loaded = Scenario.from_json(text)
    assert loaded == scenario
    doc = scenario.to_dict()
    assert doc["schema"] == 1
    doc["schema"] = 2
    with pytest.raises(ValueError):
        Scenario.from_dict(doc)
