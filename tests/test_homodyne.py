import math

import numpy as np
import pytest
import scipy.special as sp

from qibench.homodyne import (
    DEFAULT_PFA_GRID,
    HomodyneChannel,
    channel_from_scenario,
    monte_carlo_roc,
    pfa_hom,
    pmd_hom,
    roc_homodyne,
    threshold_for_pfa,
)
from qibench.protocols import figure_grid
from qibench.special import erfc
from test_special import erfc_inv_reference


def make_channel(mu=1e-10, lambda0=6250.5, lambda1=6313.0, copies=1000):
    return HomodyneChannel(mu=mu, lambda0=lambda0, lambda1=lambda1, copies=copies)


def test_channel_validation():
    with pytest.raises(ValueError):
        HomodyneChannel(mu=-1.0, lambda0=1.0, lambda1=1.0, copies=1)
    with pytest.raises(ValueError):
        HomodyneChannel(mu=0.0, lambda0=2.0, lambda1=1.0, copies=1)
    with pytest.raises(ValueError):
        HomodyneChannel(mu=0.0, lambda0=1.0, lambda1=1.0, copies=0)
    # non-finite and fractional inputs; the non-finite ones gave an all-NaN or flat ROC
    for fields in (
        dict(mu=math.nan),
        dict(mu=math.inf),
        dict(mu=math.inf, lambda1=math.inf),
        dict(lambda1=math.inf),
        dict(lambda0=math.inf, lambda1=math.inf),
        dict(copies=2.5),
        dict(copies=math.inf),
        dict(copies=math.nan),
    ):
        with pytest.raises(ValueError):
            make_channel(**fields)


def test_pfa_reference_points():
    ch = make_channel()
    assert pfa_hom(0.0, ch) == 0.5
    assert pfa_hom(1e9, ch) == 0.0
    x = math.sqrt(2.0 * ch.copies * ch.lambda0)
    assert pfa_hom(x, ch) == pytest.approx(0.5 * erfc(1.0), rel=1e-14)
    assert pfa_hom(x, ch) == pytest.approx(0.07864960352514258, rel=1e-12)


def test_pmd_at_signal_mean_is_half():
    ch = make_channel(mu=2.5e-3)
    assert pmd_hom(ch.signal_sum, ch) == 0.5


def test_no_signal_same_noise_gives_complement():
    ch = make_channel(mu=0.0, lambda1=6250.5)
    for x in (-2000.0, 0.0, 1500.0):
        assert pmd_hom(x, ch) == pytest.approx(1.0 - pfa_hom(x, ch), rel=1e-12)


def test_roc_zero_threshold_point():
    ch = make_channel(mu=4e-4, copies=100)
    x = threshold_for_pfa(0.5, ch)
    assert x == pytest.approx(0.0, abs=1e-12)
    expected = 0.5 * erfc(ch.signal_sum / math.sqrt(2.0 * ch.copies * ch.lambda1))
    assert pmd_hom(x, ch) == pytest.approx(expected, rel=1e-12)


def test_roc_chance_line():
    ch = make_channel(mu=0.0, lambda1=6250.5)
    curve = roc_homodyne(ch, grid=np.linspace(1e-6, 1 - 1e-6, 41))
    assert np.abs(curve.p_md - (1.0 - curve.p_fa)).max() < 1e-10


def test_roc_round_trip():
    ch = make_channel(mu=1e-6)
    for p in np.geomspace(1e-9, 1 - 1e-9, 50):
        x = threshold_for_pfa(float(p), ch)
        assert pfa_hom(x, ch) == pytest.approx(float(p), rel=1e-10)


def test_roc_noise_dominance_below_chance_level():
    # spreading H1 hurts detection wherever P_md < 1/2 (thresholds below the
    # signal mean); above the signal mean the ordering genuinely reverses,
    # because a wider H1 pushes more mass over a high threshold
    grid = np.geomspace(1e-5, 0.99, 60)
    quiet = roc_homodyne(make_channel(mu=1e-2, lambda1=6250.5, copies=100_000), grid)
    noisy = roc_homodyne(make_channel(mu=1e-2, lambda1=6313.0, copies=100_000), grid)
    mask = quiet.p_md < 0.5
    assert mask.any() and not mask.all()
    assert np.all(noisy.p_md[mask] >= quiet.p_md[mask] - 1e-15)


def test_roc_improves_with_copies():
    grid = np.geomspace(1e-4, 0.9, 30)
    few = roc_homodyne(make_channel(mu=1e-4, copies=1000), grid)
    many = roc_homodyne(make_channel(mu=1e-4, copies=100000), grid)
    assert np.all(many.p_md < few.p_md)


def test_fig4_upper_optical_beats_amp():
    scenarios = {s.label: s for s in figure_grid("fig4_upper")}
    grid = np.geomspace(1e-6, 1 - 1e-3, 100)
    amp = roc_homodyne(channel_from_scenario(scenarios["amp"]), grid)
    optical = roc_homodyne(channel_from_scenario(scenarios["optical"]), grid)
    assert np.all(optical.p_md <= amp.p_md + 1e-15)


def test_monte_carlo_matches_closed_form():
    scenario = next(s for s in figure_grid("fig4_mid") if s.label == "amp")
    ch = channel_from_scenario(scenario)
    thresholds = [threshold_for_pfa(p, ch) for p in np.geomspace(0.05, 0.8, 8)]
    trials = 200_000
    curve = monte_carlo_roc(ch, thresholds, trials=trials, seed=7)
    for x, p_fa_hat, p_md_hat in zip(sorted(thresholds, reverse=True), curve.p_fa, curve.p_md):
        for p_hat, p in ((p_fa_hat, pfa_hom(x, ch)), (p_md_hat, pmd_hom(x, ch))):
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(p_hat - p) <= 4.0 * sigma


def test_monte_carlo_deterministic():
    ch = make_channel(mu=1e-4)
    thresholds = [0.0, 100.0, 500.0]
    a = monte_carlo_roc(ch, thresholds, trials=10_000, seed=42)
    b = monte_carlo_roc(ch, thresholds, trials=10_000, seed=42)
    assert np.array_equal(a.p_fa, b.p_fa)
    assert np.array_equal(a.p_md, b.p_md)
    c = monte_carlo_roc(ch, thresholds, trials=10_000, seed=43)
    assert not np.array_equal(a.p_fa, c.p_fa)


def test_monte_carlo_strong_signal_detected():
    ch = make_channel(mu=10.0, lambda0=1.0, lambda1=1.5, copies=1000)
    curve = monte_carlo_roc(ch, [threshold_for_pfa(0.01, ch)], trials=10_000, seed=3)
    assert curve.p_md[0] == 0.0


def test_grid_validation():
    ch = make_channel()
    with pytest.raises(ValueError, match=r"^false-alarm grid values must lie in \(0, 1\)$"):
        roc_homodyne(ch, grid=[0.1, 1.0])
    with pytest.raises(ValueError, match="^false-alarm grid is empty$"):
        roc_homodyne(ch, grid=[])
    with pytest.raises(ValueError):
        threshold_for_pfa(0.0, ch)
    with pytest.raises(ValueError):
        monte_carlo_roc(ch, [0.0], trials=0, seed=1)


def pmd_reference(p_fa, ch):
    """P_md at one false-alarm point as a per-point loop with scalar scipy calls."""
    x = math.sqrt(2.0 * ch.copies * ch.lambda0) * erfc_inv_reference(2.0 * p_fa)
    return 0.5 * float(sp.erfc((ch.signal_sum - x) / math.sqrt(2.0 * ch.copies * ch.lambda1)))


@pytest.mark.parametrize("figure", ["fig3_upper", "fig3_lower", "fig4_upper", "fig4_mid", "fig4_lower"])
def test_roc_bit_identical_to_per_point_loop(figure):
    # the second grid is that of `qibench figure ... --grid-min 1e-320`
    subnormal = np.geomspace(1e-320, float(DEFAULT_PFA_GRID[-1]), DEFAULT_PFA_GRID.size)
    for scenario in figure_grid(figure):
        ch = channel_from_scenario(scenario)
        for grid in (DEFAULT_PFA_GRID, subnormal):
            curve = roc_homodyne(ch, grid)
            expected = np.array([pmd_reference(float(p), ch) for p in curve.p_fa])
            assert curve.p_md.tobytes() == expected.tobytes()


def test_formulas_are_elementwise():
    ch = make_channel(mu=1e-6)
    p = np.geomspace(1e-9, 0.5, 12).reshape(3, 4)
    x = threshold_for_pfa(p, ch)
    assert x.shape == (3, 4) and type(threshold_for_pfa(0.25, ch)) is float
    assert x.ravel().tolist() == [threshold_for_pfa(float(q), ch) for q in p.ravel()]
    for f in (pfa_hom, pmd_hom):
        assert f(x, ch).ravel().tolist() == [f(float(t), ch) for t in x.ravel()]
    with pytest.raises(ValueError):
        threshold_for_pfa(np.array([0.5, 1.0]), ch)


def test_roc_inverts_its_grid_in_one_call(erfc_inv_calls):
    roc_homodyne(make_channel())
    assert len(erfc_inv_calls) == 1
