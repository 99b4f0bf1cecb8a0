import math

import pytest

from qibench.closed_forms import (
    closed_bound,
    closed_qre,
    qcb_coherent,
    qcb_high_background,
    qre_coherent,
    tmsv_asymptote,
)
from qibench.protocols import AMPLIFIED, MASER, OPTICAL, build_scenario


def amp(n_s, n_a, n_b, eta, copies=1):
    return build_scenario(AMPLIFIED, label="amp", n_s=n_s, n_a=n_a, n_b=n_b, eta=eta, copies=copies)


def maser(n_s, phi, n_t, n_b, eta, copies=1):
    """Unmatched maser: transmits phi * n_s through a stage at occupation n_t."""
    return build_scenario(
        MASER, energy_matched=False, label="mas", n_s=n_s, phi=phi, n_t=n_t, n_b=n_b, eta=eta, copies=copies
    )


def optical(n_s, n_b, eta, copies=1):
    return build_scenario(OPTICAL, energy_matched=False, label="opt", n_s=n_s, n_b=n_b, eta=eta, copies=copies)


def xi1_printed(n_a, n_b, eta):
    """Literal transcription of the printed prefactor radical."""
    return math.sqrt(
        1.0
        + 2.0 * n_b * (1.0 + n_b)
        + eta * (n_a + 2.0 * n_a * n_b)
        - 2.0 * math.sqrt(n_b * (1.0 + n_b) * (eta * n_a + n_b) * (1.0 + eta * n_a + n_b))
    )


def xi2_printed(n_a, n_b, eta):
    """Literal transcription of the printed exponent coefficient."""
    n1 = eta * n_a + n_b
    num = (math.sqrt(n_b) - math.sqrt(1.0 + n_b)) * (math.sqrt(n1) - math.sqrt(1.0 + n1))
    den = math.sqrt((1.0 + n_b) * (1.0 + n1)) - math.sqrt(n_b * n1)
    return num / den


def d_amp_printed(n_s, n_a, n_b, eta):
    g1 = math.log(1.0 + 1.0 / (eta * n_a + n_b))
    g0 = math.log(1.0 + 1.0 / n_b)
    ratio = (eta * n_a + n_b) * (1.0 + eta * n_a + n_b) / (n_b * (1.0 + n_b))
    return 0.5 * ((1.0 + 2.0 * n_b + 2.0 * eta * n_s) * g1 - (1.0 + 2.0 * n_b) * g0 + math.log(ratio))


def v_amp_printed(n_s, n_a, n_b, eta):
    g1 = math.log(1.0 + 1.0 / (eta * n_a + n_b))
    g0 = math.log(1.0 + 1.0 / n_b)
    return (
        n_b * (1.0 + n_b) * g0 * g0
        - 2.0 * n_b * (1.0 + n_b) * g0 * g1
        + (n_b * (1.0 + n_b) + eta * n_s + 2.0 * eta * n_s * n_b) * g1 * g1
    )


@pytest.mark.parametrize(
    "n_a, n_b, eta",
    [(2.0, 1.0, 0.3), (0.5, 3.0, 0.9), (10.0, 0.1, 0.05), (6.0, 25.0, 0.4)],
)
def test_stable_forms_match_printed_expressions(n_a, n_b, eta):
    # in cancellation-free ranges the stable rewrites must agree with the
    # literal transcriptions to machine precision
    bound = qcb_coherent(eta * 0.7, eta * n_a, n_b)
    assert bound.prefactor == pytest.approx(1.0 / xi1_printed(n_a, n_b, eta), rel=1e-12)
    assert bound.mean_exponent == pytest.approx(eta * 0.7 * xi2_printed(n_a, n_b, eta), rel=1e-12)
    d, v = qre_coherent(eta * 0.7, eta * n_a, n_b)
    assert d == pytest.approx(d_amp_printed(0.7, n_a, n_b, eta), rel=1e-11)
    assert v == pytest.approx(v_amp_printed(0.7, n_a, n_b, eta), rel=1e-11)


def test_qcb_amp_without_amplifier_noise_is_optical():
    for n_b in (1.0, 100.0, 6250.0):
        bound = closed_bound(amp(0.5, 0.0, n_b, 1e-2, copies=10))
        exponent = 1e-2 * 0.5 / (math.sqrt(n_b + 1.0) + math.sqrt(n_b)) ** 2
        assert bound.mean_exponent == pytest.approx(exponent, rel=1e-14)
        assert bound.prefactor == pytest.approx(1.0, abs=1e-14)
        assert bound.value == pytest.approx(0.5 * math.exp(-10 * exponent), rel=1e-14)


def test_qcb_amp_zero_reflectivity():
    bound = closed_bound(amp(0.5, 6250.0, 6250.0, 0.0))
    assert bound.value == pytest.approx(0.5, abs=1e-15)
    assert bound.prefactor == pytest.approx(1.0, abs=1e-15)


def test_qcb_amp_fig2_upper_point():
    bound = closed_bound(amp(1e-2, 6250.0, 6250.0, 1e-2))
    # frozen from a 50-digit evaluation of the printed expressions
    assert bound.mean_exponent == pytest.approx(3.979782710167972e-09, rel=1e-12)
    assert bound.prefactor == pytest.approx(0.99998762596213689, rel=1e-12)


def test_qcb_maser_substitution_duality():
    for x, n_b, eta in [(6250.0, 6250.0, 1e-2), (207.9, 100.0, 1e-4), (0.3, 1.0, 0.5)]:
        a = closed_bound(amp(0.8, x, n_b, eta, copies=3))
        m = closed_bound(maser(0.8, 1.0, x, n_b, eta, copies=3))
        assert m.value == pytest.approx(a.value, rel=1e-14)
        assert m.mean_exponent == pytest.approx(a.mean_exponent, rel=1e-14)
    d_amp, v_amp = closed_qre(amp(0.8, 207.9, 100.0, 1e-3))
    d_mas, v_mas = closed_qre(maser(0.8, 1.0, 207.9, 100.0, 1e-3))
    assert d_mas == pytest.approx(d_amp, rel=1e-14)
    assert v_mas == pytest.approx(v_amp, rel=1e-14)


def test_qcb_maser_phi_scales_exponent():
    full = closed_bound(maser(1.0, 1.0, 207.9, 6250.0, 1e-2))
    half = closed_bound(maser(1.0, 0.5, 207.9, 6250.0, 1e-2))
    assert half.mean_exponent == pytest.approx(0.5 * full.mean_exponent, rel=1e-14)


def test_qcb_maser_cold_limit_reaches_high_background():
    # n_t -> 0 and N_B >> 1: exponent approaches eta phi N_S / (4 N_B)
    mas = closed_bound(maser(1.0, 0.7, 0.0, 6250.0, 1e-2))
    hb = qcb_high_background(1e-2 * 0.7, 6250.0)
    assert mas.mean_exponent == pytest.approx(hb.mean_exponent, rel=1e-3)


def test_qcb_maser_10k_energy_matched_point():
    # fig2-upper energy matching: the 10 K maser sits 3.34% below the matched
    # optical exponent (the transmitted energy loses n_T / (N_S + N_A))
    common = dict(n_s=1e-2, n_a=6250.0, n_b=6250.0, eta=1e-2, copies=1)
    mas = closed_bound(build_scenario(MASER, label="mas", n_t=207.866591170045, **common))
    opt = closed_bound(build_scenario(OPTICAL, label="opt", **common))
    ratio = mas.mean_exponent / opt.mean_exponent
    assert ratio == pytest.approx(0.9665806756172036, rel=1e-9)
    a = closed_bound(build_scenario(AMPLIFIED, label="amp", **common))
    assert a.mean_exponent < mas.mean_exponent < opt.mean_exponent


def test_qcb_optical_values():
    assert closed_bound(optical(0.5, 0.0, 0.3)).mean_exponent == pytest.approx(0.15, rel=1e-14)
    coefficient = closed_bound(optical(1.0, 6250.0, 1.0)).mean_exponent
    assert coefficient == pytest.approx(1.0 / (math.sqrt(6251.0) + math.sqrt(6250.0)) ** 2, rel=1e-14)
    assert coefficient == pytest.approx(1.0 / (4.0 * 6250.0), rel=1e-4)


def test_qcb_high_background_ratios():
    opt = closed_bound(optical(1.0, 6250.0, 1.0)).mean_exponent
    hb = qcb_high_background(1.0, 6250.0).mean_exponent
    assert opt / hb == pytest.approx(1.0, abs=1e-4)
    assert qcb_high_background(0.0, 6250.0).value == 0.5
    # at N_B = 1 the two visibly differ: ratio = 4 (sqrt(2) - 1)^2
    ratio = closed_bound(optical(1.0, 1.0, 1.0)).mean_exponent / qcb_high_background(1.0, 1.0).mean_exponent
    assert ratio == pytest.approx(4.0 * (math.sqrt(2.0) - 1.0) ** 2, rel=1e-12)


def test_tmsv_asymptote():
    tmsv = tmsv_asymptote(1e-2 * 0.3, 6250.0, copies=7)
    hb = qcb_high_background(1e-2 * 0.3, 6250.0, copies=7)
    assert tmsv.mean_exponent / hb.mean_exponent == 4.0
    assert tmsv_asymptote(0.0, 6250.0).value == 0.5
    point = tmsv_asymptote(0.01 * 0.01, 6250.0, copies=10_000_000)
    assert point.value == pytest.approx(0.5 * math.exp(-0.16), rel=1e-12)


@pytest.mark.parametrize("limit", [qcb_high_background, tmsv_asymptote])
@pytest.mark.parametrize(
    "args",
    [
        (math.nan, 6250.0, 1),
        (math.inf, 6250.0, 1),
        (1.0, math.nan, 1),
        (1.0, math.inf, 1),
        (1.0, -1.0, 1),
        (1.0, 6250.0, math.nan),
        (1.0, 6250.0, math.inf),
        (-1.0, 6250.0, 1),
        (1.0, 0.0, 1),
        (1.0, 6250.0, -3),
        (1.0, 6250.0, 0),
        (1.0, 6250.0, 2.5),
    ],
)
def test_limit_forms_reject_inputs_outside_their_domain(limit, args):
    # a NaN or infinite input used to come back as a silent value (0.0 or
    # 0.5), and 2.5 copies as a bound for a fractional copy count
    with pytest.raises(ValueError, match=None if args[2] == 1 else "whole number"):
        limit(*args)


@pytest.mark.parametrize("copies", [math.nan, math.inf, 2.5, 0])
def test_qcb_coherent_rejects_copies_that_are_not_whole(copies):
    # NaN and inf used to give value 0.0, and 2.5 a bound for a fractional copy count
    with pytest.raises(ValueError, match="whole number"):
        qcb_coherent(1e-3, 625.0, 6250.0, copies)


@pytest.mark.parametrize("form", [qcb_coherent, qre_coherent])
@pytest.mark.parametrize(
    "args, match",
    [
        # a negative signal used to give value 0.545 > 1/2 and D = -0.347
        ((-1.0, 0.0, 1.0), "n_s >= 0"),
        ((math.nan, 0.0, 1.0), "n_s >= 0"),
        ((math.inf, 0.0, 1.0), "n_s >= 0"),
        ((1.0, -0.5, 1.0), "excess >= 0"),
        ((1.0, math.nan, 1.0), "excess >= 0"),
        ((1.0, math.inf, 1.0), "excess >= 0"),
        ((1.0, 0.0, -1.0), "n_b"),
        ((1.0, 0.0, math.nan), "n_b"),
        ((1.0, 0.0, math.inf), "n_b"),
    ],
)
def test_coherent_forms_reject_inputs_outside_their_domain(form, args, match):
    with pytest.raises(ValueError, match=match):
        form(*args)


def test_coherent_forms_keep_their_background_domain():
    # Scenario allows N_B = 0, where the bound is finite and the relative entropy is not
    assert 0.0 < qcb_coherent(0.5, 0.0, 0.0).value < 0.5
    with pytest.raises(ValueError, match="n_b > 0"):
        qre_coherent(0.5, 0.0, 0.0)


def test_qre_amp_limits():
    d, v = closed_qre(amp(0.5, 0.0, 6250.0, 1e-2))
    g = math.log1p(1.0 / 6250.0)
    assert d == pytest.approx(1e-2 * 0.5 * g, rel=1e-13)
    assert v == pytest.approx(1e-2 * 0.5 * 12501.0 * g * g, rel=1e-13)
    assert closed_qre(amp(0.5, 6250.0, 6250.0, 0.0)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        closed_qre(amp(0.5, 10.0, 0.0, 1e-2))


def test_qre_amp_high_noise_point_matches_oracle():
    # fig3-lower parameters: N_A = 5e8 with eta = 1e-7
    from qibench.gaussian import make_thermal
    from qibench.relent import relative_entropy
    from test_chernoff import displaced_thermal_state

    n_s, n_a, n_b, eta = 1e-2, 5e8, 6250.0, 1e-7
    rho0 = make_thermal(n_b)
    rho1 = displaced_thermal_state(eta * n_a + n_b, math.sqrt(eta * n_s))
    oracle = relative_entropy(rho0, rho1, dps=50)
    d, v = closed_qre(amp(n_s, n_a, n_b, eta))
    assert d == pytest.approx(oracle.d, rel=1e-8)
    assert v == pytest.approx(oracle.v, rel=1e-8)


def test_qre_maser_cold_limit_is_optical():
    d_mas, v_mas = closed_qre(maser(1.0, 0.7, 0.0, 6250.0, 1e-2))
    d_opt, v_opt = closed_qre(optical(0.7, 6250.0, 1e-2))
    assert d_mas == pytest.approx(d_opt, rel=1e-14)
    assert v_mas == pytest.approx(v_opt, rel=1e-14)


def test_qre_optical_properties():
    d, v = closed_qre(optical(6250.01, 6250.0, 1e-2))
    g = math.log1p(1.0 / 6250.0)
    assert d == pytest.approx(62.5001 * g, rel=1e-13)
    assert closed_qre(optical(0.5, 6250.0, 0.0)) == (0.0, 0.0)
    # v/d is independent of the received energy
    d2, v2 = closed_qre(optical(1.0, 6250.0, 1e-4))
    assert v / d == pytest.approx(v2 / d2, rel=1e-12)
    assert v / d == pytest.approx(12501.0 * g, rel=1e-12)


def test_qcb_amp_exponent_monotone_in_noise():
    exponents = [
        closed_bound(amp(0.5, n_a, 6250.0, 1e-2)).mean_exponent
        for n_a in (0.0, 1.0, 100.0, 6250.0, 1e6, 5e8)
    ]
    assert all(a >= b for a, b in zip(exponents, exponents[1:]))


def test_params_validation():
    # Scenario is where closed-form inputs enter; it rejects what the
    # per-source parameter classes used to
    with pytest.raises(ValueError):
        amp(-0.1, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        amp(0.1, 1.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        maser(0.1, 0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        maser(0.1, 1.2, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        amp(0.1, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        maser(0.1, 0.5, -50.0, 1.0, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            amp(bad, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            amp(0.1, bad, 1.0, 0.5)
        with pytest.raises(ValueError):
            amp(0.1, 1.0, bad, 0.5)
        with pytest.raises(ValueError):
            maser(0.1, 0.5, bad, 1.0, 0.5)
    with pytest.raises(ValueError):
        amp(0.1, 1.0, 1.0, 0.5, copies=2.5)
    assert amp(0.1, 1.0, 1.0, 0.5, copies=3).copies == 3
    whole = amp(0.1, 1.0, 1.0, 0.5, copies=3.0)
    assert whole.copies == 3 and isinstance(whole.copies, int)
