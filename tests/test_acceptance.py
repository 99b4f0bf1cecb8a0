"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
``qibench validate`` prints the same metrics). Two sub-criteria are stated
with tolerances that are mathematically unattainable for any implementation;
they are implemented exactly as stated and marked strict-xfail with the
measured gap printed, see the analysis notes referenced in the README.
"""

import math
import time

import numpy as np
import pytest

from qibench.chernoff import qbb
from qibench.cli import main
from qibench.closed_forms import closed_bound, closed_qre, qcb_coherent, qcb_high_background, tmsv_asymptote
from qibench.gaussian import symplectic_form, williamson
from qibench.homodyne import channel_from_scenario, monte_carlo_roc, pfa_hom, pmd_hom, roc_homodyne, threshold_for_pfa
from qibench.protocols import AMPLIFIED, build_scenario, figure_grid, hypothesis_pair, hypothesis_pair_via_channels
from qibench.relent import relative_entropy, roc_asymmetric
from qibench.special import erfc, erfc_inv, normal_quantile
from qibench.validation import (
    QRE_ORACLE_DPS,
    benchmark_combos,
    check_structural,
    figure_claim_metrics,
    random_physical_cov,
)

SEED = 20250808


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    combos = benchmark_combos()
    assert len(combos) >= 200

    worst_exp = 0.0
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        oracle = qbb(pair.rho0, pair.rho1, scenario.copies)
        closed = closed_bound(scenario)
        worst_exp = max(worst_exp, rel_dev(closed.mean_exponent, oracle.mean_exponent))

    worst_qre = 0.0
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        oracle = relative_entropy(pair.rho0, pair.rho1, dps=QRE_ORACLE_DPS)
        d_closed, v_closed = closed_qre(scenario)
        worst_qre = max(worst_qre, rel_dev(d_closed, oracle.d), rel_dev(v_closed, oracle.v))

    elapsed = time.perf_counter() - start
    passed = worst_exp <= 1e-6 and worst_qre <= 1e-8 and elapsed <= 60.0
    report(
        "1 (oracle equivalence)",
        passed,
        f"{len(combos)} combos: qcb exponent dev {worst_exp:.3e} (<=1e-6), "
        f"qre dev {worst_qre:.3e} (<=1e-8), runtime {elapsed:.1f}s (<=60s)",
    )
    assert worst_exp <= 1e-6
    assert worst_qre <= 1e-8
    assert elapsed <= 60.0


def test_criterion_2a_amplifier_free_limit():
    worst = 0.0
    for eta in np.geomspace(1e-8, 1e-1, 10):
        for n_b in (1.0, 100.0, 6250.0, 5e8):
            scenario = build_scenario(AMPLIFIED, label="amp", n_s=0.5, n_a=0.0, eta=float(eta), copies=1, n_b=n_b)
            noise_free = closed_bound(scenario)
            optical = float(eta) * 0.5 / (math.sqrt(n_b + 1.0) + math.sqrt(n_b)) ** 2
            worst = max(worst, rel_dev(noise_free.mean_exponent, optical))
    passed = worst <= 1e-12
    report("2a (N_A -> 0 recovers optical)", passed, f"max exponent dev {worst:.3e} (<=1e-12)")
    assert worst <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="stated 2e-5 tolerance is below the mathematical gap: the exact "
    "optical exponent differs from eta N_S / (4 N_B) by 1/(2 N_B + 1) = 8.0e-5 "
    "at N_B = 6250 (criterion 3 allows 1e-4 for the same comparison)",
)
def test_criterion_2b_high_background_limit():
    opt = qcb_coherent(1.0, 0.0, 6250.0, 1.0).mean_exponent
    hb = qcb_high_background(1.0, 6250.0, 1.0).mean_exponent
    dev = rel_dev(opt, hb)
    report("2b (high-background 2e-5)", dev <= 2e-5, f"measured gap {dev:.6e} (stated <=2e-5)")
    assert dev <= 2e-5


def test_criterion_3_factor_four_advantage():
    tmsv = tmsv_asymptote(0.01, 6250.0, 0.01).mean_exponent
    hb = qcb_high_background(0.01, 6250.0, 0.01).mean_exponent
    opt = qcb_coherent(0.01, 0.0, 6250.0, 0.01).mean_exponent
    exact = tmsv / hb
    dev_opt = abs(tmsv / opt / 4.0 - 1.0)
    passed = exact == 4.0 and dev_opt <= 1e-4
    report(
        "3 (factor-4 exponent advantage)",
        passed,
        f"tmsv/high-background = {exact!r} (exact 4), vs optical dev {dev_opt:.3e} (<=1e-4)",
    )
    assert exact == 4.0
    assert dev_opt <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="stated 1% tolerance is below the mathematical gap: energy matching "
    "loses n_T/(N_S + N_A) = 207.87/6250.01 = 3.3% of the transmitted signal "
    "at the fig2-upper parameters, so the 10 K maser exponent sits 3.34% below "
    "the matched optical exponent",
)
def test_criterion_4a_maser_10k_within_1pct():
    metrics = figure_claim_metrics()
    dev = metrics["upper_mas10K_vs_optical"]
    report("4a (mas-10K within 1% of optical)", dev <= 1e-2, f"measured gap {dev:.4e} (stated <=1e-2)")
    assert dev <= 1e-2


def test_criterion_4_remaining_figure_claims():
    metrics = figure_claim_metrics()
    amp_below = metrics["upper_amp_vs_mas10K_ratio"] < 1.0
    mas300 = metrics["upper_mas300K_vs_amp"]
    lower = metrics["lower_masers_vs_optical"]
    passed = amp_below and mas300 <= 1e-2 and lower <= 1e-3
    report(
        "4b/4c (figure overlaps)",
        passed,
        f"amp strictly below maser: {amp_below}; mas-300K vs amp dev {mas300:.3e} (<=1e-2); "
        f"N_A=5e8 maser vs optical dev {lower:.3e} (<=1e-3)",
    )
    assert amp_below
    assert mas300 <= 1e-2
    assert lower <= 1e-3


def test_criterion_5_homodyne_monte_carlo():
    start = time.perf_counter()
    scenario = next(s for s in figure_grid("fig4_mid") if s.label == "amp")
    ch = channel_from_scenario(scenario)
    trials = 1_000_000
    thresholds = [threshold_for_pfa(float(p), ch) for p in np.geomspace(0.02, 0.9, 10)]
    empirical = monte_carlo_roc(ch, thresholds, trials=trials, seed=SEED)
    worst_sigmas = 0.0
    for x, p_fa_hat, p_md_hat in zip(sorted(thresholds, reverse=True), empirical.p_fa, empirical.p_md):
        for p_hat, p in ((p_fa_hat, pfa_hom(x, ch)), (p_md_hat, pmd_hom(x, ch))):
            sigma = math.sqrt(p * (1.0 - p) / trials)
            worst_sigmas = max(worst_sigmas, abs(p_hat - p) / sigma)
    elapsed = time.perf_counter() - start
    passed = worst_sigmas <= 4.0 and elapsed <= 30.0
    report(
        "5 (homodyne vs Monte Carlo)",
        passed,
        f"worst deviation {worst_sigmas:.2f} sigma (<=4), runtime {elapsed:.1f}s (<=30s)",
    )
    assert worst_sigmas <= 4.0
    assert elapsed <= 30.0


def test_criterion_6_special_functions():
    ys = np.concatenate([np.geomspace(1e-12, 1.0, 400), 2.0 - np.geomspace(1e-12, 1.0, 400)])
    worst = max(abs(erfc(erfc_inv(float(y))) - y) / y for y in ys)
    median = normal_quantile(0.5)
    passed = worst <= 1e-12 and median == 0.0
    report(
        "6 (special functions)",
        passed,
        f"erfc_inv round-trip max rel err {worst:.3e} (<=1e-12), Phi^-1(0.5) = {median!r}",
    )
    assert worst <= 1e-12
    assert median == 0.0


def williamson_residuals(seed: int, samples: int) -> list[float]:
    """Reconstruction and symplecticity residual of each random covariance, one at a time."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(samples):
        modes = int(rng.integers(1, 4))
        cov = random_physical_cov(rng, modes)
        dec = williamson(cov)
        omega = symplectic_form(modes)
        recon = np.linalg.norm(dec.S @ dec.diagonal_form() @ dec.S.T - cov) / np.linalg.norm(cov)
        sympl = np.abs(dec.S @ omega @ dec.S.T - omega).max()
        residuals.append(max(recon, sympl))
    return residuals


def test_criterion_7_structural_invariants():
    worst_residual = max(williamson_residuals(SEED, 1000))

    worst_path = 0.0
    for fig in ("fig2_upper", "fig2_lower"):
        for scenario in figure_grid(fig):
            direct = hypothesis_pair(scenario)
            composed = hypothesis_pair_via_channels(scenario)
            worst_path = max(
                worst_path,
                np.abs(direct.rho1.mean - composed.rho1.mean).max(),
                np.abs(direct.rho1.cov - composed.rho1.cov).max() / np.abs(direct.rho1.cov).max(),
            )

    monotone = True
    for scenario in figure_grid("fig3_upper"):
        pair = hypothesis_pair(scenario)
        monotone &= roc_asymmetric(pair.rho0, pair.rho1, scenario.copies).is_monotone()
    for fig in ("fig4_upper", "fig4_mid", "fig4_lower"):
        for scenario in figure_grid(fig):
            monotone &= roc_homodyne(channel_from_scenario(scenario)).is_monotone()

    passed = worst_residual <= 1e-10 and worst_path <= 1e-12 and monotone
    report(
        "7 (structural invariants)",
        passed,
        f"1000 Williamson residuals max {worst_residual:.3e} (<=1e-10), "
        f"path independence {worst_path:.3e} (<=1e-12), ROC monotone {monotone}",
    )
    assert worst_residual <= 1e-10
    assert worst_path <= 1e-12
    assert monotone


@pytest.mark.parametrize("seed", range(SEED, SEED + 16))
def test_stacked_structural_check_matches_per_sample_loop(seed):
    # check_structural decomposes one stack per mode count; a run of 200
    # samples draws the first 200 covariances of a run of 1000
    residuals = williamson_residuals(seed, 1000)
    for samples in (1000, 200):
        assert check_structural(seed, samples).metric == max(residuals[:samples])


def test_criterion_8_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["figure", "fig3_upper", "--out", str(out1)]) == 0
    assert main(["figure", "fig3_upper", "--out", str(out2)]) == 0
    capsys.readouterr()
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("fig3_upper.csv", "fig3_upper_manifest.json")
    )
    report("8 (determinism)", identical, "figure fig3_upper twice -> byte-identical CSV and manifest")
    assert identical
