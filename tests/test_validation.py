import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qibench.closed_forms as closed_forms
from qibench import gaussian, special, validation
from qibench.chernoff import BoundResult, qbb
from qibench.closed_forms import closed_bound, closed_qre
from qibench.gaussian import _symplectic_pairs
from qibench.protocols import hypothesis_pair
from qibench.validation import (
    CheckResult,
    _rel_dev,
    benchmark_combos,
    check_amplifier_free_limit,
    check_homodyne_monte_carlo,
    check_qcb_equivalence,
    check_qre_equivalence,
    run_all,
)


def test_benchmark_grid_spans_required_ranges():
    combos = benchmark_combos()
    assert len(combos) >= 200
    etas = {s.eta for s in combos}
    assert {1e-8, 1e-1} <= etas
    assert {0.0, 6250.0, 5e8} <= {s.n_a for s in combos if s.kind == "amplified"}
    assert {1.0, 100.0, 6250.0} <= {s.n_b for s in combos}


def test_equivalence_checks_pass_on_quick_grid():
    combos = benchmark_combos(quick=True)
    assert check_qcb_equivalence(combos).passed
    assert check_qre_equivalence(combos).passed


@pytest.mark.parametrize("quick, distinct", [(False, 48), (True, 30)])
def test_qre_check_decomposes_each_covariance_once(mp_decompositions, pair_terms, quick, distinct):
    combos = benchmark_combos(quick=quick)
    covs, pairs = set(), set()
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        covs.update({pair.rho0.cov.tobytes(), pair.rho1.cov.tobytes()})
        pairs.add((pair.rho0.cov.tobytes(), pair.rho1.cov.tobytes()))
    assert len(covs) == len(pairs) == distinct
    # the mp cache keeps the grid: a second check decomposes nothing
    for decomposed in (distinct, 0):
        mp_decompositions.clear()
        pair_terms.clear()
        result = check_qre_equivalence(combos)
        assert len(mp_decompositions) == decomposed
        assert len(pair_terms) == 3 * decomposed
        assert f"{len(combos)} combos, {distinct} distinct covariances at dps=50" in result.detail


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        check_qcb_equivalence([])
    with pytest.raises(ValueError):
        check_qre_equivalence([])


def test_fault_injection_is_caught(monkeypatch):
    # a perturbed closed form must be flagged by the equivalence suite
    real = closed_forms.qcb_coherent

    def perturbed(*args):
        bound = real(*args)
        return BoundResult(
            value=bound.value,
            per_mode_overlap=bound.per_mode_overlap,
            s_star=bound.s_star,
            copies=bound.copies,
            prefactor=bound.prefactor,
            mean_exponent=bound.mean_exponent * (1.0 + 1e-4),
        )

    monkeypatch.setattr(closed_forms, "qcb_coherent", perturbed)
    result = check_qcb_equivalence(benchmark_combos(quick=True))
    assert not result.passed
    assert result.metric == pytest.approx(1e-4, rel=1e-2)


def _nan_exponent(monkeypatch):
    real = closed_forms.qcb_coherent
    monkeypatch.setattr(
        closed_forms, "qcb_coherent", lambda *args: dataclasses.replace(real(*args), mean_exponent=math.nan)
    )


def test_nan_closed_exponent_fails_the_grid_checks(monkeypatch):
    # a NaN compares false with every worst-so-far, so it must not be skipped
    _nan_exponent(monkeypatch)
    result = check_qcb_equivalence(benchmark_combos(quick=True))
    assert not result.passed
    assert result.metric == math.inf
    assert "worst at amp_eta1e-08_ns0.001_na0_nb1;" in result.detail
    limit = check_amplifier_free_limit()
    assert not limit.passed
    assert limit.metric == math.inf


def test_nan_closed_qre_fails_the_check(monkeypatch):
    real = closed_forms.closed_qre
    monkeypatch.setattr(closed_forms, "closed_qre", lambda scenario: (real(scenario)[0], math.nan))
    result = check_qre_equivalence(benchmark_combos(quick=True))
    assert not result.passed
    assert result.metric == math.inf
    assert "worst at amp_eta1e-08_ns0.001_na0_nb1" in result.detail


def test_a_check_passes_at_its_threshold_when_its_conditions_hold():
    assert CheckResult("c", metric=1.0, threshold=1.0).passed
    assert not CheckResult("c", metric=1.0, threshold=1.0, holds=False).passed
    assert not CheckResult("c", metric=math.nan, threshold=1.0).passed


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, -math.inf)])
def test_rel_dev_of_a_non_finite_value_is_inf(a, b):
    assert _rel_dev(a, b) == math.inf


@pytest.fixture
def williamson_stacks(monkeypatch):
    """Stack sizes of the symplectic decompositions the spectrum cache makes, starting from an empty cache."""
    stacks = []

    def counting(cov):
        cov = np.asarray(cov)
        stacks.append(cov.reshape(-1, *cov.shape[-2:]).shape[0])
        return _symplectic_pairs(cov)

    monkeypatch.setattr(gaussian, "_spectrum_cache", {})
    monkeypatch.setattr(gaussian, "_symplectic_pairs", counting)
    return stacks


def _qcb_check_per_combo(combos):
    """check_qcb_equivalence as one qbb per combo, without decomposing the grid first."""
    worst, worst_pre, worst_label = 0.0, 0.0, ""
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        oracle = qbb(pair.rho0, pair.rho1, scenario.copies)
        closed = closed_bound(scenario)
        dev = _rel_dev(closed.mean_exponent, oracle.mean_exponent)
        if dev > worst:
            worst, worst_label = dev, scenario.label
        worst_pre = max(worst_pre, _rel_dev(closed.prefactor, oracle.prefactor))
    return CheckResult(
        name="qcb_exponent_closed_vs_oracle",
        metric=worst,
        threshold=1e-6,
        detail=f"{len(combos)} combos, worst at {worst_label}; prefactor diag dev {worst_pre:.3e}",
    )


@pytest.mark.parametrize("quick, distinct", [(False, 48), (True, 30)])
def test_qcb_check_decomposes_its_grid_in_one_stack(williamson_stacks, quick, distinct):
    combos = benchmark_combos(quick=quick)
    result = check_qcb_equivalence(combos)
    assert williamson_stacks == [distinct]
    assert len(gaussian._spectrum_cache) == distinct
    # the reference decomposes every covariance again, from an empty cache
    gaussian._spectrum_cache.clear()
    reference = _qcb_check_per_combo(combos)
    assert sum(williamson_stacks[1:]) == distinct
    assert result == reference


VALIDATE_CHECKS = [
    "qcb_exponent_closed_vs_oracle",
    "qre_closed_vs_oracle",
    "limit_amp_na0_equals_optical",
    "limit_high_background_2e-5",
    "tmsv_factor_four",
    "fig2_upper_mas10K_within_1pct_of_optical",
    "fig2_upper_amp_strictly_below_maser",
    "fig2_upper_mas300K_overlaps_amp",
    "fig2_lower_masers_overlap_optical",
    "homodyne_monte_carlo_4sigma",
    "erfc_inv_round_trip",
    "structural_invariants",
]


def test_run_all_keeps_its_order_with_the_monte_carlo_check_beside_it():
    results, wall_time = run_all(seed=20250811, quick=True)
    assert [r.name for r in results] == VALIDATE_CHECKS
    assert results[VALIDATE_CHECKS.index("homodyne_monte_carlo_4sigma")] == check_homodyne_monte_carlo(
        seed=20250811, trials=100_000
    )
    assert wall_time > 0.0


def test_run_all_raises_the_monte_carlo_check_error_and_ends_its_thread(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("injected Monte Carlo failure")

    monkeypatch.setattr(validation, "check_homodyne_monte_carlo", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="injected Monte Carlo failure"):
        run_all(quick=True)
    assert threading.active_count() == threads


def test_erfc_inv_cache_is_safe_across_threads():
    # the Monte Carlo worker shares only erfc_inv's cache with the other
    # checks; more threads than cores hammer it with more inputs than it holds
    grids = [np.geomspace(1e-6, 1.9, n) for n in range(40, 52)]
    expected = [special._cached_erfc_inv.__wrapped__(g.tobytes()) for g in grids]

    def work(first):
        for i in range(first, first + 10 * len(grids)):
            assert np.array_equal(special.erfc_inv(grids[i % len(grids)]), expected[i % len(grids)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(work, k) for k in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_closed_bound_covers_all_kinds():
    combos = benchmark_combos(quick=True)
    kinds = set()
    for scenario in combos[:40]:
        bound = closed_bound(scenario)
        assert 0.0 < bound.value <= 0.5
        assert bound.mean_exponent >= 0.0
        kinds.add(scenario.kind)
    assert kinds == {"amplified", "maser"}


def test_maser_10k_roc_tracks_optical_in_log_pmd():
    # the 10 K attenuated source reproduces the optical ROC to within a few
    # percent in -ln P_md = M D + sqrt(M V) Phi^-1(eps); plain P_md ratios
    # diverge exponentially with M (and underflow at M = 1e5), so the
    # coincidence of the published curves is a log-domain statement
    from qibench.protocols import figure_grid
    from qibench.special import normal_quantile

    scenarios = {s.label: s for s in figure_grid("fig3_upper")}
    d_mas, v_mas = closed_qre(scenarios["mas_10K"])
    d_opt, v_opt = closed_qre(scenarios["optical"])
    copies = scenarios["optical"].copies
    worst = 0.0
    for eps in (1e-3, 1e-2, 0.1, 0.3, 0.5):
        log_mas = copies * d_mas + math.sqrt(copies * v_mas) * normal_quantile(eps)
        log_opt = copies * d_opt + math.sqrt(copies * v_opt) * normal_quantile(eps)
        worst = max(worst, abs(log_mas / log_opt - 1.0))
    assert worst <= 0.05
    assert worst == pytest.approx(0.036, abs=0.005)
