import math

import pytest

import qibench.closed_forms as closed_forms
from qibench.chernoff import BoundResult
from qibench.closed_forms import closed_bound, closed_qre
from qibench.protocols import hypothesis_pair
from qibench.validation import (
    benchmark_combos,
    check_qcb_equivalence,
    check_qre_equivalence,
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
def test_qre_check_decomposes_each_covariance_once(mp_decompositions, quick, distinct):
    combos = benchmark_combos(quick=quick)
    covs = set()
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        covs.update({pair.rho0.cov.tobytes(), pair.rho1.cov.tobytes()})
    assert len(covs) == distinct
    for _ in range(2):  # nothing outlives the call
        mp_decompositions.clear()
        result = check_qre_equivalence(combos)
        assert len(mp_decompositions) == distinct
        assert f"{len(combos)} combos, {distinct} covariances decomposed at dps=50" in result.detail


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
