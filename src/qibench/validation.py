"""Cross-validation suites: closed forms against the general Gaussian machinery.

The central check evaluates every benchmark combination two ways. The
closed forms split the bound into a prefactor and a displacement exponent;
the identical split falls out of the general s-overlap at s = 1/2, so the
exponents are compared strictly and the prefactors diagnostically. The
relative-entropy comparison runs the general machinery in arbitrary
precision because at small eta * N_A the quantity is a cancellation beyond
float64 covariance resolution.

Two documented gaps are reported with ``expected_gap=True``: the stated
2e-5 agreement between the exact optical exponent and eta N_S / (4 N_B)
(the true gap at N_B = 6250 is 1/(2 N_B + 1) = 8.0e-5) and the stated 1%
maser-10K-to-optical exponent match (the energy-matching loss n_T/(N_S+N_A)
is 3.3%). See the project notes for the derivations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import closed_forms as cf
from .chernoff import qbb
from .gaussian import _spectra, symplectic_form, williamson
from .homodyne import (
    channel_from_scenario,
    monte_carlo_roc,
    pfa_hom,
    pmd_hom,
    roc_homodyne,
    threshold_for_pfa,
)
from .protocols import (
    AMPLIFIED,
    MASER,
    Scenario,
    build_scenario,
    figure_grid,
    hypothesis_pair,
    hypothesis_pair_via_channels,
)
from .relent import relative_entropy, roc_asymmetric
from .special import erfc, erfc_inv, normal_quantile

QRE_ORACLE_DPS = 50
QCB_EXPONENT_TOL = 1e-6

GRID_ETAS = (1e-8, 1e-6, 1e-4, 1e-2, 1e-1)
GRID_N_S = (1e-3, 1e-1, 1.0)
GRID_N_B = (1.0, 100.0, 6250.0)
GRID_N_A = (0.0, 6250.0, 5e8)
GRID_N_T = (0.0, 207.9, 6250.0)
GRID_MASER_PHI = 0.5


@dataclass
class CheckResult:
    """Outcome of one validation check: it passes when metric <= threshold and ``holds``."""

    name: str
    metric: float
    threshold: float
    detail: str = ""
    expected_gap: bool = False
    holds: bool = True

    @property
    def passed(self) -> bool:
        return self.metric <= self.threshold and self.holds

    def line(self) -> str:
        status = "PASS" if self.passed else ("KNOWN-GAP" if self.expected_gap else "FAIL")
        text = f"{status:9s} {self.name}: metric={self.metric:.6e} threshold={self.threshold:.6e}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def benchmark_combos(quick: bool = False) -> list[Scenario]:
    """Deterministic scenario grid spanning the acceptance parameter ranges."""
    etas = GRID_ETAS[::2] if quick else GRID_ETAS
    n_ss = GRID_N_S[::2] if quick else GRID_N_S
    combos: list[Scenario] = []
    for eta in etas:
        for n_s in n_ss:
            for n_b in GRID_N_B:
                common = dict(energy_matched=False, n_s=n_s, eta=eta, copies=1, n_b=n_b)
                tag = f"eta{eta:g}_ns{n_s:g}"
                for n_a in GRID_N_A:
                    combos.append(build_scenario(AMPLIFIED, label=f"amp_{tag}_na{n_a:g}_nb{n_b:g}", n_a=n_a, **common))
                for n_t in GRID_N_T:
                    label = f"mas_{tag}_nt{n_t:g}_nb{n_b:g}"
                    combos.append(build_scenario(MASER, label=label, phi=GRID_MASER_PHI, n_t=n_t, **common))
    return combos


def _rel_dev(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf  # fails its check, where a NaN would compare false with every bound
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def check_qcb_equivalence(combos: list[Scenario] | None = None) -> CheckResult:
    """Closed-form exponent (mu xi2 form) vs the s = 1/2 overlap split.

    The grid's covariances are decomposed first, in one stacked call per
    dimension; the spectrum cache holds all of them (48 on the full grid).
    """
    combos = benchmark_combos() if combos is None else combos
    if not combos:
        raise ValueError("equivalence check requires a non-empty scenario grid")
    worst, worst_pre, worst_label = 0.0, 0.0, ""
    pairs = [hypothesis_pair(scenario) for scenario in combos]
    for modes in {pair.rho0.modes for pair in pairs}:
        _spectra(*(r.cov for pair in pairs if pair.rho0.modes == modes for r in (pair.rho0, pair.rho1)))
    for scenario, pair in zip(combos, pairs):
        oracle = qbb(pair.rho0, pair.rho1, scenario.copies)
        closed = cf.closed_bound(scenario)
        dev = _rel_dev(closed.mean_exponent, oracle.mean_exponent)
        if dev > worst:
            worst, worst_label = dev, scenario.label
        worst_pre = max(worst_pre, _rel_dev(closed.prefactor, oracle.prefactor))
    return CheckResult(
        name="qcb_exponent_closed_vs_oracle",
        metric=worst,
        threshold=QCB_EXPONENT_TOL,
        detail=f"{len(combos)} combos, worst at {worst_label}; prefactor diag dev {worst_pre:.3e}",
    )


def check_qre_equivalence(combos: list[Scenario] | None = None) -> CheckResult:
    """Closed-form (D, V) vs the general relative entropy at high precision.

    The full grid's 48 distinct covariances and 48 pairs fit the mp oracle's
    cache, so each is decomposed once per process; the detail counts them.
    """
    combos = benchmark_combos() if combos is None else combos
    if not combos:
        raise ValueError("equivalence check requires a non-empty scenario grid")
    worst = 0.0
    worst_label = ""
    covs = set()
    for scenario in combos:
        pair = hypothesis_pair(scenario)
        covs.update((pair.rho0.cov.tobytes(), pair.rho1.cov.tobytes()))
        oracle = relative_entropy(pair.rho0, pair.rho1, dps=QRE_ORACLE_DPS)
        d_closed, v_closed = cf.closed_qre(scenario)
        dev = max(_rel_dev(d_closed, oracle.d), _rel_dev(v_closed, oracle.v))
        if dev > worst:
            worst, worst_label = dev, scenario.label
    return CheckResult(
        name="qre_closed_vs_oracle",
        metric=worst,
        threshold=1e-8,
        detail=(
            f"{len(combos)} combos, {len(covs)} distinct covariances at "
            f"dps={QRE_ORACLE_DPS}, worst at {worst_label}"
        ),
    )


def check_amplifier_free_limit() -> CheckResult:
    """The coherent bound at zero excess noise against the conjugate-form
    optical exponent mu / (sqrt(N_B + 1) + sqrt(N_B))^2, at the grid's received signals."""
    worst = 0.0
    for mu in [eta * n_s for eta in GRID_ETAS for n_s in GRID_N_S]:
        for n_b in (0.3, 1.0, 7.5, 100.0, 6250.0, 1e6, 5e8):
            amp = cf.qcb_coherent(mu, 0.0, n_b)
            optical = mu / (math.sqrt(n_b + 1.0) + math.sqrt(n_b)) ** 2
            worst = max(worst, _rel_dev(amp.mean_exponent, optical))
    return CheckResult(
        name="limit_amp_na0_equals_optical",
        metric=worst,
        threshold=1e-12,
        detail="105-point grid",
    )


def check_high_background_limit() -> CheckResult:
    """Exact optical exponent vs mu / (4 N_B) at N_B = 6250.

    The true relative gap is 1/(2 N_B + 1) = 8.0e-5; the stated 2e-5 cannot
    be met by any implementation, so this is a documented expected gap.
    """
    opt = cf.qcb_coherent(1.0, 0.0, 6250.0)
    hb = cf.qcb_high_background(1.0, 6250.0)
    dev = _rel_dev(opt.mean_exponent, hb.mean_exponent)
    return CheckResult(
        name="limit_high_background_2e-5",
        metric=dev,
        threshold=2e-5,
        detail="true gap 1/(2 N_B + 1) = 8.0e-5",
        expected_gap=True,
    )


def check_factor_four() -> CheckResult:
    """TMSV asymptote vs classical exponents: exact factor 4 over the high-
    background form, within 0.01% of the exact optical one at N_B = 6250."""
    mu = 0.11 * 0.37  # N_S = 0.37 at eta = 0.11
    tmsv = cf.tmsv_asymptote(mu, 6250.0).mean_exponent
    hb = cf.qcb_high_background(mu, 6250.0).mean_exponent
    opt = cf.qcb_coherent(mu, 0.0, 6250.0).mean_exponent
    exact_four = tmsv / hb == 4.0
    dev_opt = abs(tmsv / opt / 4.0 - 1.0)
    return CheckResult(
        name="tmsv_factor_four",
        metric=dev_opt,
        threshold=1e-4,
        holds=exact_four,
        detail=f"ratio to high-background exactly 4: {exact_four}",
    )


def figure_claim_metrics() -> dict[str, float]:
    """Exponent-coincidence metrics behind the published-figure claims."""
    upper = {s.label: cf.closed_bound(s).mean_exponent for s in figure_grid("fig2_upper")}
    lower = {s.label: cf.closed_bound(s).mean_exponent for s in figure_grid("fig2_lower")}
    maser_labels = [k for k in lower if k.startswith("mas_")]
    return {
        "upper_mas10K_vs_optical": _rel_dev(upper["mas_10K"], upper["optical"]),
        "upper_amp_vs_mas10K_ratio": upper["amp"] / upper["mas_10K"],
        "upper_mas300K_vs_amp": _rel_dev(upper["mas_300K"], upper["amp"]),
        "lower_masers_vs_optical": max(_rel_dev(lower[k], lower["optical"]) for k in maser_labels),
    }


def check_figure_claims() -> list[CheckResult]:
    m = figure_claim_metrics()
    return [
        CheckResult(
            name="fig2_upper_mas10K_within_1pct_of_optical",
            metric=m["upper_mas10K_vs_optical"],
            threshold=1e-2,
            detail="true gap n_T/(N_S + N_A) = 3.3%",
            expected_gap=True,
        ),
        CheckResult(
            name="fig2_upper_amp_strictly_below_maser",
            metric=m["upper_amp_vs_mas10K_ratio"],
            threshold=1.0,
            holds=m["upper_amp_vs_mas10K_ratio"] < 1.0,
            detail="amp/mas-10K exponent ratio",
        ),
        CheckResult(
            name="fig2_upper_mas300K_overlaps_amp",
            metric=m["upper_mas300K_vs_amp"],
            threshold=1e-2,
        ),
        CheckResult(
            name="fig2_lower_masers_overlap_optical",
            metric=m["lower_masers_vs_optical"],
            threshold=1e-3,
        ),
    ]


def check_homodyne_monte_carlo(seed: int = 20250808, trials: int = 1_000_000) -> CheckResult:
    """Closed-form homodyne ROC vs seeded sampling at the fig4-mid parameters."""
    scenario = next(s for s in figure_grid("fig4_mid") if s.label == "amp")
    ch = channel_from_scenario(scenario)
    thresholds = threshold_for_pfa(np.geomspace(0.02, 0.9, 10), ch)
    empirical = monte_carlo_roc(ch, thresholds, trials=trials, seed=seed)
    x = np.sort(thresholds)[::-1]
    p = np.concatenate([pfa_hom(x, ch), pmd_hom(x, ch)])
    p_hat = np.concatenate([empirical.p_fa, empirical.p_md])
    worst = float(np.max(np.abs(p_hat - p) / np.sqrt(p * (1.0 - p) / trials)))
    return CheckResult(
        name="homodyne_monte_carlo_4sigma",
        metric=worst,
        threshold=4.0,
        detail=f"{trials} trials per hypothesis, 10 thresholds, seed {seed}",
    )


def check_special_functions() -> CheckResult:
    """erfc_inv round trip over (0, 2) and the exact median quantile."""
    half = np.geomspace(1e-12, 1.0, 200)
    ys = np.concatenate([half, 2.0 - half])
    worst = float(np.max(np.abs(erfc(erfc_inv(ys)) - ys) / ys))
    median_exact = normal_quantile(0.5) == 0.0
    return CheckResult(
        name="erfc_inv_round_trip",
        metric=worst,
        threshold=1e-12,
        holds=median_exact,
        detail=f"Phi^-1(0.5) == 0: {median_exact}",
    )


def _draw_cov_inputs(rng: np.random.Generator, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The random numbers behind one covariance: unitaries, squeezings, spectrum."""
    return (
        rng.normal(size=(2, 2, modes, modes)),
        rng.normal(0.0, 0.4, size=modes),
        0.5 + rng.uniform(0.0, 8.0, size=modes),
    )


def _physical_covs(z: np.ndarray, r: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Covariances S diag(nu) S^T of a stack of draws, shapes (k, 2, 2, N, N), (k, N), (k, N).

    S = O1 Z O2 as in the Bloch-Messiah decomposition: Z is one squeezer
    diag(e^r, e^-r) per mode, and each passive map O is the orthogonal
    symplectic form of a unitary U from the QR of a complex Gaussian matrix
    (q -> Re U q - Im U p, p -> Im U q + Re U p). Every step is per slice or
    elementwise, so a slice gives the same bits as a stack of one.
    """
    k, modes = r.shape
    u = np.linalg.qr(z[:, 0] + 1j * z[:, 1])[0]
    o = np.empty((k, 2, 2 * modes, 2 * modes))
    o[..., 0::2, 0::2] = o[..., 1::2, 1::2] = u.real
    o[..., 0::2, 1::2] = -u.imag
    o[..., 1::2, 0::2] = u.imag
    squeeze = np.exp((r[:, :, None] * [1.0, -1.0]).reshape(k, 1, 2 * modes))
    s = o[:, 0] * squeeze @ o[:, 1]
    diag = np.repeat(nus, 2, axis=-1)[..., None] * np.eye(2 * modes)
    return s @ diag @ s.swapaxes(-1, -2)


def random_physical_cov(rng: np.random.Generator, modes: int) -> np.ndarray:
    """Random physical covariance matrix S diag(nu) S^T with symplectic S; see _physical_covs."""
    return _physical_covs(*(a[None] for a in _draw_cov_inputs(rng, modes)))[0]


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, as np.linalg.norm takes it of one (a dot product)."""
    flat = a.reshape(a.shape[0], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[:, 0, 0])


def check_structural(seed: int = 20250808, samples: int = 1000) -> CheckResult:
    """Williamson residuals, hypothesis-pair path independence, ROC monotonicity.

    The samples are drawn one by one, each with its mode count first, and
    then built, decomposed and measured as one stack per mode count.
    """
    rng = np.random.default_rng(seed)
    draws: dict[int, list] = {}
    for _ in range(samples):
        modes = int(rng.integers(1, 4))
        draws.setdefault(modes, []).append(_draw_cov_inputs(rng, modes))
    metric = 0.0
    for modes, group in draws.items():
        cov = _physical_covs(*(np.stack(a) for a in zip(*group)))
        dec = williamson(cov)
        s_t = dec.S.swapaxes(-1, -2)
        omega = symplectic_form(modes)
        recon = _frobenius(dec.S @ dec.diagonal_form() @ s_t - cov) / _frobenius(cov)
        sympl = np.abs(dec.S @ omega @ s_t - omega).max()
        metric = max(metric, float(recon.max()), float(sympl))

    worst_path = 0.0
    for fig in ("fig2_upper", "fig2_lower"):
        for scenario in figure_grid(fig):
            direct = hypothesis_pair(scenario)
            composed = hypothesis_pair_via_channels(scenario)
            dev = max(
                np.abs(direct.rho1.mean - composed.rho1.mean).max(),
                np.abs(direct.rho1.cov - composed.rho1.cov).max() / np.abs(direct.rho1.cov).max(),
            )
            worst_path = max(worst_path, dev)

    monotone = True
    for scenario in figure_grid("fig3_upper"):
        pair = hypothesis_pair(scenario)
        monotone &= roc_asymmetric(pair.rho0, pair.rho1, scenario.copies).is_monotone()
    for scenario in figure_grid("fig4_mid"):
        monotone &= roc_homodyne(channel_from_scenario(scenario)).is_monotone()

    return CheckResult(
        name="structural_invariants",
        metric=metric,
        threshold=1e-10,
        holds=worst_path <= 1e-12 and monotone,
        detail=f"{samples} covariances; path dev {worst_path:.3e}; ROC monotone {monotone}",
    )


def run_all(seed: int = 20250808, quick: bool = False) -> tuple[list[CheckResult], float]:
    """Run every validation suite; returns the check list and the wall time of the checks.

    The homodyne Monte Carlo check, whose draw releases the GIL, runs on one
    worker thread beside the others and is joined before the list is built;
    its exceptions are raised here, and the wall time covers every check.
    """
    # the mp checks import mpmath on first use; importing it here, before the
    # timer starts, keeps that out of the wall time
    import mpmath  # noqa: F401
    from concurrent.futures import ThreadPoolExecutor

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=1) as worker:
        monte_carlo = worker.submit(check_homodyne_monte_carlo, seed, 100_000 if quick else 1_000_000)
        combos = benchmark_combos(quick=quick)
        before = [
            check_qcb_equivalence(combos),
            check_qre_equivalence(combos),
            check_amplifier_free_limit(),
            check_high_background_limit(),
            check_factor_four(),
            *check_figure_claims(),
        ]
        after = [check_special_functions(), check_structural(seed=seed, samples=200 if quick else 1000)]
        results = [*before, monte_carlo.result(), *after]
    return results, time.perf_counter() - start
