"""Homodyne-detection ROC curves with coherent integration over M modes.

The decision statistic is the sum of M q-quadrature outcomes: mean
M sqrt(2 mu) under H1 and variances M lambda0 / M lambda1 under the two
hypotheses, giving

    P_fa(x) = (1/2) erfc(x / sqrt(2 M lambda0)),
    P_md(x) = (1/2) erfc((M sqrt(2 mu) - x) / sqrt(2 M lambda1)).

P_fa, P_md and the threshold for a given P_fa are elementwise, so a ROC
curve is one erfc_inv call and one erfc call over its grid. A seeded Monte
Carlo sampler provides the statistical oracle used to validate the closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import _check_copies
from .protocols import Scenario
from .relent import RocCurve, _probability_grid
from .special import _in_open_interval, erfc, erfc_inv

DEFAULT_PFA_GRID = np.geomspace(1e-6, 1.0 - 1e-3, 200)


@dataclass(frozen=True)
class HomodyneChannel:
    """Per-mode signal mu and quadrature variances of the two hypotheses."""

    mu: float
    lambda0: float
    lambda1: float
    copies: int

    def __post_init__(self):
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and non-negative, got {self.mu!r}")
        if not math.inf > self.lambda1 >= self.lambda0 > 0:
            raise ValueError("variances must be finite and satisfy lambda1 >= lambda0 > 0")
        _check_copies(self.copies)

    @property
    def signal_sum(self) -> float:
        """Mean of the integrated statistic under H1, M sqrt(2 mu)."""
        return self.copies * math.sqrt(2.0 * self.mu)


def channel_from_scenario(scenario: Scenario) -> HomodyneChannel:
    """Homodyne channel of a scenario: the q-marginals of its hypothesis pair, lambda1 = lambda0 + e."""
    lambda0 = scenario.background + 0.5
    return HomodyneChannel(
        mu=scenario.received_signal,
        lambda0=lambda0,
        lambda1=lambda0 + scenario.received_excess,
        copies=scenario.copies,
    )


def pfa_hom(x, ch: HomodyneChannel):
    """False-alarm probability at threshold x (a float or an array)."""
    return 0.5 * erfc(x / math.sqrt(2.0 * ch.copies * ch.lambda0))


def pmd_hom(x, ch: HomodyneChannel):
    """Missed-detection probability at threshold x (a float or an array)."""
    return 0.5 * erfc((ch.signal_sum - x) / math.sqrt(2.0 * ch.copies * ch.lambda1))


def threshold_for_pfa(p_fa, ch: HomodyneChannel):
    """Threshold achieving the requested false-alarm probability (a float or an array)."""
    p_fa = _in_open_interval(p_fa, 0.0, 1.0, "p_fa must lie in (0, 1)")
    return math.sqrt(2.0 * ch.copies * ch.lambda0) * erfc_inv(2.0 * p_fa)


def roc_homodyne(ch: HomodyneChannel, grid: Sequence[float] | None = None) -> RocCurve:
    """Closed-form homodyne ROC over a false-alarm grid."""
    p_fa = _probability_grid(grid, DEFAULT_PFA_GRID, "false-alarm")
    p_md = pmd_hom(threshold_for_pfa(p_fa, ch), ch)
    return RocCurve(p_fa=p_fa, p_md=p_md, copies=ch.copies, meta={"detector": "homodyne"})


def monte_carlo_roc(
    ch: HomodyneChannel,
    thresholds: Sequence[float],
    trials: int,
    seed: int,
) -> RocCurve:
    """Empirical ROC from seeded sampling of the integrated statistic.

    Uses a counter-based Philox generator so results are bit-reproducible
    for a given (seed, trials); sampling is fully vectorized.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    thr = np.sort(np.asarray(thresholds, dtype=float))[::-1]  # p_fa ascending
    rng = np.random.Generator(np.random.Philox(key=seed))
    sigma0 = math.sqrt(ch.copies * ch.lambda0)
    sigma1 = math.sqrt(ch.copies * ch.lambda1)
    h0 = rng.normal(0.0, sigma0, size=trials)
    h1 = rng.normal(ch.signal_sum, sigma1, size=trials)
    # one count per threshold, not a thresholds x trials boolean matrix
    p_fa = np.array([np.count_nonzero(h0 > t) for t in thr]) / trials
    p_md = np.array([np.count_nonzero(h1 <= t) for t in thr]) / trials
    return RocCurve(
        p_fa=p_fa,
        p_md=p_md,
        copies=ch.copies,
        meta={"detector": "monte_carlo", "trials": trials, "seed": seed, "thresholds": thr.tolist()},
    )
