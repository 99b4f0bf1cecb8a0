"""Seeded inputs of the benchmark workloads.

Everything here is a function of the workload seed alone and uses only the
standard library, so the set-up probe can build the inputs without loading
the reference. Scenario parameters are log-uniform over the ranges of the
validation grid of ``qibench.validation``:

    eta in [1e-8, 1e-1], N_S in [1e-3, 1], N_B in [1, 6250],
    N_A in [6250, 5e8] (amplified), n_T in [207.9, 6250] (maser, phi = 1/2),
    copies in [1, 1e8] (rounded to an integer),

with the three kinds taken in turn, so each makes up exactly one third of a
pool. As in the grid, no energy matching is applied.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

KINDS = ("amplified", "maser", "optical")
RANGES = {
    "eta": (1e-8, 1e-1),
    "n_s": (1e-3, 1.0),
    "n_b": (1.0, 6250.0),
    "n_a": (6250.0, 5e8),
    "n_t": (207.9, 6250.0),
    "copies": (1.0, 1e8),
}
MASER_PHI = 0.5

FIGURE_IDS = (
    "fig2_upper",
    "fig2_lower",
    "fig3_upper",
    "fig3_lower",
    "fig4_upper",
    "fig4_mid",
    "fig4_lower",
)

# Operations per round. A run repeats whole rounds, so every run attempts
# the same operations in the same proportions whatever its length.
ORACLE_ROUND = 66
ROC_SEEDED_PER_ROUND = 72

# An oracle scenario whose per-mode exponent is below this is left out: the
# s-overlap's rounding (~1e-15 in ln C) can then make ln C positive and the
# bound exceed 1/2 (see the FOUND notes in CHANGES.md).
ORACLE_MIN_MEAN_EXPONENT = 1e-12
# A seeded roc_sweep scenario needs D >= 1e-5 nats, where the f64 relative
# entropy (absolute error ~2e-15) keeps a 500x margin to the 1e-8 check. The
# ill-conditioned corner is covered by the fixed block below instead.
ROC_MIN_SIGNAL_DIVERGENCE = 1e-5

# Fixed roc_sweep block, independent of the seed: the validation-grid combos
# at eta = 1e-8 and N_B >= 100, where the covariance term of D is a deep
# cancellation for the f64 path.
FAULT_BLOCK_ETA = 1e-8
FAULT_BLOCK_N_B = (100.0, 6250.0)
GRID_N_S = (1e-3, 1e-1, 1.0)
GRID_N_A = (0.0, 6250.0, 5e8)
GRID_N_T = (0.0, 207.9, 6250.0)

# validate_suite draws its validate seeds from this fixed pool; see README.
VALIDATE_SEED_BASE = 20250808
VALIDATE_SEED_POOL = 16


@dataclass(frozen=True)
class Params:
    """Raw parameters of one scenario (no energy matching)."""

    kind: str
    n_s: float
    eta: float
    n_b: float
    copies: int
    n_a: float = 0.0
    n_t: float = 0.0
    phi: float = 1.0

    @property
    def mu(self) -> float:
        return self.eta * self.n_s * (self.phi if self.kind == "maser" else 1.0)

    @property
    def n_add(self) -> float:
        return self.eta * {"amplified": self.n_a, "maser": self.n_t}.get(self.kind, 0.0)

    def scenario_kwargs(self) -> dict:
        """Keyword arguments of ``qibench.build_scenario``."""
        kw = dict(
            energy_matched=False,
            label=f"{self.kind[:3]}_{self.eta:.3g}_{self.n_s:.3g}_{self.n_b:.3g}",
            n_s=self.n_s,
            eta=self.eta,
            copies=self.copies,
            n_b=self.n_b,
        )
        if self.kind == "amplified":
            kw["n_a"] = self.n_a
        elif self.kind == "maser":
            kw.update(n_t=self.n_t, phi=self.phi)
        return kw


def _log_uniform(rng: random.Random, name: str) -> float:
    lo, hi = RANGES[name]
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw(rng: random.Random, kind: str) -> Params:
    """One scenario of the given kind from the log-uniform distribution."""
    common = dict(
        kind=kind,
        n_s=_log_uniform(rng, "n_s"),
        eta=_log_uniform(rng, "eta"),
        n_b=_log_uniform(rng, "n_b"),
        copies=max(1, round(_log_uniform(rng, "copies"))),
    )
    if kind == "amplified":
        return Params(n_a=_log_uniform(rng, "n_a"), **common)
    if kind == "maser":
        return Params(n_t=_log_uniform(rng, "n_t"), phi=MASER_PHI, **common)
    return Params(**common)


def mean_exponent_lower_bound(p: Params) -> float:
    """2 mu / Sigma at s = 1/2, which bounds the per-mode exponent from below.

    Lambda_1/2(nu) = 2 nu + 2 sqrt(nu^2 - 1/4).
    """
    nu0 = p.n_b + 0.5
    nu1 = nu0 + p.n_add
    sigma = 2 * nu0 + 2 * math.sqrt(nu0 * nu0 - 0.25) + 2 * nu1 + 2 * math.sqrt(nu1 * nu1 - 0.25)
    return 2 * p.mu / sigma


def signal_divergence(p: Params) -> float:
    """mu ln(1 + 1/n1), the signal part of D and a lower bound on it."""
    return p.mu * math.log1p(1.0 / (p.n_b + p.n_add))


def _pool(seed: int, tag: str, size: int, accept) -> list[Params]:
    rng = random.Random(f"{tag}:{seed}")
    pool = []
    for i in range(size):
        while True:
            p = draw(rng, KINDS[i % len(KINDS)])
            if accept(p):
                pool.append(p)
                break
    return pool


def oracle_pool(seed: int, size: int = ORACLE_ROUND) -> list[Params]:
    """One oracle_sweep round."""
    return _pool(seed, "oracle", size, lambda p: mean_exponent_lower_bound(p) >= ORACLE_MIN_MEAN_EXPONENT)


def fault_block() -> list[Params]:
    """The fixed roc_sweep block (36 grid combos, copies = 1e5)."""
    block = []
    for n_s in GRID_N_S:
        for n_b in FAULT_BLOCK_N_B:
            for n_a in GRID_N_A:
                block.append(Params("amplified", n_s, FAULT_BLOCK_ETA, n_b, 100_000, n_a=n_a))
            for n_t in GRID_N_T:
                block.append(Params("maser", n_s, FAULT_BLOCK_ETA, n_b, 100_000, n_t=n_t, phi=MASER_PHI))
    return block


def roc_round(seed: int, seeded: int = ROC_SEEDED_PER_ROUND) -> list[Params]:
    """One roc_sweep round: the seeded scenarios, then the fixed block, shuffled together."""
    ops = _pool(seed, "roc", seeded, lambda p: signal_divergence(p) >= ROC_MIN_SIGNAL_DIVERGENCE)
    ops += fault_block()
    random.Random(f"roc-order:{seed}").shuffle(ops)
    return ops


def figure_round(seed: int) -> list[str]:
    """The seven figure ids in a seeded order."""
    ids = list(FIGURE_IDS)
    random.Random(f"figure:{seed}").shuffle(ids)
    return ids


def validate_seeds(seed: int) -> list[int]:
    """The fixed pool of validate seeds in a seeded order; operation k uses entry k mod 16."""
    pool = [VALIDATE_SEED_BASE + k for k in range(VALIDATE_SEED_POOL)]
    random.Random(f"validate:{seed}").shuffle(pool)
    return pool
