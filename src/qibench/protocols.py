"""Benchmark scenario construction and the target-return hypothesis pairs.

A Scenario fixes one source-generation protocol (amplified coherent state,
cryogenically attenuated maser, or ideal optical-style coherent state)
together with the background, reflectivity and copy count. Energy matching
follows the substitution rules used for cross-protocol comparison: the maser
transmits phi N_S = N_S + N_A - n_T and the optical reference N_S + N_A, so
every protocol irradiates the target with the same photon flux.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    _check_copies,
    apply_amplifier,
    apply_beamsplitter,
    make_coherent,
    make_thermal,
)

AMPLIFIED = "amplified"
MASER = "maser"
OPTICAL = "optical"
KINDS = (AMPLIFIED, MASER, OPTICAL)

SCHEMA_VERSION = 1
DEFAULT_FREQUENCY_HZ = 1.0e9
FIGURE_BACKGROUND = 6250.0
MASER_TEMPERATURES_K = (300.0, 77.0, 10.0, 4.0)

# a label names output files and fills an unquoted CSV field
_LABEL_FORBIDDEN = "/\\,\r\n\0"

# exact SI values (2019 redefinition)
_PLANCK_H = 6.62607015e-34
_BOLTZMANN_K = 1.380649e-23


def planck_occupation(freq: float, temp: float) -> float:
    """Bose-Einstein occupation 1 / (exp(h f / k T) - 1) in photons per mode."""
    if freq <= 0.0:
        raise ValueError("frequency must be positive")
    if temp <= 0.0:
        raise ValueError("temperature must be positive")
    x = _PLANCK_H * freq / (_BOLTZMANN_K * temp)
    try:
        denom = math.expm1(x)
    except OverflowError:
        denom = math.inf
    occ = 1.0 / denom
    if occ == 0.0:
        warnings.warn("Planck occupation underflowed to zero", RuntimeWarning, stacklevel=2)
    return occ


@dataclass(frozen=True)
class Scenario:
    """One benchmark configuration, after optional energy matching.

    n_a is the amplifier-added photon number for the amplified protocol and
    the matching reference for the other two. Its amplifier has gain 1 + 2 n_a,
    as in :func:`hypothesis_pair_via_channels`; the paper's N_A = N_B + g_A / 2
    is not used. n_b / n_t override the Planck occupations computed from
    (freq, t_target) and (freq, t_fridge).
    """

    label: str
    kind: str
    n_s: float
    eta: float
    copies: int
    n_a: float = 0.0
    phi: float = 1.0
    t_fridge: float | None = None
    freq: float = DEFAULT_FREQUENCY_HZ
    t_target: float = 300.0
    energy_matched: bool = True
    n_b: float | None = None
    n_t: float | None = None

    def __post_init__(self):
        label = self.label
        if not isinstance(label, str) or label in ("", ".", "..") or any(c in label for c in _LABEL_FORBIDDEN):
            raise ValueError(
                f"label must be a non-empty string without / \\ , CR, LF or NUL, "
                f"and not . or .., got {label!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        for name in ("n_s", "eta", "n_a", "phi", "freq", "t_target", "t_fridge", "n_b", "n_t"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        _check_copies(self.copies)
        object.__setattr__(self, "copies", int(self.copies))
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        if not 0.0 < self.phi <= 1.0:
            raise ValueError("attenuator transmissivity must lie in (0, 1]")
        if min(self.n_s, self.n_a) < 0 or any(x is not None and x < 0 for x in (self.n_b, self.n_t)):
            raise ValueError("photon numbers must be non-negative")
        if self.freq <= 0.0 or self.t_target <= 0.0:
            raise ValueError("frequency and temperatures must be positive")
        if self.kind == MASER and self.n_t is None and self.t_fridge is None:
            raise ValueError("maser scenarios need t_fridge or an explicit n_t")

    @property
    def background(self) -> float:
        """Target background N_B, explicit or from Planck's law."""
        if self.n_b is not None:
            return self.n_b
        return planck_occupation(self.freq, self.t_target)

    @property
    def fridge_occupation(self) -> float:
        """Attenuator-stage occupation n_T (maser protocol only)."""
        if self.kind != MASER:
            return 0.0
        if self.n_t is not None:
            return self.n_t
        return planck_occupation(self.freq, self.t_fridge)

    @property
    def n_added(self) -> float:
        """Excess source noise photons: N_A, n_T or 0 by protocol."""
        if self.kind == AMPLIFIED:
            return self.n_a
        if self.kind == MASER:
            return self.fridge_occupation
        return 0.0

    @property
    def transmitted_signal(self) -> float:
        """Signal photons per mode leaving the source stage.

        With energy matching the maser transmits N_S + N_A - n_T and the
        optical reference N_S + N_A; the amplified source always transmits
        its raw N_S (its added noise makes up the rest of the energy).
        """
        if self.kind == AMPLIFIED:
            return self.n_s
        if self.kind == MASER:
            if self.energy_matched:
                value = self.n_s + self.n_a - self.fridge_occupation
                if value < 0.0:
                    raise ValueError(
                        "energy matching gives negative transmitted photons "
                        f"(n_T = {self.fridge_occupation:.6g} exceeds N_S + N_A = {self.n_s + self.n_a:.6g})"
                    )
                return value
            return self.phi * self.n_s
        return self.n_s + self.n_a if self.energy_matched else self.n_s

    @property
    def received_signal(self) -> float:
        """Mean signal photons per mode at the receiver, eta * N_S^trans."""
        return self.eta * self.transmitted_signal

    def to_dict(self) -> dict:
        doc = {"schema": SCHEMA_VERSION}
        doc.update(asdict(self))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        data = dict(doc)
        schema = data.pop("schema", None)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema {schema!r}; expected {SCHEMA_VERSION}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))


def build_scenario(kind: str, energy_matched: bool = True, **params) -> Scenario:
    """Construct and validate a Scenario, applying the matching rules eagerly."""
    scenario = Scenario(kind=kind, energy_matched=energy_matched, **params)
    scenario.transmitted_signal  # trigger the matching domain check
    scenario.background
    return scenario


@dataclass
class HypothesisPair:
    """Target-absent / target-present single-mode return states.

    rho0 is thermal with N_B photons; rho1 has mean (sqrt(2 mu), 0) and an
    extra n_added = eta * (source excess noise) photons of covariance.
    """

    rho0: GaussianState
    rho1: GaussianState
    mu: float
    n_added: float


def hypothesis_pair(scenario: Scenario) -> HypothesisPair:
    """Return-state hypothesis pair from the closed V2 expressions."""
    n_b = scenario.background
    mu = scenario.received_signal
    n_added = scenario.eta * scenario.n_added
    rho0 = make_thermal(n_b)
    rho1 = GaussianState(
        1,
        np.array([math.sqrt(2.0 * mu), 0.0]),
        (0.5 + n_b + n_added) * np.eye(2),
    )
    return HypothesisPair(rho0=rho0, rho1=rho1, mu=mu, n_added=n_added)


def hypothesis_pair_via_channels(scenario: Scenario) -> HypothesisPair:
    """Same pair built by composing the elementary channels (eta < 1).

    The source is assembled explicitly (coherent state, then amplifier or
    cryogenic attenuator) and mixed with the background environment carrying
    N_B / (1 - eta) photons, the bookkeeping that leaves exactly N_B at the
    receiver. Must agree with :func:`hypothesis_pair` to 1e-12.
    """
    if scenario.eta >= 1.0:
        raise ValueError("channel composition requires eta < 1")
    n_b = scenario.background

    if scenario.kind == AMPLIFIED:
        source = make_coherent(scenario.n_s)
        if scenario.n_a > 0.0:
            source = apply_amplifier(source, gain=1.0 + 2.0 * scenario.n_a)
    elif scenario.kind == MASER:
        # any proper splitting ratio realizes the same output state; use the
        # scenario's own phi where it is a true splitter, 1/2 otherwise
        phi = scenario.phi if not scenario.energy_matched and scenario.phi < 1.0 else 0.5
        source = make_coherent(scenario.transmitted_signal / phi)
        n_t = scenario.fridge_occupation
        source = apply_beamsplitter(source, phi, make_thermal(n_t / (1.0 - phi)))
    else:
        source = make_coherent(scenario.transmitted_signal)

    environment = make_thermal(n_b / (1.0 - scenario.eta))
    rho1 = apply_beamsplitter(source, scenario.eta, environment)
    return HypothesisPair(
        rho0=make_thermal(n_b),
        rho1=rho1,
        mu=scenario.received_signal,
        n_added=scenario.eta * scenario.n_added,
    )


def _panel(n_a: float, eta: float, copies: int) -> list[Scenario]:
    """Amp + maser ladder + optical scenario set for one figure panel.

    N_B is pinned to the caption value 6250 and the 300 K attenuation stage
    shares the target background (n_T = N_B), which makes the 300 K maser
    coincide with the amplified source when N_A = N_B. Colder stages use
    Planck occupations at the default 1 GHz.
    """
    common = dict(n_s=1e-2, n_a=n_a, eta=eta, copies=copies, n_b=FIGURE_BACKGROUND)
    scenarios = [build_scenario(AMPLIFIED, label="amp", **common)]
    for temp in MASER_TEMPERATURES_K:
        n_t = FIGURE_BACKGROUND if temp == 300.0 else None
        scenarios.append(
            build_scenario(MASER, label=f"mas_{temp:g}K", t_fridge=temp, n_t=n_t, **common)
        )
    scenarios.append(build_scenario(OPTICAL, label="optical", **common))
    return scenarios


# figure id -> (n_a, eta, copies) of its panel
_FIGURE_PANELS = {
    "fig2_upper": (6250.0, 1e-2, 1),
    "fig2_lower": (5e8, 1e-7, 1),
    "fig3_upper": (6250.0, 1e-2, 100_000),
    "fig3_lower": (5e8, 1e-7, 100_000),
    "fig4_upper": (6250.0, 1e-5, 100_000),
    "fig4_mid": (6250.0, 1e-8, 1_000),
    "fig4_lower": (5e8, 1e-8, 1_000),
}
FIGURE_IDS = tuple(_FIGURE_PANELS)


def figure_grid(figure_id: str) -> list[Scenario]:
    """Scenario sets behind the published benchmark figures."""
    if figure_id not in _FIGURE_PANELS:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    return _panel(*_FIGURE_PANELS[figure_id])
