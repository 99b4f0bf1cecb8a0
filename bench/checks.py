"""Checkers: each compares one operation's output with the reference or with
a property the method must have, and returns the list of problems found
(empty when the output is correct).

Tolerances and why they were chosen are listed in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

import reference as ref
from inputs import FIGURE_IDS, Params

# relative tolerances
QBB_MEAN_EXPONENT_RTOL = 1e-6
OVERLAP_ROUNDING_RTOL = 1e-12
DV_RTOL = 1e-8
PMD_RTOL = 1e-9
FIG2_SLOPE_RTOL = 1e-6
KNOWN_GAP_RTOL = 1e-6
PAIR_RTOL = 1e-12
# probabilities below this are compared only for being tiny as well
PMD_FLOOR = 1e-300
# allowed increase of P_md between neighbouring grid points: 4 ulp of the value
MONOTONE_SLACK = 4 * np.finfo(float).eps

EPSILON_GRID = (1e-4, 0.9, 60)
PFA_GRID = (1e-6, 1.0 - 1e-3, 200)
M_GRID = (1.0, 1e8, 81)

FIGURE_N_S = 1e-2
FIGURE_N_B = 6250.0
FIGURE_FREQ_HZ = 1.0e9
MASER_TEMPERATURES_K = (300.0, 77.0, 10.0, 4.0)
# figure id -> (N_A, eta, copies), as in the paper's figure captions
FIGURE_PANELS = {
    "fig2_upper": (6250.0, 1e-2, 1),
    "fig2_lower": (5e8, 1e-7, 1),
    "fig3_upper": (6250.0, 1e-2, 100_000),
    "fig3_lower": (5e8, 1e-7, 100_000),
    "fig4_upper": (6250.0, 1e-5, 100_000),
    "fig4_mid": (6250.0, 1e-8, 1_000),
    "fig4_lower": (5e8, 1e-8, 1_000),
}
assert set(FIGURE_PANELS) == set(FIGURE_IDS)

KNOWN_GAPS = ("limit_high_background_2e-5", "fig2_upper_mas10K_within_1pct_of_optical")
# the expensive checks, which must stay in the suite and pass
REQUIRED_PASSES = (
    "qcb_exponent_closed_vs_oracle",
    "qre_closed_vs_oracle",
    "homodyne_monte_carlo_4sigma",
    "structural_invariants",
)


def grid(spec: tuple[float, float, int]) -> np.ndarray:
    return np.geomspace(*spec)


def m_grid() -> list[int]:
    copies = np.unique(np.round(grid(M_GRID)).astype(int))
    return [int(m) for m in copies if m >= 1]


def _pmd_problems(what: str, p_fa, p_md, grid_values: np.ndarray, ref_pmd: np.ndarray) -> list[str]:
    """Grid, range, monotonicity and agreement of a P_md column with its reference."""
    p_fa = np.asarray(p_fa, dtype=float)
    p_md = np.asarray(p_md, dtype=float)
    if p_fa.shape != grid_values.shape or not np.array_equal(p_fa, grid_values):
        return [f"{what}: false-alarm grid differs from the default grid"]
    problems = []
    if not (np.all(p_md >= 0.0) and np.all(p_md <= 1.0)):
        problems.append(f"{what}: P_md outside [0, 1]")
    if np.any(np.diff(p_md) > MONOTONE_SLACK * p_md[:-1]):
        problems.append(f"{what}: P_md increases with P_fa")
    deep = ref_pmd >= PMD_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(deep, np.abs(p_md - ref_pmd) / np.where(deep, ref_pmd, 1.0), 0.0)
    if np.any(err > PMD_RTOL):
        i = int(np.argmax(err))
        problems.append(f"{what}: P_md rel. error {err[i]:.3e} at P_fa={p_fa[i]:.6g} (ref {ref_pmd[i]:.6e})")
    if np.any(~deep & (p_md > 10.0 * PMD_FLOOR)):
        problems.append(f"{what}: P_md not tiny where the reference is below {PMD_FLOOR:g}")
    return problems


def homodyne_reference(pair: ref.Pair, copies: int, p_fa: np.ndarray) -> np.ndarray:
    lambda0, lambda1 = ref.homodyne_variances(pair)
    return np.array([float(ref.pmd_homodyne(pair.mu, lambda0, lambda1, copies, float(p))) for p in p_fa])


def second_order_reference(d, v, copies: int, eps: np.ndarray) -> np.ndarray:
    return np.array([float(ref.pmd_second_order(d, v, copies, float(e))) for e in eps])


# ---------------------------------------------------------------- figure_cli


@dataclass
class FigureReference:
    """Reference values of one figure panel, per scenario label."""

    pairs: dict[str, ref.Pair]
    mean_exponents: dict[str, float] = field(default_factory=dict)
    pmd: dict[str, np.ndarray] = field(default_factory=dict)


def figure_pairs(figure: str) -> dict[str, ref.Pair]:
    n_a, eta, _ = FIGURE_PANELS[figure]
    common = dict(n_s=FIGURE_N_S, eta=eta, n_b=FIGURE_N_B, n_a=n_a, energy_matched=True)
    pairs = {"amp": ref.pair_from_params("amplified", **common)}
    for temp in MASER_TEMPERATURES_K:
        # the 300 K stage shares the target background
        n_t = FIGURE_N_B if temp == 300.0 else ref.planck(FIGURE_FREQ_HZ, temp)
        pairs[f"mas_{temp:g}K"] = ref.pair_from_params("maser", n_t=n_t, **common)
    pairs["optical"] = ref.pair_from_params("optical", **common)
    return pairs


def figure_reference(figure: str) -> FigureReference:
    copies = FIGURE_PANELS[figure][2]
    fr = FigureReference(figure_pairs(figure))
    for label, pair in fr.pairs.items():
        if figure.startswith("fig2"):
            fr.mean_exponents[label] = float(ref.mean_exponent(pair.n0, pair.n_add, pair.mu))
        elif figure.startswith("fig3"):
            d, v = ref.rel_entropy(pair.n0, pair.n_add, pair.mu)
            fr.pmd[label] = second_order_reference(d, v, copies, grid(EPSILON_GRID))
        else:
            fr.pmd[label] = homodyne_reference(pair, copies, grid(PFA_GRID))
    return fr


def _parse_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def check_figure(figure: str, csv_data: bytes, manifest_text: str, fr: FigureReference) -> list[str]:
    """Rows, manifest hash and the values of one `qibench figure` output."""
    header, rows = _parse_csv(csv_data)
    problems = []
    try:
        manifest = json.loads(manifest_text)
        entry = manifest["files"][f"{figure}.csv"]
        if entry["sha256"] != hashlib.sha256(csv_data).hexdigest():
            problems.append(f"{figure}: manifest sha256 differs from the CSV's hash")
        if entry["rows"] != len(rows):
            problems.append(f"{figure}: manifest row count {entry['rows']} != {len(rows)}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{figure}: unreadable manifest ({exc!r})")

    is_fig2 = figure.startswith("fig2")
    x_name, y_name = ("m", "p_err") if is_fig2 else ("p_fa", "p_md")
    missing = [c for c in (x_name, y_name, "scenario") if c not in header]
    if missing:
        return problems + [f"{figure}: missing column(s) {missing}"]
    ix, iy, iscen = header.index(x_name), header.index(y_name), header.index("scenario")
    by_label: dict[str, tuple[list[float], list[float]]] = {}
    for row in rows:
        if len(row) != len(header):
            return problems + [f"{figure}: row with {len(row)} fields under a {len(header)}-column header"]
        xs, ys = by_label.setdefault(row[iscen], ([], []))
        xs.append(float(row[ix]))
        ys.append(float(row[iy]))
    if set(by_label) != set(fr.pairs):
        return problems + [f"{figure}: scenarios {sorted(by_label)} != {sorted(fr.pairs)}"]

    expected_x = m_grid() if is_fig2 else list(grid(EPSILON_GRID if figure.startswith("fig3") else PFA_GRID))
    expected_rows = len(fr.pairs) * len(expected_x)
    if len(rows) != expected_rows:
        problems.append(f"{figure}: {len(rows)} rows, expected {expected_rows}")
    for label, (xs, ys) in by_label.items():
        if is_fig2:
            if xs != [float(m) for m in expected_x]:
                problems.append(f"{figure}/{label}: M grid differs from the default grid")
                continue
            problems += _fig2_slope(f"{figure}/{label}", xs, ys, fr.mean_exponents[label])
        else:
            problems += _pmd_problems(f"{figure}/{label}", xs, ys, np.asarray(expected_x), fr.pmd[label])
    return problems


def _fig2_slope(what: str, ms: list[float], p_err: list[float], exponent: float) -> list[str]:
    """-d ln p_err / dM over the widest span of M with p_err >= 1e-300."""
    usable = [(m, p) for m, p in zip(ms, p_err) if p >= PMD_FLOOR]
    if len(usable) < 2:
        return [f"{what}: fewer than two rows with p_err >= {PMD_FLOOR:g}"]
    (m0, p0), (m1, p1) = usable[0], usable[-1]
    slope = (math.log(p0) - math.log(p1)) / (m1 - m0)
    err = abs(slope - exponent) / exponent
    if err > FIG2_SLOPE_RTOL:
        return [f"{what}: ln p_err slope {slope:.10e} vs reference exponent {exponent:.10e} (rel {err:.2e})"]
    return []


# -------------------------------------------------------------- oracle_sweep


def oracle_reference(p: Params) -> dict:
    pair = ref.pair_from_params(p.kind, p.n_s, p.eta, p.n_b, p.n_a, p.n_t, p.phi)
    return {
        "mu": float(pair.mu),
        "n_add": float(pair.n_add),
        "mean_exponent": float(ref.mean_exponent(pair.n0, pair.n_add, pair.mu)),
    }


def _pair_problems(pair, r: dict) -> list[str]:
    problems = []
    if abs(pair.mu - r["mu"]) > PAIR_RTOL * r["mu"]:
        problems.append(f"pair mu {pair.mu!r} vs reference {r['mu']!r}")
    if abs(pair.n_added - r["n_add"]) > PAIR_RTOL * r["n_add"]:
        problems.append(f"pair n_add {pair.n_added!r} vs reference {r['n_add']!r}")
    return problems


def check_oracle(pair, bb, cb, r: dict) -> list[str]:
    """qbb / qcb results of one scenario."""
    problems = _pair_problems(pair, r)
    err = abs(bb.mean_exponent - r["mean_exponent"]) / r["mean_exponent"]
    if err > QBB_MEAN_EXPONENT_RTOL:
        problems.append(f"qbb mean_exponent rel. error {err:.3e}")
    if not 0.0 < cb.s_star < 1.0:
        problems.append(f"qcb s* = {cb.s_star!r} outside (0, 1)")
    if cb.per_mode_overlap > bb.per_mode_overlap * (1.0 + OVERLAP_ROUNDING_RTOL):
        problems.append(f"qcb overlap {cb.per_mode_overlap!r} above qbb overlap {bb.per_mode_overlap!r}")
    for name, res in (("qbb", bb), ("qcb", cb)):
        if not 0.0 <= res.value <= 0.5:
            problems.append(f"{name} bound value {res.value!r} outside [0, 1/2]")
    return problems


# ----------------------------------------------------------------- roc_sweep

RELENT_FAULT = "relent"


def roc_reference(p: Params) -> dict:
    pair = ref.pair_from_params(p.kind, p.n_s, p.eta, p.n_b, p.n_a, p.n_t, p.phi)
    d, v = ref.rel_entropy(pair.n0, pair.n_add, pair.mu)
    return {
        "mu": float(pair.mu),
        "n_add": float(pair.n_add),
        "d": d,
        "v": v,
        "homodyne": homodyne_reference(pair, p.copies, grid(PFA_GRID)),
        "second_order": {},
    }


def check_roc(pair, rel, roc, hom, copies: int, r: dict) -> list[str]:
    """relative_entropy, roc_from_rates and roc_homodyne results of one scenario.

    A D or V miss is reported as RELENT_FAULT, the fault this workload
    counts as a failed operation; every other problem makes the run incorrect.
    """
    problems = _pair_problems(pair, r)
    if ref.rel_err(rel.d, r["d"]) > DV_RTOL or ref.rel_err(rel.v, r["v"]) > DV_RTOL:
        problems.append(RELENT_FAULT)
    # the second-order ROC is checked against the reference formula at the
    # program's own (D, V), so it tests roc_from_rates alone
    key = (rel.d, rel.v)
    so = r["second_order"].get(key)
    if so is None:
        so = r["second_order"][key] = second_order_reference(rel.d, rel.v, copies, grid(EPSILON_GRID))
    problems += _pmd_problems("roc_from_rates", roc.p_fa, roc.p_md, grid(EPSILON_GRID), so)
    problems += _pmd_problems("roc_homodyne", hom.p_fa, hom.p_md, grid(PFA_GRID), r["homodyne"])
    return problems


# ------------------------------------------------------------ validate_suite


def known_gap_references() -> dict[str, float]:
    """Exact values of the two KNOWN-GAP metrics.

    High background: 1 - 4 N_B (sqrt(N_B+1) - sqrt(N_B))^2, whose leading
    term is 1/(2 N_B + 1). Maser 10 K: relative gap between the s = 1/2 mean
    exponents of the fig2_upper maser-10K and optical scenarios.
    """
    with mp.workdps(ref.DPS):
        n = mp.mpf(FIGURE_N_B)
        opt = (mp.sqrt(n + 1) - mp.sqrt(n)) ** 2
        high_background = 1 - opt / (1 / (4 * n))
    pairs = figure_pairs("fig2_upper")
    e_mas = ref.mean_exponent(pairs["mas_10K"].n0, pairs["mas_10K"].n_add, pairs["mas_10K"].mu)
    e_opt = ref.mean_exponent(pairs["optical"].n0, pairs["optical"].n_add, pairs["optical"].mu)
    return {
        KNOWN_GAPS[0]: float(high_background),
        KNOWN_GAPS[1]: float(abs(e_opt - e_mas) / max(e_opt, e_mas)),
    }


def check_validate(exit_code: int, stdout: str, gaps: dict[str, float]) -> list[str]:
    """Exit code and PASS / KNOWN-GAP lines of `qibench validate`."""
    problems = [] if exit_code == 0 else [f"validate exit code {exit_code}"]
    seen: dict[str, str] = {}
    for line in stdout.splitlines():
        if not line.strip() or line.startswith("wall_time_s="):
            continue
        status, _, rest = line.partition(" ")
        name = rest.strip().split(":", 1)[0]
        seen[name] = status
        if status == "PASS":
            continue
        if status == "KNOWN-GAP" and name in gaps:
            metric = float(rest.split("metric=", 1)[1].split()[0])
            err = abs(metric - gaps[name]) / gaps[name]
            if err > KNOWN_GAP_RTOL:
                problems.append(f"{name}: metric {metric:.6e} vs reference {gaps[name]:.6e}")
            continue
        problems.append(f"unexpected line: {line}")
    for name in KNOWN_GAPS:
        if seen.get(name) != "KNOWN-GAP":
            problems.append(f"{name}: not reported as KNOWN-GAP")
    for name in REQUIRED_PASSES:
        if seen.get(name) != "PASS":
            problems.append(f"{name}: not reported as PASS")
    return problems
