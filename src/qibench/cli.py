"""qibench command line: scenario files in, bounds and ROC tables out.

Exit codes: 0 success, 2 input validation failure, 3 numeric failure.
All CSV floats are printed with 17 significant digits and LF line endings,
and figure outputs are byte-reproducible for a given version and inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .chernoff import qbb, qcb
from .closed_forms import _printed_value, closed_bound, closed_qre
from .gaussian import NumericError
from .homodyne import DEFAULT_PFA_GRID, channel_from_scenario, roc_homodyne
from .protocols import FIGURE_IDS, Scenario, figure_grid, hypothesis_pair
from .relent import DEFAULT_EPSILON_GRID, roc_from_rates

DEFAULT_SEED = 20250808
DEFAULT_COPIES_SWEEP = np.geomspace(1.0, 1e8, 81)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        return Scenario.from_json(text)
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise ValueError(f"malformed scenario file {path}: {exc}") from exc


def _report(scenario: Scenario, results: list[dict], report_warnings: list[str], start: float) -> None:
    """Print the JSON report of one `bound` or `roc` run."""
    payload = {
        "tool_version": __version__,
        "scenario": scenario.to_dict(),
        "results": results,
        "warnings": report_warnings,
        "wall_time_s": time.perf_counter() - start,
    }
    print(json.dumps(payload, indent=2, sort_keys=False))


def _closed_row(scenario: Scenario) -> dict:
    bound = closed_bound(scenario)
    return {
        "scenario": scenario.label,
        "method": "qcb_closed",
        "value": bound.value,
        "prefactor": bound.prefactor,
        "exponent_per_mode": bound.mean_exponent,
        "s": bound.s_star,
        "copies": bound.copies,
    }


def _oracle_row(scenario: Scenario) -> tuple[dict, list[str]]:
    pair = hypothesis_pair(scenario)
    minimized = qcb(pair.rho0, pair.rho1, scenario.copies)
    bhatta = qbb(pair.rho0, pair.rho1, scenario.copies)
    notes = []
    if minimized.clamped or bhatta.clamped:
        notes.append("pure-mode symplectic eigenvalue clamped to 1/2 + 1e-12 in the oracle")
    row = {
        "scenario": scenario.label,
        "method": "qcb_oracle",
        "value": minimized.value,
        "prefactor": bhatta.prefactor,
        "exponent_per_mode": bhatta.mean_exponent,
        "s": bhatta.s_star,
        "s_star": minimized.s_star,
        "total_exponent_per_mode": minimized.per_mode_exponent,
        "evaluations": minimized.evaluations,
        "s_bracket": minimized.s_bracket,
        "stop": minimized.stop,
        "copies": minimized.copies,
    }
    return row, notes


def cmd_bound(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    scenario = _load_scenario(args.scenario)
    rows = []
    report_warnings: list[str] = []
    if args.method in ("closed", "both"):
        rows.append(_closed_row(scenario))
    if args.method in ("oracle", "both"):
        row, notes = _oracle_row(scenario)
        rows.append(row)
        report_warnings.extend(notes)
    if args.method == "both":
        # the deviation and threshold of validate's qcb_exponent_closed_vs_oracle
        from .validation import QCB_EXPONENT_TOL, _rel_dev

        dev = _rel_dev(rows[0]["exponent_per_mode"], rows[1]["exponent_per_mode"])
        rows.append({"scenario": scenario.label, "method": "agreement", "exponent_rel_dev": dev})
        if dev > QCB_EXPONENT_TOL:
            report_warnings.append(f"closed/oracle exponent deviation {dev:.3e} exceeds {QCB_EXPONENT_TOL:g}")
    _report(scenario, rows, report_warnings, start)
    return 0


def _grid(args: argparse.Namespace, default: np.ndarray) -> np.ndarray:
    """Geometric grid spanning ``default`` unless overridden by --grid-min/--grid-max/--grid-points."""
    lo = args.grid_min if args.grid_min is not None else float(default[0])
    hi = args.grid_max if args.grid_max is not None else float(default[-1])
    points = args.grid_points if args.grid_points is not None else len(default)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got min={lo} max={hi}")
    if not 0 < lo < hi or points < 2:
        raise ValueError("grid must satisfy 0 < min < max with at least 2 points")
    return np.geomspace(lo, hi, points)


# detector -> (default grid, its key in a figure manifest)
_ROC_GRIDS = {
    "optimal": (DEFAULT_EPSILON_GRID, "epsilon_grid"),
    "homodyne": (DEFAULT_PFA_GRID, "p_fa_grid"),
}


def _roc_rows(scenario: Scenario, detector: str, grid: np.ndarray) -> tuple[list[tuple], dict]:
    if detector == "homodyne":
        curve = roc_homodyne(channel_from_scenario(scenario), grid)
        method = "homodyne"
    else:
        d, v = closed_qre(scenario)
        curve = roc_from_rates(d, v, scenario.copies, grid)
        method = "qre_closed"
    rows = [
        (float(p_fa), float(p_md), scenario.label, method)
        for p_fa, p_md in zip(curve.p_fa, curve.p_md)
    ]
    return rows, dict(curve.meta)


def _write_csv(path: Path, header: str, rows: list[tuple]) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    data = "\n".join(lines) + "\n"
    path.write_text(data, encoding="utf-8", newline="\n")
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def cmd_roc(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    scenario = _load_scenario(args.scenario)
    grid = _grid(args, _ROC_GRIDS[args.detector][0])
    rows, meta = _roc_rows(scenario, args.detector, grid)
    report_warnings = []
    if meta.get("clamped_points"):
        report_warnings.append(
            f"{meta['clamped_points']} grid point(s) clamped to P_md = 1 (second-order form exceeded 1)"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"roc_{scenario.label}_{args.detector}.csv"
    digest = _write_csv(csv_path, "p_fa,p_md,scenario,method", rows)
    result = {
        "scenario": scenario.label,
        "method": rows[0][3],
        "csv": str(csv_path),
        "sha256": digest,
        "points": len(rows),
        "meta": meta,
    }
    _report(scenario, [result], report_warnings, start)
    return 0


def _figure_payload(
    figure_id: str, scenarios: list[Scenario], args: argparse.Namespace
) -> tuple[str, list[tuple], dict]:
    if figure_id.startswith("fig2"):
        sweep = _grid(args, DEFAULT_COPIES_SWEEP)
        if sweep[-1] >= 2.0**63:
            raise ValueError(f"copies grid maximum {sweep[-1]:g} exceeds the int64 range")
        copies = np.unique(np.round(sweep).astype(int))
        copies = copies[copies >= 1]
        rows = []
        for scenario in scenarios:
            base = closed_bound(scenario)
            values = _printed_value(base.prefactor, base.mean_exponent, copies)
            rows.extend((m, value, scenario.label, "qcb_closed") for m, value in zip(copies.tolist(), values.tolist()))
        header = "m,p_err,scenario,method"
        params = {"m_grid": [int(m) for m in copies]}
    else:
        detector = "optimal" if figure_id.startswith("fig3") else "homodyne"
        default, key = _ROC_GRIDS[detector]
        grid = _grid(args, default)
        rows = []
        for scenario in scenarios:
            rows.extend(_roc_rows(scenario, detector, grid)[0])
        header = "p_fa,p_md,scenario,method"
        params = {key: {"min": float(grid[0]), "max": float(grid[-1]), "points": len(grid)}}
    return header, rows, params


def cmd_figure(args: argparse.Namespace) -> int:
    figure_id = args.figure
    # both raise ValueError (unknown id, bad grid) before anything is written
    scenarios = figure_grid(figure_id)
    header, rows, params = _figure_payload(figure_id, scenarios, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.dump_scenarios:
        for scenario in scenarios:
            (out_dir / f"{figure_id}_{scenario.label}.json").write_text(
                scenario.to_json(), encoding="utf-8", newline="\n"
            )

    csv_path = out_dir / f"{figure_id}.csv"
    digest = _write_csv(csv_path, header, rows)
    manifest = {
        "figure": figure_id,
        "tool_version": __version__,
        "parameters": params,
        "scenarios": [s.to_dict() for s in scenarios],
        "files": {csv_path.name: {"sha256": digest, "rows": len(rows)}},
    }
    manifest_path = out_dir / f"{figure_id}_manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    print(str(csv_path))
    print(str(manifest_path))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .validation import run_all

    results, elapsed = run_all(seed=args.seed, quick=args.quick)
    for check in results:
        print(check.line())
    print(f"wall_time_s={elapsed:.3f}")
    hard_failures = [c for c in results if not c.passed and not c.expected_gap]
    if hard_failures:
        print(f"{len(hard_failures)} check(s) failed", file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qibench",
        description="Classical-benchmark bounds and ROC curves for microwave quantum illumination.",
    )
    parser.add_argument("--version", action="version", version=f"qibench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid_options = argparse.ArgumentParser(add_help=False)
    grid_options.add_argument("--grid-min", type=float, default=None)
    grid_options.add_argument("--grid-max", type=float, default=None)
    grid_options.add_argument("--grid-points", type=int, default=None)
    grid_options.add_argument("--out", default="out", help="output directory")

    p_bound = sub.add_parser("bound", help="symmetric error bound for one scenario")
    p_bound.add_argument("--scenario", required=True, help="scenario JSON file")
    p_bound.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    p_bound.set_defaults(func=cmd_bound)

    p_roc = sub.add_parser("roc", parents=[grid_options], help="ROC curve for one scenario")
    p_roc.add_argument("--scenario", required=True, help="scenario JSON file")
    p_roc.add_argument("--detector", choices=tuple(_ROC_GRIDS), default="optimal")
    p_roc.set_defaults(func=cmd_roc)

    p_fig = sub.add_parser(
        "figure", parents=[grid_options], help="regenerate the data behind one published figure"
    )
    p_fig.add_argument("figure", help=f"one of {', '.join(FIGURE_IDS)}")
    p_fig.add_argument("--dump-scenarios", action="store_true", help="also write per-scenario JSON files")
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="run the oracle-equivalence and invariant suites")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_val.add_argument("--quick", action="store_true", help="reduced grids for a fast smoke run")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            return args.func(args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
