import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qibench import closed_forms
from qibench.cli import main
from qibench.protocols import build_scenario, figure_grid


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(scenario.to_json(), encoding="utf-8")
    return str(path)


@pytest.fixture
def amp_scenario(tmp_path):
    scenario = next(s for s in figure_grid("fig2_upper") if s.label == "amp")
    return write_scenario(tmp_path, scenario)


def test_bound_both_methods_agree(amp_scenario, capsys):
    assert main(["bound", "--scenario", amp_scenario, "--method", "both"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool_version"]
    methods = {row["method"] for row in report["results"]}
    assert {"qcb_closed", "qcb_oracle", "agreement"} <= methods
    agreement = next(r for r in report["results"] if r["method"] == "agreement")
    assert agreement["exponent_rel_dev"] <= 1e-6
    assert report["warnings"] == []
    # the s-search reports how it ended
    oracle = next(r for r in report["results"] if r["method"] == "qcb_oracle")
    assert oracle["evaluations"] > 1
    assert 0.0 < oracle["s_bracket"] < 1e-6
    assert oracle["stop"] in ("bracket", "flat", "half", "indistinguishable")


def test_bound_closed_value_is_the_fig2_row(tmp_path, capsys):
    # the closed bound and the figure share one expression: every fig2 row,
    # bit for bit, over the default M grid
    for figure_id in ("fig2_upper", "fig2_lower"):
        assert main(["figure", figure_id, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in (tmp_path / f"{figure_id}.csv").read_text().splitlines()[1:]]
        scenarios = {s.label: s for s in figure_grid(figure_id)}
        assert len(scenarios) == 6 and len(rows) == 6 * 78
        for m, p_err, label, _ in rows:
            path = write_scenario(tmp_path, dataclasses.replace(scenarios[label], copies=int(m)))
            assert main(["bound", "--scenario", path, "--method", "closed"]) == 0
            value = json.loads(capsys.readouterr().out)["results"][0]["value"]
            assert value == float(p_err), (figure_id, label, m)


def test_bound_both_warns_on_a_nan_exponent(amp_scenario, capsys, monkeypatch):
    # a NaN compares false with the threshold, so it must not pass silently
    real = closed_forms.qcb_coherent
    monkeypatch.setattr(
        closed_forms, "qcb_coherent", lambda *args: dataclasses.replace(real(*args), mean_exponent=math.nan)
    )
    assert main(["bound", "--scenario", amp_scenario, "--method", "both"]) == 0
    report = json.loads(capsys.readouterr().out)
    agreement = next(r for r in report["results"] if r["method"] == "agreement")
    assert agreement["exponent_rel_dev"] == math.inf
    assert report["warnings"] == ["closed/oracle exponent deviation inf exceeds 1e-06"]


def test_bound_zero_reflectivity(tmp_path, capsys):
    scenario = build_scenario(
        "optical", label="null", n_s=1e-2, n_a=0.0, eta=0.0, copies=1, n_b=6250.0
    )
    assert main(["bound", "--scenario", write_scenario(tmp_path, scenario), "--method", "closed"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["value"] == 0.5


def test_bound_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,', encoding="utf-8")
    assert main(["bound", "--scenario", str(path)]) == 2
    assert main(["bound", "--scenario", str(tmp_path / "missing.json")]) == 2


def test_roc_csv_format(amp_scenario, tmp_path, capsys):
    out = tmp_path / "rocs"
    assert (
        main(
            [
                "roc",
                "--scenario",
                amp_scenario,
                "--detector",
                "homodyne",
                "--grid-points",
                "25",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    csv_path = report["results"][0]["csv"]
    raw = Path(csv_path).read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "p_fa,p_md,scenario,method"
    assert len(lines) == 26
    p_fa = [float(line.split(",")[0]) for line in lines[1:]]
    assert p_fa == sorted(p_fa)
    assert all(line.endswith(",amp,homodyne") for line in lines[1:])


def test_roc_optimal_detector(amp_scenario, tmp_path, capsys):
    assert (
        main(
            [
                "roc",
                "--scenario",
                amp_scenario,
                "--grid-points",
                "15",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    row = report["results"][0]
    assert row["method"] == "qre_closed"
    assert row["meta"]["d"] > 0


def test_figure_unknown_id(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figure", "fig9_upper", "--out", str(out)]) == 2
    assert "unknown figure id" in capsys.readouterr().err
    assert not out.exists()


def test_figure_outputs_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "fig3_upper", "--out", str(out1)]) == 0
    assert main(["figure", "fig3_upper", "--out", str(out2)]) == 0
    capsys.readouterr()
    for name in ("fig3_upper.csv", "fig3_upper_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "fig3_upper_manifest.json").read_text())
    assert manifest["figure"] == "fig3_upper"
    assert "fig3_upper.csv" in manifest["files"]


def test_figure_fig2_sweep(tmp_path, capsys):
    out = tmp_path / "fig2"
    assert main(["figure", "fig2_upper", "--grid-points", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "fig2_upper.csv").read_text().splitlines()
    assert lines[0] == "m,p_err,scenario,method"
    first = lines[1].split(",")
    assert first[0] == "1" and first[3] == "qcb_closed"
    # six scenarios per panel
    labels = {line.split(",")[2] for line in lines[1:]}
    assert labels == {"amp", "mas_300K", "mas_77K", "mas_10K", "mas_4K", "optical"}


def test_figure_dump_scenarios(tmp_path, capsys):
    out = tmp_path / "dump"
    assert main(["figure", "fig4_mid", "--out", str(out), "--dump-scenarios"]) == 0
    capsys.readouterr()
    assert (out / "fig4_mid_amp.json").exists()
    assert (out / "fig4_mid_optical.json").exists()


def test_validate_quick(capsys):
    assert main(["validate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "qcb_exponent_closed_vs_oracle" in out
    assert "KNOWN-GAP" in out
    assert not any(line.startswith("FAIL") for line in out.splitlines())


def test_bound_oracle_surfaces_pure_state_clamp(tmp_path, capsys):
    # a vacuum background makes rho0 pure; the oracle must flag the
    # symplectic-eigenvalue regularization in the report warnings
    scenario = build_scenario(
        "optical", label="pure_bg", n_s=1.0, n_a=0.0, eta=0.5, copies=1, n_b=0.0
    )
    assert main(["bound", "--scenario", write_scenario(tmp_path, scenario), "--method", "oracle"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert any("clamped" in w for w in report["warnings"])


def test_roc_optimal_surfaces_clamped_points(amp_scenario, tmp_path, capsys):
    # the fig2-upper amp scenario at M = 1e5 saturates P_md = 1 at small eps
    assert (
        main(
            ["roc", "--scenario", amp_scenario, "--grid-points", "20", "--out", str(tmp_path / "c")]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["meta"]["clamped_points"] > 0
    assert any("clamped" in w for w in report["warnings"])


def write_edited(tmp_path, label, **fields):
    """Scenario file of a fig2-upper scenario with raw JSON fields overwritten."""
    doc = next(s for s in figure_grid("fig2_upper") if s.label == label).to_dict()
    doc.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_bound_rejects_negative_fridge_occupation(tmp_path, capsys):
    path = write_edited(tmp_path, "mas_300K", n_t=-50.0)
    assert main(["bound", "--scenario", path, "--method", "oracle"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_bound_rejects_nan_background(tmp_path, capsys):
    path = write_edited(tmp_path, "amp", n_b=float("nan"))
    assert main(["bound", "--scenario", path, "--method", "closed"]) == 2
    assert "n_b must be finite" in capsys.readouterr().err


def test_bound_rejects_fractional_copies(tmp_path, capsys):
    path = write_edited(tmp_path, "amp", copies=2.5)
    for method in ("closed", "oracle"):
        assert main(["bound", "--scenario", path, "--method", method]) == 2
        assert "whole number" in capsys.readouterr().err


def test_figure_homodyne_subnormal_grid(tmp_path, capsys):
    assert main(["figure", "fig4_upper", "--grid-min", "1e-320", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("bound", ["--grid-min", "--grid-max"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_figure_rejects_non_finite_grid(bound, value, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figure", "fig2_upper", bound, value, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_figure_rejects_copies_beyond_int64(tmp_path, capsys):
    assert main(["figure", "fig2_upper", "--grid-max", "1e300", "--out", str(tmp_path)]) == 2
    assert "int64" in capsys.readouterr().err


@pytest.mark.parametrize(
    "label", ["a/b", "x/../../y", "a\\b", "a,b", "a\nb", "a\rb", "a\0b", ".", "..", "", 5, None]
)
def test_roc_rejects_unsafe_labels(label, tmp_path, capsys):
    doc = next(s for s in figure_grid("fig2_upper") if s.label == "amp").to_dict()
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(dict(doc, label=label)), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["roc", "--scenario", str(path), "--out", str(out)]) == 2
    assert "label" in capsys.readouterr().err
    assert not out.exists()


def source_env():
    """The environment of a fresh interpreter that imports qibench from this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


IMPORT_SURFACE = """
import importlib.util, json, sys
HEAVY = ("scipy.linalg._flapack", "scipy.special._ufuncs", "mpmath.libmp")
seen = {}
def deferred():
    # any scipy or mpmath module at all, and any module still awaiting a lazy import
    return sorted(
        name for name, module in list(sys.modules.items())
        if name.split(".")[0] in ("scipy", "mpmath") or isinstance(module, importlib.util._LazyModule)
    )
import qibench.cli
seen["import"] = [m for m in HEAVY if m in sys.modules]
seen["import_any"] = deferred()
qibench.cli.main(["figure", "fig2_upper", "--out", sys.argv[1]])
seen["fig2_upper"] = [m for m in HEAVY if m in sys.modules]
seen["fig2_upper_any"] = deferred()
qibench.cli.main(["figure", "fig4_upper", "--out", sys.argv[1]])
seen["fig4_upper"] = [m for m in HEAVY if m in sys.modules]
from qibench import figure_grid, hypothesis_pair, qbb
pair = hypothesis_pair(figure_grid("fig2_upper")[0])
qbb(pair.rho0, pair.rho1, 10)
seen["qbb"] = [m for m in HEAVY if m in sys.modules]
qibench.cli.main(["validate", "--quick"])
seen["validate"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(seen))
"""


def test_heavy_dependencies_load_on_first_use(tmp_path):
    # a fresh interpreter: this test process has long since imported scipy and mpmath
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SURFACE, str(tmp_path)],
        capture_output=True, text=True, env=source_env(), timeout=120, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["fig2_upper"] == []
    assert seen["import_any"] == []
    assert seen["fig2_upper_any"] == []
    # no stage loads scipy: erfc and its inverse are numpy ports
    assert seen["fig4_upper"] == []
    assert seen["qbb"] == []
    assert seen["validate"] == ["mpmath.libmp"]


SCIPY_BLOCKED = """
import contextlib, io, json, sys
if sys.argv[2] == "blocked":
    sys.modules["scipy"] = None  # every import of scipy or a submodule now raises ImportError
from qibench.cli import main
from qibench.protocols import figure_grid
out = sys.argv[1]
scenario = out + "/scenario.json"
with open(scenario, "w", encoding="utf-8") as f:
    f.write(figure_grid("fig4_upper")[0].to_json())
runs = {}
for name, argv in (
    ("fig3_upper", ["figure", "fig3_upper", "--out", out]),
    ("fig4_upper", ["figure", "fig4_upper", "--out", out]),
    ("roc_homodyne", ["roc", "--scenario", scenario, "--detector", "homodyne", "--out", out]),
    ("validate", ["validate", "--quick"]),
):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    runs[name] = [code, stdout.getvalue().replace(out, "<out>")]
runs["scipy_loaded"] = sorted(m for m, module in sys.modules.items() if m.split(".")[0] == "scipy" and module)
print(json.dumps(runs))
"""


def test_runs_without_scipy(tmp_path):
    # the package needs only numpy and mpmath: with scipy blocked every stage
    # exits 0 and writes what an unblocked run writes
    runs = {}
    for mode in ("blocked", "open"):
        out = tmp_path / mode
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_BLOCKED, str(out), mode],
            capture_output=True, text=True, env=source_env(), timeout=300, check=True,
        )
        runs[mode] = json.loads(proc.stdout.splitlines()[-1])
    blocked, unblocked = runs["blocked"], runs["open"]
    assert blocked.pop("scipy_loaded") == unblocked.pop("scipy_loaded") == []
    assert blocked.keys() == unblocked.keys()
    for name, (code, stdout) in blocked.items():
        assert code == 0, name
        # wall times differ from run to run; nothing else may
        assert re.sub(r".*wall_time_s.*", "", stdout) == re.sub(r".*wall_time_s.*", "", unblocked[name][1]), name
    files = sorted(p.name for p in (tmp_path / "blocked").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "open").iterdir())
    assert len(files) == 6  # two figures with manifests, the scenario and its ROC
    for name in files:
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "open" / name).read_bytes(), name
