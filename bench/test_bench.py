"""Tests of the benchmark itself: the reference against independent limits,
the checkers against perturbed outputs, the smoke mode and the traced counts.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402

# ---------------------------------------------------------------- reference


@pytest.mark.parametrize("n_b", [0.3, 1.0, 100.0, 6250.0])
def test_equal_states_have_zero_divergence(n_b):
    d, v = ref.rel_entropy(n_b, 0, 0)
    assert abs(d) < mp.mpf(10) ** (-40)
    assert abs(v) < mp.mpf(10) ** (-40)
    assert abs(ref.ln_overlap(n_b, 0, 0, 0.3)) < mp.mpf(10) ** (-40)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
def test_pure_coherent_overlap(s):
    # |<0|alpha>|^2 = exp(-|alpha|^2) for every s
    mu = mp.mpf("0.37")
    assert abs(ref.ln_overlap(0, 0, mu, s) + mu) < mp.mpf(10) ** (-40)


def _fock_pair(n0, n_add, mu, dim):
    """Truncated Fock-space density matrices of the thermal and the displaced thermal state."""
    n1 = n0 + n_add
    alpha = mp.sqrt(mu)

    def thermal(n):
        return mp.diag([n**k / (n + 1) ** (k + 1) for k in range(dim)])

    def disp(m, k):
        # <m|D(alpha)|k> for real alpha
        lo, hi = min(m, k), max(m, k)
        sign = 1 if m >= k else (-1) ** (hi - lo)
        return (
            sign
            * mp.sqrt(mp.factorial(lo) / mp.factorial(hi))
            * alpha ** (hi - lo)
            * mp.exp(-mu / 2)
            * mp.laguerre(lo, hi - lo, mu)
        )

    big = dim + 30
    d_full = mp.matrix(big, big)
    for m in range(big):
        for k in range(big):
            d_full[m, k] = disp(m, k)
    th1 = mp.diag([n1**k / (n1 + 1) ** (k + 1) for k in range(big)])
    rho1_full = d_full * th1 * d_full.T
    rho1 = mp.matrix(dim, dim)
    for m in range(dim):
        for k in range(dim):
            rho1[m, k] = rho1_full[m, k]
    return thermal(n0), rho1


def _matrix_fn(rho, fn):
    e, q = mp.eigsy(rho)
    return q * mp.diag([fn(x) for x in e]) * q.T


def test_reference_matches_truncated_fock_sums():
    with mp.workdps(30):
        n0, n_add, mu = mp.mpf("0.1"), mp.mpf("0.05"), mp.mpf("0.2")
        rho0, rho1 = _fock_pair(n0, n_add, mu, 28)
        ln0 = _matrix_fn(rho0, mp.log)
        ln1 = _matrix_fn(rho1, mp.log)
        diff = ln0 - ln1
        d = sum((rho0 * diff)[i, i] for i in range(rho0.rows))
        second = sum((rho0 * diff * diff)[i, i] for i in range(rho0.rows))
        d_ref, v_ref = ref.rel_entropy(n0, n_add, mu)
        assert abs(d - d_ref) < mp.mpf(10) ** (-20)
        assert abs(second - d**2 - v_ref) < mp.mpf(10) ** (-20)
        for s in (mp.mpf("0.3"), mp.mpf("0.5"), mp.mpf("0.8")):
            c = _matrix_fn(rho0, lambda x: x**s) * _matrix_fn(rho1, lambda x: x ** (1 - s))
            c_s = sum(c[i, i] for i in range(c.rows))
            assert abs(mp.log(c_s) - ref.ln_overlap(n0, n_add, mu, s)) < mp.mpf(10) ** (-20)


def test_homodyne_reference_limits():
    # no signal and no excess noise: P_md = 1 - P_fa
    with mp.workdps(ref.DPS):
        for p_fa in (1e-6, 0.3, 0.999):
            pmd = ref.pmd_homodyne(0, mp.mpf("100.5"), mp.mpf("100.5"), 1000, p_fa)
            assert abs(pmd - (1 - mp.mpf(p_fa))) < mp.mpf(10) ** (-40)
    # deep tail, against the normal CDF: P_md = Phi((x - M sqrt(2 mu)) / sqrt(M l1)),
    # x = sqrt(M l0) Phi^-1(1 - P_fa)
    with mp.workdps(ref.DPS):
        mu, lam, m, p_fa = mp.mpf(80), mp.mpf("6250.5"), 100_000, 1e-3
        x = mp.sqrt(m * lam) * mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p_fa))
        expected = mp.ncdf((x - m * mp.sqrt(2 * mu)) / mp.sqrt(m * lam))
        pmd = ref.pmd_homodyne(mu, lam, lam, m, p_fa)
        assert expected < mp.mpf(10) ** (-200)
        assert abs(pmd / expected - 1) < mp.mpf(10) ** (-30)


def test_second_order_reference_at_median():
    with mp.workdps(ref.DPS):
        d, v = mp.mpf("1e-3"), mp.mpf("2e-3")
        assert abs(ref.pmd_second_order(d, v, 1000, 0.5) - mp.exp(-1)) < mp.mpf(10) ** (-40)
    assert ref.pmd_second_order(d, v, 1, 1e-4) == 1


def test_known_gap_references():
    gaps = checks.known_gap_references()
    # the high-background gap is 1/(2 N_B + 1) to leading order
    assert abs(gaps[checks.KNOWN_GAPS[0]] - 1 / 12501) < 2e-9
    assert abs(gaps[checks.KNOWN_GAPS[1]] - 0.0334) < 1e-4


# ----------------------------------------------------------------- checkers


@pytest.fixture(scope="module")
def figure_outputs(tmp_path_factory):
    import qibench.cli

    out = tmp_path_factory.mktemp("figures")
    data = {}
    for figure in ("fig2_upper", "fig3_upper", "fig4_mid"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert qibench.cli.main(["figure", figure, "--out", str(out)]) == 0
        data[figure] = (
            (out / f"{figure}.csv").read_bytes(),
            (out / f"{figure}_manifest.json").read_text(encoding="utf-8"),
            checks.figure_reference(figure),
        )
    return data


def _rewrite(csv: bytes, fn) -> bytes:
    lines = csv.decode().split("\n")
    return "\n".join([lines[0]] + [fn(line) if line else line for line in lines[1:]]).encode()


def _with_hash(manifest: str, csv: bytes, figure: str) -> str:
    import hashlib
    import json

    doc = json.loads(manifest)
    doc["files"][f"{figure}.csv"]["sha256"] = hashlib.sha256(csv).hexdigest()
    return json.dumps(doc)


@pytest.mark.parametrize("figure", ["fig2_upper", "fig3_upper", "fig4_mid"])
def test_figure_checker_accepts_program_output(figure_outputs, figure):
    csv, manifest, fr = figure_outputs[figure]
    assert checks.check_figure(figure, csv, manifest, fr) == []


def test_figure_checker_finds_columns_by_name(figure_outputs):
    csv, manifest, fr = figure_outputs["fig4_mid"]
    extended = _rewrite(csv, lambda line: line + ",0.0")
    extended = extended.replace(b"p_fa,p_md,scenario,method", b"p_fa,p_md,scenario,method,ln_p", 1)
    assert checks.check_figure("fig4_mid", extended, _with_hash(manifest, extended, "fig4_mid"), fr) == []


@pytest.mark.parametrize("figure", ["fig3_upper", "fig4_mid"])
def test_figure_checker_rejects_scaled_pmd(figure_outputs, figure):
    csv, manifest, fr = figure_outputs[figure]

    def scale(line):
        cols = line.split(",")
        p = float(cols[1])
        if 1e-300 <= p < 0.5:
            cols[1] = f"{p * (1 + 1e-6):.17g}"
        return ",".join(cols)

    bad = _rewrite(csv, scale)
    problems = checks.check_figure(figure, bad, _with_hash(manifest, bad, figure), fr)
    assert any("rel. error" in p for p in problems)


def test_figure_checker_rejects_dropped_row(figure_outputs):
    csv, manifest, fr = figure_outputs["fig3_upper"]
    lines = csv.decode().split("\n")
    bad = "\n".join(lines[:5] + lines[6:]).encode()
    problems = checks.check_figure("fig3_upper", bad, _with_hash(manifest, bad, "fig3_upper"), fr)
    assert any("rows" in p for p in problems)
    # the untouched manifest no longer matches either
    assert checks.check_figure("fig3_upper", bad, manifest, fr)


def test_figure_checker_rejects_wrong_sha256(figure_outputs):
    csv, manifest, fr = figure_outputs["fig2_upper"]
    wrong = manifest.replace(manifest.split('"sha256": "')[1][:64], "0" * 64)
    problems = checks.check_figure("fig2_upper", csv, wrong, fr)
    assert any("sha256" in p for p in problems)


def test_figure_checker_rejects_wrong_slope(figure_outputs):
    csv, manifest, fr = figure_outputs["fig2_upper"]
    fr_bad = checks.FigureReference(fr.pairs, {k: v * (1 + 1e-5) for k, v in fr.mean_exponents.items()})
    assert any("slope" in p for p in checks.check_figure("fig2_upper", csv, manifest, fr_bad))


@pytest.fixture(scope="module")
def validate_output():
    import qibench.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qibench.cli.main(["validate", "--quick"])
    return code, buf.getvalue()


def test_validate_checker(validate_output):
    code, text = validate_output
    gaps = checks.known_gap_references()
    assert checks.check_validate(code, text, gaps) == []
    flipped = text.replace("PASS      structural_invariants", "FAIL      structural_invariants")
    assert flipped != text
    assert checks.check_validate(code, flipped, gaps)
    assert checks.check_validate(3, text, gaps)


def _roc_case(params):
    import qibench as qb

    sc = qb.build_scenario(params.kind, **params.scenario_kwargs())
    pair = qb.hypothesis_pair(sc)
    rel = qb.relative_entropy(pair.rho0, pair.rho1)
    roc = qb.roc_from_rates(rel.d, rel.v, sc.copies)
    hom = qb.roc_homodyne(qb.channel_from_scenario(sc))
    return pair, rel, roc, hom, sc.copies, checks.roc_reference(params)


def test_roc_checker_rejects_scaled_homodyne_pmd():
    params = inputs.roc_round(5)[0]
    pair, rel, roc, hom, copies, r = _roc_case(params)
    assert [p for p in checks.check_roc(pair, rel, roc, hom, copies, r) if p != checks.RELENT_FAULT] == []
    hom.p_md = np.where(hom.p_md >= 1e-300, hom.p_md * (1 + 1e-6), hom.p_md)
    assert any("roc_homodyne" in p for p in checks.check_roc(pair, rel, roc, hom, copies, r))


def test_roc_checker_names_the_relent_fault():
    # the ROADMAP's worst grid corner: f64 D is off by ~24%
    params = inputs.Params("maser", 1e-3, 1e-8, 6250.0, 100_000, n_t=207.9, phi=0.5)
    pair, rel, roc, hom, copies, r = _roc_case(params)
    assert checks.check_roc(pair, rel, roc, hom, copies, r) == [checks.RELENT_FAULT]


def test_oracle_checker_rejects_overlap_above_qbb():
    import dataclasses

    import qibench as qb

    params = inputs.oracle_pool(5)[0]
    sc = qb.build_scenario(params.kind, **params.scenario_kwargs())
    pair = qb.hypothesis_pair(sc)
    bb = qb.qbb(pair.rho0, pair.rho1, sc.copies)
    cb = qb.qcb(pair.rho0, pair.rho1, sc.copies)
    r = checks.oracle_reference(params)
    assert checks.check_oracle(pair, bb, cb, r) == []
    worse = dataclasses.replace(cb, per_mode_overlap=bb.per_mode_overlap * (1 + 1e-9))
    assert checks.check_oracle(pair, bb, worse, r)
    shifted = dataclasses.replace(bb, mean_exponent=bb.mean_exponent * (1 + 1e-5))
    assert checks.check_oracle(pair, shifted, cb, r)


# --------------------------------------------------------------- inputs


def test_inputs_are_seeded():
    assert inputs.oracle_pool(7) == inputs.oracle_pool(7)
    assert inputs.oracle_pool(7) != inputs.oracle_pool(8)
    assert inputs.roc_round(7) == inputs.roc_round(7)
    block = set(inputs.fault_block())
    assert sum(p in block for p in inputs.roc_round(9)) == len(block) == 36
    kinds = [p.kind for p in inputs.oracle_pool(3)]
    assert kinds.count("amplified") == kinds.count("maser") == kinds.count("optical")


# ------------------------------------------------------------ whole runs


def test_smoke_mode():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        cwd=BENCH_DIR.parent,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_counts_repeat():
    import run

    counts = []
    for _ in range(2):
        result, _ = run.run_one("roc_sweep", 4, 0.0, traced=True)
        assert result["correct"]
        counts.append(
            {k: m["value"] for k, m in result["metrics"].items() if "calls" in k or k == "cli.import_modules"}
        )
    assert counts[0] == counts[1]
    assert counts[0]["special.erfc_inv.calls_per_op"] > 0
    assert math.isfinite(counts[0]["chernoff.s_overlap.calls_per_qcb"])
