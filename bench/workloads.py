"""The four workloads: inputs, one operation, its check, and the timed loop.

Each workload runs in one process with one closed-loop client: the next
operation starts when the previous one has returned and been checked. A run
repeats whole rounds of operations until its time is up, so every run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    """Environment of every child: the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def import_qibench(cli: bool):
    """Import qibench from the checkout's src, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qibench

    if Path(qibench.__file__).resolve().parent != (SRC / "qibench").resolve():
        raise RuntimeError(f"qibench imported from {qibench.__file__}, not from {SRC}")
    if cli:
        import qibench.cli  # noqa: F401
    return qibench


def build_inputs(workload: str, seed: int) -> list:
    """The operations of one round; this and the imports are the set-up."""
    if workload == "figure_cli":
        qb = import_qibench(cli=True)
        order = inputs.figure_round(seed)
        missing = set(order) - set(qb.FIGURE_IDS)
        if missing:
            raise RuntimeError(f"figure ids missing from qibench: {sorted(missing)}")
        return order
    if workload == "validate_suite":
        import_qibench(cli=True)
        return inputs.validate_seeds(seed)
    qb = import_qibench(cli=False)
    params = inputs.oracle_pool(seed) if workload == "oracle_sweep" else inputs.roc_round(seed)
    return [(p, qb.build_scenario(p.kind, **p.scenario_kwargs())) for p in params]


# ------------------------------------------------------------------ results


@dataclass
class LoopResult:
    times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    busy_s: float = 0.0
    rounds: int = 0

    def record(self, problems: list[str], named_fault: str | None) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if any(p != named_fault for p in problems):
            self.correct = False
            if len(self.problems) < 10:
                self.problems.extend(p for p in problems if p != named_fault)

    def extend(self, other: "LoopResult") -> None:
        self.times += other.times
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct &= other.correct
        self.problems += other.problems[: max(0, 10 - len(self.problems))]
        self.busy_s += other.busy_s
        self.rounds += other.rounds


def timed_rounds(workload, seconds: float, op=None) -> LoopResult:
    """Repeat whole rounds of the workload's operations until `seconds` have
    passed (at least one round), checking each output.

    Only the operation is timed; the busy time excludes the checks.
    """
    op = op or workload.op
    res = LoopResult()
    start = perf_counter()
    checking = 0.0
    while res.rounds == 0 or perf_counter() - start < seconds:
        for item in workload.round_ops(res.rounds):
            t0 = perf_counter()
            out = op(item)
            t1 = perf_counter()
            res.times.append(t1 - t0)
            res.record(workload.check(item, out), workload.named_fault)
            checking += perf_counter() - t1
        res.rounds += 1
    res.busy_s = perf_counter() - start - checking
    return res


# --------------------------------------------------------------- operations


def run_child(argv: list[str], stderr_path: Path) -> tuple[int, int]:
    """Run a child to completion; returns its exit code and peak RSS in KB."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class FigureWorkload:
    """`qibench figure <id> --out <tmp>`, each a fresh process (or in-process when traced)."""

    named_fault = None

    def __init__(self, seed: int, work_dir: Path):
        self.round = build_inputs("figure_cli", seed)
        self.work_dir = work_dir
        self.refs: dict = {}
        self.peak_rss_kb = 0
        self._n = 0

    def round_ops(self, k: int) -> list:
        return self.round

    def prepare(self) -> None:
        self.refs = {f: checks.figure_reference(f) for f in inputs.FIGURE_IDS}

    def _out_dir(self) -> Path:
        self._n += 1
        return Path(tempfile.mkdtemp(prefix=f"op{self._n}_", dir=self.work_dir))

    def op(self, figure: str):
        out = self._out_dir()
        argv = [sys.executable, "-m", "qibench.cli", "figure", figure, "--out", str(out)]
        code, rss_kb = run_child(argv, out / "stderr.txt")
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, out

    def op_in_process(self, figure: str):
        import qibench.cli

        out = self._out_dir()
        with contextlib.redirect_stdout(io.StringIO()):
            code = qibench.cli.main(["figure", figure, "--out", str(out)])
        return code, out

    def check(self, figure: str, result) -> list[str]:
        code, out = result
        try:
            if code != 0:
                return [f"{figure}: exit code {code}: {(out / 'stderr.txt').read_text(errors='replace')[-300:]}"]
            csv = (out / f"{figure}.csv").read_bytes()
            manifest = (out / f"{figure}_manifest.json").read_text(encoding="utf-8")
            return checks.check_figure(figure, csv, manifest, self.refs[figure])
        except OSError as exc:
            return [f"{figure}: missing output ({exc})"]
        finally:
            shutil.rmtree(out, ignore_errors=True)


class OracleWorkload:
    """hypothesis_pair, qbb and qcb of one seeded scenario."""

    named_fault = None

    def __init__(self, seed: int):
        self.qb = import_qibench(cli=False)
        self.round = build_inputs("oracle_sweep", seed)
        self.refs: list = []

    def round_ops(self, k: int) -> list:
        return self.round

    def prepare(self) -> None:
        self.refs = {id(p): checks.oracle_reference(p) for p, _ in self.round}

    def op(self, item):
        qb = self.qb
        scenario = item[1]
        pair = qb.hypothesis_pair(scenario)
        bb = qb.qbb(pair.rho0, pair.rho1, scenario.copies)
        cb = qb.qcb(pair.rho0, pair.rho1, scenario.copies)
        return pair, bb, cb

    def check(self, item, result) -> list[str]:
        return checks.check_oracle(*result, self.refs[id(item[0])])


class RocWorkload:
    """relative_entropy, roc_from_rates, channel_from_scenario and roc_homodyne of one scenario."""

    named_fault = checks.RELENT_FAULT

    def __init__(self, seed: int):
        self.qb = import_qibench(cli=False)
        self.round = build_inputs("roc_sweep", seed)
        self.refs: dict = {}

    def round_ops(self, k: int) -> list:
        return self.round

    def prepare(self) -> None:
        self.refs = {id(p): checks.roc_reference(p) for p, _ in self.round}

    def op(self, item):
        qb = self.qb
        scenario = item[1]
        pair = qb.hypothesis_pair(scenario)
        rel = qb.relative_entropy(pair.rho0, pair.rho1)
        roc = qb.roc_from_rates(rel.d, rel.v, scenario.copies)
        hom = qb.roc_homodyne(qb.channel_from_scenario(scenario))
        return pair, rel, roc, hom

    def check(self, item, result) -> list[str]:
        pair, rel, roc, hom = result
        return checks.check_roc(pair, rel, roc, hom, item[1].copies, self.refs[id(item[0])])


class ValidateWorkload:
    """In-process `qibench validate --seed <seed>` with stdout captured."""

    named_fault = None

    def __init__(self, seed: int):
        self.round = build_inputs("validate_suite", seed)
        self.gaps: dict = {}

    def round_ops(self, k: int) -> list:
        # one operation per round; the validate seed cycles through the pool
        return [self.round[k % len(self.round)]]

    def prepare(self) -> None:
        self.gaps = checks.known_gap_references()

    def op(self, validate_seed: int):
        import qibench.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qibench.cli.main(["validate", "--seed", str(validate_seed)])
        return code, buf.getvalue()

    def check(self, validate_seed: int, result) -> list[str]:
        return checks.check_validate(*result, self.gaps)


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "figure_cli":
        return FigureWorkload(seed, work_dir)
    if name == "oracle_sweep":
        return OracleWorkload(seed)
    if name == "roc_sweep":
        return RocWorkload(seed)
    if name == "validate_suite":
        return ValidateWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------------ tracing


class AccuracyLog:
    """Inputs and outputs of qbb and the f64 relative entropy seen by the hooks.

    Only single-mode isotropic pairs are kept, keyed by their exact floats;
    the reference is evaluated once per distinct pair after the loop.
    """

    def __init__(self):
        self.qbb: dict = {}
        self.relent: dict = {}

    @staticmethod
    def _key(rho0, rho1):
        c0, c1 = rho0.cov, rho1.cov
        if c0.shape != (2, 2) or c0[0, 1] or c1[0, 1] or c0[0, 0] != c0[1, 1] or c1[0, 0] != c1[1, 1]:
            return None
        d = rho0.mean - rho1.mean
        return float(c0[0, 0]), float(c1[0, 0]), float(d[0]), float(d[1])

    def observers(self) -> dict:
        """Hook observers, keyed as in hooks.Tracer."""
        return {"chernoff.qbb": self._on_qbb, "relent.relative_entropy.f64": self._on_relent}

    def _on_qbb(self, args, kwargs, result) -> None:
        key = self._key(args[0], args[1])
        if key is not None:
            self.qbb[key] = result.per_mode_exponent

    def _on_relent(self, args, kwargs, result) -> None:
        key = self._key(args[0], args[1])
        if key is not None:
            self.relent[key] = (result.d, result.v)

    @staticmethod
    def _pair(key):
        with ref.mp.workdps(ref.DPS):
            nu0, nu1, dq, dp = (ref.mp.mpf(x) for x in key)
            return nu0 - ref.mp.mpf(1) / 2, nu1 - nu0, (dq * dq + dp * dp) / 2

    def qbb_max_rel_err(self) -> float:
        """Worst relative error of qbb's per-mode exponent against -ln C_1/2."""
        worst = 0.0
        for key, exponent in self.qbb.items():
            n0, n_add, mu = self._pair(key)
            expected = -ref.ln_overlap(n0, n_add, mu, 0.5)
            if expected > 0:
                worst = max(worst, ref.rel_err(exponent, expected))
        return worst

    def relent_max_rel_err(self) -> float:
        """Worst relative error of the f64 D or V."""
        worst = 0.0
        for key, (d, v) in self.relent.items():
            n0, n_add, mu = self._pair(key)
            d_ref, v_ref = ref.rel_entropy(n0, n_add, mu)
            if d_ref > 0 and v_ref > 0:
                worst = max(worst, ref.rel_err(d, d_ref), ref.rel_err(v, v_ref))
        return worst
