"""qibench benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; qibench is imported from its src/. The
last line of standard output is the result as one JSON object; reference
figures (tail percentile, machine-speed loop, set-up samples, tracing
overhead) go to standard error. See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread (nproc is 2 on the reference machine); set before numpy
# loads, and inherited by every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

WORKLOADS = ("figure_cli", "oracle_sweep", "roc_sweep", "validate_suite")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer self times: stat key -> (metric, scale from seconds)
SELF_TIMES = {
    "protocols.hypothesis_pair": ("protocols.hypothesis_pair.self_us", 1e6),
    "gaussian.williamson": ("gaussian.williamson.self_us", 1e6),
    "chernoff.s_overlap": ("chernoff.s_overlap.self_us", 1e6),
    "chernoff.qcb": ("chernoff.qcb.self_ms", 1e3),
    "chernoff.qbb": ("chernoff.qbb.self_us", 1e6),
    "relent.relative_entropy.f64": ("relent.relative_entropy.f64_self_us", 1e6),
    "relent.relative_entropy.mp": ("relent.relative_entropy.mp_self_ms", 1e3),
    "relent.roc_from_rates": ("relent.roc_from_rates.self_us", 1e6),
    "closed_forms": ("closed_forms.self_us", 1e6),
    "homodyne.roc_homodyne": ("homodyne.roc_homodyne.self_us", 1e6),
    "homodyne.monte_carlo_roc": ("homodyne.monte_carlo_roc.self_ms", 1e3),
    "special.erfc_inv": ("special.erfc_inv.self_us", 1e6),
    "validation.check_qcb_equivalence": ("validation.check_qcb_equivalence.self_ms", 1e3),
    "validation.check_qre_equivalence": ("validation.check_qre_equivalence.self_ms", 1e3),
    "validation.check_homodyne_monte_carlo": ("validation.check_homodyne_monte_carlo.self_ms", 1e3),
    "validation.check_structural": ("validation.check_structural.self_ms", 1e3),
}
# per-layer call counts per workload operation: stat key -> metric
CALLS_PER_OP = {
    "gaussian.williamson": "gaussian.williamson.calls_per_op",
    "closed_forms": "closed_forms.calls_per_op",
    "special.erfc_inv": "special.erfc_inv.calls_per_op",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def machine_loop_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, to see machine drift."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def tail(times: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    out = {"samples": n, "p50_ms": 1e3 * statistics.median(times)}
    if n >= 40:
        pct = 100 * (1 - 10 / n)
        cuts = statistics.quantiles(times, n=1000, method="inclusive")
        out[f"p{pct:.1f}_ms"] = 1e3 * cuts[min(998, int(pct * 10) - 1)]
    return out


# ------------------------------------------------------------------- set-up


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up measurement: import, build inputs, report the time."""
    import workloads

    workloads.build_inputs(workload, seed)
    print(f"ready {time.monotonic():.9f}", flush=True)


def measure_setup(workload: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    import workloads

    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            env=workloads.child_env(),
            cwd=ROOT,
            timeout=PROBE_TIMEOUT_S,
        )
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        samples.append(float(words[1]) - t0)
    return samples


def import_probe() -> tuple[list[float], list[int]]:
    """Wall time of `import qibench.cli` in fresh interpreters, and the module count after it."""
    import workloads

    code = (
        "import sys, time; t = time.perf_counter(); import qibench.cli; "
        "print(time.perf_counter() - t, len(sys.modules))"
    )
    times, counts = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=workloads.child_env(),
            cwd=ROOT,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
        t, n = proc.stdout.split()
        times.append(float(t))
        counts.append(int(n))
    return times, counts


# -------------------------------------------------------------- end to end


def run_end_to_end(workload: str, seed: int, seconds: float, probes: int, work_dir: Path) -> tuple[dict, dict]:
    import workloads

    setup = measure_setup(workload, seed, probes)
    wl = workloads.make_workload(workload, seed, work_dir)
    wl.prepare()
    machine_before = machine_loop_ms()
    res = workloads.timed_rounds(wl, seconds)
    machine_after = machine_loop_ms()

    if workload == "figure_cli":
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": 1e3 * statistics.median(res.times),
        "ops_per_s": len(res.times) / res.busy_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    result = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "rounds": res.rounds,
        "latency": tail(res.times),
        "setup_samples_s": setup,
        "machine_loop_ms": [machine_before, machine_after],
        "problems": res.problems,
    }
    return result, info


# ------------------------------------------------------------------ traced


def _coverage(workload: str, seed: int, work_dir: Path) -> None:
    """A few operations of every other kind, so that each layer is reached."""
    import qibench.cli
    import workloads

    if workload != "oracle_sweep":
        wl = workloads.OracleWorkload(seed)
        for item in wl.round[:3]:
            wl.op(item)
    if workload != "roc_sweep":
        wl = workloads.RocWorkload(seed)
        for item in wl.round[:3]:
            wl.op(item)
    if workload != "figure_cli":
        wl = workloads.FigureWorkload(seed, work_dir)
        for figure in wl.round:
            shutil.rmtree(wl.op_in_process(figure)[1], ignore_errors=True)
    if workload != "validate_suite":
        with contextlib.redirect_stdout(io.StringIO()):
            qibench.cli.main(["validate", "--seed", str(workloads.inputs.VALIDATE_SEED_BASE)])


def run_traced(workload: str, seed: int, seconds: float, work_dir: Path) -> tuple[dict, dict]:
    import hooks
    import workloads

    wl = workloads.make_workload(workload, seed, work_dir)
    wl.prepare()
    op = wl.op_in_process if workload == "figure_cli" else wl.op

    # untraced and traced rounds alternate, so that both see the same
    # machine speed and their ratio is the tracing overhead
    acc, acc_coverage = workloads.AccuracyLog(), workloads.AccuracyLog()
    tracer = hooks.Tracer(observe=acc.observers())
    untraced, res = workloads.LoopResult(), workloads.LoopResult()
    start = time.perf_counter()
    while res.rounds == 0 or time.perf_counter() - start < seconds:
        untraced.extend(workloads.timed_rounds(wl, 0.0, op=op))
        with tracer:
            res.extend(workloads.timed_rounds(wl, 0.0, op=op))
    main = tracer.snapshot()
    tracer.observe = acc_coverage.observers()
    with tracer:
        _coverage(workload, seed, work_dir)
    extra = hooks.diff(tracer.snapshot(), main)

    if workload == "figure_cli":
        figure_times = untraced.times
    else:
        fig = workloads.FigureWorkload(seed, work_dir)
        fig.prepare()
        figure_times = workloads.timed_rounds(fig, 0.0, op=fig.op_in_process).times
    import_times, import_counts = import_probe()
    # like the timings, accuracy comes from the workload's own calls when it makes any
    worst_qbb = (acc if acc.qbb else acc_coverage).qbb_max_rel_err()
    worst_relent = (acc if acc.relent else acc_coverage).relent_max_rel_err()

    def stat(key):
        return main.get(key) or extra.get(key)

    ops = len(res.times)
    metrics = {
        "cli.import_ms": (1e3 * statistics.median(import_times), "ms"),
        "cli.import_modules": (import_counts[0], "count"),
        "cli.figure_compute_ms": (1e3 * statistics.median(figure_times), "ms"),
    }
    for key, (name, scale) in SELF_TIMES.items():
        s = stat(key)
        metrics[name] = (scale * s.self_s / s.calls if s else 0.0, name.rsplit("_", 1)[1])
    for key, name in CALLS_PER_OP.items():
        metrics[name] = (main[key].calls / ops if key in main else 0.0, "count")
    src = main if "chernoff.qcb" in main else extra
    qcb, overlap = src.get("chernoff.qcb"), src.get("chernoff.s_overlap")
    metrics["chernoff.s_overlap.calls_per_qcb"] = (
        overlap.parents.get("chernoff.qcb", 0) / qcb.calls if qcb and overlap else 0.0,
        "count",
    )
    metrics["chernoff.qbb.max_rel_err"] = (worst_qbb, "ratio")
    metrics["relent.relative_entropy.max_rel_err"] = (worst_relent, "ratio")

    result = {
        "correct": res.correct and untraced.correct and len(set(import_counts)) == 1,
        "attempted": res.attempted + untraced.attempted,
        "failed": res.failed + untraced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    untraced_p50 = statistics.median(untraced.times)
    info = {
        "workload": workload,
        "seed": seed,
        "traced_ops": ops,
        "tracing_overhead": statistics.median(res.times) / untraced_p50 - 1.0,
        "from_coverage": sorted(k for k in extra if k not in main),
        "absent": tracer.absent,
        "import_module_counts": import_counts,
        "problems": untraced.problems + res.problems,
    }
    return result, info


# -------------------------------------------------------------------- main


def run_one(workload: str, seed: int, seconds: float, traced: bool, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}_", dir=out_root))
    try:
        if traced:
            return run_traced(workload, seed, seconds, work_dir)
        return run_end_to_end(workload, seed, seconds, probes, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass


def smoke(seed: int) -> int:
    """One round of every workload, untraced and traced; 0 when every output checks."""
    ok = True
    for workload in WORKLOADS:
        for traced in (False, True):
            result, info = run_one(workload, seed, 0.0, traced, probes=1)
            ok &= result["correct"]
            label = "trace" if traced else "e2e"
            print(f"{workload:15s} {label:5s} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} problems={info['problems'][:3]}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qibench" / "__init__.py").is_file():
        print(f"error: no qibench sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, info = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(info), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
