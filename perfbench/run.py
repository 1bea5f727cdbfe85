"""Benchmark command for entmap.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (perfbench/worker.py) with the checkout's src/ on PYTHONPATH and
the BLAS/OpenMP thread counts pinned to 1, as one closed-loop caller.

--trace 0 prints the end-to-end metrics.  Set-up time is measured in
SETUP_PAIRS pairs of extra fresh interpreters, each a reference probe and a
set-up probe, and reported relative to the reference.  --trace 1 prints the
per-layer metrics of a run that is half untraced and half traced over the
same inputs.  --workload all runs every workload in turn and prefixes each
metric with its workload.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A full record (environment,
sample counts, failures, artifact hash) is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import IMPORTS, OUT_DIR, ROOT

WORKLOADS = tuple(IMPORTS)
# Set-up is measured in this many pairs of fresh interpreters: a reference
# probe importing the third-party stack alone, then a set-up probe.
SETUP_PAIRS = 6
# The reference probe's median wall time on the 2-vCPU Xeon these figures
# were first taken on; setup_s is expressed on that machine's scale.
SETUP_REF_S = 0.70
# Every run of this command must end within this many seconds.
TIME_LIMIT_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

E2E_UNITS = {
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "throughput_runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
    "coverage_3sigma": "fraction",
    "coverage_1sigma": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONNOUSERSITE"] = "1"
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(seed: int, versions: dict) -> dict:
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its JSON report and its spawn time."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker could start")
    cmd = [sys.executable, "-m", "perfbench.worker", *args]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _setup_pairs(workload: str, seed: int, deadline: float) -> tuple[list[float], list[float]]:
    """Wall time from spawn to the end of set-up, for SETUP_PAIRS set-up probes and their reference probes.

    Import speed on a shared machine drifts by a third over minutes, so each
    set-up probe is read against a reference probe started just before it.
    """
    args = ["--workload", workload, "--seed", str(seed)]
    setups, references = [], []
    for _ in range(SETUP_PAIRS):
        for flag, samples in (("--reference", references), ("--probe", setups)):
            report, spawned = _worker(args + [flag], deadline)
            samples.append(report["setup_end"] - spawned)
    return setups, references


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Measure one workload; return the result record (metrics plus what explains them)."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        report, _ = _worker(base + ["--trace"], deadline)
        metrics = report["layers"]
        for name in report["stale_hooks"]:
            print(f"WARNING: {workload}: hook {name} recorded no call where calls are predicted; "
                  "the benchmark needs a follow-up", file=sys.stderr)
    else:
        setups, references = _setup_pairs(workload, seed, deadline)
        report, _ = _worker(base, deadline)
        report["setup_samples_s"] = setups
        report["reference_samples_s"] = references
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in report["metrics"].items()}
        ratios = [s / r for s, r in zip(setups, references)]
        metrics["setup_s"] = {"value": SETUP_REF_S * statistics.median(ratios), "unit": "s"}
        report["raw"]["setup_s"] = statistics.median(setups)
        metrics = {name: metrics[name] for name in E2E_UNITS}
    report["workload"] = workload
    report["seed"] = seed
    report["trace"] = int(trace)
    report["metrics"] = metrics
    return report


def _print_report(report: dict) -> None:
    workload = report["workload"]
    n = report["latency_samples"]
    mode = "traced" if report["trace"] else "untraced"
    print(f"== {workload} seed={report['seed']} ({mode}, closed loop, 1 caller, {n} runs, "
          f"{report['topped_up']} untimed top-up runs)")
    for name, m in report["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = (f"  (raw wall clock {report['raw']['setup_s']:.6g}, "
                     f"median over {SETUP_PAIRS} probe pairs of set-up over reference)")
        elif name in report.get("raw", {}):
            extra = f"  (raw wall clock {report['raw'][name]:.6g}, n={n})"
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}{extra}")
    fail_frac = report["failed"] / report["attempted"]
    print(f"{workload} fail_frac = {fail_frac:.6g} fraction  ({report['failed']}/{report['attempted']})")
    if report.get("artifact_sha256"):
        print(f"{workload} artifact_sha256 = {report['artifact_sha256']}")
    if not report["trace"] and n < 100:
        print(f"WARNING: {workload}: only {n} runs, fewer than ten lie beyond p90", file=sys.stderr)
    for line in report["failures"]:
        print(f"FAILED {workload} {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.perf_counter() + TIME_LIMIT_S

    if not (ROOT / "src" / "entmap" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'entmap'} is missing; run from a checkout of the repository", file=sys.stderr)
        return 2

    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace), deadline) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = _environment(args.seed, reports[0]["versions"])
    print("environment " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    for report in reports:
        _print_report(report)
        report["environment"] = env
        path = OUT_DIR / f"result_{report['workload']}_trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in reports for name, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
