"""One workload in a fresh interpreter: set up, warm up, run the closed loop, report one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned to 1.  The first work after start-up is the
import of entmap, so the reported set-up end covers interpreter start,
imports and building the inputs.  One untimed warm-up run follows it, so
first-call costs show in neither set-up nor the timed runs.

    python3 -m perfbench.worker --workload W --seed N --seconds S [--trace] [--probe | --reference]

A --reference probe imports only REFERENCE_IMPORTS and stops.  run.py pairs
each set-up probe with one, so set-up time can be read relative to how fast
this machine imports the same third-party stack at that moment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

CALIBRATION_STEPS = 60
# Calibration kernel time on the CPU that normalised timings refer to: its
# median reading on the 2-vCPU Xeon these figures were first taken on.
CALIBRATION_REF_MS = 3.3

NO_ESTIMATE_RATIO = 1e9

# The third-party stack entmap imports at start-up; a program change cannot alter its cost.
REFERENCE_IMPORTS = ("numpy", "scipy.optimize")

# What a user of each workload imports before the first call.
IMPORTS = {
    "desk_characterize": ("entmap",),
    "endpoint_sweep": ("entmap",),
    "cli_noiseless": ("entmap", "entmap.runner"),
}


def _calibration_ms() -> float:
    """Wall time of a fixed kernel shaped like entmap's hot path.

    Each step does what the pipeline does per time point: a few tiny numpy
    calls and Python arithmetic, a seeded generator with a multinomial draw,
    and every third step a 300x2 least-squares solve.  The kernel never changes
    with the program, so its duration tracks mainly how fast the CPU is running
    this process at the moment, which on a shared machine drifts by tens of
    percent over seconds.  Garbage collection is off while it runs, so no
    collection of the program's objects falls inside it; the heap and cache
    state a run leaves behind can still move it a little, which is why its
    raw median is reported as a per-layer metric.
    """
    import numpy as np

    a = (np.arange(16.0).reshape(4, 4) + 1j) / 10.0
    design = np.column_stack([np.sin(0.1 * np.arange(300.0)) ** 2, np.ones(300)])
    target = np.cos(0.05 * np.arange(300.0))
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    v = np.ones(4, dtype=complex)
    acc = 0.0
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(CALIBRATION_STEPS):
            v = a @ v
            v = v / np.linalg.norm(v)
            acc += abs(complex(v[i % 4])) ** 2
            seq = np.random.SeedSequence(entropy=12345, spawn_key=(0, i, 1))
            acc += float(np.random.Generator(np.random.PCG64(seq)).multinomial(10, probs)[0])
            if i % 3 == 0:
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)
                acc += float(coef[0])
        return (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def _loop(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: the next run starts when the previous one and its check are done.

    Runs until `seconds` of wall time have passed, always completing the run in
    flight.  A run that raises, or whose output check fails, is a failure.  The
    calibration kernel runs before the first run and after every run, outside
    the timed intervals, so each run is bracketed by two speed readings.
    """
    from perfbench.workloads import Outcome

    latencies, iterations, outcomes = [], [], []
    calibration = [_calibration_ms()]
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        t_iter = time.perf_counter()
        inp = workload.inputs(seed, k)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(inp)
            else:
                with tracer.traced_run(k):
                    out = workload.run(inp)
        except Exception as exc:  # a library failure is a failed run, not a benchmark crash
            t1 = time.perf_counter()
            outcome = Outcome(ok=False, note=f"raised {exc!r}")
        else:
            t1 = time.perf_counter()
            outcome = workload.check(inp, out)
        t_end = time.perf_counter()
        latencies.append((t1 - t0) * 1e3)
        iterations.append((t_end - t_iter) * 1e3)
        outcomes.append(outcome)
        calibration.append(_calibration_ms())
        k += 1
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "iterations": iterations, "outcomes": outcomes, "calibration": calibration}


def _top_up(workload, seed: int, done: int) -> list:
    """Check runs done..ACCURACY_RUNS-1 untimed, when the window ended before them.

    Accuracy metrics are taken over the fixed inputs 0..ACCURACY_RUNS-1, so on
    a given seed they score the same inputs however many runs fit in the window.
    """
    from perfbench.workloads import Outcome

    outcomes = []
    for k in range(done, workload.ACCURACY_RUNS):
        inp = workload.inputs(seed, k)
        try:
            outcomes.append(workload.check(inp, workload.run(inp)))
        except Exception as exc:  # a failed run, as in the timed loop
            outcomes.append(Outcome(ok=False, note=f"raised {exc!r}"))
    return outcomes


def _speed_factors(loop: dict) -> list[float]:
    """Per run: reference kernel time over the mean of the two readings bracketing the run."""
    cal = loop["calibration"]
    return [CALIBRATION_REF_MS / (0.5 * (a + b)) for a, b in zip(cal[:-1], cal[1:])]


def _percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a nonempty sequence."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _latency_ms(loop: dict, q: float, normalised: bool = True) -> float:
    """Latency percentile with every failed run counted as missing any limit.

    A failed run enters as the whole measurement window, a finite stand-in
    longer than any run that completed inside it.  Normalised latencies are
    rescaled by each run's speed factor to a CPU on which the calibration
    kernel takes CALIBRATION_REF_MS.
    """
    factors = _speed_factors(loop) if normalised else [1.0] * len(loop["latencies"])
    window_ms = sum(i * f for i, f in zip(loop["iterations"], factors))
    lat = [t * f if o.ok else window_ms for t, f, o in zip(loop["latencies"], factors, loop["outcomes"])]
    return _percentile(lat, q)


def _throughput(loop: dict, normalised: bool = True) -> float:
    """Runs completed per second of loop time (inputs, run, check), calibration excluded."""
    factors = _speed_factors(loop) if normalised else [1.0] * len(loop["iterations"])
    busy_ms = sum(i * f for i, f in zip(loop["iterations"], factors))
    return len(loop["iterations"]) / (busy_ms / 1e3)


def _end_to_end(loop: dict, extra: list, fixed: list) -> tuple[dict, dict]:
    """The end-to-end metrics, speed-normalised, and the raw wall-clock timings beside them.

    pass_frac covers every checked run, timed or topped up; the coverages
    cover the fixed inputs only.
    """
    checked = loop["outcomes"] + extra
    metrics = {
        "run_ms_p50": _latency_ms(loop, 0.5),
        "run_ms_p90": _latency_ms(loop, 0.9),
        "throughput_runs_per_s": _throughput(loop),
        "pass_frac": sum(o.ok for o in checked) / len(checked),
        "coverage_3sigma": sum(o.miss_sigmas <= 3.0 for o in fixed) / len(fixed),
        "coverage_1sigma": sum(o.miss_sigmas <= 1.0 for o in fixed) / len(fixed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "run_ms_p50": _latency_ms(loop, 0.5, normalised=False),
        "run_ms_p90": _latency_ms(loop, 0.9, normalised=False),
        "throughput_runs_per_s": _throughput(loop, normalised=False),
        "calibration_ms_p50": _percentile(loop["calibration"], 0.5),
    }
    return metrics, raw


def _traced(workload, seed: int, seconds: float, workload_name: str, import_s: float) -> tuple[dict, list, dict]:
    """An untraced half-run, then a traced half-run over the same inputs.

    Returns the traced loop, with any run whose outputs differ from the
    untraced run on the same input marked failed, the untraced top-up runs,
    and the per-layer report.
    """
    from perfbench import tracing
    from perfbench.workloads import Outcome

    plain = _loop(workload, seed, seconds / 2.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _loop(workload, seed, seconds / 2.0, tracer)
    extra = _top_up(workload, seed, len(plain["outcomes"]))
    untraced = plain["outcomes"] + extra
    outcomes = traced["outcomes"]
    for k, (a, b) in enumerate(zip(untraced, outcomes)):
        if a.digest != b.digest:
            outcomes[k] = Outcome(ok=False, note="traced outputs differ from the untraced run")
    runs = len(outcomes)
    layers = tracing.layer_metrics(tracer, runs, _speed_factors(traced))
    layers["runner.files_written"] = (sum(o.files for o in outcomes) / runs, "count/run")
    layers["runner.artifact_bytes"] = (sum(o.nbytes for o in outcomes) / runs, "bytes/run")
    fixed = untraced[: workload.ACCURACY_RUNS]
    ratios = [r for o in fixed for r in o.ratios]
    # With no estimate at all, a finite stand-in worse than any real ratio keeps the JSON valid.
    layers["spectral.err_over_pred_p50"] = (_percentile(ratios, 0.5) if ratios else NO_ESTIMATE_RATIO, "ratio")
    layers["setup.import_s"] = (import_s, "s")
    layers["trace.overhead_ms"] = (_latency_ms(traced, 0.5) - _latency_ms(plain, 0.5), "ms")
    layers["trace.spans_per_run"] = (len(tracer.start) / runs, "count/run")
    layers["calibration.kernel_ms_p50"] = (_percentile(plain["calibration"], 0.5), "ms")
    tracer.save(OUT_DIR / f"spans_{workload_name}.npz")
    report = {
        "layers": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
        "stale_hooks": tracing.stale_hooks(tracer, workload_name),
        "untraced_runs": len(plain["outcomes"]),
    }
    return traced, extra, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true", help="untraced then traced half-runs")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--reference", action="store_true", help="import REFERENCE_IMPORTS, then stop")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    for name in REFERENCE_IMPORTS if args.reference else IMPORTS[args.workload]:
        importlib.import_module(name)
    import_s = time.perf_counter() - t0
    if args.reference:
        print(json.dumps({"setup_end": time.perf_counter()}))
        return 0
    entmap_file = Path(sys.modules["entmap"].__file__).resolve()
    if ROOT / "src" not in entmap_file.parents:
        print(f"entmap imported from {entmap_file}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench.workloads import WORKLOADS, Outcome

    workload = WORKLOADS[args.workload]()
    try:
        workload.prepare(args.seed, OUT_DIR / f"work_{os.getpid()}")
        warm = workload.inputs(args.seed, 0)
        result = {"setup_end": time.perf_counter(), "import_s": import_s}
        if args.probe:
            print(json.dumps(result))
            return 0
        try:
            warm_outcome = workload.check(warm, workload.run(warm))
        except Exception as exc:  # reported as a failure below, like any failed run
            warm_outcome = Outcome(ok=False, note=f"raised {exc!r}")
        if args.trace:
            loop, extra, report = _traced(workload, args.seed, args.seconds, args.workload, import_s)
            result.update(report)
        else:
            loop = _loop(workload, args.seed, args.seconds)
            extra = _top_up(workload, args.seed, len(loop["outcomes"]))
            fixed = (loop["outcomes"] + extra)[: workload.ACCURACY_RUNS]
            result["metrics"], result["raw"] = _end_to_end(loop, extra, fixed)
    finally:
        workload.close()

    outcomes = loop["outcomes"] + extra
    failures = [f"run {k}: {o.note}" for k, o in enumerate(outcomes) if not o.ok]
    if not warm_outcome.ok:
        failures.insert(0, f"warm-up: {warm_outcome.note}")
    digests = {o.digest for o in outcomes}
    result.update(
        versions={
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
        attempted=len(outcomes),
        failed=sum(not o.ok for o in outcomes),
        correct=not failures,
        failures=failures[:5],
        latency_samples=len(loop["outcomes"]),
        topped_up=len(extra),
        artifact_sha256=digests.pop() if args.workload == "cli_noiseless" and len(digests) == 1 else None,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: it is no part of any metric, and it would make
    # every set-up probe cost a few tenths of a second more.
    os._exit(code)
