"""Tests of the benchmark itself: tiny smoke runs, traced outputs equal untraced ones, wrappers removed.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import tracing, worker
from perfbench.workloads import CliNoiseless, DeskCharacterize, EndpointSweep, Outcome

TINY = {
    "desk_characterize": lambda: DeskCharacterize(nt=40),
    "endpoint_sweep": lambda: EndpointSweep(nt=40, ne_cycle=(16, 256)),
    "cli_noiseless": lambda: CliNoiseless(nt=24, robustness_nt=24),
}
RUNS = 2
SEED = 5


def _outcomes(workload, tracer=None):
    outcomes = []
    for k in range(RUNS):
        inp = workload.inputs(SEED, k)
        if tracer is None:
            outcomes.append(workload.check(inp, workload.run(inp)))
        else:
            with tracer.traced_run(k):
                out = workload.run(inp)
            outcomes.append(workload.check(inp, out))
    return outcomes


@pytest.fixture(params=sorted(TINY))
def workload(request, tmp_path):
    wl = TINY[request.param]()
    wl.prepare(SEED, tmp_path / "work")
    yield wl
    wl.close()


def test_tiny_smoke_run_passes_its_output_check(workload):
    outcomes = _outcomes(workload)
    assert all(o.ok for o in outcomes), [o.note for o in outcomes]
    assert all(o.ratios and o.digest for o in outcomes)


def test_traced_outputs_equal_untraced_and_predicted_hooks_fire(workload):
    plain = _outcomes(workload)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _outcomes(workload, tracer)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert tracing.stale_hooks(tracer, workload.name) == []
    layers = tracing.layer_metrics(tracer, RUNS)
    silent = [h.name for h in tracing.HOOKS if workload.name not in h.expect]
    assert all(layers[f"{name}.calls"][0] == 0 for name in silent)


def test_wrappers_are_removed_after_tracing(workload):
    sites = [
        (sys.modules[module], attr)
        for hook in tracing.HOOKS
        for module, attr in hook.sites
        if module in sys.modules
    ]
    before = [getattr(module, attr) for module, attr in sites]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert any(getattr(m, a) is not f for (m, a), f in zip(sites, before))
            _outcomes(workload, tracer)
            raise RuntimeError("leave the traced block by an exception")
    assert all(getattr(m, a) is f for (m, a), f in zip(sites, before))


def test_top_up_checks_the_fixed_inputs_the_window_did_not_reach(workload):
    workload.ACCURACY_RUNS = RUNS + 1
    extra = worker._top_up(workload, SEED, RUNS - 1)
    inputs = [workload.inputs(SEED, k) for k in (RUNS - 1, RUNS)]
    direct = [workload.check(inp, workload.run(inp)) for inp in inputs]
    assert [o.digest for o in extra] == [o.digest for o in direct]
    assert worker._top_up(workload, SEED, RUNS + 1) == []


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    with tracer.traced_run(0):
        outer = tracer._open(tracer._ids["recon.characterize"])
        inner = tracer._open(tracer._ids["recon.simulate_series"])
        time.sleep(0.02)
        tracer._close(inner)
        tracer._close(outer)
    spans = tracer.calls_and_self_ms()
    assert spans["recon.simulate_series"][0] == 1
    assert spans["recon.simulate_series"][1] >= 20.0
    assert spans["recon.characterize"][1] < spans["recon.simulate_series"][1]
    assert spans["run"][1] < spans["recon.simulate_series"][1]


def test_failed_run_counts_as_missing_every_latency_limit():
    loop = {
        "latencies": [1.0, 2.0, 3.0],
        "iterations": [4000.0, 3000.0, 3000.0],
        "outcomes": [Outcome(ok=True), Outcome(ok=True), Outcome(ok=False)],
        "calibration": [worker.CALIBRATION_REF_MS] * 4,
    }
    assert worker._latency_ms(loop, 0.5) == 2.0
    assert worker._latency_ms(loop, 1.0) == 10_000.0


def test_latency_is_rescaled_by_the_bracketing_calibration_readings():
    ref = worker.CALIBRATION_REF_MS
    loop = {
        "latencies": [10.0, 10.0],
        "iterations": [10.0, 10.0],
        "outcomes": [Outcome(ok=True), Outcome(ok=True)],
        "calibration": [ref, ref, 2.0 * ref],
    }
    # The second run sat between a normal and a half-speed reading: factor 1/1.5.
    assert worker._latency_ms(loop, 1.0) == 10.0
    assert worker._latency_ms(loop, 0.0) == pytest.approx(10.0 / 1.5)
    assert worker._latency_ms(loop, 0.0, normalised=False) == 10.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(Path(worker.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "endpoint_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_stale_hook_guard_names_every_predicted_hook_that_stayed_silent():
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    expected = [h.name for h in tracing.HOOKS if "endpoint_sweep" in h.expect]
    assert tracing.stale_hooks(tracer, "endpoint_sweep") == expected
