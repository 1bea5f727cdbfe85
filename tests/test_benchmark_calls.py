"""The benchmark's workloads still run against entmap and pass their own output checks.

perfbench calls entmap through public names (recon.characterize,
recon.simulate_series, runner.main, ...).  This runs each workload's first
three inputs through inputs -> run -> check, so a signature change that would
break the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_pass_their_checks(tmp_path, name):
    workload = WORKLOADS[name]()
    workload.prepare(SEED, tmp_path / "work")
    try:
        outcomes = []
        for k in range(3):
            inp = workload.inputs(SEED, k)
            outcomes.append(workload.check(inp, workload.run(inp)))
    finally:
        workload.close()
    assert [o.note for o in outcomes if not o.ok] == []
    assert all(o.ok for o in outcomes)


def test_endpoint_sweep_input_that_missed_by_19_sigma_passes_its_check():
    """Endpoint input 1576 of seed 1613 (nt=400, ne=16) once came back as 0.573 against 0.6."""
    workload = WORKLOADS["endpoint_sweep"]()
    inp = workload.inputs(1613, 1576)
    assert (inp.guess, inp.ne, inp.point_seed) == (2.1642858981277717, 16, 1896907291658637090)
    outcome = workload.check(inp, workload.run(inp))
    assert outcome.ok, outcome.note
    assert outcome.miss_sigmas <= 1.0


def test_endpoint_sweep_accuracy_inputs_pass_and_stay_within_three_sigma():
    """Seed 0's accuracy inputs: every check passes and at most one misses by more than 3 quoted sigma.

    The benchmark takes endpoint_sweep's coverages over these inputs, so an
    estimator change that would fail its accuracy gate fails here first.
    """
    workload = WORKLOADS["endpoint_sweep"]()
    outcomes = []
    for k in range(workload.ACCURACY_RUNS):
        inp = workload.inputs(SEED, k)
        outcomes.append(workload.check(inp, workload.run(inp)))
    assert [o.note for o in outcomes if not o.ok] == []
    assert sum(o.miss_sigmas <= 3.0 for o in outcomes) >= workload.ACCURACY_RUNS - 1
