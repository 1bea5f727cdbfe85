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


# Outcome.digest of seed 0's inputs 0-4.  cli_noiseless has none pinned: its
# digest hashes manifest.json, which records library versions.
DIGEST_PINS = {
    "desk_characterize": [
        "a06a75030ef1a6f4dcc21e9205eb5b97b5e5dbccee3ab4dcf7100c1c41344269",
        "f190ddf32bf76484142e965c7c20294b8e0505007ee5f6fd8fc8d0e9a30d3fd6",
        "541e58faa2fc515f0affcc0d8d9dd142c83f30ecc02d9ca9b24b55b88335c99d",
        "059b64ea7bbbeeb5f9d4f4a350bc5c2c8df75abc2d4512eca9346bed5bf5a59f",
        "454d6f3296e63323d0d44a5e6b79675cbb594bd9855af119b736aa30f30aa97b",
    ],
    "endpoint_sweep": [
        "b7fa68d70db45a4ae2d0ec4bd93ed8c080beaf2828f1996ba62cf2a34209209b",
        "4f49c01513e8b7a7c427527c7db10fea3c593351f3fcb2a06b75f08df87445de",
        "b1f14d40df861f3bef7af515c45fbe9d1215a97ed18900f83f8f00a3c3acc856",
        "a65ec4171f2c6bda8706077c2d1b9b59cb5e54eeb1ae2c1b05c93efd22f40e81",
        "bb0179eca817a37d54b226fc18bb13826dbaf7ac8ef3da3222eda0e5e5081b0e",
    ],
}


@pytest.mark.parametrize("name", sorted(DIGEST_PINS))
def test_workload_outputs_keep_their_pinned_digests(tmp_path, name):
    """Seed 0's first five outputs hash as pinned, to the bit.

    endpoint_sweep's inputs cycle ne through 4, 16, 64, 256 and 1024, so its
    rows above 60 shots, drawn by Generator.multinomial, are pinned here too.
    """
    workload = WORKLOADS[name]()
    workload.prepare(SEED, tmp_path / "work")
    try:
        inputs = [workload.inputs(SEED, k) for k in range(5)]
        digests = [workload.check(inp, workload.run(inp)).digest for inp in inputs]
    finally:
        workload.close()
    assert digests == DIGEST_PINS[name]
