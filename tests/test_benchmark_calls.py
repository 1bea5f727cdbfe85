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
