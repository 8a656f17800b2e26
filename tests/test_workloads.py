"""The benchmark's workloads (`perfbench/workloads.py`) run through uwroute's
public API. Each one here builds its first seed-1 input, runs it and checks
its outputs, so a change that breaks a name or signature the benchmark uses
fails here and not only in the benchmark itself. The engine workloads are
shortened to 20 simulated seconds. Each output's digest is pinned, and the
analytical workload's seed-2 digest as well, so a change that claims
bit-identical outputs is checked on the benchmark's own inputs."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SHORT_S = {"qlfr_default": 20.0, "dbr_dense_800": 20.0}
DIGESTS = {
    "analyze_400": "5769bfffa3d5c59156dbce58f25a665a2cc8a553667a8b518b17e8c8f5fb64cc",
    "dbr_dense_800": "31915bd7dd714d535d65a2fdb2fcaf6f45b495da2213e424489d01544fab6faa",
    "qlfr_default": "7ee05106194505618b793e760706afb2466dadeeb034e41a266eb78a1333e409",
}
# seed 2 is the held-out seed of the A/B runs
ANALYZE_400_SEED_2 = "7c04f4b322c38c6039924e875a2fc202be4e5d1dcaf823c75cbe869856d0cc54"


def checked_digest(name: str, seed: int) -> str:
    """Digest of the workload's first input of `seed`, after its checks pass."""
    workload = workloads.WORKLOADS[name]
    config = workload.inputs(seed)[0]
    if name in SHORT_S:
        config = replace(config, max_sim_time_s=SHORT_S[name])
    state = workload.setup(config)
    output = workload.execute(state)
    assert workload.check(state, output) == []
    return workload.digest(state, output)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(name):
    assert checked_digest(name, 1) == DIGESTS[name]


def test_analyze_400_seed_2_digest():
    assert checked_digest("analyze_400", 2) == ANALYZE_400_SEED_2
