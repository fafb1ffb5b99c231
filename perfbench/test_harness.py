"""Fast self-test of the benchmark harness, at tiny sizes (2D h = 0.2,
1D noise study h = 0.05, the desk configs as committed):

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import math
import time

import pytest

import harness

DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def runs(request):
    name = request.param
    return (harness.run_workload(name, 0, 0, trace=False, scale="tiny"),
            harness.run_workload(name, 0, 0, trace=True, scale="tiny"))


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(harness.WORKLOADS)


def test_every_metric_present_with_unit(runs):
    plain, traced = runs
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["failures"]
        got = {name: unit for name, (_, unit) in result["metrics"].items()}
        assert got == _declared(kind)
        assert all(math.isfinite(v) for v, _ in result["metrics"].values())
    assert all(v > 0 for v, _ in plain["metrics"].values())


def test_self_times_within_traced_wall(runs):
    _, traced = runs
    assert traced["self_s_sum"] and traced["traced_wall_s"]
    for self_sum, wall in zip(traced["self_s_sum"], traced["traced_wall_s"]):
        assert 0 < self_sum <= wall


def test_failures_are_counted(tmp_path):
    good = json.loads((harness.CONFIGS / "invert_desk1d.json").read_text())
    gate_fails = dict(good, tolerances={"reconstruction_error": 1e-9})
    invalid = dict(good, s=2.0)
    paths = []
    for name, cfg in (("gate_fails", gate_fails), ("invalid", invalid), ("good", good)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    batch = harness.cli_batch(tmp_path / "ops", [(p, []) for p in paths], trace=False,
                              env=False, deadline=time.monotonic() + 120)
    assert (batch.attempted, batch.failed) == (3, 2)
    assert [op.exit_code for op in batch.ops] == [1, 2, 0]
    assert batch.checked          # the gate failure still wrote consistent outputs
    assert "reconstruction_error failed" in batch.ops[0].message
