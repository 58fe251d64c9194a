"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest atmbench/tests -q

The traced and untraced runs here call ``run.run_workload`` with three
boxes per repetition and one repetition (pair), still in fresh child
processes, so the whole file takes well under two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload: str, trace: bool, work_root: Path) -> dict:
    """One repetition (pair) of three boxes at seed 7."""
    return run.run_workload(workload, 7, 1, trace, 3, work_root)["result"]


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def traced(request, tmp_path_factory):
    work_root = tmp_path_factory.mktemp("traced")
    return request.param, _tiny(request.param, True, work_root)


def test_every_listed_layer_metric_fires(traced):
    workload, result = traced
    assert result["correct"], result
    metrics = result["metrics"]
    expected = SPEC["workloads"][workload]["expect_nonzero"]
    silent = [m for m in expected if not metrics[m]["value"] > 0]
    assert not silent, f"{workload}: wrappers that never fired: {silent}"
    for name in ("trace.attributed_pct", "trace.overhead_pct", "host.ref_s"):
        assert name in metrics


def test_traced_names_and_units_match_benchmark_json(traced):
    _, result = traced
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_end_to_end_names_and_units_match_benchmark_json(tmp_path):
    result = _tiny("fleet-neural", False, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0


def test_spec_records_each_workload_and_maps_every_layer_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w["why"] for name, w in SPEC["workloads"].items()
    }
    patterns = [p for row in SPEC["layer_map"] for p in row["layers"]]
    unmapped = [
        m["name"] for m in BENCHMARK["per_layer"]
        if not any(m["name"] == p or (p.endswith(".*") and m["name"].startswith(p[:-1]))
                   for p in patterns)
    ]
    assert unmapped == []


def test_digest_check_rejects_a_perturbed_result(tmp_path):
    state = workloads.setup_fleet_neural(11, str(tmp_path), 2)
    atm = workloads.timed_fleet_neural(state)["atm"]
    digest = workloads.offline_digest(atm)
    spec = {"digests": {"fleet-neural": [{"atm": digest}]}}
    seed = workloads.DEFAULT_SEED
    assert run.check_digests("fleet-neural", seed, 0, {"atm": digest}, spec) == []

    box = atm.box_results[0]
    resource = next(iter(box.allocations))
    box.allocations[resource] = np.array(box.allocations[resource], dtype=float)
    box.allocations[resource][0] += 1e-9
    perturbed = workloads.offline_digest(atm)
    assert perturbed != digest
    assert run.check_digests("fleet-neural", seed, 0, {"atm": perturbed}, spec)


def test_capacity_check_rejects_an_oversized_allocation(tmp_path):
    state = workloads.setup_fleet_neural(11, str(tmp_path), 2)
    atm = workloads.timed_fleet_neural(state)["atm"]
    assert workloads.check_offline(atm, state["fleet"].box_by_id) == {}
    box = atm.box_results[0]
    resource = next(iter(box.allocations))
    capacity = state["fleet"].box_by_id(box.box_id).capacity(resource)
    box.allocations[resource] = np.array(box.allocations[resource], dtype=float) + capacity
    assert box.box_id in workloads.check_offline(atm, state["fleet"].box_by_id)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_changing_the_seed_changes_the_inputs(workload, tmp_path):
    setup, _ = workloads.WORKLOADS[workload]

    def demands(seed, sub):
        fleet = setup(seed, str(tmp_path / sub), 2)["fleet"]
        return [box.demand_matrix().copy() for box in fleet]

    first, again, other = demands(1, "a"), demands(1, "b"), demands(2, "c")
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(first, other))
    assert len({run.derive_seed(1, k) for k in range(8)} | {run.derive_seed(2, 0)}) == 9


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "atmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "atmbench" / "run.py"), "--workload", "fleet-neural",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
