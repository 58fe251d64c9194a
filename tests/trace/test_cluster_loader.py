"""Public cluster-trace adapter: long CSV → BoxTrace / shard store."""

import csv

import numpy as np
import pytest

from repro.store.shards import load_fleet_shards
from repro.trace import load_cluster_csv, shard_cluster_csv
from repro.trace.loader import external_fingerprint

HEADER = ["machine_id", "vm_id", "timestamp", "cpu_util_pct", "ram_util_pct"]
CAPS = ["vm_cpu_capacity", "vm_ram_capacity"]


def _write(path, rows, header=None):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header or HEADER)
        writer.writerows(rows)
    return path


def _cluster_rows(machines=2, vms=2, samples=6, caps=False):
    rng = np.random.default_rng(11)
    rows = []
    for m in range(machines):
        for v in range(vms):
            for t in range(samples):
                row = [
                    f"m{m:02d}",
                    f"m{m:02d}-vm{v}",
                    t * 300,  # epoch-style seconds, 5-minute cadence
                    round(float(rng.uniform(5, 70)), 3),
                    round(float(rng.uniform(10, 50)), 3),
                ]
                if caps:
                    row += [2.0 + v, 4.0 + v]
                rows.append(row)
    return rows


class TestLoadClusterCsv:
    def test_machines_become_boxes(self, tmp_path):
        path = _write(tmp_path / "c.csv", _cluster_rows())
        fleet = load_cluster_csv(path, name="ext")
        assert fleet.name == "ext"
        assert fleet.n_boxes == 2
        assert fleet.n_vms == 4
        assert fleet.boxes[0].n_windows == 6
        assert fleet.boxes[0].interval_minutes == 5

    def test_timestamp_order_is_irrelevant(self, tmp_path):
        """Windows sort by timestamp, not by row position in the file.

        (Box/VM identity follows first appearance, so only the time
        dimension is permuted here.)
        """
        rows = _cluster_rows()
        ordered = _write(tmp_path / "a.csv", rows)
        backwards = sorted(rows, key=lambda r: -r[2])  # stable: ids keep order
        scrambled = _write(tmp_path / "b.csv", backwards)
        a = load_cluster_csv(ordered)
        b = load_cluster_csv(scrambled)
        for box_a, box_b in zip(a.boxes, b.boxes):
            np.testing.assert_array_equal(
                box_a.usage_matrix(), box_b.usage_matrix()
            )

    def test_capacity_columns_and_headroom(self, tmp_path):
        path = _write(
            tmp_path / "c.csv", _cluster_rows(caps=True), header=HEADER + CAPS
        )
        fleet = load_cluster_csv(path, headroom=1.5)
        box = fleet.boxes[0]
        assert box.vm_cpu_capacities == (2.0, 3.0)
        assert box.cpu_capacity == pytest.approx((2.0 + 3.0) * 1.5)

    def test_external_fingerprint_rides_every_level(self, tmp_path):
        path = _write(tmp_path / "c.csv", _cluster_rows())
        fleet = load_cluster_csv(path)
        fp = external_fingerprint(path)
        assert fleet.scenario_fp == fp
        assert all(box.scenario_fp == fp for box in fleet.boxes)

    def test_different_dumps_fingerprint_differently(self, tmp_path):
        a = _write(tmp_path / "a.csv", _cluster_rows(samples=6))
        b = _write(tmp_path / "b.csv", _cluster_rows(samples=7))
        assert external_fingerprint(a) != external_fingerprint(b)

    def test_bad_header_rejected(self, tmp_path):
        path = _write(tmp_path / "c.csv", [], header=["x", "y"])
        with pytest.raises(ValueError, match="unexpected cluster CSV header"):
            load_cluster_csv(path)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = _cluster_rows(machines=1, vms=1)
        rows.append(rows[0])
        path = _write(tmp_path / "c.csv", rows)
        with pytest.raises(ValueError, match="duplicate samples"):
            load_cluster_csv(path)

    def test_gappy_vm_rejected(self, tmp_path):
        rows = _cluster_rows(machines=1, vms=2)
        # Drop one of vm1's samples: it no longer covers the machine grid.
        victim = next(i for i, r in enumerate(rows) if r[1].endswith("vm1"))
        del rows[victim]
        path = _write(tmp_path / "c.csv", rows)
        with pytest.raises(ValueError, match="gap-free"):
            load_cluster_csv(path)


class TestShardClusterCsv:
    def test_round_trip_through_shard_store(self, tmp_path):
        path = _write(tmp_path / "c.csv", _cluster_rows())
        fleet = load_cluster_csv(path)
        sharded = shard_cluster_csv(path, tmp_path / "shards")
        assert sharded.n_boxes == fleet.n_boxes
        for original, view in zip(fleet.boxes, sharded):
            np.testing.assert_array_equal(
                view.usage_matrix(), original.usage_matrix()
            )
            assert view.scenario_fp == fleet.scenario_fp

    def test_manifest_records_external_provenance(self, tmp_path):
        path = _write(tmp_path / "c.csv", _cluster_rows())
        shard_cluster_csv(path, tmp_path / "shards")
        store = load_fleet_shards(tmp_path / "shards")
        assert store.scenario == {
            "name": "external",
            "fingerprint": external_fingerprint(path),
        }
