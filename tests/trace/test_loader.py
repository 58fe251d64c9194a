"""Tests for CSV persistence (repro.trace.loader)."""

import numpy as np
import pytest

from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.loader import load_fleet_csv, save_fleet_csv


@pytest.fixture()
def tiny_fleet():
    return generate_fleet(FleetConfig(n_boxes=2, days=1, seed=17, mean_vms_per_box=4))


class TestRoundTrip:
    def test_roundtrip_preserves_structure(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        loaded = load_fleet_csv(path)
        assert loaded.n_boxes == tiny_fleet.n_boxes
        assert loaded.n_vms == tiny_fleet.n_vms

    def test_roundtrip_preserves_values(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        loaded = load_fleet_csv(path)
        for box_orig, box_new in zip(tiny_fleet, loaded):
            assert box_new.cpu_capacity == pytest.approx(box_orig.cpu_capacity)
            assert box_new.vm_ids == box_orig.vm_ids
            assert box_new.vm_cpu_capacities == pytest.approx(box_orig.vm_cpu_capacities)
            assert box_new.vm_ram_capacities == pytest.approx(box_orig.vm_ram_capacities)
            np.testing.assert_allclose(box_new.usage, box_orig.usage, atol=1e-3)

    def test_loaded_fleet_name(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        assert load_fleet_csv(path).name == "loaded"


class TestErrors:
    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_fleet_csv(path)

    def test_malformed_row_rejected(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        with path.open("a") as handle:
            handle.write("only,three,cells\n")
        with pytest.raises(ValueError, match="malformed"):
            load_fleet_csv(path)

    def test_gap_detected(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        lines = path.read_text().splitlines()
        # Remove one mid-series observation to create a gap.
        del lines[10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="gaps"):
            load_fleet_csv(path)

    def test_rows_in_any_order(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        lines = path.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        rows.reverse()
        path.write_text("\n".join([header] + rows) + "\n")
        loaded = load_fleet_csv(path)
        original = tiny_fleet.boxes[0]
        loaded_box = loaded.box_by_id(original.box_id)
        row = loaded_box.vm_ids.index(original.vm_ids[0])
        assert loaded_box.usage[row] == pytest.approx(original.usage[0], abs=1e-3)

    def test_inconsistent_window_counts_name_the_box(self, tiny_fleet, tmp_path):
        path = tmp_path / "fleet.csv"
        save_fleet_csv(tiny_fleet, path)
        box = tiny_fleet.boxes[1]
        last_vm, last_window = box.vm_ids[-1], box.n_windows - 1
        # Drop the last window of one VM: gap-free on its own, but shorter
        # than the box's other VMs.  Columns 3 and 6 are vm_id and window.
        lines = [
            line for line in path.read_text().splitlines()
            if (line.split(",")[3], line.split(",")[6]) != (last_vm, str(last_window))
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"box {box.box_id}.*inconsistent"):
            load_fleet_csv(path)
