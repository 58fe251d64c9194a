"""Tests for the simulated cgroups actuator (repro.resizing.actuation)."""

import pytest

from repro.resizing.actuation import LimitChange, SimulatedCgroupsActuator
from repro.trace.model import Resource


@pytest.fixture()
def actuator():
    act = SimulatedCgroupsActuator({Resource.CPU: 10.0, Resource.RAM: 16.0})
    act.register_vm("vm-a", {Resource.CPU: 4.0, Resource.RAM: 8.0})
    act.register_vm("vm-b", {Resource.CPU: 4.0, Resource.RAM: 8.0})
    return act


class TestRegistration:
    def test_current_limit(self, actuator):
        assert actuator.current_limit("vm-a", Resource.CPU) == 4.0

    def test_unknown_vm_rejected(self, actuator):
        with pytest.raises(KeyError):
            actuator.current_limit("nope", Resource.CPU)

    def test_over_budget_registration_rejected(self, actuator):
        with pytest.raises(ValueError, match="exceed host"):
            actuator.register_vm("vm-c", {Resource.CPU: 5.0})

    def test_nonpositive_limit_rejected(self, actuator):
        with pytest.raises(ValueError):
            actuator.register_vm("vm-c", {Resource.CPU: 0.0})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimulatedCgroupsActuator({Resource.CPU: 0.0})


class TestApplyLimits:
    def test_applies_and_logs(self, actuator):
        changes = actuator.apply_limits(3, {("vm-a", Resource.CPU): 6.0,
                                            ("vm-b", Resource.CPU): 3.0})
        assert actuator.current_limit("vm-a", Resource.CPU) == 6.0
        assert actuator.current_limit("vm-b", Resource.CPU) == 3.0
        assert len(changes) == 2
        assert all(isinstance(c, LimitChange) for c in changes)
        assert [c.window for c in changes] == [3, 3]

    def test_no_op_changes_not_logged(self, actuator):
        changes = actuator.apply_limits(0, {("vm-a", Resource.CPU): 4.0})
        assert changes == []

    def test_batch_over_budget_rejected_atomically(self, actuator):
        with pytest.raises(ValueError, match="exceed host"):
            actuator.apply_limits(0, {("vm-a", Resource.CPU): 9.0})
        # Nothing changed.
        assert actuator.current_limit("vm-a", Resource.CPU) == 4.0

    def test_swap_within_batch_allowed(self, actuator):
        # Individually over budget, jointly fine: batches validate as a whole.
        actuator.apply_limits(
            1, {("vm-a", Resource.CPU): 7.0, ("vm-b", Resource.CPU): 2.0}
        )
        assert actuator.current_limit("vm-a", Resource.CPU) == 7.0

    def test_unknown_vm_rejected(self, actuator):
        with pytest.raises(KeyError):
            actuator.apply_limits(0, {("ghost", Resource.CPU): 1.0})

    def test_nonpositive_limit_rejected(self, actuator):
        with pytest.raises(ValueError):
            actuator.apply_limits(0, {("vm-a", Resource.CPU): -1.0})

    def test_change_records_old_and_new(self, actuator):
        changes = actuator.apply_limits(5, {("vm-b", Resource.RAM): 6.0})
        assert changes[0].old_limit == 8.0
        assert changes[0].new_limit == 6.0
        assert changes[0].resource is Resource.RAM


class TestAllOrNothing:
    """A rejected batch must leave every limit untouched —
    a half-applied resize would leave the box in a state ATM never chose."""

    def _snapshot(self, actuator):
        return {
            (vm, res): actuator.current_limit(vm, res)
            for vm in ("vm-a", "vm-b")
            for res in (Resource.CPU, Resource.RAM)
        }

    def test_nonpositive_limit_rolls_back_whole_batch(self, actuator):
        before = self._snapshot(actuator)
        with pytest.raises(ValueError):
            actuator.apply_limits(
                2, {("vm-a", Resource.CPU): 6.0, ("vm-b", Resource.CPU): -1.0}
            )
        assert self._snapshot(actuator) == before

    def test_unknown_vm_rolls_back_whole_batch(self, actuator):
        before = self._snapshot(actuator)
        with pytest.raises(KeyError):
            actuator.apply_limits(
                2, {("vm-a", Resource.CPU): 6.0, ("ghost", Resource.CPU): 1.0}
            )
        assert self._snapshot(actuator) == before

    def test_over_budget_mixed_batch_rolls_back(self, actuator):
        before = self._snapshot(actuator)
        with pytest.raises(ValueError, match="exceed host"):
            actuator.apply_limits(
                2, {("vm-a", Resource.RAM): 2.0, ("vm-b", Resource.RAM): 15.0}
            )
        assert self._snapshot(actuator) == before

    def test_budget_check_defaults_to_enforced_limits(self, actuator):
        # Regression: the no-argument form used to annotate its parameter
        # as a plain (non-Optional) Dict while defaulting to None.
        assert actuator._check_host_budget() is None
