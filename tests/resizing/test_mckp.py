"""Tests for the MCKP transform (repro.resizing.mckp), including Lemma 4.1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resizing.mckp import MckpGroup, MckpInstance, build_mckp
from repro.resizing.problem import ResizingProblem, per_vm_tickets, tickets_for_allocation
from tests.resizing import mckp_oracle
from tests.resizing.mckp_oracle import _unique_descending

PAPER_EXAMPLE = [30.0, 30.0, 40.0, 40.0, 23.0, 25.0, 60.0, 60.0, 60.0, 60.0]


class TestPaperExample:
    """The running example of Section IV-A.1."""

    def _instance(self, literal=True, epsilon=0.0):
        # The literal R' of the running example is the oracle's switch.
        problem = ResizingProblem(
            demands=np.array([PAPER_EXAMPLE]), capacity=1000.0, alpha=0.6
        )
        if literal:
            return mckp_oracle.build_mckp(problem, epsilon=epsilon, literal_formulation=True)
        return build_mckp(problem, epsilon=epsilon)

    def test_reduced_demand_set(self):
        group = self._instance().groups[0]
        assert group.capacities.tolist() == [60.0, 40.0, 30.0, 25.0, 23.0, 0.0]

    def test_ticket_counts(self):
        group = self._instance().groups[0]
        assert group.tickets.tolist() == [0, 4, 6, 8, 9, 10]

    def test_discretized_set(self):
        # ε = 10 rounds {23, 25} up to 30: D' = {60, 40, 30, 0} and the
        # paper's updated ticket counts P = {0, 4, 6, 10}.
        group = self._instance(epsilon=10.0).groups[0]
        assert group.capacities.tolist() == [60.0, 40.0, 30.0, 0.0]
        assert group.tickets.tolist() == [0, 4, 6, 10]

    def test_effective_capacity_scaling(self):
        # Non-literal: the allocated capacity is candidate / alpha.
        group = self._instance(literal=False).groups[0]
        assert group.capacities[0] == pytest.approx(100.0)
        assert group.tickets[0] == 0


class TestBuildMckp:
    def test_idle_vm_single_candidate(self):
        problem = ResizingProblem(demands=np.zeros((1, 5)), capacity=10.0, alpha=0.6)
        group = build_mckp(problem).groups[0]
        assert group.capacities.tolist() == [0.0]
        assert group.tickets.tolist() == [0]

    def test_lower_bound_trims_candidates(self):
        problem = ResizingProblem(
            demands=np.array([[1.0, 2.0, 3.0]]),
            capacity=100.0,
            alpha=0.5,
            lower_bounds=np.array([4.0]),
        )
        group = build_mckp(problem).groups[0]
        assert group.capacities.min() >= 4.0

    def test_upper_bound_caps_candidates(self):
        problem = ResizingProblem(
            demands=np.array([[1.0, 2.0, 30.0]]),
            capacity=100.0,
            alpha=0.5,
            upper_bounds=np.array([10.0]),
        )
        group = build_mckp(problem).groups[0]
        assert group.capacities.max() <= 10.0

    def test_tickets_monotone(self, rng):
        problem = ResizingProblem(
            demands=rng.uniform(0, 10, size=(4, 20)), capacity=100.0, alpha=0.6
        )
        for group in build_mckp(problem).groups:
            assert np.all(np.diff(group.tickets) >= 0)
            assert np.all(np.diff(group.capacities) < 0)

    def test_epsilon_per_vm(self, rng):
        problem = ResizingProblem(
            demands=rng.uniform(0, 10, size=(3, 10)), capacity=100.0, alpha=0.6
        )
        instance = build_mckp(problem, epsilon=np.array([0.5, 1.0, 2.0]))
        assert instance.n_vms == 3

    def test_epsilon_validation(self, rng):
        problem = ResizingProblem(demands=np.ones((2, 3)), capacity=10.0)
        with pytest.raises(ValueError):
            build_mckp(problem, epsilon=np.array([1.0]))
        with pytest.raises(ValueError):
            build_mckp(problem, epsilon=-1.0)

    def test_instance_accessors(self, rng):
        problem = ResizingProblem(
            demands=rng.uniform(0, 5, size=(3, 8)), capacity=50.0, alpha=0.6
        )
        instance = build_mckp(problem)
        assert instance.n_vms == 3
        assert instance.n_variables == sum(g.n_choices for g in instance.groups)
        assert instance.min_total_capacity() <= instance.max_total_capacity()
        choices = (0, 0, 0)
        alloc = instance.allocation_for(choices)
        assert alloc == pytest.approx([g.capacities[0] for g in instance.groups])

    def test_choice_count_checked(self, rng):
        problem = ResizingProblem(demands=np.ones((2, 3)), capacity=10.0)
        instance = build_mckp(problem)
        with pytest.raises(ValueError):
            instance.allocation_for((0,))


class TestUniqueDescending:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_np_unique_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 200))
        # Few distinct values (many duplicates), signed zeros, and bounds
        # clamped in as build_mckp does.
        values = rng.choice([-0.0, 0.0, 0.5, 1.25, 3.0, 7.5, 1e-9], size=size)
        values = np.append(values * rng.uniform(0.5, 2.0), 0.0)
        lo, hi = np.sort(rng.uniform(0.0, 10.0, size=2))
        for candidate in (values, np.clip(values, lo, hi), np.clip(values, 0.0, hi)):
            expected = np.unique(candidate)[::-1]
            got = _unique_descending(candidate)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "values",
        [[2.0, 0.0, -0.0, 1.0], [2.0, -0.0, 0.0, 1.0], [-0.0, -0.0, 0.0], [4.0]],
    )
    def test_edge_cases(self, values):
        values = np.array(values)
        assert _unique_descending(values).tobytes() == np.unique(values)[::-1].tobytes()


class TestLemma41:
    """Lemma 4.1: restricting capacities to the candidate set loses nothing."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0.0, 20.0), min_size=2, max_size=6),
            min_size=1,
            max_size=3,
        )
    )
    def test_candidates_dominate_continuum(self, demand_lists):
        t = min(len(d) for d in demand_lists)
        demands = np.array([d[:t] for d in demand_lists])
        problem = ResizingProblem(demands=demands, capacity=1e9, alpha=0.6)
        instance = build_mckp(problem)
        # For each VM and ANY capacity value c, some candidate uses <= c
        # capacity and yields <= the tickets of c (sampled check).
        rng = np.random.default_rng(0)
        for i, group in enumerate(instance.groups):
            for c in rng.uniform(0.0, 40.0, size=10):
                tickets_c = int(
                    (demands[i] > 0.6 * c + 1e-9).sum()
                ) if c > 0 else int((demands[i] > 1e-9).sum())
                dominating = [
                    v
                    for v in range(group.n_choices)
                    if group.capacities[v] <= c + 1e-9
                    and group.tickets[v] <= tickets_c
                ]
                assert dominating, (
                    f"no candidate dominates capacity {c} for VM {i}"
                )

    def test_epsilon_rounding_is_safe(self, rng):
        """ε rounds demands up: the discretized optimum never tickets more
        at the same capacity level (it allocates at least as much)."""
        demands = rng.uniform(0, 10, size=(1, 12))
        problem = ResizingProblem(demands=demands, capacity=1e9, alpha=0.6)
        plain = build_mckp(problem).groups[0]
        rounded = build_mckp(problem, epsilon=2.0).groups[0]
        assert rounded.capacities[0] >= plain.capacities[0] - 1e-9
        assert rounded.tickets[0] == 0 == plain.tickets[0]


class TestVectorizedTickets:
    """The searchsorted ticket counting must match the original scan."""

    @staticmethod
    def _reference_tickets(demands, caps, threshold_factor):
        # The original O(candidates x windows) list comprehension.
        return np.array(
            [
                int((demands > threshold_factor * c + 1e-9).sum())
                if c > 0
                else int((demands > 1e-9).sum())
                for c in caps
            ],
            dtype=int,
        )

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("epsilon", [0.0, 1.5])
    def test_random_fleet_pin(self, literal, epsilon, small_fleet):
        # Demand matrices from a generated fleet (duplicates, idle VMs and
        # bursty rows included) — the ticket arrays must be identical.  The
        # literal R' is the oracle's switch, so it checks the oracle's counts.
        factor = 1.0 if literal else 0.6
        from repro.trace.model import Resource

        for box in small_fleet.boxes[:6]:
            demands = np.maximum(box.demand_matrix(Resource.CPU), 0.0)
            problem = ResizingProblem(
                demands=demands, capacity=float(box.cpu_capacity), alpha=0.6
            )
            if literal:
                instance = mckp_oracle.build_mckp(
                    problem, epsilon=epsilon, literal_formulation=True
                )
            else:
                instance = build_mckp(problem, epsilon=epsilon)
            for group in instance.groups:
                expected = self._reference_tickets(
                    problem.demands[group.vm_index], group.capacities, factor
                )
                np.testing.assert_array_equal(group.tickets, expected)

    def test_duplicate_and_boundary_demands(self):
        # Exact ties between a candidate threshold and a demand value are
        # where a searchsorted side-mismatch would bite.
        demands = np.array([[1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 0.0]])
        # alpha = 0.5 makes every threshold alpha * (d / alpha) == d exactly.
        problem = ResizingProblem(demands=demands, capacity=100.0, alpha=0.5)
        group = build_mckp(problem).groups[0]
        expected = self._reference_tickets(demands[0], group.capacities, 0.5)
        np.testing.assert_array_equal(group.tickets, expected)


# ------------------------------------------------- array build vs. oracle
#: Demand values on the tolerance's edges, signed zeros and plain values.
_DEMAND = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-10, 1e-9, 2e-9, 1.0, 2.5, 7.0]),
    st.floats(0.0, 50.0),
)
_BOUND = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 30.0))


@st.composite
def _problems(draw):
    m = draw(st.integers(1, 5))
    t = draw(st.integers(1, 12))
    demands = np.array(draw(st.lists(_DEMAND, min_size=m * t, max_size=m * t))).reshape(m, t)
    lower = np.array(draw(st.lists(_BOUND, min_size=m, max_size=m)))
    # Upper bounds: the default (capacity), or at / above the lower bound,
    # so candidates clip at both ends (upper == lower pins a single one).
    upper = None
    if draw(st.booleans()):
        slack = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 3.0, 40.0]), min_size=m, max_size=m)))
        upper = lower + slack
    capacity = float(lower.max()) + draw(st.floats(0.5, 100.0))
    alpha = draw(st.floats(0.05, 0.95))
    problem = ResizingProblem(
        demands=demands, capacity=capacity, alpha=alpha,
        lower_bounds=lower, upper_bounds=upper,
    )
    epsilon = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 3.0]),
            st.lists(st.sampled_from([0.0, 0.25, 2.0, 1e12]), min_size=m, max_size=m).map(np.array),
        )
    )
    return problem, epsilon


class TestArrayBuildMatchesOracle:
    """``build_mckp`` and ``per_vm_tickets`` equal their VM-by-VM forms."""

    @settings(max_examples=300, deadline=None)
    @given(_problems())
    def test_groups_equal_the_oracle(self, case):
        problem, epsilon = case
        got = build_mckp(problem, epsilon=epsilon)
        want = mckp_oracle.build_mckp(problem, epsilon=epsilon)
        assert got.capacity == want.capacity
        assert len(got.groups) == len(want.groups)
        for ours, theirs in zip(got.groups, want.groups):
            assert ours.vm_index == theirs.vm_index
            # array_equal: -0.0 == 0.0.  The two differ in a zero's sign
            # only when a positive demand rounds up to -0.0 (ε > 1e12 x
            # demand), where the oracle's survivor depends on its sort.
            assert np.array_equal(ours.capacities, theirs.capacities)
            assert ours.capacities.dtype == theirs.capacities.dtype
            assert np.array_equal(ours.tickets, theirs.tickets)
            assert ours.tickets.dtype == theirs.tickets.dtype

    def test_all_zero_rows_and_signed_zero_bounds(self):
        demands = np.array([[0.0, -0.0, 0.0], [0.0, 0.0, 0.0], [1e-9, 3.0, 0.0]])
        problem = ResizingProblem(
            demands=demands, capacity=20.0, alpha=0.6,
            lower_bounds=np.array([-0.0, 2.0, 0.0]),
            upper_bounds=np.array([5.0, 2.0, 4.0]),
        )
        got = build_mckp(problem, epsilon=1.0)
        want = mckp_oracle.build_mckp(problem, epsilon=1.0)
        for ours, theirs in zip(got.groups, want.groups):
            assert np.array_equal(ours.capacities, theirs.capacities)
            assert np.array_equal(ours.tickets, theirs.tickets)
        # The idle VM's one candidate is the appended +0.0: a candidate
        # equal to its -0.0 lower bound keeps its own sign.
        assert got.groups[0].capacities.tobytes() == np.array([0.0]).tobytes()
        assert got.groups[1].capacities.tolist() == [2.0]

    @settings(max_examples=200, deadline=None)
    @given(
        _problems(),
        st.lists(st.sampled_from([0.0, -0.0, -1.0, 1e-12, 0.5, 4.0, 60.0]), min_size=5, max_size=5),
    )
    def test_per_vm_tickets_equal_the_oracle(self, case, allocation):
        problem = case[0]
        alloc = np.array(allocation[: problem.n_vms])
        got = per_vm_tickets(problem, alloc)
        want = mckp_oracle.per_vm_tickets(problem, alloc)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype


class TestInstanceInvariants:
    """The instance checks every group's orders at once."""

    @staticmethod
    def _group(index, caps, tickets):
        return MckpGroup(vm_index=index, capacities=np.array(caps, float), tickets=np.array(tickets))

    def test_group_boundaries_are_not_compared(self):
        # Group 0 ends below group 1's first candidate: fine across groups.
        instance = MckpInstance(
            [self._group(0, [2.0, 1.0], [0, 3]), self._group(1, [9.0, 0.0], [0, 1])], 10.0
        )
        assert instance.n_variables == 4

    @pytest.mark.parametrize(
        "caps, tickets, match",
        [
            ([1.0, 1.0], [0, 1], "strictly decreasing"),
            ([1.0, 2.0], [0, 1], "strictly decreasing"),
            ([2.0, 1.0], [1, 0], "non-decreasing"),
            ([], [], "no candidates"),
            ([2.0, 1.0], [0], "aligned"),
        ],
    )
    def test_bad_group_rejected(self, caps, tickets, match):
        good = self._group(0, [3.0, 0.0], [0, 2])
        with pytest.raises(ValueError, match=match):
            MckpInstance([good, self._group(1, caps, tickets)], 10.0)
