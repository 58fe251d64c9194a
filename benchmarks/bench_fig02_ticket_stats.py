"""Figure 2 — characterization of usage tickets per box.

Regenerates the three panels: (a) percentage of boxes with at least one
ticket, (b) mean/std tickets per box, (c) culprit VMs covering 80% of a
box's tickets — for CPU and RAM at the 60/70/80% thresholds.

Paper values (Fig. 2): CPU %boxes 57/./40, mean tickets 39/33/29;
RAM %boxes 38/./10, mean tickets 15/11/9; culprits ~1-2 everywhere.
"""

from repro.benchhelpers import characterization_fleet, print_table
from repro.tickets import DEFAULT_THRESHOLDS, fleet_ticket_summary
from repro.trace.model import Resource

PAPER = {
    (Resource.CPU, 60.0): (57.0, 39.0, 1.5),
    (Resource.CPU, 70.0): (48.0, 33.0, 1.5),
    (Resource.CPU, 80.0): (40.0, 29.0, 1.5),
    (Resource.RAM, 60.0): (38.0, 15.0, 1.5),
    (Resource.RAM, 70.0): (20.0, 11.0, 1.5),
    (Resource.RAM, 80.0): (10.0, 9.0, 1.5),
}


def _compute():
    fleet = characterization_fleet()
    return fleet_ticket_summary(fleet, first_windows=96)


def test_fig02_ticket_characterization(benchmark):
    summary = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = []
    for resource in (Resource.CPU, Resource.RAM):
        for threshold in DEFAULT_THRESHOLDS:
            row = summary.row(resource, threshold)
            paper_pct, paper_mean, paper_culprits = PAPER[(resource, threshold)]
            rows.append(
                [
                    resource.value,
                    int(threshold),
                    row["pct_boxes"],
                    paper_pct,
                    row["mean_tickets"],
                    paper_mean,
                    row["std_tickets"],
                    row["mean_culprits"],
                    paper_culprits,
                ]
            )
    print_table(
        "Fig. 2 — usage-ticket characterization (measured vs paper)",
        [
            "res",
            "thr%",
            "%boxes",
            "paper",
            "tickets",
            "paper",
            "std",
            "culprits",
            "paper",
        ],
        rows,
    )

    # Shape assertions: the qualitative claims of Section II-A.
    s60 = summary.row(Resource.CPU, 60.0)
    s80 = summary.row(Resource.CPU, 80.0)
    assert s60["pct_boxes"] > summary.row(Resource.RAM, 60.0)["pct_boxes"], (
        "CPU tickets should touch more boxes than RAM tickets"
    )
    assert s60["mean_tickets"] > s80["mean_tickets"] > 0.5 * s60["mean_tickets"], (
        "ticket counts should decay slowly with the threshold"
    )
    for resource in (Resource.CPU, Resource.RAM):
        for threshold in DEFAULT_THRESHOLDS:
            culprits = summary.row(resource, threshold)["mean_culprits"]
            assert 1.0 <= culprits <= 2.5, "one to two culprit VMs per box"
