#!/usr/bin/env python
"""Section II walkthrough: characterize usage tickets and spatial patterns.

Generates a one-day fleet and reproduces the paper's characterization
study: how many boxes ticket at the 60/70/80% thresholds, how concentrated
the tickets are (culprit VMs), and how strongly co-located series correlate
(the structure ATM exploits).  It also materializes individual ticket
events for one busy box, the way an operator would drill into them.

Run with:  python examples/characterize_fleet.py
"""

from repro.tickets import (
    DEFAULT_THRESHOLDS,
    TicketPolicy,
    correlation_cdfs,
    fleet_incident_stats,
    fleet_ticket_summary,
    tickets_for_box,
)
from repro.trace import FleetConfig, Resource, generate_fleet


def main() -> None:
    fleet = generate_fleet(FleetConfig(n_boxes=80, days=1, seed=11))
    print(f"fleet: {fleet.n_boxes} boxes / {fleet.n_vms} VMs, one day of "
          f"15-minute windows\n")

    summary = fleet_ticket_summary(fleet, first_windows=96)
    print("ticket characterization (cf. paper Fig. 2):")
    print(f"{'res':>5} {'thr%':>5} {'%boxes':>8} {'tickets/box':>12} {'culprits':>9}")
    for resource in (Resource.CPU, Resource.RAM):
        for threshold in DEFAULT_THRESHOLDS:
            row = summary.row(resource, threshold)
            print(
                f"{resource.value:>5} {threshold:>5.0f} {row['pct_boxes']:>8.1f} "
                f"{row['mean_tickets']:>12.1f} {row['mean_culprits']:>9.1f}"
            )

    cdfs = correlation_cdfs(fleet, first_windows=96)
    print("\nspatial correlation, mean of per-box medians (cf. Fig. 3):")
    for name, value in cdfs.means().items():
        print(f"  {name:12s} {value:+.3f}")

    # Triage view: correlated ticket storms collapse into incidents.
    policy = TicketPolicy(threshold_pct=60.0)
    incident_stats = fleet_incident_stats(fleet, policy)
    if incident_stats["incidents"]:
        print(
            f"\ntriage view: {incident_stats['tickets']} tickets collapse into "
            f"{incident_stats['incidents']} incidents "
            f"({incident_stats['tickets_per_incident']:.1f} tickets/incident; "
            f"{100 * incident_stats['spatial_incident_share']:.0f}% span multiple VMs)"
        )
    else:
        print("\ntriage view: no tickets, nothing to triage")

    # Drill into the busiest box the way a ticket queue would show it.
    busiest = max(
        fleet.boxes,
        key=lambda box: len(tickets_for_box(box, policy)),
    )
    events = tickets_for_box(busiest, policy)
    print(f"\nbusiest box {busiest.box_id}: {len(events)} tickets; first five:")
    for event in events[:5]:
        print(
            f"  window {event.window:3d}  {event.vm_id}  "
            f"{event.resource.value.upper()} at {event.usage_pct:.1f}%"
        )


if __name__ == "__main__":
    main()
