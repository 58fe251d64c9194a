"""Processor-sharing queueing primitives for the tier model.

Each tier VM is modelled as an M/G/1 processor-sharing station: a request
with service time ``s`` observed at utilization ``rho`` has expected
response time ``s / (1 - rho)``.  Utilization above a saturation cap means
the station cannot serve the offered rate — throughput is clipped and the
response time pinned at the saturated value (admission control at the load
balancer keeps the queue from growing without bound, which is how the real
testbed's frontend behaves).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SATURATION_RHO", "ps_response_time"]

#: Utilization beyond this counts as saturated.
SATURATION_RHO = 0.95


def ps_response_time(service_time: float, rho: float, rho_cap: float = SATURATION_RHO) -> float:
    """Expected PS response time at utilization ``rho``.

    ``rho`` is clipped into ``[0, rho_cap]`` — the saturated response time
    ``s / (1 - rho_cap)`` is the model's queueing ceiling.
    """
    if service_time < 0:
        raise ValueError("service_time must be non-negative")
    if not 0 < rho_cap < 1:
        raise ValueError("rho_cap must be in (0, 1)")
    effective = float(np.clip(rho, 0.0, rho_cap))
    return service_time / (1.0 - effective)
