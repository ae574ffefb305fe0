"""Per-tenant weighted-fair queuing and device placement.

**Fairness.** Jobs carry a tenant label; each tenant has a weight
(default 1.0). Scheduling uses classic virtual-finish-time WFQ: tenant
``t``'s next job starts at ``max(t.vfinish, V)`` where ``V`` is the
scheduler's virtual time, and finishes ``cost / weight`` later; jobs are
served in ascending virtual-finish order, ties broken by submission
order. A weight-2 tenant therefore gets twice the device share of a
weight-1 tenant under contention, and an idle tenant accumulates no
unbounded credit (``V`` advances past its last finish).

**Placement.** Batches go to the device with the least *scheduled*
virtual load (predicted makespans of everything already queued to it),
ties to the lowest index — a deterministic greedy LPT over devices.
Measured clocks are not consulted at placement time: they advance on
worker threads, and consulting them would make batch placement depend on
thread timing, breaking the determinism contract.
"""


class _TenantState:
    __slots__ = ("weight", "vfinish", "device_vcycles", "jobs", "streams")

    def __init__(self, weight):
        self.weight = weight
        self.vfinish = 0.0
        self.device_vcycles = 0  # measured, accumulated at report time
        self.jobs = 0
        self.streams = 0


class WeightedFairQueue:
    """Deterministic per-tenant WFQ ordering over job windows."""

    def __init__(self, weights=None):
        self._weights = dict(weights or {})
        self._tenants = {}
        self._v = 0.0  # scheduler virtual time

    def tenant(self, name):
        state = self._tenants.get(name)
        if state is None:
            state = self._tenants[name] = _TenantState(
                float(self._weights.get(name, 1.0))
            )
        return state

    def order(self, jobs, cost_of):
        """Stamp each job's virtual finish time and return the jobs in
        service order. ``cost_of(job)`` is the job's predicted total
        virtual-cycle cost."""
        for job in jobs:  # submission order
            tenant = self.tenant(job.tenant)
            start = max(tenant.vfinish, self._v)
            tenant.vfinish = start + cost_of(job) / tenant.weight
            job.vfinish = tenant.vfinish
        ordered = sorted(jobs, key=lambda j: (j.vfinish, j.job_id))
        if ordered:
            # Virtual time advances to the earliest finish in the window
            # so long-idle tenants cannot bank unbounded credit.
            self._v = max(self._v, min(j.vfinish for j in ordered))
        return ordered

    def snapshot(self):
        """Per-tenant state for the serve run report."""
        return {
            name: state for name, state in sorted(self._tenants.items())
        }


def place_batch(batch, device_loads):
    """Pick the least-loaded device index (ties -> lowest index) and
    charge the batch's predicted makespan to it."""
    index = min(
        range(len(device_loads)), key=lambda i: (device_loads[i], i)
    )
    device_loads[index] += batch.predicted_makespan
    batch.device_index = index
    return index
