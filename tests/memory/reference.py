"""The polling output scan the output controller's due-cycle index
replaced.

Each cycle the scan asked the PUs in the round-robin window, one at a
time, whether they held a full (or final partial) burst
(:func:`eligible`). The idle-window check and the next-event query asked
every PU. ``PollingOutputController`` keeps those three loops;
``tests/memory/test_output_index.py`` requires the index to match them.
The one departure from the loops as they were: with zero PUs, the
blocking idle check no longer indexes PU 0.
"""

from repro.memory import ChannelSystem, OutputController


def eligible(oc, idx, now):
    """Does PU ``idx`` of output controller ``oc`` have a burst (or final
    partial burst) to write? Returns its size, or ``None``."""
    pu = oc.pus[idx]
    available = pu.output_available(now)
    if available >= oc.config.burst_bytes:
        return min(available, oc.config.burst_bytes)
    if pu.output_finished(now) and available > 0:
        return available
    return None


def next_output_at(pu, now):
    """The cycle at which output beyond what is available at ``now``
    first appears, or ``None``."""
    for at, _, _ in pu.output_chunks:
        if at > now:
            return at
    return None


class PollingOutputController(OutputController):
    """An output controller that polls its PUs instead of indexing them."""

    def reindex(self, idx):
        pass  # nothing is indexed

    def _pick(self, now):
        n = len(self.pus)
        for _ in range(min(n, self.SCAN_PER_CYCLE)):
            idx = self._rr
            if eligible(self, idx, now) is not None:
                return idx
            if self.config.output_blocking and not self._skippable(idx, now):
                return None
            self._rr = (self._rr + 1) % n
        return None

    def idle_jump_info(self, now):
        if not self.dram.write_addr_ready() or self._free_register(
            now
        ) is None:
            return 0
        n = len(self.pus)
        for idx, pu in enumerate(self.pus):
            if not pu.output_chunks:
                continue  # no output pending, now or later
            if eligible(self, idx, now) is not None:
                return None
        if self.config.output_blocking:
            if n and self._skippable(self._rr, now):
                return None
            return 0
        return min(n, self.SCAN_PER_CYCLE)

    def next_event_after(self, now):
        candidates = []
        for register in self._registers:
            if register.busy_until is not None and register.busy_until > now:
                candidates.append(register.busy_until)
            if register.fill_end is not None and register.fill_end > now:
                candidates.append(register.fill_end)
        for pu in self.pus:
            if pu.free_at > now:
                candidates.append(pu.free_at)
            chunk_at = next_output_at(pu, now)
            if chunk_at is not None:
                candidates.append(chunk_at)
        return min(candidates) if candidates else None


class PollingChannelSystem(ChannelSystem):
    """A channel whose output controller is :class:`PollingOutputController`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        oc = self.output_controller
        self.output_controller = PollingOutputController(
            oc.config, oc.dram, oc.pus, oc.region_bases, obs=oc._obs
        )
