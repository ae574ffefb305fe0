"""The Fleet input controller (paper Section 5).

Round-robin over the processing units, with the two key optimizations the
paper evaluates in its Figure 9:

* **Asynchronous address supply** — a separate addressing unit runs several
  steps ahead of the data transfer unit, submitting read addresses to the
  AXI interface long before the data is needed, hiding DRAM latency. The
  synchronous ablation submits one request at a time, waiting for the
  previous burst to be received *and* drained.
* **Burst registers** — ``r = bus_width / port_width`` registers each hold
  one received burst and drain in parallel into their PUs' narrow input
  buffers, so the controller keeps up with the full 512-bit bus even
  though each PU can only accept 32 bits per cycle. The ``r = 1`` ablation
  serializes drains and throughput collapses to one port's worth.

The addressing unit is *blocking* on the input side (the paper's default):
it waits on each PU in round-robin order, skipping only PUs whose streams
are fully requested. Prefetch depth per PU is bounded (two bursts ahead);
in blocking mode the addressing unit waits at a PU that is already full,
while in nonblocking mode (``input_blocking=False``) it skips ahead — the
paper notes blocking is fine because "processing units generally process
input at roughly the same rate", and the controller tests show exactly
when that assumption matters.
"""

from collections import deque

from ..obs.attribution import NO_BURST_REGISTER, PU_BACKPRESSURE

#: Bursts the addressing unit may run ahead of one PU's consumption.
PREFETCH_PER_PU = 2


class _Register:
    __slots__ = ("free_at", "filling", "payload", "pu_deferred")

    def __init__(self):
        self.free_at = 0
        self.filling = None  # in-flight tag currently landing here
        self.payload = None
        # Whether the drain occupying this register had to wait for its
        # PU's buffer (cycle attribution: pu_backpressure vs
        # no_burst_register).
        self.pu_deferred = False


class InputController:
    """Feeds every PU its own stream from one DRAM channel."""

    def __init__(self, config, dram, pus, stream_bases=None, obs=None):
        self.config = config
        self.dram = dram
        self.pus = pus
        self._obs = obs  # ChannelObservation or None (hooks skipped)
        # Where each PU's stream lives in channel memory (data mode).
        self.stream_bases = stream_bases or [0] * len(pus)
        self._requested = [0] * len(pus)  # bytes requested so far per PU
        self._outstanding = [0] * len(pus)  # bursts requested, undrained
        self._rr = 0
        self._registers = [
            _Register() for _ in range(config.burst_registers)
        ]
        self._inflight = deque()  # tags in AXI order: (pu, nbytes, beats)
        self._fill = {}  # tag -> (register, bytes received)
        self.bytes_delivered = 0

    # -- addressing unit ------------------------------------------------------------
    def _next_pu(self, now):
        """Round-robin choice; skips PUs whose streams are fully
        requested (the paper's input addressing unit skips finished PUs).
        A PU at its prefetch cap makes the blocking unit *wait* and the
        nonblocking unit skip."""
        n = len(self.pus)
        slack = PREFETCH_PER_PU * self.config.drain_cycles
        for offset in range(n):
            idx = (self._rr + offset) % n
            if self._requested[idx] >= self.pus[idx].stream_bytes:
                continue  # finished: always skipped
            # "Full": enough work is already queued ahead of this PU —
            # either requests in flight or scheduled drains reaching past
            # the prefetch horizon.
            full = (
                self._outstanding[idx] >= PREFETCH_PER_PU
                or self.pus[idx].free_at > now + slack
            )
            if full:
                if self.config.input_blocking:
                    return None  # wait here, as the paper's unit does
                continue
            return idx
        return None

    def _may_submit(self, now):
        if not self.dram.read_addr_ready():
            return False
        if self.config.async_addressing:
            return len(self._inflight) < self.config.max_outstanding
        # Synchronous ablation: strictly one burst in flight, and the
        # previous one fully drained.
        if self._inflight:
            return False
        return all(reg.free_at <= now for reg in self._registers)

    def submit_addresses(self, now):
        """Give the addressing unit a chance to issue one read; returns
        whether a request was submitted."""
        if not self._may_submit(now):
            return False
        idx = self._next_pu(now)
        if idx is None:
            return False
        pu = self.pus[idx]
        remaining = pu.stream_bytes - self._requested[idx]
        nbytes = min(self.config.burst_bytes, remaining)
        beats = (nbytes + self.config.bus_bytes - 1) // self.config.bus_bytes
        addr = self.stream_bases[idx] + self._requested[idx]
        tag = (idx, nbytes, beats)
        self.dram.submit_read(addr, beats, tag=tag)
        self._inflight.append(tag)
        self._requested[idx] += nbytes
        self._outstanding[idx] += 1
        self._rr = (idx + 1) % len(self.pus)
        if self._obs is not None:
            self._obs.read_submitted(now)
        return True

    def next_event_after(self, now):
        """Earliest cycle after ``now`` at which this controller's (or its
        PUs') time-gated conditions can change, or ``None``.

        A burst register's ``free_at`` gates both address submission (the
        synchronous ablation) and beat acceptance; a PU's ``free_at`` gates
        the prefetch-cap test in :meth:`_next_pu` (which compares against
        ``free_at - slack``) and the drain scheduling.
        """
        candidates = []
        for register in self._registers:
            if register.free_at > now:
                candidates.append(register.free_at)
        slack = PREFETCH_PER_PU * self.config.drain_cycles
        for pu in self.pus:
            if pu.free_at > now:
                candidates.append(pu.free_at)
                if pu.free_at - slack > now:
                    candidates.append(pu.free_at - slack)
        return min(candidates) if candidates else None

    # -- data transfer unit ------------------------------------------------------------
    def can_accept_beat(self, now):
        """Whether the head in-flight request has (or can get) a landing
        burst register this cycle — the AXI data-channel ready signal."""
        if not self._inflight:
            return False
        tag = self._inflight[0]
        if tag in self._fill:
            return True
        return self._find_free_register(now) is not None

    def _find_free_register(self, now):
        for register in self._registers:
            if register.filling is None and register.free_at <= now:
                return register
        return None

    def accept_beat(self, now, tag, beat, last, payload):
        """Handle one read data beat delivered by the channel."""
        assert self._inflight and self._inflight[0] == tag, (
            "AXI read data must arrive in address order"
        )
        fill = self._fill.get(tag)
        if fill is None:
            register = self._find_free_register(now)
            register.filling = tag
            register.payload = bytearray() if payload is not None else None
            fill = self._fill[tag] = register
        if payload is not None:
            fill.payload += payload
        if last:
            self._inflight.popleft()
            del self._fill[tag]
            if self._obs is not None:
                self._obs.read_burst_done(tag[0], tag[1], now)
            self._start_drain(now, fill, tag)

    def _start_drain(self, now, register, tag):
        """Burst fully received: drain it into the PU's buffer as soon as
        that buffer is free. Drains of different registers proceed in
        parallel (one port per PU)."""
        idx, nbytes, _ = tag
        pu = self.pus[idx]
        port_bytes = self.config.port_width_bits // 8
        drain_cycles = (nbytes + port_bytes - 1) // port_bytes
        drain_start = max(now + 1, pu.free_at)
        drain_end = drain_start + drain_cycles
        payload = bytes(register.payload) if register.payload is not None \
            else None
        prev_free = pu.free_at
        done = pu.deliver_burst(drain_start, drain_end, nbytes, payload)
        register.filling = None
        register.payload = None
        register.free_at = drain_end
        register.pu_deferred = drain_start > now + 1
        self._outstanding[idx] -= 1
        self.bytes_delivered += nbytes
        if self._obs is not None:
            self._obs.pu_burst(idx, drain_start, done, prev_free, nbytes)

    # -- observability -------------------------------------------------------
    def occupied_registers(self, now):
        """How many burst registers are occupied at ``now`` (filling, or
        holding a burst whose drain has not completed)."""
        occupied = 0
        for register in self._registers:
            if register.filling is not None or register.free_at > now:
                occupied += 1
        return occupied

    def stall_category(self, now):
        """Why a ready read beat cannot be accepted at ``now``: every
        register is occupied — by PU-deferred drains
        (``pu_backpressure``) or purely by drains in progress
        (``no_burst_register``)."""
        for register in self._registers:
            if register.free_at > now and register.pu_deferred:
                return PU_BACKPRESSURE
        return NO_BURST_REGISTER

    @property
    def finished(self):
        return (
            not self._inflight
            and all(
                self._requested[i] >= pu.stream_bytes
                for i, pu in enumerate(self.pus)
            )
        )
