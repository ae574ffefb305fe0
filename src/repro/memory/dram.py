"""A cycle-level DDR3/AXI4 channel model.

One channel has an in-order read path and an in-order write path sharing a
bidirectional data bus (as on the F1's DDR3 DIMMs):

* read requests are accepted one per cycle; the first beat of a request
  cannot appear on the bus until ``dram_latency`` cycles after acceptance;
* write requests are accepted one per cycle; their data beats must be
  pushed in address order and are transferred when the bus schedules them;
* every beat occupies the bus for one cycle; switching bus direction costs
  ``turnaround_cycles``; the scheduler batches up to
  ``max_direction_beats`` in one direction while work is available;
* refresh steals ``refresh_cycles`` out of every ``refresh_interval``
  (≈6%, the tRFC/tREFI ratio), and every ``bank_gap_every``-th request
  pays ``bank_gap_cycles`` of bank-management overhead.

The model optionally carries real data: construct it with a ``bytearray``
and reads return slices while writes store them, so the memory-controller
tests can prove end-to-end integrity, not just throughput.
"""

from collections import deque


class _ReadRequest:
    __slots__ = ("addr", "beats", "ready_at", "delivered", "tag")

    def __init__(self, addr, beats, ready_at, tag):
        self.addr = addr
        self.beats = beats
        self.ready_at = ready_at
        self.delivered = 0
        self.tag = tag


class _WriteRequest:
    __slots__ = ("addr", "beats", "pushed", "written", "tag")

    def __init__(self, addr, beats, tag):
        self.addr = addr
        self.beats = beats
        self.pushed = deque()  # data beats supplied by the controller
        self.written = 0
        self.tag = tag


class DramChannel:
    """One channel; step with :meth:`step` once per cycle."""

    READ, WRITE = 0, 1

    def __init__(self, config, data=None):
        self.config = config
        self.data = data  # bytearray or None (timing-only mode)
        self.cycle = 0
        self._reads = deque()
        self._writes = deque()
        self._direction = self.READ
        self._direction_beats = 0
        self._turnaround_until = 0
        self._requests_seen = 0
        self._bank_gap_until = 0
        #: Whether the last :meth:`step` changed any state beyond the
        #: cycle counter (a beat transferred or the bus turned around) —
        #: the event-driven runner's idle detector.
        self.acted = False
        # Statistics.
        self.read_beats = 0
        self.write_beats = 0
        self.busy_cycles = 0

    # -- request submission -------------------------------------------------
    def read_addr_ready(self):
        return len(self._reads) < 64

    def submit_read(self, addr, beats, tag=None):
        assert self.read_addr_ready()
        self._reads.append(
            _ReadRequest(
                addr, beats, self.cycle + self.config.dram_latency, tag
            )
        )
        self._account_request()

    def write_addr_ready(self):
        return len(self._writes) < 64

    def submit_write(self, addr, beats, tag=None):
        assert self.write_addr_ready()
        self._writes.append(_WriteRequest(addr, beats, tag))
        self._account_request()

    def push_write_beat(self, tag, payload=None):
        """Supply one beat of write data (in address order across
        requests, as AXI4 requires)."""
        for request in self._writes:
            if len(request.pushed) + request.written < request.beats:
                assert request.tag == tag, (
                    f"write data out of address order: expected data for "
                    f"{request.tag!r}, got {tag!r}"
                )
                request.pushed.append(payload)
                return
        raise AssertionError("write data pushed with no open write request")

    def _account_request(self):
        self._requests_seen += 1
        if (
            self.config.bank_gap_every
            and self._requests_seen % self.config.bank_gap_every == 0
        ):
            self._bank_gap_until = max(
                self._bank_gap_until, self.cycle + self.config.bank_gap_cycles
            )

    # -- per-cycle bus scheduling ----------------------------------------------
    def _refreshing(self):
        return self.refreshing_at(self.cycle)

    def refreshing_at(self, now):
        """Whether the periodic refresh window covers cycle ``now``."""
        interval = self.config.refresh_interval
        if not interval:
            return False
        return now % interval < self.config.refresh_cycles

    def read_head_ready(self, now):
        """Whether the head read request has data ready for the bus at
        ``now`` (the cycle-attribution classifier's stall predicate)."""
        return bool(self._reads) and self._reads[0].ready_at <= now

    @property
    def turnaround_until(self):
        """First cycle after the current bus-turnaround penalty."""
        return self._turnaround_until

    @property
    def bank_gap_until(self):
        """First cycle after the current bank-management penalty."""
        return self._bank_gap_until

    def _read_beat_ready(self):
        if not self._reads:
            return False
        head = self._reads[0]
        return self.cycle >= head.ready_at

    def _write_beat_ready(self):
        if not self._writes:
            return False
        head = self._writes[0]
        return bool(head.pushed)

    def step(self, read_accept=True):
        """Advance one cycle; returns a delivered read beat as
        ``(tag, beat_index, last, payload)`` or ``None``.

        ``read_accept`` is the consumer's AXI R-channel ready signal: when
        false, read beats are withheld this cycle (writes may proceed).
        """
        delivered = None
        self.acted = False
        if (
            not self._refreshing()
            and self.cycle >= self._turnaround_until
            and self.cycle >= self._bank_gap_until
        ):
            want_read = self._read_beat_ready() and read_accept
            want_write = self._write_beat_ready()
            direction = self._direction
            # Batch in the current direction; switch when it runs dry or
            # the batch limit is hit and the other side is waiting.
            current_ready = want_read if direction == self.READ else (
                want_write
            )
            other_ready = want_write if direction == self.READ else want_read
            switch = (not current_ready and other_ready) or (
                other_ready
                and self._direction_beats >= self.config.max_direction_beats
            )
            if switch:
                self._direction = (
                    self.WRITE if direction == self.READ else self.READ
                )
                self._direction_beats = 0
                self._turnaround_until = (
                    self.cycle + self.config.turnaround_cycles
                )
                self.acted = True
            elif current_ready:
                delivered = self._transfer_beat()
                self.acted = True
        self.cycle += 1
        return delivered

    def next_event_after(self, now):
        """Earliest cycle after ``now`` at which an idle bus could become
        able to act, or ``None`` when no such time is implied by current
        state.

        Only *enabling* boundaries matter: the end of a refresh period or
        of a turnaround/bank-gap penalty, and the ``ready_at`` of the head
        read request. Everything else that could wake the bus (write data
        pushed, a burst register freeing up) is an action of another
        component with its own computable next-event time — the
        event-driven runner takes the minimum across components.
        """
        candidates = []
        interval = self.config.refresh_interval
        if interval and now % interval < self.config.refresh_cycles:
            candidates.append(
                now - now % interval + self.config.refresh_cycles
            )
        if self._turnaround_until > now:
            candidates.append(self._turnaround_until)
        if self._bank_gap_until > now:
            candidates.append(self._bank_gap_until)
        if self._reads and self._reads[0].ready_at > now:
            candidates.append(self._reads[0].ready_at)
        return min(candidates) if candidates else None

    def _transfer_beat(self):
        self.busy_cycles += 1
        self._direction_beats += 1
        if self._direction == self.READ:
            head = self._reads[0]
            beat = head.delivered
            payload = None
            if self.data is not None:
                offset = head.addr + beat * self.config.bus_bytes
                payload = bytes(
                    self.data[offset:offset + self.config.bus_bytes]
                )
            head.delivered += 1
            self.read_beats += 1
            last = head.delivered == head.beats
            if last:
                self._reads.popleft()
            return (head.tag, beat, last, payload)
        head = self._writes[0]
        payload = head.pushed.popleft()
        if self.data is not None and payload is not None:
            offset = head.addr + head.written * self.config.bus_bytes
            self.data[offset:offset + len(payload)] = payload
        head.written += 1
        self.write_beats += 1
        if head.written == head.beats:
            self._writes.popleft()
        return None
