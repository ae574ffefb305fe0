"""One complete memory channel: DRAM + input controller + output controller
+ the processing units they serve.

The paper instantiates a separate input and output controller per AXI4
channel with no cross-channel coordination, so the full 4-channel F1
system is simulated as independent channels and aggregated
(:func:`simulate_channels`).
"""

from ..lang.errors import FleetSimulationError
from .dram import DramChannel
from .input_controller import InputController
from .output_controller import OutputController


class ChannelStats:
    """Results of one channel simulation.

    ``attribution`` is ``None`` unless the run was observed
    (:mod:`repro.obs`): then it maps each cycle-attribution category to
    its cycle count, summing to :attr:`cycles` (summing to the *total*
    across channels for aggregated stats; see :func:`simulate_channels`).
    Existing callers — including the pickled/JSON bench outputs, which
    only consume the numeric fields — are unaffected.
    """

    def __init__(self, cycles, bytes_in, bytes_out, config,
                 attribution=None):
        self.cycles = cycles
        self.bytes_in = bytes_in
        self.bytes_out = bytes_out
        self.config = config
        self.attribution = attribution

    @property
    def input_gbps(self):
        return self.config.gbps(self.bytes_in, self.cycles)

    @property
    def output_gbps(self):
        return self.config.gbps(self.bytes_out, self.cycles)

    def summary(self):
        """Multi-line text: throughput plus (when observed) the percent
        of cycles spent in each attribution category."""
        lines = [repr(self)]
        if self.attribution:
            from ..obs.attribution import summarize_attribution
            lines.append(summarize_attribution(self.attribution,
                                               indent="  "))
        return "\n".join(lines)

    def __repr__(self):
        base = (
            f"ChannelStats(cycles={self.cycles}, in={self.input_gbps:.2f} "
            f"GB/s, out={self.output_gbps:.2f} GB/s"
        )
        if self.attribution:
            total = sum(self.attribution.values())
            top = max(self.attribution, key=self.attribution.get)
            share = 100.0 * self.attribution[top] / total if total else 0.0
            base += f", top={top} {share:.0f}%"
        return base + ")"


class ChannelSystem:
    """Cycle-steps one channel until the work drains or a horizon hits.

    With ``event_driven`` (the default) the runners skip provably idle
    stretches in one jump: whenever a step changes nothing, the system
    computes the earliest future cycle at which any component's
    time-gated condition can flip (DRAM refresh/turnaround/bank-gap
    boundaries, read ``ready_at``, burst-register and PU ``free_at``,
    the cycle each PU's output becomes due) and warps there, emulating the
    output controller's round-robin walk across the skipped cycles.
    Results are cycle-exact versus stepped simulation — every state
    change happens on a threshold cycle, and threshold cycles are never
    skipped. Pass ``event_driven=False`` to force pure stepping (the
    differential tests do).
    """

    def __init__(self, config, pus, data=None, stream_bases=None,
                 out_bases=None, event_driven=True, obs=None):
        self.config = config
        self.pus = pus
        self.event_driven = event_driven
        self.dram = DramChannel(config, data=data)
        # Observability (repro.obs): attach a per-channel scope when an
        # Observation is supplied; with None every hook below reduces to
        # one predicate check per cycle.
        self._obs = obs.channel(config, len(pus)) if obs is not None \
            else None
        self.input_controller = InputController(
            config, self.dram, pus, stream_bases, obs=self._obs
        )
        self.output_controller = OutputController(
            config, self.dram, pus, out_bases, obs=self._obs
        )
        self.cycle = 0

    @property
    def observation(self):
        """This channel's :class:`~repro.obs.ChannelObservation` (or
        ``None`` when the run is not observed)."""
        return self._obs

    def _step_acted(self):
        """One cycle; returns whether any component changed state."""
        now = self.cycle
        obs = self._obs
        acted = self.input_controller.submit_addresses(now)
        acted = self.output_controller.submit_addresses(now) or acted
        acted = self.output_controller.push_data(now) or acted
        accept = self.input_controller.can_accept_beat(now)
        # The channel only transfers a read beat when the controller has a
        # burst register for it (the AXI R-channel ready signal).
        if obs is None:
            delivered = self.dram.step(read_accept=accept)
        else:
            write_beats = self.dram.write_beats
            delivered = self.dram.step(read_accept=accept)
        acted = self.dram.acted or acted
        if delivered is not None:
            tag, beat, last, payload = delivered
            self.input_controller.accept_beat(now, tag, beat, last, payload)
            if last:
                # The burst has landed at its PU, which may emit output.
                self.output_controller.reindex(tag[0])
        acted = self.output_controller.release(now) or acted
        if obs is not None:
            obs.on_cycle(
                now, self, delivered,
                self.dram.write_beats - write_beats, accept,
            )
        self.cycle += 1
        return acted

    def _fast_forward(self, horizon):
        """After an idle cycle, jump to the next cycle where anything can
        happen (capped at ``horizon``), preserving cycle-exactness.
        Returns the number of cycles skipped."""
        prev = self.cycle - 1  # the cycle just proven idle
        rr_step = self.output_controller.idle_jump_info(prev)
        if rr_step is None:
            return 0
        thresholds = [
            self.dram.next_event_after(prev),
            self.input_controller.next_event_after(prev),
            self.output_controller.next_event_after(prev),
        ]
        future = [t for t in thresholds if t is not None]
        # No thresholds at all: nothing can ever act again — warp to the
        # horizon (stepped simulation would idle its way there).
        target = min(min(future) if future else horizon, horizon)
        if target <= self.cycle:
            return 0
        skipped = target - self.cycle
        if rr_step:
            oc = self.output_controller
            oc._rr = (oc._rr + rr_step * skipped) % len(self.pus)
        if self._obs is not None:
            # Attribute the skipped window exactly as stepping would:
            # all classifier inputs are frozen inside it (every
            # threshold lies at or beyond ``target``) except the refresh
            # phase, which record_window counts in closed form.
            self._obs.on_window(self.cycle, target, self)
        self.cycle = target
        self.dram.cycle = target
        return skipped

    def drained(self):
        """All input delivered to PUs, all PU output written back."""
        now = self.cycle
        if not self.input_controller.finished:
            return False
        if any(reg.free_at > now for reg in
               self.input_controller._registers):
            return False
        for pu in self.pus:
            if not pu.output_finished(now) or pu.output_available(now):
                return False
        return self.output_controller.finished

    def run(self, max_cycles=2_000_000):
        """Run to completion (or the horizon); returns :class:`ChannelStats`."""
        idle_streak = 0
        threshold = 2
        while self.cycle < max_cycles and not self.drained():
            if self._step_acted():
                idle_streak = 0
            elif self.event_driven:
                # Attempt a jump only once an idle stretch establishes
                # itself, and back off when jumps come up short: the
                # input controller's threshold scan is O(PUs), so on a
                # channel whose events are dense it costs more than the
                # jumps save.
                idle_streak += 1
                if idle_streak >= threshold:
                    idle_streak = 0
                    skipped = self._fast_forward(max_cycles)
                    if skipped * 8 >= len(self.pus):
                        threshold = 2
                    else:
                        # Cap low: idle windows between bursts are tens of
                        # cycles, and a cap past that length would lock
                        # jumping out for good after a few short jumps.
                        threshold = min(16, threshold * 4)
        return self._finish_stats()

    def run_for(self, cycles):
        """Run exactly ``cycles`` cycles (throughput measurements)."""
        end = self.cycle + cycles
        idle_streak = 0
        threshold = 2
        while self.cycle < end:
            if self._step_acted():
                idle_streak = 0
            elif self.event_driven:
                idle_streak += 1
                if idle_streak >= threshold:
                    idle_streak = 0
                    skipped = self._fast_forward(end)
                    if skipped * 8 >= len(self.pus):
                        threshold = 2
                    else:
                        threshold = min(16, threshold * 4)
        return self._finish_stats()

    def _finish_stats(self):
        """Build the run's :class:`ChannelStats` (with attribution when
        observed) and finalize the observation scope."""
        attribution = (
            self._obs.attribution.as_dict() if self._obs is not None
            else None
        )
        stats = ChannelStats(
            self.cycle,
            self.input_controller.bytes_delivered,
            self.output_controller.bytes_accepted,
            self.config,
            attribution=attribution,
        )
        if self._obs is not None:
            self._obs.finalize(stats, self)
        return stats


def simulate_channels(config, make_pus, channels=4, data=None,
                      max_cycles=2_000_000, fixed_cycles=None,
                      event_driven=True, obs=None):
    """Simulate ``channels`` independent channels (the paper's F1 has four)
    and aggregate their throughput.

    ``make_pus(channel_index)`` returns the PU list for one channel.
    Without ``fixed_cycles`` each channel runs until it drains; one that
    has not drained by ``max_cycles`` raises
    :class:`~repro.lang.errors.FleetSimulationError`. ``obs`` (a
    :class:`repro.obs.Observation`) attaches one observation
    scope per channel; the aggregate stats then carry the summed
    attribution (each per-channel scope still sums to its own cycles).
    """
    total_in = total_out = 0
    worst_cycles = 0
    aggregate = None
    for index in range(channels):
        system = ChannelSystem(
            config, make_pus(index), data=data, event_driven=event_driven,
            obs=obs,
        )
        if fixed_cycles is not None:
            stats = system.run_for(fixed_cycles)
        else:
            stats = system.run(max_cycles=max_cycles)
            if not system.drained():
                raise FleetSimulationError(
                    f"channel {index} did not drain within {max_cycles} "
                    f"cycles"
                )
        total_in += stats.bytes_in
        total_out += stats.bytes_out
        worst_cycles = max(worst_cycles, stats.cycles)
        if stats.attribution is not None:
            if aggregate is None:
                aggregate = dict(stats.attribution)
            else:
                for category, n in stats.attribution.items():
                    aggregate[category] += n
    return ChannelStats(worst_cycles, total_in, total_out, config,
                        attribution=aggregate)
