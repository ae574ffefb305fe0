"""Per-channel cycle attribution: where every bus cycle goes.

Every cycle of a channel simulation is classified into exactly one
category, so the categories always sum to the total cycle count — the
invariant the property tests enforce:

* ``data_beat_in`` — a read data beat crossed the bus;
* ``data_beat_out`` — a write data beat crossed the bus;
* ``refresh`` — the bus was idled by a DRAM refresh window;
* ``bus_turnaround`` — the bus was switching direction (the switch cycle
  itself plus the ``turnaround_cycles`` penalty);
* ``bank_gap`` — bank-management overhead after a request;
* ``pu_backpressure`` — a read beat was ready but every burst register
  was occupied and at least one occupied register is waiting on a PU
  whose input buffer was busy when its drain was scheduled (the
  downstream consumer, not the register count, is the bottleneck);
* ``no_burst_register`` — a read beat was ready but every burst register
  was occupied purely by drains in progress (more registers would have
  helped — the Figure 9 ``r = 1`` signature);
* ``idle`` — nothing was ready: no request ready on either path.  DRAM
  access latency with no address supplied ahead shows up here, which is
  the synchronous-addressing ablation's signature.

Priority order (refresh over turnaround over bank-gap over data over
consumer stalls over idle) mirrors the bus scheduler's own guard order in
:meth:`repro.memory.dram.DramChannel.step`, so the attribution of a cycle
is exactly the reason the scheduler did (or did not) act.

The channel runner attributes a skipped idle window in closed form
(:meth:`ChannelAttribution.record_window`): inside a provably idle window
every classifier input is frozen except the refresh phase — the runner's
thresholds guarantee no turnaround/bank-gap/``ready_at``/register/PU
boundary is crossed — so the window splits into analytically counted
refresh cycles plus a constant base category. The differential tests
assert this equals per-cycle stepping exactly.
"""

DATA_BEAT_IN = "data_beat_in"
DATA_BEAT_OUT = "data_beat_out"
REFRESH = "refresh"
BUS_TURNAROUND = "bus_turnaround"
BANK_GAP = "bank_gap"
PU_BACKPRESSURE = "pu_backpressure"
NO_BURST_REGISTER = "no_burst_register"
IDLE = "idle"

#: Every category, in report order.
CATEGORIES = (
    DATA_BEAT_IN,
    DATA_BEAT_OUT,
    REFRESH,
    BUS_TURNAROUND,
    BANK_GAP,
    PU_BACKPRESSURE,
    NO_BURST_REGISTER,
    IDLE,
)


def refresh_cycles_between(start, end, interval, refresh_cycles):
    """Number of cycles c in [start, end) with ``c % interval <
    refresh_cycles`` — the refreshing cycles of the window, in closed
    form."""
    if end <= start or not interval or not refresh_cycles:
        return 0

    def upto(limit):  # refreshing cycles in [0, limit)
        return (limit // interval) * refresh_cycles + min(
            limit % interval, refresh_cycles
        )

    return upto(end) - upto(start)


class ChannelAttribution:
    """Category -> cycle counts for one channel."""

    __slots__ = ("cycles",)

    def __init__(self):
        self.cycles = {category: 0 for category in CATEGORIES}

    @property
    def total(self):
        return sum(self.cycles.values())

    def record(self, category, n=1):
        self.cycles[category] += n

    def classify_step(self, now, system, delivered, wrote, accept):
        """Classify one stepped cycle from the channel's post-step state
        (see the module docstring for the category semantics)."""
        if delivered is not None:
            return DATA_BEAT_IN
        if wrote:
            return DATA_BEAT_OUT
        dram = system.dram
        if dram.refreshing_at(now):
            return REFRESH
        if dram.turnaround_until > now:
            return BUS_TURNAROUND
        if dram.bank_gap_until > now:
            return BANK_GAP
        if dram.read_head_ready(now) and not accept:
            return system.input_controller.stall_category(now)
        return IDLE

    def record_window(self, start, end, system):
        """Attribute the skipped window [start, end) of an idle jump,
        identically to stepping each cycle.

        The runner only jumps across cycles whose classifier inputs are
        frozen (no threshold boundary lies inside the window), except the
        refresh phase, which is periodic and counted in closed form.
        """
        dram = system.dram
        config = system.config
        refreshing = refresh_cycles_between(
            start, end, config.refresh_interval, config.refresh_cycles
        )
        if refreshing:
            self.cycles[REFRESH] += refreshing
        rest = (end - start) - refreshing
        if not rest:
            return
        if dram.turnaround_until > start:
            base = BUS_TURNAROUND
        elif dram.bank_gap_until > start:
            base = BANK_GAP
        elif dram.read_head_ready(start) and not (
            system.input_controller.can_accept_beat(start)
        ):
            base = system.input_controller.stall_category(start)
        else:
            base = IDLE
        self.cycles[base] += rest

    def as_dict(self):
        """Category -> cycles (every category present, report order)."""
        return dict(self.cycles)

    def percentages(self):
        """Category -> percent of total cycles (0.0 when no cycles)."""
        total = self.total
        if not total:
            return {category: 0.0 for category in CATEGORIES}
        return {
            category: 100.0 * n / total
            for category, n in self.cycles.items()
        }

    def __eq__(self, other):
        if isinstance(other, ChannelAttribution):
            return self.cycles == other.cycles
        return NotImplemented

    def __repr__(self):
        top = max(self.cycles, key=self.cycles.get)
        return (
            f"ChannelAttribution(total={self.total}, top={top}="
            f"{self.cycles[top]})"
        )


def summarize_attribution(cycles, indent=""):
    """Render a category -> cycles mapping as aligned percentage lines."""
    total = sum(cycles.values())
    lines = []
    for category in CATEGORIES:
        n = cycles.get(category, 0)
        if not n:
            continue
        pct = 100.0 * n / total if total else 0.0
        lines.append(f"{indent}{category:<18}{n:>12}  {pct:6.2f}%")
    return "\n".join(lines)
