"""The benchmark's three workloads: inputs made from the seed, one round
of measured work, and the checks against the AST-interpreter oracle.

Every workload runs rounds until the measured time reaches the run
length. A round returns its end-to-end windows, the jobs it completed,
their input bytes and latencies, and how many of them failed or
disagreed with the oracle. Inputs and checks stay outside the windows.
"""

import copy
import os
import random
import time

#: The five catalog apps with a batch engine (serve_bulk).
BATCH_APPS = ("json_parsing", "integer_coding", "smith_waterman", "regex",
              "bloom_filter")
#: Every app serve_interactive sends: the batch apps, the per-stream
#: decision tree, and the paper's identity unit.
INTERACTIVE_APPS = BATCH_APPS + ("decision_tree", "identity")
#: Tenants and their unequal WFQ weights.
TENANTS = (("gold", 4.0), ("silver", 2.0), ("bronze", 1.0), ("iron", 1.0))
#: The Figure 7 app subset: one app runs every stage (compile_unit and
#: area, interpreter-oracle profiling, memory simulation, the CPU and the
#: GPU ISA baselines); the full fast figure takes about a minute.
FIGURE7_APPS = ("bloom_filter",)
FIGURE7_FAST = dict(sim_cycles=6_000, gpu_lanes=8)
FIGURE9_FAST = dict(fixed_cycles=15_000)


class Round:
    """The outcome of one round of measured work."""

    def __init__(self, windows, ops, nbytes, latencies, failed):
        self.windows = windows
        self.ops = ops
        self.nbytes = nbytes
        self.latencies = latencies
        self.failed = failed

    @property
    def wall(self):
        return sum(end - start for start, end in self.windows)


def quantile_lengths(count, *, alpha, lo, hi):
    """``count`` stream lengths at evenly spaced quantiles of a bounded
    Pareto (Zipf-tailed) distribution: every seed gets the same length
    mix, so run-to-run differences come from contents, not from how
    many long streams a seed happened to draw."""
    lengths = []
    for i in range(count):
        u = (i + 0.5) / count
        lengths.append(min(hi, max(lo, int(lo / (1.0 - u) ** (1 / alpha)))))
    return lengths


def payload(app, rnd, nbytes, index):
    """Stream ``index`` of ``app``'s pool: about ``nbytes`` bytes from the
    ``repro.bench.workloads`` generators (the served header is separate
    and prepended by the server). Integer-coding streams cycle through
    the paper's input ranges by index."""
    from repro.bench import workloads as wl

    if app == "json_parsing":
        return wl.json_records(rnd, nbytes)
    if app == "integer_coding":
        bits = wl.INT_CODING_RANGES[index % len(wl.INT_CODING_RANGES)]
        return bytes(wl.integer_stream(rnd, max(4, nbytes), bits))
    if app == "smith_waterman":
        header = len(wl.SW_TARGET) + 2
        return bytes(wl.dna_stream(rnd, nbytes, plant_every=256)[header:])
    if app == "regex":
        return bytes(wl.email_text(rnd, nbytes, email_every=64))
    if app == "bloom_filter":
        return bytes(wl.bloom_stream(rnd, max(4, nbytes - nbytes % 4)))
    if app == "decision_tree":
        points = max(1, nbytes // 32)  # 8 features x 4 bytes
        return bytes(wl.decision_tree_stream(
            rnd, 32 * points, model=wl.make_gbt_model(random.Random(2)),
        )[0][-32 * points:])
    return bytes(rnd.randrange(256) for _ in range(nbytes))


def _fork(sim):
    """Copy an interpreter that has consumed a stream header; the copy
    shares the program and its declarations with the original."""
    program = sim.program
    memo = {id(program): program}
    for decl in (*program.regs, *program.vregs, *program.brams):
        memo[id(decl)] = decl
    return copy.deepcopy(sim, memo)


def oracle(program, header, streams):
    """``[(outputs, vcycles), ...]`` of the AST interpreter on
    ``header + stream`` for each stream; the header is interpreted once."""
    from repro.interp import UnitSimulator

    base = UnitSimulator(program, engine="interp")
    for token in header:
        base.process_token(token)
    results = []
    for stream in streams:
        sim = _fork(base)
        for token in stream:
            sim.process_token(token)
        sim.finish_stream()
        results.append((list(sim.outputs), sim.trace.total_vcycles))
    return results


class ServeWorkload:
    """Drives one :class:`repro.serve.FleetServer` with ``devices=1`` and
    an otherwise default config over every served app."""

    apps = BATCH_APPS
    pool_lengths = ()
    #: The client and the server's device worker are separate threads.
    single_threaded = False

    def setup(self):
        from repro.serve import ServedApp, catalog_apps
        from repro.serve.server import default_apps

        # Each app's program is built once and shared by every server
        # made from this table, so a later server compiles from the
        # process's warm caches instead of from scratch.
        self.served = {}
        for name, app in {**default_apps(), **catalog_apps()}.items():
            program = app.unit_factory()
            self.served[name] = ServedApp(
                name, lambda program=program: program, header=app.header)
        self.server = self.new_server()

    def new_server(self):
        """A started server with every app compiled and calibrated."""
        from repro.serve import FleetServer, ServeConfig

        server = FleetServer(
            self.served,
            config=ServeConfig(devices=1, tenant_weights=dict(TENANTS)),
        )
        server.start()
        for name in server.cache.app_names():
            server.cache.entry(name)
            server.cost_model.coefficients(name)
        return server

    def prepare(self, seed):
        """Make the stream pool from ``seed`` and run the oracle on it."""
        self.rnd = random.Random(seed)
        self.pool = {
            app: [payload(app, self.rnd, n, i)
                  for i, n in enumerate(self.pool_lengths)]
            for app in self.apps
        }
        self.decks = {}
        self.expected = {}
        for app, streams in self.pool.items():
            served = self.server.cache.app(app)
            self.expected[app] = oracle(
                served.unit_factory(), served.header, streams
            )
        self.digest_source = None

    def deal(self, deck, items):
        """The next item of a shuffled deck of ``items``, reshuffled when
        it runs out: every app, stream count and pool stream comes up
        equally often, so short runs see the same mix on every seed."""
        cards = self.decks.get(deck)
        if not cards:
            cards = self.decks[deck] = list(items)
            self.rnd.shuffle(cards)
        return cards.pop()

    def engines(self):
        stats = self.server.cache.stats()
        return {"engines": stats["engines"], "batched": stats["batched"]}

    def _failed(self, future, app, picks):
        """Whether a job failed or disagrees with the oracle."""
        try:
            result = future.result()
        except Exception:
            return True
        expected = [self.expected[app][i] for i in picks]
        return (result.outputs != [out for out, _ in expected]
                or result.report["device_vcycles"]
                != sum(vc for _, vc in expected))

    def close(self):
        self.server.stop()


class BulkWorkload(ServeWorkload):
    """An offline batch per round: a fresh server (started outside the
    window), every job submitted at once, then ``drain()`` and
    ``report()``. A server's report covers its whole job history, so a
    server per round keeps every round the same amount of work."""

    #: 90 jobs of each app, each app's 1..6 streams-per-job deck dealt
    #: 15 times: every round has the same per-app stream counts.
    jobs_per_round = 450
    pool_lengths = quantile_lengths(6, alpha=1.2, lo=64, hi=4096)

    def _jobs(self):
        jobs = []
        for index in range(self.jobs_per_round):
            app = self.deal("apps", self.apps)
            count = self.deal("counts:" + app, range(1, 7))
            picks = [self.deal(app, range(len(self.pool[app])))
                     for _ in range(count)]
            tenant = TENANTS[index % len(TENANTS)][0]
            jobs.append((app, tenant, picks,
                         [self.pool[app][i] for i in picks]))
        return jobs

    def run_round(self):
        server = self.new_server()
        jobs = self._jobs()
        submitted, futures = [], []
        start = time.perf_counter()
        for app, tenant, _, streams in jobs:
            submitted.append(time.perf_counter())
            futures.append(server.submit(app, streams, tenant=tenant))
        server.drain()
        drained = time.perf_counter()
        report = server.report()
        end = time.perf_counter()
        server.stop()
        if self.digest_source is None:
            totals = report["totals"]
            self.digest_source = [
                totals[k] for k in ("jobs", "streams", "stream_bytes",
                                    "batches", "device_vcycles", "makespan")
            ]
        failed = sum(
            self._failed(future, app, picks)
            for future, (app, _, picks, _) in zip(futures, jobs)
        )
        # Offline clients collect their results once drain() returns.
        return Round(
            [(start, end)], len(jobs),
            sum(len(s) for *_, streams in jobs for s in streams),
            [drained - t for t in submitted], failed,
        )


class InteractiveWorkload(ServeWorkload):
    """A closed loop with one client: submit one single-stream job,
    ``flush()``, wait for the result, repeat. A round is a block of
    requests. A server keeps every job's record for its report, so the
    client moves to a fresh server (started outside the windows) every
    ``rounds_per_server`` rounds: memory and per-job costs then do not
    grow with the run's length, which depends on the host's speed."""

    apps = INTERACTIVE_APPS
    requests_per_round = 28
    rounds_per_server = 20
    rounds = 0
    pool_lengths = [16 + (i * 48) // 8 + 3 for i in range(8)]  # 19..61

    def run_round(self):
        self.rounds += 1
        if self.rounds % self.rounds_per_server == 0:
            self.server.stop()
            self.server = self.new_server()
        server = self.server
        requests = []
        for _ in range(self.requests_per_round):
            app = self.deal("apps", self.apps)
            pick = self.deal(app, range(len(self.pool[app])))
            requests.append((app, pick, [self.pool[app][pick]]))
        windows, futures = [], []
        for app, _, streams in requests:
            start = time.perf_counter()
            future = server.submit(app, streams)
            server.flush()
            try:
                future.result()
            except Exception:
                pass  # counted as failed below
            windows.append((start, time.perf_counter()))
            futures.append(future)
        failures = [
            self._failed(future, app, [pick])
            for future, (app, pick, _) in zip(futures, requests)
        ]
        if self.digest_source is None:
            self.digest_source = [
                [app, None if bad else future.result().report[
                    "device_vcycles"]]
                for bad, future, (app, _, _)
                in zip(failures, futures, requests)
            ]
        return Round(
            windows, len(requests),
            sum(len(streams[0]) for *_, streams in requests),
            [end - start for start, end in windows], sum(failures),
        )


class FiguresWorkload:
    """Regenerates Figure 7 (``--fast`` settings, the app subset) with a
    cold profile cache, then Figure 9 (``--fast``), in-process. A round
    is one regeneration. The inputs are the paper's fixed catalog
    streams, so the seed changes nothing and the figures' numbers can be
    checked against the committed digest."""

    single_threaded = True

    def setup(self):
        import repro.bench.harness  # noqa: F401
        from repro.bench.catalog import catalog

        self.specs = catalog()

    def _regenerate(self):
        import repro.bench.harness as harness

        harness._PROFILE_CACHE.clear()
        rows = harness.run_figure7(apps=list(FIGURE7_APPS), **FIGURE7_FAST)
        figure9 = harness.run_figure9(**FIGURE9_FAST)
        return ([[r.title, r.fleet.gbps, r.cpu.gbps, r.gpu.gbps]
                 for r in rows]
                + [[label, gbps] for label, gbps in figure9])

    def prepare(self, seed):
        """The oracle: the same figures with every unit forced onto the
        AST interpreter (``FLEET_ENGINE=interp``)."""
        previous = os.environ.get("FLEET_ENGINE")
        os.environ["FLEET_ENGINE"] = "interp"
        try:
            self.expected = self._regenerate()
        finally:
            if previous is None:
                del os.environ["FLEET_ENGINE"]
            else:
                os.environ["FLEET_ENGINE"] = previous
        lanes = FIGURE7_FAST["gpu_lanes"]
        self.nbytes = 0
        for key in FIGURE7_APPS:
            spec = self.specs[key]
            for small, large in spec.stream_pairs():
                self.nbytes += len(small) + len(large)
            for warp_small, warp_large in spec.gpu_warp_pairs(lanes=lanes):
                self.nbytes += sum(map(len, warp_small + warp_large))
        self.digest_source = self.expected

    def engines(self):
        return None

    def run_round(self):
        start = time.perf_counter()
        values = self._regenerate()
        end = time.perf_counter()
        return Round([(start, end)], 1, self.nbytes, [end - start],
                     int(values != self.expected))

    def close(self):
        pass


WORKLOADS = {
    "serve_bulk": BulkWorkload,
    "serve_interactive": InteractiveWorkload,
    "figures": FiguresWorkload,
}
