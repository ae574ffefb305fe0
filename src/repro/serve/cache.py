"""The compiled-app cache: repeat jobs for the same unit skip
recompilation.

Building a unit's fast engine (:func:`repro.interp.fast_engine_for` —
certification, lowering, Python printing, ``compile``/``exec``) costs
far more than simulating one short stream, so a server that recompiled
per stream would spend its life in the compiler. The cache compiles each
registered app **once** (per-key, under a lock, so two device workers
racing on a cold key block rather than compiling twice). Device workers
run an entry's batches on its kernel, or stream by stream through
:func:`repro.interp.make_simulator`, which finds the compiled unit the
entry built.

Hit/miss totals are deterministic for a deterministic workload: misses
equal the number of distinct apps compiled, hits are lookups minus
misses, regardless of thread interleaving.

Programs are immutable, so an entry's engines stay valid for its
lifetime and a lookup never re-hashes the program. Each entry records
its program's fingerprint once, when it is built. The engines
themselves live in the program structure's artifact record
(:func:`repro.lint.certificate.artifacts_for`): a second cache, or a
factory that builds a fresh but structurally identical program, shares
them instead of certifying and compiling again.
"""

import threading

from ..interp import batch_engine_for, fast_engine_for
from ..lint import program_fingerprint
from ..telemetry.metrics import counter as _tm_counter

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_CACHE_LOOKUPS = _tm_counter(
    "fleet_serve_app_cache_lookups_total",
    "Compiled-app cache lookups, by outcome",
    ("result",),
)


class ServedApp:
    """One registered application: a unit factory plus the header the
    runtime prepends to every stream (field tables, models, ...)."""

    def __init__(self, name, unit_factory, *, header=b""):
        self.name = name
        self.unit_factory = unit_factory
        self.header = bytes(header)

    def __repr__(self):
        return f"ServedApp({self.name!r}, header={len(self.header)}B)"


class _Entry:
    """One compiled app: the checked program, its batch kernel, the
    engine its streams resolve to (the kernel, then compiled Python,
    then the interpreter — best available wins), and its slot count,
    filled in lazily by the server.

    Only the engine serving runs is built. An app with a kernel runs
    and calibrates on it, so its compiled Python is left to whoever
    first asks for it (:func:`repro.interp.make_simulator`, as the
    memory simulation does)."""

    __slots__ = ("app", "program", "batch_unit", "engine",
                 "fingerprint", "pu_slots", "lock")

    def __init__(self, app):
        self.app = app
        self.program = app.unit_factory()
        # The batch kernel for the device workers' batch slots (None
        # when uncertified, unsupported, vetoed, or no kernel can be
        # built here; workers then run per stream).
        self.batch_unit = batch_engine_for(self.program)
        if self.batch_unit is not None:
            self.engine = "cc"
        elif fast_engine_for(self.program) is not None:
            # Builds (or refuses) the compiled unit once per structure.
            self.engine = "compiled-certified"
        else:
            self.engine = "interp"
        # The structure whose artifact record holds these engines.
        self.fingerprint = program_fingerprint(self.program)
        self.pu_slots = None  # area-model slot count, filled by the server
        self.lock = threading.Lock()


class CompiledAppCache:
    """Thread-safe name -> compiled app cache with hit/miss stats."""

    def __init__(self, apps):
        self._apps = dict(apps)
        self._entries = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __contains__(self, name):
        return name in self._apps

    def app(self, name):
        return self._apps[name]

    def app_names(self):
        return sorted(self._apps)

    def entry(self, name):
        """The cached entry for ``name``, compiling on first use."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._hits += 1
                _CACHE_LOOKUPS.inc(result="hit")
                return entry
            self._misses += 1
            _CACHE_LOOKUPS.inc(result="miss")
            # Compile under the cache lock: a second worker racing on the
            # same cold key must wait for the one compilation, not start
            # its own. Compilation is fast relative to a serve batch and
            # only happens once per app.
            entry = self._entries[name] = _Entry(self._apps[name])
            return entry

    def built(self, name):
        """The entry for ``name`` if it is built, else ``None``. Not a
        lookup: it builds nothing and counts no hit or miss."""
        with self._lock:
            return self._entries.get(name)

    def stats(self):
        with self._lock:
            batched = sorted(
                name for name, e in self._entries.items()
                if e.batch_unit is not None
            )
            return {
                "hits": self._hits,
                "misses": self._misses,
                # Per-app engine matrix: which per-stream engine each
                # compiled app resolved to (cc / compiled-certified /
                # interp).
                "engines": {
                    name: e.engine
                    for name, e in sorted(self._entries.items())
                },
                "compiled": sorted(
                    name for name, e in self._entries.items()
                    if e.engine != "interp"
                ),
                "interpreted": sorted(
                    name for name, e in self._entries.items()
                    if e.engine == "interp"
                ),
                # The batch kernel is the native engine: both lists name
                # the apps that have one.
                "batched": batched,
                "native": list(batched),
            }
