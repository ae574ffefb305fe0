"""The conformance engine: generate → differentially check → shrink.

Drives the whole loop under a seed and a budget. Program ``index`` under
``seed`` always replays identically (each program draws from its own
``random.Random(f"{seed}:{index}")``, and string seeding is hash-stable
across processes), so any failure the engine reports can be reproduced
with ``python -m repro.testing --seed SEED --only INDEX``.
"""

import time

from ..lang.errors import FleetError
from . import corpus as corpus_mod
from . import differential, shrinker
from . import generator as generator_mod
from . import spec as spec_mod


class Failure:
    """One disagreement: where it failed and the shrunk repro."""

    def __init__(self, index, seed, stage, detail, spec, streams,
                 shrunk_spec=None, shrunk_streams=None, corpus_path=None):
        self.index = index
        self.seed = seed
        self.stage = stage
        self.detail = detail
        self.spec = spec
        self.streams = streams
        self.shrunk_spec = shrunk_spec
        self.shrunk_streams = shrunk_streams
        self.corpus_path = corpus_path

    def summary(self):
        size = (spec_mod.count_statements(self.shrunk_spec or self.spec))
        saved = f" -> {self.corpus_path}" if self.corpus_path else ""
        return (f"program {self.index} (seed {self.seed}): [{self.stage}] "
                f"{self.detail} (shrunk to {size} statements){saved}")


class FuzzReport:
    """Outcome of one engine run."""

    def __init__(self, seed):
        self.seed = seed
        self.programs = 0
        self.streams = 0
        self.tokens = 0
        self.failures = []
        self.generator_errors = []
        self.feature_counts = {}
        self.elapsed = 0.0

    @property
    def ok(self):
        return not self.failures and not self.generator_errors

    def summary(self):
        lines = [
            f"seed {self.seed}: {self.programs} programs, "
            f"{self.streams} streams, {self.tokens} tokens "
            f"in {self.elapsed:.1f}s",
            "features: "
            + ", ".join(
                f"{tag}={count}"
                for tag, count in sorted(self.feature_counts.items())
            ),
        ]
        for index, message in self.generator_errors:
            lines.append(f"GENERATOR BUG at program {index}: {message}")
        for failure in self.failures:
            lines.append("FAIL " + failure.summary())
        if self.ok:
            lines.append("all models agree")
        return "\n".join(lines)


class ConformanceEngine:
    def __init__(self, *, seed=0, max_programs=100, max_seconds=None,
                 rtl=True, verilog=True, corpus_dir=None,
                 source_transform=None, shrink_failures=True,
                 max_failures=5, config=None, log=None,
                 engines=differential.DEFAULT_ENGINES):
        self.seed = seed
        self.engines = tuple(engines)
        unknown = set(self.engines) - set(differential.ENGINES)
        if unknown:
            raise ValueError(
                f"unknown engine(s) {', '.join(sorted(unknown))}: "
                f"choose from {', '.join(differential.ENGINES)}"
            )
        self.max_programs = max_programs
        self.max_seconds = max_seconds
        self.rtl = rtl
        self.verilog = verilog
        self.corpus_dir = corpus_dir
        self.source_transform = source_transform
        self.shrink_failures = shrink_failures
        self.max_failures = max_failures
        self.config = config or generator_mod.GenConfig()
        self.log = log or (lambda message: None)

    def rng_for(self, index):
        import random

        return random.Random(f"{self.seed}:{index}")

    def generate(self, index):
        rng = self.rng_for(index)
        spec = generator_mod.generate_spec(
            rng, self.config, name=f"fuzz_{index}"
        )
        streams = generator_mod.generate_streams(rng, spec, self.config)
        return spec, streams

    def run_one(self, index, report=None):
        """Check one program; returns a :class:`Failure` or ``None``."""
        spec, streams = self.generate(index)
        if report is not None:
            report.programs += 1
            report.streams += len(streams)
            report.tokens += sum(len(s) for s in streams)
            for tag in spec_mod.features(spec):
                report.feature_counts[tag] = (
                    report.feature_counts.get(tag, 0) + 1
                )
        try:
            differential.check_program(
                spec, streams, rtl=self.rtl, verilog=self.verilog,
                source_transform=self.source_transform,
                engines=self.engines,
            )
            return None
        except differential.Mismatch as exc:
            return self._handle_failure(index, spec, streams, exc)

    def _handle_failure(self, index, spec, streams, exc):
        failure = Failure(
            index, f"{self.seed}:{index}", exc.stage, exc.detail,
            spec, streams,
        )
        self.log(f"program {index} failed at stage {exc.stage}; shrinking")
        if self.shrink_failures:
            small, small_streams, _, attempts = shrinker.shrink(
                spec, streams, rtl=self.rtl, verilog=self.verilog,
                source_transform=self.source_transform,
                engines=self.engines,
            )
            failure.shrunk_spec = small
            failure.shrunk_streams = small_streams
            self.log(
                f"shrunk program {index} to "
                f"{spec_mod.count_statements(small)} statements "
                f"({attempts} attempts)"
            )
        if self.corpus_dir:
            failure.corpus_path = corpus_mod.save_repro(
                self.corpus_dir,
                seed=failure.seed,
                stage=exc.stage,
                spec=failure.shrunk_spec or spec,
                streams=failure.shrunk_streams or streams,
            )
        return failure

    def run(self):
        """Run the full budgeted loop; returns a :class:`FuzzReport`."""
        report = FuzzReport(self.seed)
        started = time.monotonic()
        for index in range(self.max_programs):
            if (self.max_seconds is not None
                    and time.monotonic() - started >= self.max_seconds):
                self.log(f"stopping at program {index}: time budget spent")
                break
            try:
                failure = self.run_one(index, report)
            except FleetError as exc:
                # The oracle rejected a generated program: the generator
                # broke its own well-formedness contract.
                report.generator_errors.append(
                    (index, f"{type(exc).__name__}: {exc}")
                )
                continue
            if failure is not None:
                report.failures.append(failure)
                if len(report.failures) >= self.max_failures:
                    self.log("stopping: failure limit reached")
                    break
        report.elapsed = time.monotonic() - started
        return report
