"""Corpus soundness mode for the lint certificate.

The :class:`~repro.lint.certificate.RestrictionCertificate` claims that a
program can never raise :class:`~repro.lang.errors.FleetRestrictionError`
at run time, and the certified engines trust it by performing no dynamic
restriction checks at all. This module *tests* that claim empirically:

* every regression-corpus entry (``tests/corpus``) and every
  fuzzer-generated spec is built and certified;
* each program is executed over its input streams on the checking
  interpreter — a certified-clean program raising
  ``FleetRestrictionError`` is a soundness bug in the analysis and fails
  the run;
* each certified program with a compiled unit
  (:func:`~repro.interp.compile.try_specialize`) runs a second time on
  that unit, the engine that skips the checks, and both outputs and
  final register state must be identical to the checked run.

Programs whose certificate is *not* clean are still executed on the
interpreter; a dynamic ``FleetRestrictionError`` there is fine (the
certificate made no claim), but any other crash of the oracle is
reported.
"""

import random

from ..interp.compile import CompiledSimulator, try_specialize
from ..interp.simulator import UnitSimulator
from ..lang.errors import FleetError, FleetRestrictionError
from ..testing import corpus as corpus_mod
from ..testing import generator
from ..testing import spec as spec_mod
from .certificate import certificate_for

#: Per-token virtual-cycle bound; corpus/fuzz loops are bounded by
#: construction, so this only guards against runaway model bugs.
MAX_VCYCLES = 10_000


class SoundnessViolation(Exception):
    """A certified-clean program behaved differently from its certificate."""

    def __init__(self, name, detail):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.detail = detail


class SoundnessResult:
    """Aggregate outcome of one soundness run. ``compared`` counts the
    certified programs with a compiled unit to compare the checked run
    with."""

    __slots__ = ("checked", "certified", "uncertified", "compared",
                 "violations", "skipped")

    def __init__(self):
        self.checked = 0
        self.certified = 0
        self.uncertified = 0
        self.compared = 0
        self.violations = []
        self.skipped = []

    @property
    def ok(self):
        return not self.violations

    def render(self):
        lines = [
            f"soundness: {self.checked} program(s) checked, "
            f"{self.certified} certified, {self.uncertified} uncertified, "
            f"{self.compared} compared with certified compiled Python"
        ]
        for name, reason in self.skipped:
            lines.append(f"  skipped {name}: {reason}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        if self.ok:
            lines.append("  no certified program raised a restriction error")
        return "\n".join(lines)


def _run(sim, program, stream):
    outputs = list(sim.run(stream))
    state = {r.name: sim.peek_reg(r.name) for r in program.regs}
    return outputs, state


def check_spec(name, spec, streams, result):
    """Certify one spec and validate the certificate's claim dynamically."""
    try:
        program = spec_mod.build_unit(spec)
    except FleetError as exc:
        result.skipped.append((name, f"build failed: {exc}"))
        return
    certificate = certificate_for(program)
    result.checked += 1
    if certificate.ok:
        result.certified += 1
    else:
        result.uncertified += 1
    unit = try_specialize(program)
    if unit is not None:
        result.compared += 1

    for index, stream in enumerate(streams):
        try:
            want, want_state = _run(
                UnitSimulator(program, max_vcycles_per_token=MAX_VCYCLES),
                program, stream)
        except FleetRestrictionError as exc:
            if certificate.ok:
                result.violations.append(SoundnessViolation(
                    name,
                    f"stream {index}: certified clean but raised "
                    f"{type(exc).__name__}: {exc}",
                ))
            # An uncertified program may legitimately trip a dynamic
            # check; either way there is nothing further to compare.
            return
        except FleetError as exc:
            result.skipped.append(
                (name, f"stream {index}: oracle failed: {exc}"))
            return

        if unit is None:
            continue
        sim = CompiledSimulator(program, unit,
                                max_vcycles_per_token=MAX_VCYCLES)
        try:
            got, got_state = _run(sim, program, stream)
        except FleetError as exc:
            result.violations.append(SoundnessViolation(
                name,
                f"stream {index}: certified compiled Python raised "
                f"{type(exc).__name__}: {exc}",
            ))
            return
        if got != want:
            result.violations.append(SoundnessViolation(
                name,
                f"stream {index}: outputs differ without checks: "
                f"checked={want} certified={got}",
            ))
            return
        if got_state != want_state:
            result.violations.append(SoundnessViolation(
                name,
                f"stream {index}: final register state differs without "
                f"checks: checked={want_state} certified={got_state}",
            ))
            return


def check_corpus(directory, result=None):
    """Replay every corpus entry under ``directory`` through the checker."""
    result = result if result is not None else SoundnessResult()
    for name, entry in corpus_mod.load_dir(directory):
        check_spec(f"corpus/{name}", entry["spec"], entry["streams"], result)
    return result


def check_fuzz(count, seed=0, result=None):
    """Generate ``count`` fuzzer programs and validate their certificates."""
    result = result if result is not None else SoundnessResult()
    rng = random.Random(seed)
    for index in range(count):
        spec = generator.generate_spec(rng, name=f"fuzz_{index}")
        streams = generator.generate_streams(rng, spec)
        check_spec(f"fuzz/{index}(seed={seed})", spec, streams, result)
    return result
