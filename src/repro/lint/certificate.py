"""Machine-checkable restriction certificates.

A :class:`RestrictionCertificate` merges the restriction prover's
:class:`~repro.lang.prover.ProofReport` with the lint pipeline's
findings into one portable verdict: *this exact program can never raise
a* :class:`~repro.lang.errors.FleetRestrictionError` *at runtime, so the
dynamic restriction checks may be disabled*.

The certificate is bound to the program's structural fingerprint
(:attr:`~repro.lang.ast.UnitProgram.fingerprint`, computed once: programs
are immutable). Certificates are built only here and looked up by that
fingerprint (:func:`certificate_for`), so every engine builder reads the
certificate of exactly the program it builds, and no function takes one
as an argument. Everything built from a program lives in one
:class:`ProgramArtifacts` record per fingerprint, shared by structurally
identical programs.

``ok`` requires all of:

* the restriction prover proves every conflicting access pair mutually
  exclusive (``proof.ok``),
* every vector-register assignment pair is likewise proven exclusive
  (the prover proper does not cover vregs),
* the lint pipeline reports no error-severity findings (definite
  out-of-bounds addresses, dependent reads).

For compilable (power-of-two) programs this is exactly the fast
engine's historical elision condition, so certification never loses a
previously-available fast path.
"""

from ..lang.errors import FleetError
from ..telemetry.metrics import counter as _tm_counter

#: Live telemetry (repro.telemetry; zero-cost unless FLEET_METRICS).
_CERTIFICATES = _tm_counter(
    "fleet_lint_certificates_total",
    "Restriction certificates issued, by verdict",
    ("verdict",),
)
_CERT_LOOKUPS = _tm_counter(
    "fleet_lint_certificate_lookups_total",
    "certificate_for() lookups, by cache outcome",
    ("result",),
)


class RestrictionCertificate:
    """The verdict of :func:`certify_program` for one program.

    A clean certificate additionally carries
    :class:`~repro.lint.facts.SpecializationFacts` — the per-site
    interval evidence (which reads, writes, and truncations are proven
    safe, keyed by content-addressed expression keys and stable
    statement locations) that the compiled engines' certified
    specialization paths consume to delete guards at codegen time.
    ``facts`` is ``None`` on rejected certificates: an uncertified
    program never specializes.
    """

    __slots__ = ("program_name", "fingerprint", "ok", "reasons",
                 "finding_counts", "proof_ok", "vreg_exclusive", "facts",
                 "cost")

    def __init__(self, program_name, fingerprint, ok, reasons,
                 finding_counts, proof_ok, vreg_exclusive, facts=None,
                 cost=None):
        self.program_name = program_name
        self.fingerprint = fingerprint
        self.ok = ok
        self.reasons = tuple(reasons)
        self.finding_counts = dict(finding_counts)
        self.proof_ok = proof_ok
        self.vreg_exclusive = vreg_exclusive
        self.facts = facts if ok else None
        # Cost bounds are sound regardless of the restriction verdict
        # (unproven conflicts don't change vcycle counting), so unlike
        # ``facts`` they survive on rejected certificates too.
        self.cost = cost

    def to_json(self):
        return {
            "program": self.program_name,
            "fingerprint": self.fingerprint,
            "certified": self.ok,
            "proof_ok": self.proof_ok,
            "vreg_exclusive": self.vreg_exclusive,
            "finding_counts": self.finding_counts,
            "reasons": list(self.reasons),
            "facts": None if self.facts is None else self.facts.to_json(),
            "cost": None if self.cost is None else self.cost.to_json(),
        }

    def render(self):
        if self.ok:
            lines = [f"certificate {self.program_name}: OK "
                     f"(fingerprint {self.fingerprint[:12]}…) — dynamic "
                     "restriction checks may be disabled"]
        else:
            lines = [f"certificate {self.program_name}: NOT certified — "
                     "dynamic restriction checks stay on"]
            for reason in self.reasons:
                lines.append(f"  - {reason}")
        if self.cost is not None:
            lines.append("  " + self.cost.render().splitlines()[0])
        return "\n".join(lines)

    def __repr__(self):
        return (f"RestrictionCertificate({self.program_name!r}, "
                f"ok={self.ok})")


# ---------------------------------------------------------------------------
# Structural fingerprint
# ---------------------------------------------------------------------------


def program_fingerprint(program):
    """``program``'s :attr:`~repro.lang.ast.UnitProgram.fingerprint`."""
    return program.fingerprint


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def certify_program(program, report=None):
    """Produce a :class:`RestrictionCertificate` for ``program``.

    ``report`` may pass in an existing
    :class:`~repro.lint.passes.LintReport` to avoid re-linting. A clean
    certificate carries :class:`~repro.lint.facts.SpecializationFacts`
    built from the report's interval analysis.
    """
    from .facts import build_facts
    from .passes import lint_program

    if report is None:
        report = lint_program(program)
    reasons = []
    if not report.proof.ok:
        reasons.append(
            f"restriction proof failed: {len(report.proof.conflicts)} "
            "unproven conflict pair(s)"
        )
    if report.vreg_conflicts:
        reasons.append(
            f"{len(report.vreg_conflicts)} vector-register assignment "
            "pair(s) not proven mutually exclusive"
        )
    for finding in report.errors:
        reasons.append(f"error finding: {finding.render()}")
    _CERTIFICATES.inc(verdict="clean" if not reasons else "rejected")
    facts = None if reasons else build_facts(report.analysis)
    return RestrictionCertificate(
        program_name=program.name,
        fingerprint=program.fingerprint,
        ok=not reasons,
        reasons=reasons,
        finding_counts=report.counts(),
        proof_ok=report.proof.ok,
        vreg_exclusive=not report.vreg_conflicts,
        facts=facts,
        cost=report.cost,
    )


class ProgramArtifacts:
    """What is built from one program structure: its ``certificate``,
    ``lowered`` program, ``specialized`` compiled unit and ``batch``
    unit, each ``None`` until its builder fills it in on first use.
    ``specialized`` is ``False`` once the structure has been refused a
    compiled unit, so a refusal is not retried. ``calibration`` maps a
    stream header to the serve cost model's ``(per_token, fixed)``
    coefficients (:mod:`repro.serve.cost`). Builds are deterministic, so
    no lock: threads racing on a cold structure may each build, and any
    result they store is valid."""

    certificate = lowered = specialized = batch = None

    def __init__(self):
        self.calibration = {}


#: Process-wide ``fingerprint -> ProgramArtifacts``: structurally
#: identical programs (fresh units from one factory) share one lint pass
#: and one build of each engine. Bounded by the distinct structures seen.
_ARTIFACTS = {}


def artifacts_for(program):
    """The :class:`ProgramArtifacts` record of ``program``'s structure."""
    return _ARTIFACTS.setdefault(program.fingerprint, ProgramArtifacts())


def certificate_for(program):
    """``program``'s certificate, certified once per program structure:
    the fingerprint, which also hashes the name, is the key."""
    record = artifacts_for(program)
    if record.certificate is not None:
        _CERT_LOOKUPS.inc(result="hit")
        return record.certificate
    _CERT_LOOKUPS.inc(result="miss")
    try:
        certificate = certify_program(program)
    except FleetError as exc:
        certificate = RestrictionCertificate(
            program_name=program.name,
            fingerprint=program.fingerprint,
            ok=False,
            reasons=[f"lint failed: {exc}"],
            finding_counts={"info": 0, "warning": 0, "error": 0},
            proof_ok=False,
            vreg_exclusive=False,
        )
    record.certificate = certificate
    return certificate
