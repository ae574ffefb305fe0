"""The lint pass pipeline: static findings over one Fleet program.

:func:`lint_program` runs every pass on top of one shared
:class:`~repro.lint.engine.Analysis` and returns a :class:`LintReport`:

* **bounds** — BRAM addresses and vector-register indices against the
  declared element counts, modelling the simulator's address truncation
  (``truncate(raw, addr_width)`` *then* range check, so power-of-two
  capacities can never fault);
* **uninit** — registers/vector registers read but never assigned;
* **dead** — assignments to state that is never read anywhere;
* **constant-condition** — ``if``/``while`` conditions the interval
  domain proves constant under their guard refinements;
* **unreachable-arm** — ``if`` arms whose condition chain is
  unsatisfiable (prover facts or an empty refinement meet);
* **dependent-read** — per-read dependent-BRAM-read violations from
  :func:`repro.lang.analysis.dependent_read_violations`;
* **conflicts** — access pairs the restriction prover could not prove
  mutually exclusive, including vector-register assignment pairs (which
  the prover proper does not cover).

Error-severity findings block the
:class:`~repro.lint.certificate.RestrictionCertificate`; warnings are
informational.
"""

from ..lang import ast
from ..lang.analysis import dependent_read_violations
from ..lang.prover import PairProof, prove_program
from ..lang.pretty import pretty_expr, pretty_guard
from ..lang.sites import ADDRESSED_KINDS
from . import domain
from .cost import build_cost
from .engine import Analysis
from .findings import (
    ConstantConditionFinding,
    DeadAssignmentFinding,
    DependentReadFinding,
    NonterminationRiskFinding,
    OutOfBoundsAddressFinding,
    RestrictionConflictFinding,
    UninitializedReadFinding,
    UnreachableArmFinding,
    severity_at_least,
)


class LintReport:
    """All findings for one program, plus the artifacts certification
    needs (the proof report and unproven vector-register pairs)."""

    def __init__(self, program, findings, proof, vreg_conflicts,
                 analysis, cost=None):
        self.program = program
        self.findings = findings
        self.proof = proof
        self.vreg_conflicts = vreg_conflicts
        self.analysis = analysis
        self.cost = cost

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self):
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self):
        """No error-severity findings (warnings allowed)."""
        return not self.errors

    def counts(self):
        counts = {"info": 0, "warning": 0, "error": 0}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def by_rule(self):
        by_rule = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return by_rule

    def filtered(self, min_severity):
        return [f for f in self.findings
                if severity_at_least(f.severity, min_severity)]

    def render(self, min_severity="info"):
        shown = self.filtered(min_severity)
        lines = [f"{self.program.name}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        for finding in shown:
            lines.append("  " + finding.render())
        lines.append("  " + self.proof.render().splitlines()[0])
        return "\n".join(lines)

    def to_json(self):
        return {
            "program": self.program.name,
            "clean": self.clean,
            "proof_ok": self.proof.ok,
            "vreg_exclusive": not self.vreg_conflicts,
            "counts": self.counts(),
            "findings": [f.to_json() for f in self.findings],
            "cost": None if self.cost is None else self.cost.to_json(),
        }

    def __repr__(self):
        counts = self.counts()
        return (f"LintReport({self.program.name!r}, "
                f"errors={counts['error']}, "
                f"warnings={counts['warning']})")


def lint_program(program):
    """Run every lint pass; returns a :class:`LintReport`."""
    analysis = Analysis(program)
    proof = prove_program(program)
    vreg_conflicts = vreg_assign_conflicts(program)
    findings = []
    findings.extend(_bounds_pass(analysis))
    findings.extend(_uninit_pass(analysis))
    findings.extend(_dead_pass(analysis))
    findings.extend(_condition_pass(analysis))
    findings.extend(_dependent_read_pass(program))
    findings.extend(_conflict_pass(proof, vreg_conflicts))
    cost = build_cost(analysis)
    findings.extend(_cost_pass(cost))
    findings.sort(
        key=lambda f: (-severity_rank(f.severity), f.rule,
                       f.location or "", f.message)
    )
    return LintReport(program, findings, proof, vreg_conflicts, analysis,
                      cost)


def severity_rank(severity):
    return ("info", "warning", "error").index(severity)


# ---------------------------------------------------------------------------
# Individual passes
# ---------------------------------------------------------------------------


def _bounds_pass(analysis):
    findings = []
    for site in analysis.sites:
        if site.kind not in ADDRESSED_KINDS:
            continue
        decl, addr, noun = site.address_operand()
        interval = analysis.evaluate(site, addr)
        if interval is None:
            continue  # unreachable access can never fault
        width = (decl.addr_width if isinstance(decl, ast.BramDecl)
                 else decl.index_width)
        effective = domain.truncate_interval(interval, width)
        if effective.lo >= decl.elements:
            findings.append(OutOfBoundsAddressFinding(
                f"address of {noun} {decl.name!r} "
                f"({pretty_expr(addr)}) is provably out of range: "
                f"value in {effective} after truncation, but "
                f"elements={decl.elements} — every execution of this "
                "access faults",
                resource=decl.name, location=site.location,
            ))
        elif effective.hi >= decl.elements:
            findings.append(OutOfBoundsAddressFinding(
                f"address of {noun} {decl.name!r} "
                f"({pretty_expr(addr)}) may exceed the declared "
                f"capacity: value in {effective} after truncation, "
                f"elements={decl.elements}",
                severity="warning",
                resource=decl.name, location=site.location,
            ))
    return findings


def _uninit_pass(analysis):
    findings = []
    sites = analysis.program.sites
    for reg in analysis.program.regs:
        if reg in sites.used_regs and reg not in sites.reg_assigns:
            findings.append(UninitializedReadFinding(
                f"register {reg.name!r} is read but never assigned; "
                f"every read yields its init value {reg.init}",
                resource=reg.name,
            ))
    for vreg in analysis.program.vregs:
        if vreg in sites.used_vregs and vreg not in sites.vreg_assigns:
            findings.append(UninitializedReadFinding(
                f"vector register {vreg.name!r} is read but never "
                f"assigned; every read yields its init value {vreg.init}",
                resource=vreg.name,
            ))
    return findings


def _dead_pass(analysis):
    findings = []
    sites = analysis.program.sites
    for site in analysis.sites:
        if site.kind == "reg-assign":
            decl = site.stmt.reg
            if decl in sites.used_regs:
                continue
            kind_noun = "register"
        elif site.kind == "vreg-assign":
            decl = site.stmt.vreg
            if decl in sites.used_vregs:
                continue
            kind_noun = "vector register"
        else:
            continue
        findings.append(DeadAssignmentFinding(
            f"assignment to {kind_noun} {decl.name!r} is dead: the "
            f"{kind_noun} is never read (not in any value, address, or "
            "condition), so the statement has no observable effect",
            resource=decl.name, location=site.location,
        ))
    return findings


def _condition_pass(analysis):
    findings = []
    arm_sites = [s for s in analysis.sites if s.kind == "arm"]
    for site in analysis.sites:
        if site.kind not in ("if-cond", "while-cond"):
            continue
        interval = analysis.evaluate(site, site.node)
        if interval is None or not interval.is_const:
            continue
        note = ""
        if site.kind == "while-cond":
            note = (" — the loop never runs" if interval.lo == 0
                    else " — the loop can only end via the cycle limit")
        findings.append(ConstantConditionFinding(
            f"condition {pretty_expr(site.node)} always evaluates to "
            f"{interval.lo} under its guard "
            f"[{pretty_guard(site.guard)}]{note}",
            resource=None, location=site.location,
        ))
    for site in arm_sites:
        if analysis.reachable(site):
            continue
        findings.append(UnreachableArmFinding(
            f"if arm can never execute: its condition chain "
            f"[{pretty_guard(site.guard)}] is unsatisfiable",
            resource=None, location=site.location,
        ))
    return findings


def _cost_pass(cost):
    """One :class:`NonterminationRiskFinding` per ``while`` with no
    provable trip bound (in either phase)."""
    return [
        NonterminationRiskFinding(
            f"while ({loop.cond}) has no provable trip bound: "
            f"{loop.reason} — per-token cost is uncertified and the "
            "loop may only stop at the engine vcycle limit",
            resource=None, location=loop.location,
        )
        for loop in cost.unbounded_loops
    ]


def _dependent_read_pass(program):
    return [
        DependentReadFinding(
            violation.message, resource=violation.bram.name,
        )
        for violation in dependent_read_violations(program)
    ]


def _conflict_pass(proof, vreg_conflicts):
    findings = [
        RestrictionConflictFinding(
            conflict.render(), resource=conflict.resource,
        )
        for conflict in proof.conflicts
    ]
    for vreg, first, second in vreg_conflicts:
        findings.append(RestrictionConflictFinding(
            f"unproven pair: two assignments to vector register "
            f"{vreg.name!r} may co-fire in one virtual cycle "
            f"(when {pretty_guard(first.guard)} / "
            f"{pretty_guard(second.guard)})",
            resource=vreg.name,
        ))
    return findings


def vreg_assign_conflicts(program):
    """Vector-register assignment pairs not provably exclusive (the
    prover covers registers/BRAMs/emits but not vector registers).
    Returns ``(vreg, site_a, site_b)`` tuples."""
    proof = PairProof()
    return [
        (vreg, first, second)
        for vreg, assigns in program.sites.vreg_assigns.items()
        for first, second in proof.unproven_pairs(assigns)
    ]
