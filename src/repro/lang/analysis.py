"""Static validation of Fleet programs.

The paper enforces its language restrictions in the software simulator
(dynamic checks, see :mod:`repro.interp.simulator`) and notes that a static
analyzer could verify well-structured programs up front. We implement the
statically decidable subset here:

* no nested ``while`` loops;
* no *dependent* BRAM reads: a BRAM read address — including the conditions
  that select which address is read — may not itself depend on BRAM read
  data from the same virtual cycle. This is what lets the compiler schedule
  all reads in pipeline stage 1 and everything else in stage 2.

The dependent-read analysis is *per access*: each syntactic BRAM read is
classified against the guard chain that gates it, so a program is
rejected only for the specific reads that would close a combinational
cycle — not wholesale because some ``while`` condition happens to read a
BRAM somewhere. :func:`dependent_read_violations` reports every
offending read (the lint pipeline consumes the full list);
:func:`validate_program` raises on the first.

The dynamic checks (at most one read/write per BRAM and one emit per virtual
cycle, no conflicting concurrent assignments) depend on which conditions are
true at runtime and stay in the simulator, exactly as in the paper — unless
a :class:`repro.lint.RestrictionCertificate` proves they can never fire.
"""

from . import ast
from .errors import FleetDependentReadError, FleetSyntaxError
from .pretty import pretty_expr, pretty_guard


def validate_program(program):
    """Raise on statically detectable restriction violations."""
    if any(site.in_loop for site in program.sites.loops):
        raise FleetSyntaxError(
            "nested while loops are not supported (paper Section 3)"
        )
    violations = dependent_read_violations(program)
    if violations:
        raise FleetDependentReadError(violations[0].message)


class DependentReadViolation:
    """One BRAM read whose address would depend on same-cycle read data.

    ``kind`` is ``"address"`` (the read's address expression itself
    contains a read), ``"guard"`` (a condition in the read's guard chain
    reads a BRAM), or ``"while-done"`` (the read fires only on
    ``while_done`` virtual cycles while some loop guard — a ``while``
    condition or a condition enclosing the ``while`` — reads a BRAM,
    making the loop/post-loop read-address mux depend on read data).
    ``guard`` is the ``(cond, polarity)`` chain gating the read.
    """

    __slots__ = ("bram", "kind", "message", "guard")

    def __init__(self, bram, kind, message, guard):
        self.bram = bram
        self.kind = kind
        self.message = message
        self.guard = guard

    def __repr__(self):
        return f"DependentReadViolation({self.kind!r}, {self.bram.name!r})"


def dependent_read_violations(program):
    """Every dependent BRAM read in ``program``, one violation per
    offending read (empty list for clean programs).

    Reads in *condition* position (if/while conditions) are evaluated on
    every virtual cycle regardless of ``while_done``, so only reads in
    leaf-statement expressions outside every loop carry the
    ``needs_while_done`` dependence. That dependence closes a cycle when
    a loop guard — a ``while`` condition or a condition enclosing the
    ``while`` — reads a BRAM.
    """
    sites = program.sites
    reading = sites.reading_conds
    # while_done depends on read data once a loop guard reads a BRAM;
    # messages name the innermost reading term of the first such loop.
    while_done_read = None
    for loop in sites.loops:
        terms = [cond for cond, _ in loop.loop_guard if id(cond) in reading]
        if terms:
            while_done_read = terms[-1]
            break

    violations = []
    for site in sites.sites:
        if site.kind != "bram-read":
            continue
        node = site.node
        if ast.contains_bram_read(node.addr):
            violations.append(DependentReadViolation(
                node.bram, "address",
                f"dependent BRAM read: the address of a read of "
                f"{node.bram.name!r} ({pretty_expr(node.addr)}) contains "
                "another BRAM read (e.g. a[b[0]] is not allowed)",
                site.guard,
            ))
            continue
        gating_reads = [
            cond for cond, _ in site.guard if id(cond) in reading
        ]
        if gating_reads:
            violations.append(DependentReadViolation(
                node.bram, "guard",
                f"dependent BRAM read of {node.bram.name!r} at address "
                f"{pretty_expr(node.addr)}: gated by the condition chain "
                f"[{pretty_guard(site.guard)}], which itself reads a BRAM "
                f"(via {pretty_expr(gating_reads[0])}), so the read "
                "address would depend on same-cycle read data",
                site.guard,
            ))
            continue
        if site.needs_while_done and while_done_read is not None:
            violations.append(DependentReadViolation(
                node.bram, "while-done",
                f"dependent BRAM read of {node.bram.name!r} at address "
                f"{pretty_expr(node.addr)}: the read executes only on "
                "while_done virtual cycles, and while_done depends on the "
                "BRAM read in the loop guard "
                f"({pretty_expr(while_done_read)}), so the "
                "loop/post-loop read-address mux would depend on "
                "same-cycle read data",
                site.guard,
            ))
    return violations
