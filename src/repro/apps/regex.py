"""Regular expression matching (paper Section 7.1).

A compile-time regex is turned into a circuit following the classic
FPGA NFA construction the paper cites (Sidhu & Prasanna, FCCM'01): one
single-bit register per regex character position, with next-state logic
``state[j] = char_matches(class_j) AND (OR of predecessor states)``. We
build the position automaton with the Glushkov construction (nullable /
first / last / follow sets), which yields exactly that one-hot register
structure with no epsilon transitions.

Matching semantics: the automaton restarts at every input character (all
``first`` positions are candidate starts each cycle), and the unit emits
the current 32-bit stream index whenever any match *ends* at the current
character — the paper's "emit the index of the current character in the
stream whenever the unit detects a match".

Supported syntax: literals, ``.``, escapes (``\\w \\d \\s`` and escaped
metacharacters), character classes ``[...]`` with ranges and ``^``
negation, grouping ``( )``, alternation ``|``, and the ``* + ?`` repeats.
Patterns that match the empty string are rejected (every index would be
emitted).

The default benchmark pattern is the email regex from the regex benchmark
the paper cites.
"""

import string

from ..lang import UnitBuilder

#: The email pattern from the mariomka/regex-benchmark suite (paper [4]).
EMAIL_PATTERN = r"[\w.+-]+@[\w-]+\.[\w.-]+"

_WORD_CHARS = frozenset(
    (string.ascii_letters + string.digits + "_").encode()
)
_DIGIT_CHARS = frozenset(string.digits.encode())
_SPACE_CHARS = frozenset(b" \t\n\r\x0b\x0c")
_DOT_CHARS = frozenset(range(256)) - {ord("\n")}
_METACHARS = set("\\^$.|?*+()[]")


class RegexSyntaxError(ValueError):
    """Malformed pattern."""


# ---------------------------------------------------------------------------
# Parsing to a tiny regex AST
# ---------------------------------------------------------------------------


class _Chars:
    """A character-class leaf (one automaton position)."""

    def __init__(self, chars):
        self.chars = frozenset(chars)


class _Concat:
    def __init__(self, parts):
        self.parts = parts


class _Alt:
    def __init__(self, options):
        self.options = options


class _Repeat:
    """op is '*', '+' or '?'."""

    def __init__(self, inner, op):
        self.inner = inner
        self.op = op


class _Epsilon:
    pass


class _Parser:
    def __init__(self, pattern):
        self.pattern = pattern
        self.pos = 0

    def peek(self):
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def take(self):
        ch = self.peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of pattern")
        self.pos += 1
        return ch

    def parse(self):
        node = self._alternation()
        if self.pos != len(self.pattern):
            raise RegexSyntaxError(
                f"unexpected {self.pattern[self.pos]!r} at {self.pos}"
            )
        return node

    def _alternation(self):
        options = [self._concat()]
        while self.peek() == "|":
            self.take()
            options.append(self._concat())
        return options[0] if len(options) == 1 else _Alt(options)

    def _concat(self):
        parts = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self._repeat())
        if not parts:
            return _Epsilon()
        return parts[0] if len(parts) == 1 else _Concat(parts)

    def _repeat(self):
        node = self._atom()
        while self.peek() in ("*", "+", "?"):
            node = _Repeat(node, self.take())
        return node

    def _atom(self):
        ch = self.take()
        if ch == "(":
            node = self._alternation()
            if self.take() != ")":
                raise RegexSyntaxError("unbalanced parenthesis")
            return node
        if ch == "[":
            return _Chars(self._char_class())
        if ch == ".":
            return _Chars(_DOT_CHARS)
        if ch == "\\":
            return _Chars(self._escape())
        if ch in _METACHARS:
            raise RegexSyntaxError(f"unexpected metacharacter {ch!r}")
        return _Chars({ord(ch)})

    def _escape(self):
        ch = self.take()
        if ch == "w":
            return _WORD_CHARS
        if ch == "d":
            return _DIGIT_CHARS
        if ch == "s":
            return _SPACE_CHARS
        if ch in "nrt":
            return {ord({"n": "\n", "r": "\r", "t": "\t"}[ch])}
        return {ord(ch)}

    def _char_class(self):
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        chars = set()
        first = True
        while True:
            ch = self.take()
            if ch == "]" and not first:
                break
            first = False
            if ch == "\\":
                chars |= self._escape()
                continue
            if (
                self.peek() == "-"
                and self.pos + 1 < len(self.pattern)
                and self.pattern[self.pos + 1] != "]"
            ):
                self.take()
                hi = self.take()
                if ord(hi) < ord(ch):
                    raise RegexSyntaxError(f"bad range {ch}-{hi}")
                chars |= set(range(ord(ch), ord(hi) + 1))
            else:
                chars.add(ord(ch))
        if negated:
            return frozenset(range(256)) - chars
        return frozenset(chars)


# ---------------------------------------------------------------------------
# Glushkov position automaton
# ---------------------------------------------------------------------------


class PositionAutomaton:
    """nullable/first/last/follow over numbered character positions."""

    def __init__(self, classes, nullable, first, last, follow):
        self.classes = classes  # position -> frozenset of byte values
        self.nullable = nullable
        self.first = first  # set of positions
        self.last = last  # set of positions
        self.follow = follow  # position -> set of successor positions

    @property
    def size(self):
        return len(self.classes)


def build_automaton(pattern):
    """Parse ``pattern`` and run the Glushkov construction."""
    ast = _Parser(pattern).parse()
    classes = []
    follow = {}
    nullable, first, last = _glushkov(ast, classes, follow)
    if nullable:
        raise RegexSyntaxError(
            "pattern matches the empty string; every index would match"
        )
    return PositionAutomaton(classes, nullable, first, last, follow)


def _glushkov(node, classes, follow):
    """Returns (nullable, first, last) of ``node``, appending its
    positions' character classes to ``classes`` and their follow sets to
    ``follow``. (A module function, not a closure that calls itself,
    which would be a reference cycle kept until the cyclic collector
    ran.)"""
    if isinstance(node, _Epsilon):
        return True, set(), set()
    if isinstance(node, _Chars):
        if not node.chars:
            raise RegexSyntaxError("empty character class")
        position = len(classes)
        classes.append(node.chars)
        follow[position] = set()
        return False, {position}, {position}
    if isinstance(node, _Alt):
        nullable, first, last = False, set(), set()
        for option in node.options:
            n, f, l = _glushkov(option, classes, follow)
            nullable = nullable or n
            first |= f
            last |= l
        return nullable, first, last
    if isinstance(node, _Concat):
        nullable, first, last = True, set(), set()
        for part in node.parts:
            n, f, l = _glushkov(part, classes, follow)
            for p in last:
                follow[p] |= f
            if nullable:
                first |= f
            if n:
                last |= l
            else:
                last = l
            nullable = nullable and n
        return nullable, first, last
    if isinstance(node, _Repeat):
        n, f, l = _glushkov(node.inner, classes, follow)
        if node.op in ("*", "+"):
            for p in l:
                follow[p] |= f
        if node.op in ("*", "?"):
            n = True
        return n, f, l
    raise RegexSyntaxError(f"unknown node {node!r}")


def _char_ranges(chars):
    """Collapse a character set into sorted inclusive (lo, hi) ranges."""
    ordered = sorted(chars)
    ranges = []
    start = prev = ordered[0]
    for c in ordered[1:]:
        if c == prev + 1:
            prev = c
            continue
        ranges.append((start, prev))
        start = prev = c
    ranges.append((start, prev))
    return ranges


# ---------------------------------------------------------------------------
# The processing unit and its golden model
# ---------------------------------------------------------------------------


def regex_match_unit(pattern=EMAIL_PATTERN):
    """Build the NFA-circuit matching unit for a compile-time pattern.

    One 1-bit register per position; all next-state logic is a few gates —
    the construction scales with the pattern, not with the input, and every
    input character takes exactly one virtual cycle.
    """
    automaton = build_automaton(pattern)
    predecessors = {j: set() for j in range(automaton.size)}
    for i, successors in automaton.follow.items():
        for j in successors:
            predecessors[j].add(i)

    b = UnitBuilder("regex_match", input_width=8, output_width=32)
    states = [
        b.reg(f"state_{j}", width=1, init=0) for j in range(automaton.size)
    ]
    position = b.reg("position", width=32, init=0)

    with b.when(b.not_(b.stream_finished)):
        matches = []
        for j, chars in enumerate(automaton.classes):
            ranges = _char_ranges(chars)
            terms = []
            for lo, hi in ranges:
                if lo == hi:
                    terms.append(b.input == lo)
                else:
                    terms.append(b.all_of(b.input >= lo, b.input <= hi))
            matches.append(b.wire(b.any_of(*terms), name=f"match_{j}"))
        new_states = []
        for j in range(automaton.size):
            if j in automaton.first:
                # A new match attempt can start at every character.
                active = b.const(1, 1)
            else:
                active = b.any_of(*[states[i] for i in predecessors[j]])
            new_states.append(
                b.wire(matches[j] & active, name=f"next_{j}")
            )
        hit = b.any_of(*[new_states[j] for j in automaton.last])
        with b.when(hit):
            b.emit(position)
        for j in range(automaton.size):
            states[j].set(new_states[j])
        position.set(position + 1)
    return b.finish()


def regex_reference(data, pattern=EMAIL_PATTERN):
    """Golden model: every stream index where a match ends, via bitset NFA
    simulation over the same Glushkov automaton."""
    automaton = build_automaton(pattern)
    last_mask = 0
    for j in automaton.last:
        last_mask |= 1 << j
    first_mask = 0
    for j in automaton.first:
        first_mask |= 1 << j
    # char -> bitmask of positions whose class contains it.
    char_masks = [0] * 256
    for j, chars in enumerate(automaton.classes):
        for c in chars:
            char_masks[c] |= 1 << j
    # position -> bitmask of successors.
    follow_masks = [0] * automaton.size
    for i, successors in automaton.follow.items():
        for j in successors:
            follow_masks[i] |= 1 << j

    hits = []
    state = 0
    for index, char in enumerate(data):
        reachable = first_mask
        rest = state
        while rest:
            low = rest & -rest
            reachable |= follow_masks[low.bit_length() - 1]
            rest ^= low
        state = reachable & char_masks[char]
        if state & last_mask:
            hits.append(index & 0xFFFFFFFF)
    return hits
