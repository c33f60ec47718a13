"""Text grammars for permutations, generalized patterns and graphs.

Permutations are whitespace- or comma-separated positive integers
("5 3 1 4 2"); a single unseparated run of digits is read one value per
digit ("53142").  Every grammar takes ASCII digits only, and no integer of
more digits than int() reads (sys.get_int_max_str_digits()).

Patterns come in two syntaxes.  Bracket syntax, the canonical output form,
separates integer tokens with whitespace and encloses each adjacency block
in square brackets: "[3 1] 2".  Unicode angle brackets are accepted as
input aliases.  Dash syntax uses single-digit values with dashes between
groups; every group of two or more digits is an adjacency block, so
"31-2" has one block and "3-1-2" is classical.  Dash syntax is limited to
single-digit values; larger patterns must use bracket syntax.

Graphs are line-oriented: a header "p <l> <m>", an optional "k <k>" line,
then m lines "<u> <v>".  Lines starting with '#' are comments; blank lines
are ignored; LF and CRLF both work.
"""

from __future__ import annotations

import re
import sys

from .core import Graph, GeneralizedPattern, Permutation, ValidationError, _add_edge

__all__ = [
    "ParseError",
    "parse_permutation",
    "parse_pattern",
    "serialize_pattern",
    "serialize_permutation",
    "parse_graph",
    "serialize_graph",
]

_OPEN = "[⟨"   # '[' or U+27E8 mathematical left angle bracket
_CLOSE = "]⟩"

_TOKEN_RE = re.compile(r"[^\s,]+")
_DIGITS_RE = re.compile(r"[0-9]+")


class ParseError(ValueError):
    """Malformed textual input; carries the byte offset or line when known."""

    def __init__(self, message: str, offset: int | None = None, line: int | None = None):
        self.offset = offset
        self.line = line
        if offset is not None:
            message = f"{message} (byte {offset})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


def are_int_tokens(*tokens: str) -> bool:
    """True iff every token is an integer token: 1 to
    sys.get_int_max_str_digits() ASCII digits, where 0 means no limit, so
    int() reads it.  str.isdigit() alone also accepts characters such as
    '²', on which int() then fails, as it does on a longer run."""
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit() and all(tokens)):
        return False
    limit = sys.get_int_max_str_digits() or len(joined)
    return len(joined) <= limit or max(map(len, tokens)) <= limit


def _byte_offset(text: str, char_index: int) -> int:
    return len(text[:char_index].encode("utf-8"))


def _int_tokens(text: str) -> list[int]:
    """Whitespace/comma separated integers, or one compact run of digits.

    str.split() and the regex class \\s agree on every code point, so the
    tokens are those of _TOKEN_RE; the regex only locates a bad token."""
    words = text.replace(",", " ").split()
    if not words:
        raise ParseError("empty input", offset=0)
    if len(words) == 1 and _DIGITS_RE.fullmatch(words[0]):  # one value per digit
        return [int(c) for c in words[0]]
    if not are_int_tokens(*words):
        bad = next(m for m in _TOKEN_RE.finditer(text) if not are_int_tokens(m.group()))
        raise ParseError(
            f"expected an integer, got {bad.group()!r}",
            offset=_byte_offset(text, bad.start()),
        )
    return list(map(int, words))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation; validation errors propagate from core.

    >>> parse_permutation("5 3 1 4 2").values
    (5, 3, 1, 4, 2)
    >>> parse_permutation("53142").values
    (5, 3, 1, 4, 2)
    """
    return Permutation(tuple(_int_tokens(text)))


def _parse_bracket(text: str) -> GeneralizedPattern:
    values: list[int] = []
    blocks: list[tuple[int, int]] = []
    open_start: int | None = None
    open_offset = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _OPEN:
            if open_start is not None:
                raise ParseError("nested brackets", offset=_byte_offset(text, i))
            open_start = len(values) + 1
            open_offset = i
            i += 1
        elif c in _CLOSE:
            if open_start is None:
                raise ParseError("unbalanced brackets: ']' without '['",
                                 offset=_byte_offset(text, i))
            if len(values) < open_start:
                raise ParseError("empty brackets", offset=_byte_offset(text, i))
            blocks.append((open_start, len(values)))
            open_start = None
            i += 1
        elif digits := _DIGITS_RE.match(text, i):
            token = digits.group()
            if not are_int_tokens(token):
                raise ParseError(f"expected an integer, got {token!r}",
                                 offset=_byte_offset(text, i))
            values.append(int(token))
            i = digits.end()
        else:
            raise ParseError(f"unexpected character {c!r} in bracket syntax",
                             offset=_byte_offset(text, i))
    if open_start is not None:
        raise ParseError("unbalanced brackets: '[' never closed",
                         offset=_byte_offset(text, open_offset))
    return GeneralizedPattern(tuple(values), tuple(blocks))


def _parse_dash(text: str) -> GeneralizedPattern:
    values: list[int] = []
    blocks: list[tuple[int, int]] = []
    group_len = 0
    saw_dash_at: int | None = None
    for i, c in enumerate(text):
        if c.isspace():
            continue
        if are_int_tokens(c):
            values.append(int(c))
            group_len += 1
            saw_dash_at = None
        elif c == "-":
            if group_len == 0:
                raise ParseError("empty group before dash", offset=_byte_offset(text, i))
            if group_len >= 2:
                blocks.append((len(values) - group_len + 1, len(values)))
            group_len = 0
            saw_dash_at = i
        else:
            raise ParseError(f"unexpected character {c!r} in dash syntax",
                             offset=_byte_offset(text, i))
    if saw_dash_at is not None:
        raise ParseError("empty group after dash", offset=_byte_offset(text, saw_dash_at))
    if group_len >= 2:
        blocks.append((len(values) - group_len + 1, len(values)))
    return GeneralizedPattern(tuple(values), tuple(blocks))


def parse_pattern(text: str) -> GeneralizedPattern:
    """Parse a generalized pattern.

    A bracket selects bracket syntax and a dash selects dash syntax; input
    with neither is a classical pattern read with the permutation grammar.
    So "312" is classical, and a block over the whole pattern is "[3 1 2]".
    """
    has_bracket = any(c in text for c in _OPEN + _CLOSE)
    has_dash = "-" in text
    if has_bracket and has_dash:
        raise ParseError("mixed bracket and dash syntaxes")
    if has_bracket:
        return _parse_bracket(text)
    if has_dash:
        return _parse_dash(text)
    return GeneralizedPattern(tuple(_int_tokens(text)), ())


def serialize_pattern(p: GeneralizedPattern) -> str:
    """Canonical bracket form; parse_pattern inverts this exactly."""
    out: list[str] = []
    for start, length in p.units:
        values = " ".join(str(v) for v in p.values[start:start + length])
        out.append(f"[{values}]" if length > 1 else values)
    return " ".join(out)


def serialize_permutation(t: Permutation) -> str:
    return " ".join(str(v) for v in t.values)


def _int_fields(fields: list[str], lineno: int, what: str) -> list[int]:
    if not are_int_tokens(*fields):
        bad = next(f for f in fields if not are_int_tokens(f))
        raise ParseError(f"{what}: expected an integer, got {bad!r}", line=lineno)
    return list(map(int, fields))


def _graph(l: int, pairs: list[list[int]], linenos: list[int]) -> Graph:
    """Graph(l, pairs), core checking each edge once; the edge it refuses is
    named again, by the same rule walked in file order, with its line."""
    try:
        return Graph(l, pairs)
    except ValidationError:
        edges: set[tuple[int, int]] = set()
        for pair, lineno in zip(pairs, linenos):
            try:
                _add_edge(edges, pair, l)
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from None
        raise


def parse_graph(text: str) -> tuple[Graph, int | None]:
    """Parse the line-oriented graph format; returns the graph and the
    optional subset size carried by a "k" line.  Of several faults, the
    first in the file is reported."""
    header: tuple[int, ...] | None = None
    k: int | None = None
    pairs: list[list[int]] = []  # the edges in file order, checked once, by Graph
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "p" or len(fields) != 3:
                raise ParseError("expected header 'p <l> <m>'", line=lineno)
            header = tuple(_int_fields(fields[1:], lineno, "header"))
            continue
        if fields[0] == "k" and not pairs and k is None:
            if len(fields) != 2:
                raise ParseError("k line: expected 'k <k>'", line=lineno)
            (value,) = _int_fields(fields[1:], lineno, "k line")
            if value < 1:
                raise ParseError(f"k must be positive, got {value}", line=lineno)
            k = value
            continue
        try:
            if len(fields) != 2:
                raise ParseError("edge: expected '<u> <v>'", line=lineno)
            pairs.append(_int_fields(fields, lineno, "edge"))
        except ParseError:
            _graph(header[0], pairs, linenos)  # an earlier bad edge is named first
            raise
        linenos.append(lineno)
    if header is None:
        raise ParseError("missing header 'p <l> <m>'")
    l, m = header
    graph = _graph(l, pairs, linenos)
    if len(pairs) != m:
        raise ParseError(f"wrong edge count: header says {m}, found {len(pairs)}")
    return graph, k


def serialize_graph(g: Graph, k: int | None = None) -> str:
    lines = [f"p {g.l} {g.m}"]
    if k is not None:
        lines.append(f"k {k}")
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
