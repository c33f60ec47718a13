"""Existential first-order encoding of matching instances, plus a naive
model checker used as an independent cross-check of the matching engines.

A text is its own finite structure over positions 1..n, carrying two binary
relations read straight off its values: text_less(x, y) holds when the value
at position x is smaller than the value at position y, and succ(x, y) holds
when y = x + 1.  A pattern becomes an existential conjunction over
variables x_1 < ... < x_k: one text_less or negated text_less literal per
position pair, plus one succ literal per adjacent pair inside a block.  The
chain x_1 < ... < x_k is implicit in the formula object and in the search.

The model checker shares no code with the matching engines; agreement
between the two is a meaningful consistency check, not a tautology.

An instance's line format costs memory in proportion to its bytes, not to
its line count, which for the text_less relation alone is n(n-1)/2: its
lines are made one at a time (``permpat encode-fo`` writes each as it is
made), and ``parse_instance`` reads its input a chunk of whole lines at a
time and marks each text_less pair in one table of n x n bytes, which it
makes only when n^2 is at most the input's length, as it is for every
instance that has its n(n-1)/2 text_less lines.  Inside a chunk, each run
of text_less lines in ``export_instance``'s form ("tl <x> <y>", numbers of
1 to 18 ASCII digits, each line ended by LF), up to 256 lines at a time,
is read in bulk: one regular expression match, one split and one int()
pass.  Every other line is read on its own, and only that reader raises
an error.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress

from .core import GeneralizedPattern, Permutation, ValidationError, _check_budget
from .textio import ParseError, are_int_tokens

__all__ = [
    "FoFormula",
    "encode_structure",
    "encode_formula",
    "model_check",
    "export_instance",
    "parse_instance",
]

_CHUNK = 1 << 13  # characters parse_instance takes at a time
# the characters str.splitlines() ends a line at; a CRLF ends one line
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_END = re.compile(f"\r\n|[{_BREAKS}]")
# a run of text_less lines as export_instance writes them, from a line start
# on: numbers of at most 18 digits, which int() reads whatever its limit,
# and at most 256 lines, whose split fields take about 45 KB
_TL_RUN = re.compile(f"(?<![^{_BREAKS}])(?:tl [0-9]{{1,18}} [0-9]{{1,18}}\n){{1,256}}")


@dataclass(frozen=True)
class FoFormula:
    """Conjunction shape: implicit chain x_1 < ... < x_k, one (possibly
    negated) text_less literal per pair, succ literals for adjacency."""

    var_count: int
    pos_literals: frozenset[tuple[int, int]]
    neg_literals: frozenset[tuple[int, int]]
    adj_literals: frozenset[int]

    def __post_init__(self) -> None:
        k = self.var_count
        if not isinstance(k, int) or k < 1:
            raise ValidationError(f"variable count must be a positive integer, got {k!r}")
        pos = frozenset(tuple(p) for p in self.pos_literals)
        neg = frozenset(tuple(p) for p in self.neg_literals)
        adj = frozenset(self.adj_literals)
        for i, j in pos | neg:
            if not (1 <= i < j <= k):
                raise ValidationError(f"literal ({i}, {j}) is not an ordered pair in 1..{k}")
        if pos & neg:
            raise ValidationError("a pair occurs as both a positive and a negative literal")
        # disjoint ordered pairs in 1..k cover them all exactly when they
        # are as many
        if len(pos) + len(neg) != k * (k - 1) // 2:
            raise ValidationError("literals must cover every position pair exactly once")
        for i in adj:
            if not 1 <= i <= k - 1:
                raise ValidationError(f"adjacency literal {i} outside 1..{k - 1}")
        object.__setattr__(self, "pos_literals", pos)
        object.__setattr__(self, "neg_literals", neg)
        object.__setattr__(self, "adj_literals", adj)


def encode_structure(t: Permutation) -> Permutation:
    """The text itself, which already is its structure.  Kept because the
    benchmark's traced crosscheck times the encoding step by this name."""
    return t


def encode_formula(p: GeneralizedPattern) -> FoFormula:
    """The formula of p.  Refuses, before building a literal, a pattern of
    more order literals than the budget."""
    pv = p.values
    k = p.k
    _check_budget(k * (k - 1) // 2, "fo order literals")
    pos = set()
    neg = set()
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if pv[i - 1] < pv[j - 1]:
                pos.add((i, j))
            else:
                neg.add((i, j))
    adj = set()
    for a, b in p.blocks:
        adj.update(range(a, b))
    return FoFormula(k, frozenset(pos), frozenset(neg), frozenset(adj))


@lru_cache(maxsize=256)  # room for one exhaustive verify group's formulas
def _literals_by_variable(
    k: int, pos_literals: frozenset, neg_literals: frozenset
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per variable j, the variables i of a formula's literals (i, j), kept
    for reuse across texts, as (pos_by_j, neg_by_j): positive ones, then
    negated ones, each indexed by j in 0..k."""
    pos_by_j: list[list[int]] = [[] for _ in range(k + 1)]
    neg_by_j: list[list[int]] = [[] for _ in range(k + 1)]
    for i, j in pos_literals:
        pos_by_j[j].append(i)
    for i, j in neg_literals:
        neg_by_j[j].append(i)
    return tuple(map(tuple, pos_by_j)), tuple(map(tuple, neg_by_j))


def model_check(t: Permutation, f: FoFormula) -> tuple[int, ...] | None:
    """The lexicographically least satisfying assignment, or None.

    Plain backtracking along the implicit chain, kept on an explicit stack
    so that no pattern is too long for it: candidates for x_j are tried in
    increasing order above x_{j-1}, each checked against every literal
    whose variables are all assigned.
    """
    values = t.values
    n = len(values)
    k = f.var_count
    if k > n:
        return None
    pos_by_j, neg_by_j = _literals_by_variable(k, f.pos_literals, f.neg_literals)
    adj = f.adj_literals
    assignment = [0] * (k + 1)
    # the explicit stack: candidate[j] is the next value to try for x_j
    candidate = [0] * (k + 2)
    candidate[1] = 1
    j = 1
    while j >= 1:
        if j > 1 and (j - 1) in adj:
            last = min(assignment[j - 1] + 1, n)
        else:
            last = n - (k - j)
        # the values at the assigned variables that x_j's literals compare
        # with: pos literals want them below x_j's value, neg ones above
        lower = [values[assignment[i] - 1] for i in pos_by_j[j]]
        upper = [values[assignment[i] - 1] for i in neg_by_j[j]]
        x = candidate[j]
        while x <= last:
            vx = values[x - 1]
            for v in lower:
                if not v < vx:
                    break
            else:
                for v in upper:
                    if v < vx:
                        break
                else:
                    break  # x satisfies every literal
            x += 1
        if x > last:
            j -= 1  # x_j has no candidate left: resume x_{j-1}
            continue
        assignment[j] = x
        candidate[j] = x + 1
        if j == k:
            return tuple(assignment[1:])
        j += 1
        candidate[j] = x + 1
    return None


def _instance_lines(t: Permutation, f: FoFormula) -> Iterator[str]:
    """The instance's lines, without line ends, each made when it is read.
    Refuses at the call, before a line is made, an instance of more lines
    than the budget."""
    values = t.values
    n = len(values)
    k = f.var_count
    _check_budget(1 + n * (n - 1) // 2 + (n - 1) + k * (k - 1) // 2 + len(f.adj_literals),
                  "fo instance lines")
    return chain(
        (f"fo {n} {k}",),
        (f"tl {x} {y}"
         for x, vx in enumerate(values, start=1)
         for y, vy in enumerate(values, start=1)
         if vx < vy),
        (f"s {x} {x + 1}" for x in range(1, n)),
        (f"pos {i} {j}" for i, j in sorted(f.pos_literals)),
        (f"neg {i} {j}" for i, j in sorted(f.neg_literals)),
        (f"adj {i}" for i in sorted(f.adj_literals)),
    )


def export_instance(t: Permutation, f: FoFormula) -> str:
    """Deterministic line format: "fo <n> <k>" then one line per relation
    tuple and per literal.  parse_instance inverts this losslessly.
    Refuses, before building a line, an instance of more lines than the
    budget."""
    return "\n".join(_instance_lines(t, f))


def _line_chunks(text: str, size: int = _CHUNK) -> Iterator[str]:
    """text cut into consecutive pieces of whole lines, as
    ``text.splitlines()`` ends them: each piece runs from where the last
    one ended to the end of the line holding its size-th character, so
    every character is copied once."""
    start = 0
    while start < len(text):
        end = _LINE_END.search(text, start + size - 1)
        cut = end.end() if end else len(text)
        yield text[start:cut]
        start = cut


def _reads(text: str) -> Iterator[tuple[int, str, bool]]:
    """The input in file order, as (number of its first line, text, run):
    each run of ``export_instance``-form text_less lines inside a chunk of
    ``_line_chunks``, up to 256 lines, as one string with run true, and
    every other line on its own, without its line end."""
    lineno = 1
    for chunk in _line_chunks(text):
        pos = 0
        while pos < len(chunk):
            run = _TL_RUN.search(chunk, pos)
            stop = run.start() if run else len(chunk)
            for line in chunk[pos:stop].splitlines():
                yield lineno, line, False
                lineno += 1
            if run is None:
                break
            yield lineno, run.group(), True
            lineno += run.group().count("\n")
            pos = run.end()


def parse_instance(text: str) -> tuple[Permutation, FoFormula]:
    """Inverse of export_instance, with consistency checks on the relations.
    Line numbers in errors count every physical line, blank ones included.
    A repeated line is absorbed, as the relations are sets."""
    header: tuple[int, int] | None = None
    # marks[x * n + y] is set when the text_less pair (x + 1, y + 1) occurs:
    # a table of n x n bytes when n^2 <= len(text), which holds for every
    # instance that passes the count check, as its header and n(n-1)/2 tl
    # lines take at least 6 characters and a line break each.  Otherwise a
    # dict of the pairs read, at most one per line, for the count check's
    # message.
    marks: bytearray | dict[int, int] = {}
    outside: tuple[int, int] | None = None  # the first pair outside 1..n
    succ: set[tuple[int, int]] = set()
    pos: set[tuple[int, int]] = set()
    neg: set[tuple[int, int]] = set()
    adj: set[int] = set()
    kinds = {"s": (succ, 2), "pos": (pos, 2), "neg": (neg, 2), "adj": (adj, 1)}
    for lineno, raw, run in _reads(text):
        fields = raw.split()
        # a run goes in bulk once the header is read; before it, the run's
        # first line fails as a header below
        if run and header is not None:
            pairs = zip(map(int, fields[1::3]), map(int, fields[2::3]))
        elif not fields:
            continue
        elif header is None:
            if len(fields) != 3 or fields[0] != "fo" or not are_int_tokens(*fields[1:]):
                raise ParseError("expected header 'fo <n> <k>'", line=lineno)
            header = n, k = int(fields[1]), int(fields[2])
            if n < 1 or k < 1:
                raise ParseError("the header's n and k must be positive", line=lineno)
            if n * n <= len(text):
                marks = bytearray(n * n)
            continue
        elif fields[0] == "tl":
            if len(fields) != 3 or not are_int_tokens(fields[1], fields[2]):
                raise ParseError("malformed 'tl' line", line=lineno)
            pairs = ((int(fields[1]), int(fields[2])),)
        else:
            kind = fields[0]
            if kind not in kinds:
                raise ParseError(f"unknown line kind {kind!r}", line=lineno)
            target, arity = kinds[kind]
            args = fields[1:]
            if len(args) != arity or not are_int_tokens(*args):
                raise ParseError(f"malformed {kind!r} line", line=lineno)
            target.add(tuple(int(a) for a in args) if arity == 2 else int(args[0]))
            continue
        for a, b in pairs:
            if 1 <= a <= n and 1 <= b <= n:
                marks[(a - 1) * n + b - 1] = 1
            elif outside is None:
                outside = a, b
    if header is None:
        raise ParseError("empty instance")
    if outside is not None:
        raise ParseError(f"text_less pair {outside} outside positions 1..{n}")
    need = n * (n - 1) // 2
    distinct = len(marks) if isinstance(marks, dict) else marks.count(1)
    if distinct != need or len(succ) != n - 1:
        raise ParseError(f"a text of length {n} needs {need} text_less "
                         f"and {n - 1} succ pairs, got {distinct} and {len(succ)}")
    if len(pos) + len(neg) != k * (k - 1) // 2:
        raise ParseError(f"a formula over {k} variables needs {k * (k - 1) // 2} order "
                         f"literals, got {len(pos) + len(neg)}")
    # the value at y is one more than the number of distinct positions below it
    values = [1 + marks[y::n].count(1) for y in range(n)]
    try:
        t = Permutation(tuple(values))
    except ValidationError as exc:
        raise ParseError(f"text_less relation is not induced by a permutation: {exc}")
    # n(n-1)/2 distinct in-range pairs that all rise in value are exactly the
    # pairs the permutation induces, so no rebuilt relation is needed
    for x, vx in enumerate(values):
        if min(compress(values, marks[x * n:x * n + n]), default=n + 1) <= vx:
            raise ParseError("text_less relation is not induced by a permutation")
    if succ != {(x, x + 1) for x in range(1, n)}:
        raise ParseError(f"succ relation must be exactly the {n - 1} consecutive pairs")
    try:
        formula = FoFormula(k, frozenset(pos), frozenset(neg), frozenset(adj))
    except ValidationError as exc:
        raise ParseError(str(exc))
    return t, formula
