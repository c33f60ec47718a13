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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GeneralizedPattern, Permutation, ValidationError, _check_budget
from .textio import ParseError, is_ascii_digits

__all__ = [
    "FoFormula",
    "encode_structure",
    "encode_formula",
    "model_check",
    "export_instance",
    "parse_instance",
]


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
        all_pairs = {(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        for i, j in pos | neg:
            if not (1 <= i < j <= k):
                raise ValidationError(f"literal ({i}, {j}) is not an ordered pair in 1..{k}")
        if pos & neg:
            raise ValidationError("a pair occurs as both a positive and a negative literal")
        if pos | neg != all_pairs:
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
    pv = p.values
    k = p.k
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
    pos_by_j: list[list[int]] = [[] for _ in range(k + 1)]
    neg_by_j: list[list[int]] = [[] for _ in range(k + 1)]
    for i, j in f.pos_literals:
        pos_by_j[j].append(i)
    for i, j in f.neg_literals:
        neg_by_j[j].append(i)
    adj = f.adj_literals
    if k > n:
        return None
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
        x = candidate[j]
        while x <= last:
            vx = values[x - 1]
            if all(values[assignment[i] - 1] < vx for i in pos_by_j[j]) and not any(
                values[assignment[i] - 1] < vx for i in neg_by_j[j]
            ):
                break
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


def export_instance(t: Permutation, f: FoFormula) -> str:
    """Deterministic line format: "fo <n> <k>" then one line per relation
    tuple and per literal.  parse_instance inverts this losslessly.
    Refuses, before building a line, an instance of more lines than the
    budget."""
    values = t.values
    n = len(values)
    k = f.var_count
    _check_budget(1 + n * (n - 1) // 2 + (n - 1) + k * (k - 1) // 2 + len(f.adj_literals),
                  "fo instance lines")
    lines = [f"fo {n} {k}"]
    lines.extend(
        f"tl {x} {y}"
        for x, vx in enumerate(values, start=1)
        for y, vy in enumerate(values, start=1)
        if vx < vy
    )
    lines.extend(f"s {x} {x + 1}" for x in range(1, n))
    lines.extend(f"pos {i} {j}" for i, j in sorted(f.pos_literals))
    lines.extend(f"neg {i} {j}" for i, j in sorted(f.neg_literals))
    lines.extend(f"adj {i}" for i in sorted(f.adj_literals))
    return "\n".join(lines)


def parse_instance(text: str) -> tuple[Permutation, FoFormula]:
    """Inverse of export_instance, with consistency checks on the relations.
    Line numbers in errors count every physical line, blank ones included."""
    header: tuple[int, int] | None = None
    tl: set[tuple[int, int]] = set()
    succ: set[tuple[int, int]] = set()
    pos: set[tuple[int, int]] = set()
    neg: set[tuple[int, int]] = set()
    adj: set[int] = set()
    kinds = {"tl": (tl, 2), "s": (succ, 2), "pos": (pos, 2), "neg": (neg, 2), "adj": (adj, 1)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        if header is None:
            if len(fields) != 3 or fields[0] != "fo" or not all(map(is_ascii_digits, fields[1:])):
                raise ParseError("expected header 'fo <n> <k>'", line=lineno)
            header = int(fields[1]), int(fields[2])
            if header[0] < 1 or header[1] < 1:
                raise ParseError("the header's n and k must be positive", line=lineno)
            continue
        if fields[0] not in kinds:
            raise ParseError(f"unknown line kind {fields[0]!r}", line=lineno)
        target, arity = kinds[fields[0]]
        args = fields[1:]
        if len(args) != arity or not all(map(is_ascii_digits, args)):
            raise ParseError(f"malformed {fields[0]!r} line", line=lineno)
        target.add(tuple(int(a) for a in args) if arity == 2 else int(args[0]))
    if header is None:
        raise ParseError("empty instance")
    n, k = header
    for a, b in tl:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(f"text_less pair ({a}, {b}) outside positions 1..{n}")
    # the header must agree with the body before it sizes anything
    if len(tl) != n * (n - 1) // 2 or len(succ) != n - 1:
        raise ParseError(f"a text of length {n} needs {n * (n - 1) // 2} text_less "
                         f"and {n - 1} succ pairs, got {len(tl)} and {len(succ)}")
    if len(pos) + len(neg) != k * (k - 1) // 2:
        raise ParseError(f"a formula over {k} variables needs {k * (k - 1) // 2} order "
                         f"literals, got {len(pos) + len(neg)}")
    # the value at x is one more than the number of positions below it
    values = [1] * n
    for a, b in tl:
        values[b - 1] += 1
    try:
        t = Permutation(tuple(values))
    except ValidationError as exc:
        raise ParseError(f"text_less relation is not induced by a permutation: {exc}")
    # n(n-1)/2 distinct in-range pairs that all rise in value are exactly the
    # pairs the permutation induces, so no rebuilt relation is needed
    if any(values[a - 1] >= values[b - 1] for a, b in tl):
        raise ParseError("text_less relation is not induced by a permutation")
    if succ != {(x, x + 1) for x in range(1, n)}:
        raise ParseError(f"succ relation must be exactly the {n - 1} consecutive pairs")
    try:
        formula = FoFormula(k, frozenset(pos), frozenset(neg), frozenset(adj))
    except ValidationError as exc:
        raise ParseError(str(exc))
    return t, formula
