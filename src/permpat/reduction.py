"""Executable construction turning independent-set questions into
generalized pattern matching questions, kept in three auditable stages.

Given a graph on l vertices and a subset size k, the construction builds a
pattern P and a text T such that P matches T exactly when the graph has an
independent set of size k:

* stage 1 writes both sides as halves over a multiset alphabet.  The dot
  half lists vertex indices (1..k on the pattern side, 1..l on the text
  side); the bar half encodes pairs {i, j} as blocks (i, j, i), all pairs
  on the pattern side and exactly the non-edges on the text side, in
  lexicographic order.
* stage 2 eliminates repeated values.  Each value j owns a private
  interval: the dot occurrence of j becomes the pair (high_j, low_j) and
  the bar occurrences of j become an increasing run strictly between
  low_j and high_j.  Rank-normalizing all entries to 1..N yields halves
  over ordinary distinct integers.  Ranks are computed with exact integer
  keys (value, occurrence index); floating point never participates.
* stage 3 splices a four-element separator shaped high+3, high+2, high+1,
  high+4 between the halves.  On the pattern side the separator is one
  adjacency block and each bar triple becomes a block of length 3; the
  text side stays a plain permutation.  The separator shape (a decreasing
  adjacent triple followed by a larger element) occurs exactly once in
  every generated text, which pins the two halves together.

The final pattern always has length 4 + (3k^2 + k)/2; the text has length
2l + 3 * (non-edge count) + 4.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeneralizedPattern,
    Graph,
    MultisetHalves,
    Permutation,
    ValidationError,
)

__all__ = [
    "KRangeError",
    "ReductionTrace",
    "build_multiset_instance",
    "deduplicate",
    "deduplicate_with_reals",
    "attach_separator",
    "reduce",
    "find_independent_set",
    "simultaneous_multiset_witness",
    "matched_vertices",
    "format_trace",
]

class KRangeError(ValueError):
    """The requested subset size is outside 1..l, where the construction
    is undefined."""


@dataclass(frozen=True)
class ReductionTrace:
    """All three stages of one reduction, retained for audit.

    Size identities are enforced on construction:
    |P| = 4 + (3k^2 + k)/2 and |T| = 2l + 3*(non-edges) + 4, which is at
    most 4 + (3l^2 + l)/2 with equality exactly for edge-free graphs.
    """

    k: int
    l: int
    stage1_pattern: MultisetHalves
    stage1_text: MultisetHalves
    stage2_pattern: MultisetHalves
    stage2_text: MultisetHalves
    stage3_pattern: GeneralizedPattern
    stage3_text: Permutation

    def __post_init__(self) -> None:
        k, l = self.k, self.l
        expected_p = 4 + (3 * k * k + k) // 2
        if len(self.stage3_pattern) != expected_p:
            raise ValidationError(
                f"pattern length {len(self.stage3_pattern)} != 4 + (3k^2+k)/2 = {expected_p}"
            )
        non_edges = len(self.stage1_text.bar)
        expected_t = 2 * l + 3 * non_edges + 4
        if len(self.stage3_text) != expected_t:
            raise ValidationError(
                f"text length {len(self.stage3_text)} != 2l + 3*non_edges + 4 = {expected_t}"
            )
        bound_t = 4 + (3 * l * l + l) // 2
        if len(self.stage3_text) > bound_t:
            raise ValidationError(
                f"text length {len(self.stage3_text)} exceeds bound {bound_t}"
            )
        # the units tile the pattern, so their lengths fix every block
        layout = [length for _, length in self.stage3_pattern.units]
        if layout != [1] * (2 * k) + [4] + [3] * (k * (k - 1) // 2):
            raise ValidationError("pattern blocks do not follow separator + triples layout")


def build_multiset_instance(g: Graph, k: int) -> tuple[MultisetHalves, MultisetHalves]:
    """Stage 1: vertex-list halves plus pair-encoding bar halves.

    The pattern bar carries every pair over 1..k; the text bar carries the
    graph's non-edges.  Both are in lexicographic order.
    """
    if not 1 <= k <= g.l:
        raise KRangeError(f"subset size k={k} outside 1..{g.l}")
    pattern = MultisetHalves(
        dot=tuple(range(1, k + 1)),
        bar=tuple((i, j, i) for i, j in combinations(range(1, k + 1), 2)),
    )
    text = MultisetHalves(
        dot=tuple(range(1, g.l + 1)),
        bar=tuple((i, j, i) for i, j in g.non_edges()),
    )
    return pattern, text


def _bar_occurrence_keys(h: MultisetHalves) -> tuple[list[tuple[int, int]], Counter]:
    counts: Counter = Counter()
    keys: list[tuple[int, int]] = []
    for block in h.bar:
        for v in block:
            counts[v] += 1
            keys.append((v, counts[v]))
    return keys, counts


def deduplicate(h: MultisetHalves) -> MultisetHalves:
    """Stage 2: spread each value across its own interval and rank-normalize.

    A dot entry j becomes the key pair (j, high) then (j, low); the t-th
    bar occurrence of j becomes (j, t), which sits strictly between the
    two.  Sorting all keys and replacing each by its 1-based rank yields
    halves whose combined values are exactly 1..N.
    """
    if len(set(h.dot)) != len(h.dot):
        raise ValidationError("dot half has repeated values; cannot deduplicate")
    bar_keys, counts = _bar_occurrence_keys(h)
    # low occurrence index 0, bar occurrences 1..m, high m+1
    dot_keys: list[tuple[int, int]] = []
    for j in h.dot:
        dot_keys.append((j, counts[j] + 1))
        dot_keys.append((j, 0))
    rank = {key: r for r, key in enumerate(sorted(dot_keys + bar_keys), start=1)}
    new_dot = tuple(rank[key] for key in dot_keys)
    new_bar = []
    it = iter(bar_keys)
    for block in h.bar:
        new_bar.append(tuple(rank[next(it)] for _ in block))
    return MultisetHalves(dot=new_dot, bar=tuple(new_bar))


def deduplicate_with_reals(
    h: MultisetHalves, assign: Callable[[int, int, int], float] | None = None
) -> MultisetHalves:
    """Stage 2 via explicit real representatives, used to demonstrate that
    any strictly increasing choice inside each interval gives the same ranks.

    assign(j, t, m) must return the representative of the t-th bar
    occurrence of value j (of m total), strictly increasing in t and
    strictly between j and j + 0.9.  The default is j + 0.9 * t / (m + 1).
    """
    if assign is None:
        assign = lambda j, t, m: j + 0.9 * t / (m + 1)
    if len(set(h.dot)) != len(h.dot):
        raise ValidationError("dot half has repeated values; cannot deduplicate")
    _, counts = _bar_occurrence_keys(h)
    reals_dot: list[float] = []
    for j in h.dot:
        reals_dot.extend((j + 0.9, float(j)))
    occ: Counter = Counter()
    reals_bar: list[list[float]] = []
    for block in h.bar:
        row = []
        for v in block:
            occ[v] += 1
            row.append(assign(v, occ[v], counts[v]))
        reals_bar.append(row)
    everything = sorted(reals_dot + [x for row in reals_bar for x in row])
    rank = {x: r for r, x in enumerate(everything, start=1)}
    if len(rank) != len(everything):
        raise ValidationError("real representatives collided; assign scheme is invalid")
    return MultisetHalves(
        dot=tuple(rank[x] for x in reals_dot),
        bar=tuple(tuple(rank[x] for x in row) for row in reals_bar),
    )


def attach_separator(
    pattern_halves: MultisetHalves, text_halves: MultisetHalves
) -> tuple[GeneralizedPattern, Permutation]:
    """Stage 3: insert the four-element separator between the halves.

    Both sides receive the values (max+3, max+2, max+1, max+4).  On the
    pattern side the separator is one adjacency block and every bar block
    becomes an adjacency block; the text is a plain permutation.
    """
    p_max = max(pattern_halves.flatten())
    p_values = list(pattern_halves.dot)
    p_values += [p_max + 3, p_max + 2, p_max + 1, p_max + 4]
    blocks = [(len(pattern_halves.dot) + 1, len(pattern_halves.dot) + 4)]
    for block in pattern_halves.bar:
        start = len(p_values) + 1
        p_values.extend(block)
        blocks.append((start, start + len(block) - 1))
    pattern = GeneralizedPattern(tuple(p_values), tuple(blocks))

    t_max = max(text_halves.flatten())
    t_values = list(text_halves.dot)
    t_values += [t_max + 3, t_max + 2, t_max + 1, t_max + 4]
    for block in text_halves.bar:
        t_values.extend(block)
    return pattern, Permutation(tuple(t_values))


def reduce(g: Graph, k: int) -> ReductionTrace:
    """Run all three stages and retain every intermediate."""
    s1_pattern, s1_text = build_multiset_instance(g, k)
    s2_pattern = deduplicate(s1_pattern)
    s2_text = deduplicate(s1_text)
    pattern, text = attach_separator(s2_pattern, s2_text)
    return ReductionTrace(
        k=k,
        l=g.l,
        stage1_pattern=s1_pattern,
        stage1_text=s1_text,
        stage2_pattern=s2_pattern,
        stage2_text=s2_text,
        stage3_pattern=pattern,
        stage3_text=text,
    )


def find_independent_set(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """First k-subset of vertices (lexicographic) spanning no edge, or None."""
    if k > g.l:
        return None
    subsets = math.comb(g.l, k)
    if subsets > budget:
        raise BudgetExceededError(f"C({g.l}, {k}) = {subsets} exceeds budget {budget}")
    edges = g.edges
    for subset in combinations(range(1, g.l + 1), k):
        for pair in combinations(subset, 2):
            if pair in edges:
                break
        else:
            return subset
    return None


def simultaneous_multiset_witness(
    pattern: MultisetHalves, text: MultisetHalves
) -> tuple[int, ...] | None:
    """First increasing value map carrying the pattern halves into the text
    halves, or None.

    The map sends the pattern dot values (ascending) to a k-subset of text
    dot values; it works when the image of every pattern bar block is one
    of the text bar blocks.  Dot halves are ascending by construction.  On
    constructed instances a map exists exactly when the graph has an
    independent set of size k.
    """
    k = len(pattern.dot)
    text_blocks = set(text.bar)
    for chosen in combinations(text.dot, k):
        mu = dict(zip(pattern.dot, chosen))
        if all(tuple(mu[v] for v in block) in text_blocks for block in pattern.bar):
            return chosen
    return None


def matched_vertices(trace: ReductionTrace, positions: tuple[int, ...]) -> tuple[int, ...]:
    """Decode which graph vertices a final-stage embedding selects.

    The pattern's i-th dot pair sits at pattern positions 2i-1, 2i and must
    land on some text dot pair 2v-1, 2v; the selected vertex is v.
    """
    if len(positions) != len(trace.stage3_pattern):
        raise ValueError("embedding length does not match the reduced pattern")
    vertices = []
    for i in range(1, trace.k + 1):
        text_pos = positions[2 * i - 1]
        if text_pos % 2 != 0 or text_pos > 2 * trace.l:
            raise ValueError(
                f"pattern dot pair {i} does not land on a text dot pair (position {text_pos})"
            )
        vertices.append(text_pos // 2)
    return tuple(vertices)


def _format_halves(h: MultisetHalves, side: str) -> list[str]:
    dot = " ".join(str(v) for v in h.dot)
    bar = " ".join("[" + " ".join(str(v) for v in block) + "]" for block in h.bar)
    return [f"{side}.dot: {dot}", f"{side}.bar: {bar}"]


def format_trace(trace: ReductionTrace) -> str:
    """Line-oriented audit dump: one section per stage, values space
    separated, blocks bracketed."""
    from .textio import serialize_pattern, serialize_permutation

    lines = ["[stage1]"]
    lines += _format_halves(trace.stage1_pattern, "pattern")
    lines += _format_halves(trace.stage1_text, "text")
    lines.append("[stage2]")
    lines += _format_halves(trace.stage2_pattern, "pattern")
    lines += _format_halves(trace.stage2_text, "text")
    lines.append("[stage3]")
    lines.append(f"pattern: {serialize_pattern(trace.stage3_pattern)}")
    lines.append(f"text: {serialize_permutation(trace.stage3_text)}")
    lines.append("[parameters]")
    lines.append(f"k: {trace.k}")
    lines.append(f"l: {trace.l}")
    lines.append(f"pattern_length: {len(trace.stage3_pattern)}")
    lines.append(f"text_length: {len(trace.stage3_text)}")
    return "\n".join(lines) + "\n"
