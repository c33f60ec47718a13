"""Executable construction turning independent-set questions into
generalized pattern matching questions, kept in three auditable stages.

Given a graph on l vertices and a subset size k, the construction builds a
pattern P and a text T such that P matches T exactly when the graph has an
independent set of size k:

* stage 1 writes both sides as halves over a multiset alphabet.  The dot
  half lists vertex indices (1..k on the pattern side, 1..l on the text
  side); the bar half encodes pairs {i, j} as blocks (i, j, i), all pairs
  on the pattern side and exactly the non-edges on the text side, in
  lexicographic order.  So the pattern halves are the text halves of the
  edgeless graph on k vertices.
* stage 2 eliminates repeated values.  Each value j owns a private
  interval: the dot occurrence of j becomes the pair (high_j, low_j) and
  the bar occurrences of j become an increasing run strictly between
  low_j and high_j.  The intervals follow one another in value order, so
  the ranks 1..N are prefix sums of interval sizes over the distinct
  values: exact integers, with no sort of the entries and no floats.
* stage 3 splices a four-element separator shaped high+3, high+2, high+1,
  high+4 between the halves.  On the pattern side the separator is one
  adjacency block and each bar triple becomes a block of length 3; the
  text side stays a plain permutation.  The separator shape (a decreasing
  adjacent triple followed by a larger element) occurs exactly once in
  every generated text, which pins the two halves together.

The final pattern always has length 4 + (3k^2 + k)/2; the text has length
2l + 3 * (non-edge count) + 4.

``_closed_form`` and ``_stage1`` yield stage 3's and stage 1's values in
batches straight from the graph, building no stage; ``permpat reduce``
writes from them alone.  verify's "closed-form ranks" check holds
``_closed_form`` to the staged path, with which it shares no code.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, count
from typing import Callable, Iterable, Iterator

from .core import (
    GeneralizedPattern,
    Graph,
    MultisetHalves,
    Permutation,
    ValidationError,
    _check_budget,
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


def _halves(l: int, pairs: Iterable[tuple[int, int]]) -> MultisetHalves:
    """Dot half 1..l; one bar block (i, j, i) per pair, in the given order."""
    return MultisetHalves(tuple(range(1, l + 1)), tuple((i, j, i) for i, j in pairs))


def _refuse(g: Graph, k: int) -> None:
    """KRangeError for a k outside 1..l, then the budget refusal of a final
    text longer than 10^8 values; both before anything is built."""
    if not 1 <= k <= g.l:
        raise KRangeError(f"subset size k={k} outside 1..{g.l}")
    _check_budget(2 * g.l + 3 * (g.l * (g.l - 1) // 2 - g.m) + 4, "|T|")


def build_multiset_instance(g: Graph, k: int) -> tuple[MultisetHalves, MultisetHalves]:
    """Stage 1: vertex-list halves plus pair-encoding bar halves.

    The pattern bar carries every pair over 1..k; the text bar carries the
    graph's non-edges.  Both are in lexicographic order.  Refuses, before
    building anything, a final text longer than the budget.
    """
    _refuse(g, k)
    return _halves(k, combinations(range(1, k + 1), 2)), _halves(g.l, g.non_edges())


_BATCH = 4096  # the most values one batch of _closed_form holds


def _closed_form(l: int, edges: frozenset[tuple[int, int]] = frozenset()
                 ) -> Iterator[tuple[int, list[int]]]:
    """Stage 3's values straight from the graph, with no stage built: batches
    of (width, values), width 1 for the dot half, 4 for the separator and 3
    for the bar triples, each batch a whole number of units of its width and
    at most _BATCH values.  The reduced pattern is the same map on the
    edgeless graph on k vertices, its units of width 3 and 4 its blocks.

    Vertex v has c_v bar occurrences, 2 per non-edge (v, .) and 1 per
    non-edge (., v).  With off_v = sum over u < v of (c_u + 2) and
    N = 2l + sum of c_v, dot v is (off_v + c_v + 2, off_v + 1), the
    separator is N + 3, N + 2, N + 1, N + 4, and the t-th bar occurrence of
    v, in non-edge order, is off_v + t + 1.  Non-edges are walked row by row
    in lexicographic order; only per-vertex counts and one row are held.
    """
    up, down, above = [0] * (l + 1), [0] * (l + 1), {}
    for u, v in edges:  # u < v
        up[u] += 1
        down[v] += 1
        above.setdefault(u, set()).add(v)
    off, dots = [0] * (l + 2), []
    for v in range(1, l + 1):
        c = 2 * (l - v - up[v]) + (v - 1 - down[v])
        dots += (off[v] + c + 2, off[v] + 1)
        off[v + 1] = off[v] + c + 2
    for start in range(0, 2 * l, _BATCH):
        yield 1, dots[start:start + _BATCH]
    n = off[l + 1]
    yield 4, [n + 3, n + 2, n + 1, n + 4]
    # non-edge (u, v) is v's (u - e)-th occurrence, e its edges (w, v) with w < u:
    # low[v] + u with low[v] = off_v + 1 - e
    low = [o + 1 for o in off]
    batch, cut = [], _BATCH - _BATCH % 3
    for u in range(1, l):
        near = above.get(u)
        if near is None:
            second = [x + u for x in low[u + 1:l + 1]]
        else:
            second = [low[v] + u for v in range(u + 1, l + 1) if v not in near]
            for v in near:
                low[v] -= 1
        first = off[u] + 2 + (u - 1 - down[u])  # after u's occurrences as the larger end
        row = [0] * (3 * len(second))
        row[0::3] = range(first, first + 2 * len(second), 2)
        row[1::3] = second
        row[2::3] = range(first + 1, first + 2 * len(second), 2)
        batch += row
        while len(batch) >= cut:
            yield 3, batch[:cut]
            del batch[:cut]
    if batch:
        yield 3, batch


def _stage1(l: int, edges: frozenset[tuple[int, int]]) -> Iterator[tuple[int, list[int]]]:
    """Stage 1's values in (width, values) batches like ``_closed_form``'s,
    building no stage: the dot half 1..l, then one batch of width 3 per row
    u, holding (u, v, u) for each non-edge (u, v) in ascending v."""
    yield 1, list(range(1, l + 1))
    for u in range(1, l):
        row = [x for v in range(u + 1, l + 1) if (u, v) not in edges for x in (u, v, u)]
        if row:
            yield 3, row


def _bar_counts(h: MultisetHalves) -> Counter:
    if len(set(h.dot)) != len(h.dot):
        raise ValidationError("dot half has repeated values; cannot deduplicate")
    return Counter(chain.from_iterable(h.bar))


def deduplicate(h: MultisetHalves) -> MultisetHalves:
    """Stage 2: spread each value across its own interval and rank-normalize.

    The intervals follow one another in value order.  With zero_j the count
    of entries of smaller values, plus 1 if j is a dot entry, and m_j the
    count of bar occurrences of j, dot j becomes the pair
    (zero_j + m_j + 1, zero_j) and the t-th bar occurrence of j becomes
    zero_j + t.  The combined values are exactly 1..N.
    """
    counts = _bar_counts(h)
    dots = set(h.dot)
    zero: dict[int, int] = {}
    below = 0
    for j in sorted(dots.union(counts)):
        zero[j] = below + (j in dots)
        below += counts[j] + 2 * (j in dots)
    new_dot = tuple(r for j in h.dot for r in (zero[j] + counts[j] + 1, zero[j]))
    bar_ranks = {j: count(zero[j] + 1) for j in counts}
    new_bar = tuple(tuple(next(bar_ranks[v]) for v in block) for block in h.bar)
    return MultisetHalves(dot=new_dot, bar=new_bar)


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
    counts = _bar_counts(h)
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


def _spliced(h: MultisetHalves) -> tuple[int, ...]:
    """The dot half, the separator above every value, then the bar blocks."""
    top = max(chain(h.dot, chain.from_iterable(h.bar)))
    return (*h.dot, top + 3, top + 2, top + 1, top + 4, *chain.from_iterable(h.bar))


def attach_separator(
    pattern_halves: MultisetHalves, text_halves: MultisetHalves
) -> tuple[GeneralizedPattern, Permutation]:
    """Stage 3: insert the four-element separator between the halves.

    Both sides receive the values (max+3, max+2, max+1, max+4).  On the
    pattern side the separator is one adjacency block and every bar block
    becomes an adjacency block; the text is a plain permutation.
    """
    start = len(pattern_halves.dot) + 1
    blocks = [(start, start + 3)]
    start += 4
    for block in pattern_halves.bar:
        blocks.append((start, start + len(block) - 1))
        start += len(block)
    pattern = GeneralizedPattern(_spliced(pattern_halves), tuple(blocks))
    return pattern, Permutation(_spliced(text_halves))


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


def find_independent_set(g: Graph, k: int) -> tuple[int, ...] | None:
    """First k-subset of vertices (lexicographic) spanning no edge, or None."""
    if k > g.l:
        return None
    _check_budget(math.comb(g.l, k), f"C({g.l}, {k})")
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
    _check_budget(math.comb(len(text.dot), k), f"C({len(text.dot)}, {k})")
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
        first, second = positions[2 * i - 2], positions[2 * i - 1]
        if second % 2 != 0 or second > 2 * trace.l or first != second - 1:
            raise ValueError(f"pattern dot pair {i} does not land on a text dot pair "
                             f"(positions {first}, {second})")
        vertices.append(second // 2)
    return tuple(vertices)

