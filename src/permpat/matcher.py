"""Matching engines for generalized patterns.

A pattern P of length k matches a text T of length n when some strictly
increasing tuple of text positions carries values ordered exactly like P,
and every adjacency block of P lands on consecutive text positions.  An
embedding is that tuple: k 1-based text positions, a plain ``tuple``.

Each query runs one search, which yields its embeddings in lexicographic
order:

* ``iter_embeddings`` is the engine table, the one place an engine name is
  resolved, and yields each embedding as soon as the search finds it.
  ``brute`` filters every strictly increasing k-tuple of text
  positions; it is the oracle and refuses to run past a candidate budget.
  ``backtrack`` (and ``auto``) lays adjacency blocks down as whole units,
  left to right from an explicit stack, pruned by three rules set up once
  per query (see ``_iter_backtracking``); it is the workhorse and carries
  no budget.  The two engines share no code; each yields its tuples ready
  for output, never re-based or re-checked.
* ``match_dispatch`` is the one place a ``Mode`` is applied: DECIDE takes
  the first embedding (the lexicographically least) or None, COUNT counts
  the stream, ENUMERATE_ALL lists it.  Its ``auto`` engine decides the
  classical monotone patterns 1..k and k..1 with a
  longest-increasing-subsequence witness instead.
* ``is_valid_embedding`` is where an embedding from outside the engines is
  checked, first as a tuple of positions, then as a matching.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from operator import lt
from typing import Iterator, Sequence

from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeneralizedPattern,
    Permutation,
    ValidationError,
    _as_int_tuple,
)

__all__ = [
    "ENGINES",
    "Mode",
    "MatchRequest",
    "is_valid_embedding",
    "iter_embeddings",
    "match_bruteforce",
    "match_dispatch",
    "first_embedding",
    "lis_length",
]

ENGINES = ("auto", "brute", "backtrack")


class Mode(enum.Enum):
    DECIDE = "decide"
    COUNT = "count"
    ENUMERATE_ALL = "enumerate"


@dataclass(frozen=True)
class MatchRequest:
    """One matching query.  k > n is a legal request that simply never matches."""

    pattern: GeneralizedPattern
    text: Permutation
    mode: Mode = Mode.DECIDE


def _value_order(pattern: GeneralizedPattern) -> list[int]:
    """The pattern's 0-based indices sorted by value: positions carry values
    ordered like the pattern exactly when the text values along this order
    rise."""
    return sorted(range(pattern.k), key=pattern.values.__getitem__)


def is_valid_embedding(p: GeneralizedPattern, t: Permutation, positions: Sequence[int]) -> bool:
    """True iff the 1-based text positions realize a matching of p into t:
    order-isomorphism (k - 1 comparisons along the pattern's value order)
    plus text adjacency inside every block.  Positions strictly increase,
    so block [a, b] sits on consecutive positions exactly when it spans
    b - a of them.

    Raises ValidationError unless positions are integers that strictly
    increase from 1 up, and ValueError unless there are k of them, all
    within the text."""
    pos = _as_int_tuple(positions, "embedding")
    if not pos:
        raise ValidationError("embedding must contain at least one position")
    if pos[0] < 1:
        raise ValidationError(f"embedding position {pos[0]} < 1")
    for prev, cur in zip(pos, pos[1:]):
        if cur <= prev:
            raise ValidationError(
                f"embedding positions must strictly increase, got {prev} then {cur}"
            )
    if len(pos) != p.k:
        raise ValueError(f"embedding length {len(pos)} != pattern length {p.k}")
    if pos[-1] > t.n:
        raise ValueError(f"embedding position {pos[-1]} exceeds text length {t.n}")
    for a, b in p.blocks:
        if pos[b - 1] - pos[a - 1] != b - a:
            return False
    tv = t.values
    rising = [tv[pos[i] - 1] for i in _value_order(p)]
    return all(map(lt, rising, rising[1:]))


def _iter_bruteforce(pattern: GeneralizedPattern, text: Permutation) -> Iterator[tuple[int, ...]]:
    """All valid embeddings as 1-based position tuples, lexicographic."""
    tv = (0,) + text.values  # indexed by 1-based position
    spans = tuple((a - 1, b - 1, b - a) for a, b in pattern.blocks)
    order = _value_order(pattern)
    rises = tuple(zip(order, order[1:]))
    for combo in combinations(range(1, text.n + 1), pattern.k):
        for a, b, span in spans:  # as in is_valid_embedding
            if combo[b] - combo[a] != span:
                break
        else:
            for i, j in rises:
                if tv[combo[i]] > tv[combo[j]]:
                    break
            else:
                yield combo


def _value_neighbours(pv: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """For each pattern index i, the earlier index holding the nearest smaller
    value and the one holding the nearest larger value; k and k + 1 stand
    for "none"."""
    k = len(pv)
    below = [k] * k
    above = [k + 1] * k
    index_of = [0] * (k + 1)
    seen: list[int] = []  # values at the earlier indices, sorted
    for i, v in enumerate(pv):
        j = bisect_left(seen, v)
        if j:
            below[i] = index_of[seen[j - 1]]
        if j < len(seen):
            above[i] = index_of[seen[j]]
        seen.insert(j, v)
        index_of[v] = i
    return below, above


def _factor_starts(order: tuple[int, ...], tv: tuple[int, ...]) -> list[int]:
    """Sorted 0-based starts of the text factors order-isomorphic to a block
    whose offsets, sorted by value, are ``order``."""
    m = len(tv) - len(order) + 1
    if m <= 0:
        return []
    # one comparison stream per pair of value-consecutive block offsets
    rises = [map(lt, tv[x:x + m], tv[y:y + m]) for x, y in zip(order, order[1:])]
    return list(compress(range(m), map(all, zip(*rises))))


# room for every pattern of length up to 4 (221), which the exhaustive
# verify walk cycles through for each text
@lru_cache(maxsize=256)
def _search_plan(pattern: GeneralizedPattern) -> tuple[tuple, ...]:
    """The text-independent part of a backtracking search, kept for reuse
    across texts, as (units, below, above, windows, orders):

    * units: the placement units, ``GeneralizedPattern.units``;
    * below, above: the nearest earlier value neighbours, see
      ``_value_neighbours``;
    * windows: per unit, its window tests as (offset, below, above).  A
      block skips neighbours inside itself, since order-isomorphism of its
      start already implies them;
    * orders: per unit, its offsets sorted by value; () for a singleton.
    """
    pv = pattern.values
    k = len(pv)
    units = pattern.units
    below, above = _value_neighbours(pv)
    windows = []
    orders = []
    for p, length in units:
        tests = []
        for d in range(length):
            lo = k if p <= below[p + d] < p + length else below[p + d]
            hi = k + 1 if p <= above[p + d] < p + length else above[p + d]
            if lo != k or hi != k + 1:
                tests.append((d, lo, hi))
        windows.append(tuple(tests))
        block = sorted(range(length), key=lambda d: pv[p + d]) if length > 1 else ()
        orders.append(tuple(block))
    return units, tuple(below), tuple(above), tuple(windows), tuple(orders)


def _candidate_starts(
    orders: tuple[tuple[int, ...], ...], tv: tuple[int, ...]
) -> list[Sequence[int]]:
    """Per placement unit, the sorted 0-based text starts it may take: every
    position for a singleton (empty order), the order-isomorphic factors
    for a block."""
    return [_factor_starts(order, tv) if order else range(len(tv)) for order in orders]


def _iter_backtracking(pattern: GeneralizedPattern, text: Permutation) -> Iterator[tuple[int, ...]]:
    """All valid embeddings as 1-based position tuples, lexicographic.

    Units are placed left to right, each at its candidate starts in
    increasing order, so embeddings come out lexicographically.  An explicit
    stack of per-unit scan indices replaces recursion, so pattern length is
    bounded by memory only.  Three rules, set up once per query, prune the
    search:

    * value window: a pattern index fits a text value v iff v lies strictly
      between the text values at its nearest earlier value neighbours
      (``_value_neighbours``), one test instead of one per earlier index;
    * block candidates: a block only starts where the text factor is
      order-isomorphic to it (``_candidate_starts``; order-preserving
      pattern matching, Kubica et al. 2013, Kim et al. 2014), so inside a
      block only neighbours outside it are tested;
    * latest feasible start: one right-to-left pass bounds each unit's scan
      by the last start that leaves room for candidates of every later
      unit, and ends the search at once if some unit has none.
    """
    pv = pattern.values
    tv = text.values
    k, n = len(pv), len(tv)
    if k > n:
        return
    units, below, above, windows, orders = _search_plan(pattern)
    nu = len(units)
    starts = _candidate_starts(orders, tv)
    # stop[u]: index in starts[u] of the latest start that still leaves
    # room for every later unit
    stop = [0] * nu
    bound = n
    for u in range(nu - 1, -1, -1):
        last = bisect_right(starts[u], bound - units[u][1]) - 1
        if last < 0:
            return
        stop[u] = last
        bound = starts[u][last]

    pos = [0] * k  # 1-based text position per pattern index; output only
    # text value at each placed pattern index, then the two "none" sentinels
    val = [0] * k + [0, n + 1]
    scan = [0] * nu  # per unit, the index in starts[u] to try next
    u = 0
    while u >= 0:
        p, length = units[u]
        i, last = scan[u], stop[u]
        if length == 1:
            lo_v, hi_v = val[below[p]], val[above[p]]
            while i <= last and not lo_v < tv[i] < hi_v:
                i += 1
            if i > last:
                u -= 1
                continue
            s = i
            pos[p] = s + 1
            val[p] = tv[s]
        else:
            cand = starts[u]
            tests = windows[u]
            while i <= last:
                s = cand[i]
                for d, lo, hi in tests:
                    if not val[lo] < tv[s + d] < val[hi]:
                        break
                else:
                    break
                i += 1
            else:
                u -= 1
                continue
            for d in range(length):
                pos[p + d] = s + d + 1
                val[p + d] = tv[s + d]
        scan[u] = i + 1
        if u == nu - 1:
            yield tuple(pos)
        else:
            u += 1
            scan[u] = bisect_left(starts[u], s + length)


def iter_embeddings(
    pattern: GeneralizedPattern,
    text: Permutation,
    engine: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[int, ...]]:
    """Every embedding of pattern into text under one of ENGINES,
    lexicographically, each yielded as soon as the search finds it.  Raises
    at the call, before the first item: BudgetExceededError when the brute
    engine's C(n, k) candidates exceed the budget, ValueError for an engine
    not in ENGINES."""
    if engine == "brute":
        candidates = math.comb(text.n, pattern.k)
        if candidates > budget:
            raise BudgetExceededError(
                f"C({text.n}, {pattern.k}) = {candidates} exceeds budget {budget}"
            )
        return _iter_bruteforce(pattern, text)
    if engine in ("auto", "backtrack"):
        return _iter_backtracking(pattern, text)
    raise ValueError(f"unknown engine {engine!r}")


def _longest_runs_from(values: tuple[int, ...]) -> list[int]:
    """For each index i, the length of the longest increasing subsequence
    that starts at i; one right-to-left patience pass, O(n log n)."""
    runs = [0] * len(values)
    # tails[j]: minus the largest first value of an increasing run of length j + 1
    tails: list[int] = []
    for i in range(len(values) - 1, -1, -1):
        v = -values[i]
        j = bisect_left(tails, v)
        if j == len(tails):
            tails.append(v)
        else:
            tails[j] = v
        runs[i] = j + 1
    return runs


def lis_length(t: Permutation) -> int:
    """Length of the longest increasing subsequence, in O(n log n)."""
    return max(_longest_runs_from(t.values))


def _lis_witness(t: Permutation, k: int) -> tuple[int, ...] | None:
    """The lexicographically least embedding of the identity pattern 1..k.

    Scanning left to right, the next position is the first one whose value
    exceeds the last one taken and from which an increasing run is long
    enough to finish the pattern; any earlier position fails one of the two.
    """
    runs = _longest_runs_from(t.values)
    positions: list[int] = []
    last = 0
    for i, v in enumerate(t.values):
        if len(positions) == k:
            break
        if v > last and runs[i] >= k - len(positions):
            positions.append(i + 1)
            last = v
    return tuple(positions) if len(positions) == k else None


def match_dispatch(
    req: MatchRequest, engine: str = "auto", budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | int | list[tuple[int, ...]] | None:
    """Answer req with one of ENGINES; the budget binds only the brute engine.

    ``auto`` decides the classical identity pattern 1..k through the
    longest-increasing-subsequence witness, the decreasing pattern k..1
    through the same witness on the complemented text, and runs
    everything else through the backtracking engine.
    """
    p = req.pattern
    if engine == "auto" and req.mode is Mode.DECIDE and p.is_classical:
        if p.values == tuple(range(1, p.k + 1)):
            return _lis_witness(req.text, p.k)
        if p.values == tuple(range(p.k, 0, -1)):
            return _lis_witness(req.text.complement(), p.k)
    found = iter_embeddings(p, req.text, engine, budget)
    if req.mode is Mode.COUNT:
        return sum(1 for _ in found)
    if req.mode is Mode.DECIDE:
        return next(found, None)
    return list(found)


def match_bruteforce(
    req: MatchRequest, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | int | list[tuple[int, ...]] | None:
    """``match_dispatch(req, "brute", budget)``; kept only because
    ``perfbench/workloads.py`` calls it (ROADMAP item 1)."""
    return match_dispatch(req, "brute", budget)


def first_embedding(p: GeneralizedPattern, t: Permutation) -> tuple[int, ...] | None:
    """The lexicographically least embedding of p into t, or None; kept
    only because ``perfbench/workloads.py`` calls it (ROADMAP item 1)."""
    return match_dispatch(MatchRequest(p, t))
