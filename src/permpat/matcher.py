"""Matching engines for generalized patterns.

A pattern P of length k matches a text T of length n when some strictly
increasing tuple of text positions carries values ordered exactly like P,
and every adjacency block of P lands on consecutive text positions.  An
embedding is that tuple: k 1-based text positions, a plain ``tuple``.

Each query runs one search, which yields its embeddings in lexicographic
order:

* ``match(pattern, text, mode, engine, budget)`` is the one way in: the
  one place an engine name is resolved and a ``Mode`` applied.
  ``brute`` filters every strictly increasing k-tuple of text
  positions through the pattern's brute plan (``_brute_plan``: block
  spans and value-consecutive index pairs, made once per pattern and
  cached); it is the oracle and refuses to run past a candidate budget.
  ``backtrack`` (and ``auto``) lays adjacency blocks down as whole units,
  left to right from an explicit stack, reading one tuple of the pattern's
  search plan (``_search_plan``: one per unit, made once per pattern and
  cached) per node.  Three rules prune it, set up per text in one
  right-to-left pass over the units (see ``_iter_backtracking``), and a
  trailing one or two singletons are placed by one loop per prefix; it is
  the workhorse and carries no budget.  The two engines share no code;
  each yields its tuples ready for output, never re-based or re-checked.
  DECIDE takes the first embedding (the lexicographically least) or None,
  COUNT counts the stream, ENUMERATE_ALL returns it, each embedding
  yielded as soon as the search finds it.  ``auto`` decides the classical
  monotone patterns 1..k and k..1 with a longest-increasing-subsequence
  witness instead.
* ``is_valid_embedding`` is where an embedding from outside the engines is
  checked, first as a tuple of positions, then as a matching through the
  same brute plan, stopping at the first failed test.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, compress
from operator import and_, lt
from typing import Iterator, Sequence

from .core import (
    DEFAULT_BUDGET,
    GeneralizedPattern,
    Permutation,
    ValidationError,
    _as_int_tuple,
    _check_budget,
)

__all__ = ["ENGINES", "Mode", "is_valid_embedding", "lis_length", "match"]

ENGINES = ("auto", "brute", "backtrack")


class Mode(enum.Enum):
    DECIDE = "decide"
    COUNT = "count"
    ENUMERATE_ALL = "enumerate"


# room for one exhaustive verify group, whose patterns cycle for each text:
# a value order's 2^(k-1) block sets, at most 256 for any k the budget admits
@lru_cache(maxsize=256)
def _brute_plan(pattern: GeneralizedPattern) -> tuple[tuple, tuple]:
    """What the brute side tests of a pattern, kept for reuse across texts,
    as (spans, rises):

    * spans: per block [a, b], (a - 1, b - 1, b - a).  Positions strictly
      increase, so the block sits on consecutive positions exactly when
      those at its 0-based ends lie b - a apart;
    * rises: the pairs (i, j) of 0-based indices whose pattern values are
      consecutive, i's the smaller.  Positions carry values ordered like
      the pattern exactly when the text value at i is below the one at j
      for every pair, k - 1 comparisons along the value order.
    """
    order = sorted(range(pattern.k), key=pattern.values.__getitem__)
    spans = tuple((a - 1, b - 1, b - a) for a, b in pattern.blocks)
    return spans, tuple(zip(order, order[1:]))


def is_valid_embedding(p: GeneralizedPattern, t: Permutation, positions: Sequence[int]) -> bool:
    """True iff the 1-based text positions realize a matching of p into t:
    text adjacency inside every block, then order-isomorphism, each tested
    through the pattern's cached brute plan (``_brute_plan``) up to the
    first test that fails.

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
    spans, rises = _brute_plan(p)
    for a, b, span in spans:
        if pos[b] - pos[a] != span:
            return False
    tv = t.values
    for i, j in rises:
        if tv[pos[i] - 1] > tv[pos[j] - 1]:
            return False
    return True


def _iter_bruteforce(pattern: GeneralizedPattern, text: Permutation) -> Iterator[tuple[int, ...]]:
    """All valid embeddings as 1-based position tuples, lexicographic."""
    tv = (0,) + text.values  # indexed by 1-based position
    spans, rises = _brute_plan(pattern)
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
    # one comparison stream per pair of value-consecutive block offsets,
    # and-ed together
    x, y = order[0], order[1]
    rising = map(lt, tv[x:x + m], tv[y:y + m])
    for x, y in zip(order[1:], order[2:]):
        rising = map(and_, rising, map(lt, tv[x:x + m], tv[y:y + m]))
    return list(compress(range(m), rising))


# room for one exhaustive verify group, whose patterns cycle for each text:
# a value order's 2^(k-1) block sets, at most 256 for any k the budget admits
@lru_cache(maxsize=256)
def _search_plan(pattern: GeneralizedPattern) -> tuple[tuple, ...]:
    """The text-independent part of a backtracking search, kept for reuse
    across texts, as one tuple per placement unit
    (``GeneralizedPattern.units``), (start, length, below, above, tests,
    order, then, tail):

    * start, length: the unit's first 0-based pattern index and its length;
    * below, above: the nearest earlier value neighbours of its first
      index (``_value_neighbours``), the one test a singleton makes;
    * tests: the unit's window tests as (offset, below, above).  A block
      skips neighbours inside itself, since order-isomorphism of its start
      already implies them;
    * order: a block's offsets sorted by value; () for a singleton;
    * then: after a placement of the unit, 0 descend into a singleton, 1
      into a block, 2 emit, 3 or 4 run the tail loop over the last one or
      two units, all singletons and never every unit; None for a tail unit;
    * tail: for the unit that runs the tail loop, the below and above of
      each tail singleton, in pattern order; () otherwise.
    """
    pv = pattern.values
    k = len(pv)
    below, above = _value_neighbours(pv)
    units = pattern.units
    nu = len(units)
    size = 0  # tail singletons
    while size < min(2, nu - 1) and units[nu - 1 - size][1] == 1:
        size += 1
    top = nu - 1 - size  # the last unit the state machine places
    plan = []
    for u, (p, length) in enumerate(units):
        tests = []
        for d in range(length):
            lo = k if p <= below[p + d] < p + length else below[p + d]
            hi = k + 1 if p <= above[p + d] < p + length else above[p + d]
            if lo != k or hi != k + 1:
                tests.append((d, lo, hi))
        order = tuple(sorted(range(length), key=lambda d: pv[p + d])) if length > 1 else ()
        then = int(units[u + 1][1] > 1) if u < top else 2 + size if u == top else None
        tail = (tuple(x for i in range(k - size, k) for x in (below[i], above[i]))
                if u == top else ())
        plan.append((p, length, below[p], above[p], tuple(tests), order, then, tail))
    return tuple(plan)


def _iter_backtracking(pattern: GeneralizedPattern, text: Permutation) -> Iterator[tuple[int, ...]]:
    """All valid embeddings as 1-based position tuples, lexicographic.

    Units are placed left to right, each at its candidate starts in
    increasing order, so embeddings come out lexicographically.  An explicit
    stack of per-unit scan indices replaces recursion, so pattern length is
    bounded by memory only.  Three rules prune the search:

    * value window: a pattern index fits a text value v iff v lies strictly
      between the text values at its nearest earlier value neighbours
      (``_value_neighbours``), one test instead of one per earlier index;
    * block candidates: a block only starts where the text factor is
      order-isomorphic to it (``_factor_starts``; order-preserving pattern
      matching, Kubica et al. 2013, Kim et al. 2014), so inside a block
      only neighbours outside it are tested;
    * latest feasible start: one right-to-left pass over the units, per
      text, makes each unit's candidates and finds the last that leaves
      room for candidates of every later unit.  It scans for a block's
      factors where the first block of that order is reached, so blocks of
      one shape share one scan, and ends the search at the first unit with
      no feasible start, before any earlier block is scanned.

    A singleton's candidates are every text position, so its scan starts
    right after the unit before it, at index s + length.  When the pattern
    ends in one or two singletons, the unit before them makes each prefix's
    completions in one loop over the rest of the text (its plan's ``then``
    and ``tail``), not one state-machine step per leaf.
    """
    tv = text.values
    k, n = len(pattern.values), len(tv)
    plan = _search_plan(pattern)
    nu = len(plan)
    # starts[u]: unit u's sorted 0-based candidate starts; stop[u]: the
    # index in starts[u] of the latest that leaves room for every later unit
    starts: list[Sequence[int]] = [()] * nu
    stop = [0] * nu
    scans: dict[tuple[int, ...], Sequence[int]] = {(): range(n)}
    bound = n
    for u in range(nu - 1, -1, -1):
        _, length, _, _, _, order, _, _ = plan[u]
        if order not in scans:
            scans[order] = _factor_starts(order, tv)
        cand = starts[u] = scans[order]
        last = stop[u] = bisect_right(cand, bound - length) - 1
        if last < 0:
            return
        bound = cand[last]

    pos = [0] * k  # 1-based text position per pattern index; output only
    # text value at each placed pattern index, then the two "none" sentinels
    val = [0] * k + [0, n + 1]
    scan = [0] * nu  # per unit, the index in starts[u] to try next
    u = 0
    while u >= 0:
        p, length, below, above, tests, _, then, tail = plan[u]
        i, last = scan[u], stop[u]
        if length == 1:
            lo_v, hi_v = val[below], val[above]
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
        if then == 0:
            u += 1
            scan[u] = s + length
        elif then == 1:
            u += 1
            scan[u] = bisect_left(starts[u], s + length)
        elif then == 2:
            yield tuple(pos)
        elif then == 3:  # the last singleton's latest start is n - 1
            lo_v, hi_v = val[tail[0]], val[tail[1]]
            for j in range(s + length, n):
                if lo_v < tv[j] < hi_v:
                    pos[k - 1] = j + 1
                    yield tuple(pos)
        else:  # two singletons, whose latest starts are n - 2 and n - 1
            lo_v, hi_v = val[tail[0]], val[tail[1]]
            for h in range(s + length, n - 1):
                v = tv[h]
                if lo_v < v < hi_v:
                    pos[k - 2] = h + 1
                    val[k - 2] = v
                    lo_w, hi_w = val[tail[2]], val[tail[3]]
                    for j in range(h + 1, n):
                        if lo_w < tv[j] < hi_w:
                            pos[k - 1] = j + 1
                            yield tuple(pos)


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


def match(
    pattern: GeneralizedPattern,
    text: Permutation,
    mode: Mode = Mode.DECIDE,
    engine: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...] | int | Iterator[tuple[int, ...]] | None:
    """Match pattern into text under one of ENGINES.  k > n is a legal query
    that simply never matches.

    DECIDE answers the lexicographically least embedding or None, COUNT
    their number, and ENUMERATE_ALL an iterator over them all,
    lexicographically, each yielded as soon as the search finds it.  Raises
    at the call, before any search: BudgetExceededError when the brute
    engine's C(n, k) candidates exceed the budget, which binds no other
    engine, and ValueError for an engine not in ENGINES.

    ``auto`` decides the classical identity pattern 1..k through the
    longest-increasing-subsequence witness, the decreasing pattern k..1
    through the same witness on the complemented text, and runs everything
    else through the backtracking engine.
    """
    if engine == "brute":
        count = math.comb(text.n, pattern.k)
        if count > budget:  # the refusal's label is made only for a refusal
            _check_budget(count, f"C({text.n}, {pattern.k})", budget)
        found = _iter_bruteforce(pattern, text)
    elif engine in ("auto", "backtrack"):
        if engine == "auto" and mode is Mode.DECIDE and pattern.is_classical:
            if pattern.values == tuple(range(1, pattern.k + 1)):
                return _lis_witness(text, pattern.k)
            if pattern.values == tuple(range(pattern.k, 0, -1)):
                return _lis_witness(text.complement(), pattern.k)
        found = _iter_backtracking(pattern, text)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if mode is Mode.DECIDE:
        return next(found, None)
    if mode is Mode.COUNT:
        return sum(1 for _ in found)
    return found


# perfbench/workloads.py calls these four; ROADMAP item 1 moves it onto
# match and deletes them
MatchRequest = namedtuple("MatchRequest", "pattern text mode", defaults=(Mode.DECIDE,))


def match_dispatch(req, engine="auto", budget=DEFAULT_BUDGET):
    found = match(*req, engine, budget)
    return list(found) if req.mode is Mode.ENUMERATE_ALL else found


def match_bruteforce(req, budget=DEFAULT_BUDGET):
    return match_dispatch(req, "brute", budget)


def first_embedding(p, t):
    return match(p, t)
