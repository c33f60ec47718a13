"""Domain types for generalized permutation pattern matching.

Everything here is 1-based: a permutation of length n contains each value
1..n exactly once, positions run from 1 to n, and adjacency blocks are
position intervals [a, b] with b >= a + 1.  All types validate their
invariants on construction, raising ValidationError on a value of any
malformed type or shape, and are immutable afterwards, so instances can be
shared freely between threads and used as dict keys.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence

__all__ = [
    "ValidationError",
    "BudgetExceededError",
    "Permutation",
    "GeneralizedPattern",
    "MultisetHalves",
    "Graph",
    "DEFAULT_BUDGET",
]


class ValidationError(ValueError):
    """A domain value violates one of its invariants."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its configured budget."""


DEFAULT_BUDGET = 10**8
"""Count above which the exhaustive searches and the builds of quadratic
size refuse to run."""


def _shown_digits() -> int:
    """The most digits a count is printed with: str()'s limit, 4300 where it is off."""
    return sys.get_int_max_str_digits() or 4300


def _check_budget(count: int, what: str, budget: int = DEFAULT_BUDGET) -> None:
    """The one up-front refusal: BudgetExceededError when count > budget.  A
    count too long to print is shown as a bound."""
    if count > budget:
        digits = _shown_digits()
        shown = str(count) if count < 10**digits else f"at least 10^{digits}"
        raise BudgetExceededError(f"{what} = {shown} exceeds budget {budget}")


def _sum_while_shown(terms: Iterable[int]) -> int:
    """sum(terms), or its first partial sum too long to print: any count that
    large is refused all the same, and shown as a bound."""
    bound = 10 ** _shown_digits()
    total = 0
    for term in terms:
        total += term
        if total >= bound:
            break
    return total


def _as_tuple(values: Iterable, what: str, items: str = "integers") -> tuple:
    """values as a tuple, the argument itself when it is one; a non-iterable
    is a ValidationError that names what."""
    try:
        iter(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of {items}, got {values!r}") from None
    return tuple(values)


def _as_int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    values = _as_tuple(values, what)
    if not set(map(type, values)) <= {int}:  # a bool, an int subclass or a non-int
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{what} must contain integers, got {v!r}")
    return values


def _int_pair(item: object, what: str) -> tuple[int, int]:
    try:
        a, b = item
    except (TypeError, ValueError):  # not iterable, or not of length 2
        raise ValidationError(f"{what} must be pairs of integers, got {item!r}") from None
    if type(a) is not int or type(b) is not int:  # _as_int_tuple names the offender
        _as_int_tuple((a, b), what)
    return a, b


def _add_edge(edges: set[tuple[int, int]], edge: object, l: int) -> None:
    """The edge rule: edge is a new non-loop pair in 1..l; add it as (smaller, larger)."""
    u, v = _int_pair(edge, "edge endpoints")
    if u == v:
        raise ValidationError(f"self-loop at vertex {u}")
    if not (1 <= u <= l and 1 <= v <= l):
        raise ValidationError(f"edge ({u}, {v}) out of range 1..{l}")
    key = (u, v) if u < v else (v, u)
    if key in edges:
        raise ValidationError(f"duplicate edge ({key[0]}, {key[1]})")
    edges.add(key)


def _check_bijection(values: Sequence[int], what: str) -> None:
    n = len(values)
    if n == 0:
        raise ValidationError(f"{what} must contain at least one value")
    if min(values) >= 1 and max(values) <= n and len(set(values)) == n:
        return  # otherwise the loop below names the first offence by position
    seen = [False] * (n + 1)
    for pos, v in enumerate(values, start=1):
        if not 1 <= v <= n:
            raise ValidationError(
                f"{what}: value {v} out of range 1..{n} at position {pos}"
            )
        if seen[v]:
            raise ValidationError(f"{what}: duplicate {v} at position {pos}")
        seen[v] = True


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n in one-line notation, e.g. 53142.

    >>> Permutation((5, 3, 1, 4, 2)).n
    5
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_int_tuple(self.values, "permutation"))
        _check_bijection(self.values, "permutation")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def complement(self) -> Permutation:
        """The permutation with every value v replaced by n + 1 - v."""
        n = len(self.values)
        return Permutation(tuple(n + 1 - v for v in self.values))


@dataclass(frozen=True)
class GeneralizedPattern:
    """A permutation of 1..k with disjoint adjacency blocks.

    A block [a, b] forces pattern positions a..b onto consecutive text
    positions.  Blocks never nest or overlap, always span at least two
    positions, and are kept sorted left to right.  A pattern with no
    blocks is a classical pattern.
    """

    values: tuple[int, ...]
    blocks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_int_tuple(self.values, "pattern"))
        _check_bijection(self.values, "pattern")
        k = len(self.values)
        blocks = sorted(_int_pair(interval, "block bounds")
                        for interval in _as_tuple(self.blocks, "blocks", "pairs"))
        prev_end = 0
        for a, b in blocks:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ValidationError(f"block [{a},{b}] exceeds pattern bounds 1..{k}")
            if b < a + 1:
                raise ValidationError(f"block [{a},{b}] has length < 2")
            if a <= prev_end:
                raise ValidationError(f"block [{a},{b}] overlaps an earlier block")
            prev_end = b
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def k(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_classical(self) -> bool:
        return not self.blocks

    @cached_property
    def units(self) -> tuple[tuple[int, int], ...]:
        """The pattern cut left to right into (0-based start, length) units:
        each block stays whole, every other position is a unit of its own."""
        units: list[tuple[int, int]] = []
        free = 0  # the first position not yet in a unit
        for a, b in self.blocks:
            units.extend((i, 1) for i in range(free, a - 1))
            units.append((a - 1, b - a + 1))
            free = b
        units.extend((i, 1) for i in range(free, len(self.values)))
        return tuple(units)

    def complement(self) -> GeneralizedPattern:
        """Replace every value v by k + 1 - v, keeping the blocks."""
        k = len(self.values)
        return GeneralizedPattern(tuple(k + 1 - v for v in self.values), self.blocks)


@dataclass(frozen=True)
class MultisetHalves:
    """A vertex-list half (dot) plus an edge half of short blocks (bar).

    Values may repeat across the two halves; the same container also
    carries the rank-normalized, repeat-free form produced later in the
    reduction pipeline.
    """

    dot: tuple[int, ...]
    bar: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "dot", _as_int_tuple(self.dot, "dot half"))
        bar = _as_tuple(self.bar, "bar half", "blocks")
        if not set(map(type, bar)) <= {tuple}:  # _as_tuple names a non-iterable block
            bar = tuple(_as_tuple(block, "bar block") for block in bar)
        object.__setattr__(self, "bar", bar)
        # blocks are checked in order, without copying their values: a bad
        # value before the first empty block wins; _as_int_tuple only names it
        cut = self.bar.index(()) if () in self.bar else len(self.bar)
        if not set(map(type, chain.from_iterable(islice(self.bar, cut)))) <= {int}:
            _as_int_tuple(chain.from_iterable(islice(self.bar, cut)), "bar block")
        if cut < len(self.bar):
            raise ValidationError("bar blocks must be non-empty")
        if min(chain(self.dot, chain.from_iterable(self.bar)), default=1) < 1:
            v = next(v for v in chain(self.dot, chain.from_iterable(self.bar)) if v < 1)
            raise ValidationError(f"halves must contain positive values, got {v}")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..l."""

    l: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if isinstance(self.l, bool) or not isinstance(self.l, int) or self.l < 0:
            raise ValidationError(f"vertex count must be a non-negative integer, got {self.l!r}")
        normalized = set()
        for edge in _as_tuple(self.edges, "edges", "pairs"):
            _add_edge(normalized, edge, self.l)
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def non_edges(self) -> tuple[tuple[int, int], ...]:
        """All vertex pairs {u, v} with u < v that are not edges, in lexicographic order."""
        return tuple(
            (u, v)
            for u in range(1, self.l + 1)
            for v in range(u + 1, self.l + 1)
            if (u, v) not in self.edges
        )

