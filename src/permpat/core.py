"""Domain types for generalized permutation pattern matching.

Everything here is 1-based: a permutation of length n contains each value
1..n exactly once, positions run from 1 to n, and adjacency blocks are
position intervals [a, b] with b >= a + 1.  All types validate their
invariants on construction and are immutable afterwards, so instances can
be shared freely between threads and used as dict keys.
"""

from __future__ import annotations

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


def _check_budget(count: int, what: str, budget: int = DEFAULT_BUDGET) -> None:
    """The one up-front refusal: BudgetExceededError when count > budget."""
    if count > budget:
        raise BudgetExceededError(f"{what} = {count} exceeds budget {budget}")


def _as_int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    values = tuple(values)
    if not set(map(type, values)) <= {int}:  # a bool, an int subclass or a non-int
        for v in values:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValidationError(f"{what} must contain integers, got {v!r}")
    return values


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
        blocks = []
        for interval in self.blocks:
            a, b = interval
            if isinstance(a, bool) or isinstance(b, bool) or not (
                isinstance(a, int) and isinstance(b, int)
            ):
                raise ValidationError(f"block bounds must be integers, got {interval!r}")
            blocks.append((a, b))
        blocks.sort()
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
        object.__setattr__(self, "bar", tuple(map(tuple, self.bar)))
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

    def flatten(self) -> tuple[int, ...]:
        """All values in reading order: the dot half, then every bar block."""
        out = list(self.dot)
        for block in self.bar:
            out.extend(block)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.dot) + sum(len(block) for block in self.bar)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 1..l."""

    l: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if isinstance(self.l, bool) or not isinstance(self.l, int) or self.l < 0:
            raise ValidationError(f"vertex count must be a non-negative integer, got {self.l!r}")
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if isinstance(u, bool) or isinstance(v, bool) or not (
                isinstance(u, int) and isinstance(v, int)
            ):
                raise ValidationError(f"edge endpoints must be integers, got {edge!r}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.l and 1 <= v <= self.l):
                raise ValidationError(f"edge ({u}, {v}) out of range 1..{self.l}")
            key = (u, v) if u < v else (v, u)
            if key in normalized:
                raise ValidationError(f"duplicate edge ({key[0]}, {key[1]})")
            normalized.add(key)
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

