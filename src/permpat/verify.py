"""Property suites cross-checking the engines, the reduction pipeline and
the first-order decider on exhaustive small cases and seeded random ones.

Each suite returns a list of CheckResult records; a fixed seed makes every
run reproducible, including the sampled instances.  A check counts every
instance it sees and keeps the first one that refutes it as the
counterexample.
"""

from __future__ import annotations

import math
import random
from itertools import chain, combinations, permutations
from typing import Callable, Iterator

from .core import GeneralizedPattern, Graph, Permutation, _check_budget, _sum_while_shown
from .matcher import MatchRequest, Mode, is_valid_embedding, lis_length, match_dispatch
from .folog import FoFormula, encode_formula, model_check
from .reduction import (
    ReductionTrace,
    deduplicate_with_reals,
    find_independent_set,
    matched_vertices,
    reduce,
    simultaneous_multiset_witness,
)
from .textio import serialize_graph, serialize_pattern, serialize_permutation

__all__ = [
    "CheckResult",
    "all_block_configs",
    "all_patterns",
    "all_texts",
    "random_pattern",
    "random_permutation",
    "random_graph",
    "suite_engines",
    "suite_reduction",
    "suite_fo",
    "suite_lis",
    "run_suites",
]


def all_block_configs(k: int) -> list[tuple[tuple[int, int], ...]]:
    """Every legal set of disjoint adjacency blocks on k positions."""
    out: list[tuple[tuple[int, int], ...]] = []

    def go(start: int, acc: list[tuple[int, int]]) -> None:
        out.append(tuple(acc))
        for a in range(start, k):
            for b in range(a + 1, k + 1):
                acc.append((a, b))
                go(b + 1, acc)
                acc.pop()

    go(1, [])
    return out


def all_patterns(k: int) -> list[GeneralizedPattern]:
    """Every pattern of length k with every legal block configuration."""
    configs = all_block_configs(k)
    return [
        GeneralizedPattern(perm, cfg)
        for perm in permutations(range(1, k + 1))
        for cfg in configs
    ]


def all_texts(n: int) -> Iterator[Permutation]:
    """Every text of length n, each built when the caller reaches it."""
    return map(Permutation, permutations(range(1, n + 1)))


def random_permutation(rng: random.Random, n: int) -> Permutation:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return Permutation(tuple(values))


def random_pattern(rng: random.Random, k: int) -> GeneralizedPattern:
    values = list(range(1, k + 1))
    rng.shuffle(values)
    blocks: list[tuple[int, int]] = []
    i = 1
    while i < k:
        if rng.random() < 0.35:
            b = rng.randint(i + 1, min(k, i + 3))
            blocks.append((i, b))
            i = b + 1
        else:
            i += 1
    return GeneralizedPattern(tuple(values), tuple(blocks))


def random_graph(rng: random.Random, l: int) -> Graph:
    edges = frozenset(pair for pair in combinations(range(1, l + 1), 2) if rng.random() < 0.5)
    return Graph(l, edges)


def _pattern_text_label(p: GeneralizedPattern, t: Permutation) -> str:
    return f"pattern: {serialize_pattern(p)}\n  text: {serialize_permutation(t)}"


def _graph_label(g: Graph, k: int) -> str:
    return f"graph:\n{serialize_graph(g, k)}"


class CheckResult:
    """One property under test: the instances it saw, how many held, and the
    first one that refuted it, rendered by ``label``.  It holds while no
    counterexample is recorded; ``result`` adds the summary line."""

    def __init__(self, name: str, label: Callable[..., str]) -> None:
        self.name = name
        self.label = label
        self.instances = 0
        self.passed = 0
        self.detail = ""
        self.counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def see(self, ok: bool, *instance: object) -> None:
        self.instances += 1
        if ok:
            self.passed += 1
        elif self.counterexample is None:
            self.counterexample = self.label(*instance)

    def result(self, detail: str) -> CheckResult:
        self.detail = detail
        return self


def _exhaustive(
    max_k: int, max_n: int
) -> Iterator[tuple[list[GeneralizedPattern], Iterator[Permutation]]]:
    """One group, built when reached, per value order of length ≤ max_k: its
    2^(k-1) patterns, classical first, and a lazy walk over the texts of length
    ≤ max_n.  Raises BudgetExceededError at the call, before building any, when
    the pairs (Σ k!·2^(k-1) patterns × Σ n! texts) exceed the budget."""
    patterns = _sum_while_shown(math.factorial(k) << (k - 1) for k in range(1, max_k + 1))
    pairs = patterns * _sum_while_shown(map(math.factorial, range(1, max_n + 1)))
    _check_budget(pairs, "exhaustive (pattern, text) pairs")
    return (
        ([GeneralizedPattern(values, cfg) for cfg in all_block_configs(k)],
         (t for n in range(1, max_n + 1) for t in all_texts(n)))
        for k in range(1, max_k + 1)
        for values in permutations(range(1, k + 1))
    )


def suite_engines(
    max_n: int = 6, max_k: int = 4, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """Exhaustive engine cross-checks (value order, then text, block set) plus
    seeded random symmetry checks."""
    equivalence = CheckResult("engine equivalence", _pattern_text_label)
    validity = CheckResult("embedding validity", _pattern_text_label)
    monotone = CheckResult("adjacency monotonicity", _pattern_text_label)
    classical = CheckResult("classical consistency", _pattern_text_label)
    for patterns, texts in _exhaustive(max_k, max_n):
        for t in texts:
            counts = {}  # this text's counts, by block set
            for p in patterns:
                # one search per engine: match_dispatch answers DECIDE with the
                # first item of this stream and COUNT with its length, so equal
                # enumerations decide and count alike
                enum = MatchRequest(p, t, Mode.ENUMERATE_ALL)
                enum_brute = match_dispatch(enum, "brute")
                enum_back = match_dispatch(enum, "backtrack")
                equivalence.see(enum_brute == enum_back, p, t)
                counts[p.blocks] = len(enum_back)
                for e in enum_back:
                    validity.see(is_valid_embedding(p, t, e), p, t)
            for p in patterns[1:]:  # the blocked ones; patterns[0] is classical
                c = counts[p.blocks]
                classical.see(c == 0 or counts[()] > 0, p, t)
                for drop in range(len(p.blocks)):
                    fewer = p.blocks[:drop] + p.blocks[drop + 1:]
                    monotone.see(c <= counts[fewer], p, t)

    rng = random.Random(seed)
    complement = CheckResult("complement symmetry", _pattern_text_label)
    for _ in range(samples):
        k = rng.randint(1, 6)
        n = rng.randint(1, 10)
        p = random_pattern(rng, k)
        t = random_permutation(rng, n)
        lhs = match_dispatch(MatchRequest(p, t), "backtrack")
        rhs = match_dispatch(MatchRequest(p.complement(), t.complement()), "backtrack")
        complement.see(lhs == rhs, p, t)
    return [
        equivalence.result(
            f"backtracking == brute force on {equivalence.instances} instances "
            "(decide, count, enumerate)"
        ),
        validity.result(f"all {validity.instances} enumerated embeddings are valid"),
        monotone.result(
            f"dropping a block never lowered the count on {monotone.instances} instances"
        ),
        classical.result(
            f"every blocked match implies a classical match on {classical.instances} instances"
        ),
        complement.result(f"matching is invariant under complement on {samples} random instances"),
    ]


_ALT_ASSIGN = lambda j, t, m: j + 0.45 + 0.4 * t / (m + 1)

_SEPARATOR_PROBE = GeneralizedPattern((3, 2, 1, 4), ((1, 4),))


def _graph_family(max_l: int, samples: int, rng: random.Random | None
                  ) -> Iterator[tuple[int, int, Iterator[Graph]]]:
    """Per vertex count l up to max_l: l, its graph count and its graphs, each
    made when reached (walk them in order).  Every graph while there are at
    most 64, else samples drawn by rng; with no samples it ends at l = 4."""
    for l in range(1, max_l + 1):
        pair_count = l * (l - 1) // 2
        if pair_count <= 6:  # at most 64 graphs
            pairs = list(combinations(range(1, l + 1), 2))
            yield l, 2**pair_count, (
                Graph(l, frozenset(pairs[i] for i in range(pair_count) if mask >> i & 1))
                for mask in range(2**pair_count)
            )
        elif not samples:
            return
        else:
            yield l, samples, (random_graph(rng, l) for _ in range(samples))


def _reduction_work(max_l: int, max_k: int, samples: int) -> int:
    """suite_reduction's work: per graph and k, reduce's text values and its oracles' subsets."""
    return sum(count * (2 * l + 3 * (l * (l - 1) // 2) + 4 + 2 * math.comb(l, k))
               for l, count, _ in _graph_family(max_l, samples, None)
               for k in range(1, min(max_k, l) + 1))


def _selects_independent_set(g: Graph, trace: ReductionTrace, e: tuple[int, ...]) -> bool:
    """True iff a final-stage witness decodes to trace.k vertices of g with no
    edge among them; a witness that does not decode selects nothing."""
    try:
        chosen = set(matched_vertices(trace, e))
    except ValueError:
        return False
    return len(chosen) == trace.k and not any(g.has_edge(*uv) for uv in combinations(chosen, 2))


def suite_reduction(
    max_l: int = 6, max_k: int = 3, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """End-to-end checks of the construction against the subset oracle."""
    _check_budget(_reduction_work(max_l, max_k, samples), "reduction suite work")
    rng = random.Random(seed)
    end_to_end = CheckResult("independent set vs matcher", _graph_label)
    multiset_oracle = CheckResult("multiset stage vs oracle", _graph_label)
    multiset_final = CheckResult("multiset stage vs final stage", _graph_label)
    separator = CheckResult("separator uniqueness", _graph_label)
    sizes = CheckResult("size identities", _graph_label)
    ranks = CheckResult("rank stability", _graph_label)
    for g in chain.from_iterable(graphs for _, _, graphs in _graph_family(max_l, samples, rng)):
        for k in range(1, min(max_k, g.l) + 1):
            trace = reduce(g, k)
            expected = find_independent_set(g, k) is not None
            witness = match_dispatch(MatchRequest(trace.stage3_pattern, trace.stage3_text))
            final = witness is not None
            multiset = (
                simultaneous_multiset_witness(trace.stage1_pattern, trace.stage1_text)
                is not None
            )
            sound = witness is None or _selects_independent_set(g, trace, witness)
            end_to_end.see(final == expected and sound, g, k)
            multiset_oracle.see(multiset == expected, g, k)
            multiset_final.see(multiset == final, g, k)
            sizes.see(
                len(trace.stage3_pattern) == 4 + (3 * k * k + k) // 2
                and len(trace.stage3_text) == 2 * g.l + 3 * (g.l * (g.l - 1) // 2 - g.m) + 4,
                g, k,
            )
            ranks.see(
                trace.stage2_pattern == deduplicate_with_reals(trace.stage1_pattern, _ALT_ASSIGN)
                and trace.stage2_text == deduplicate_with_reals(trace.stage1_text, _ALT_ASSIGN),
                g, k,
            )
            if k == 1:  # the text depends only on the graph; probe it once
                hits = match_dispatch(
                    MatchRequest(_SEPARATOR_PROBE, trace.stage3_text, Mode.COUNT), "backtrack"
                )
                separator.see(hits == 1, g, k)

    instances = end_to_end.instances
    return [
        end_to_end.result(f"IS ⟺ GPPM agreed on {end_to_end.passed} instances"),
        multiset_oracle.result(
            f"simultaneous halves matching equals the oracle on {instances} instances"
        ),
        multiset_final.result(
            f"stage-1 matching equals stage-3 matching on {instances} instances"
        ),
        separator.result(
            f"the separator shape occurs exactly once in {separator.instances} generated texts"
        ),
        sizes.result(f"pattern and text lengths follow the closed forms on {instances} instances"),
        ranks.result(
            f"two interval assignment schemes rank identically on {instances} instances"
        ),
    ]


def suite_fo(
    max_n: int = 6, max_k: int = 4, samples: int = 500, seed: int = 0
) -> list[CheckResult]:
    """First-order decider agreement, witness validity and formula size, on
    exhaustive pairs (value order, then text, block set)."""
    agreement = CheckResult("fo decider agreement", _pattern_text_label)
    validity = CheckResult("fo witness validity", _pattern_text_label)
    literals = CheckResult("formula literal counts", serialize_pattern)

    def check_pair(p: GeneralizedPattern, f: FoFormula, t: Permutation) -> None:
        witness = model_check(t, f)
        decided = match_dispatch(MatchRequest(p, t, Mode.DECIDE))
        agrees = witness == decided
        agreement.see(agrees, p, t)
        if agrees and witness is not None:
            validity.see(is_valid_embedding(p, t, witness), p, t)

    for patterns, texts in _exhaustive(max_k, max_n):
        formulas = list(map(encode_formula, patterns))
        for p, f in zip(patterns, formulas):
            k = p.k
            total = len(f.pos_literals) + len(f.neg_literals)
            literals.see(total == k * (k - 1) // 2 and total + len(f.adj_literals) <= k * k, p)
        for t in texts:
            for p, f in zip(patterns, formulas):
                check_pair(p, f, t)

    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, 5)
        n = rng.randint(1, 12)
        p = random_pattern(rng, k)
        t = random_permutation(rng, n)
        check_pair(p, encode_formula(p), t)

    return [
        agreement.result(
            f"model checking finds the matcher's witness on {agreement.instances} instances"
        ),
        validity.result(
            f"all {validity.instances} model-checking witnesses are valid embeddings"
        ),
        literals.result(
            "every formula has k(k-1)/2 order literals and at most k^2 literals total"
        ),
    ]


def _lis_label(t: Permutation, k: int) -> str:
    return f"text: {serialize_permutation(t)} (k={k})"


def suite_lis(samples: int = 500, max_n: int = 12, seed: int = 0) -> list[CheckResult]:
    """Fast-path consistency: lis_length and the identity-pattern witness of
    match_dispatch against brute-force identity decisions."""
    rng = random.Random(seed)
    fast_path = CheckResult("lis fast path", _lis_label)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        t = random_permutation(rng, n)
        length = lis_length(t)
        for k in range(1, n + 1):
            identity = MatchRequest(GeneralizedPattern(tuple(range(1, k + 1)), ()), t)
            brute = match_dispatch(identity, "brute")
            fast_path.see(
                (length >= k) == (brute is not None) and match_dispatch(identity) == brute, t, k
            )
    return [
        fast_path.result(
            f"lis_length >= k and the fast-path witness equal the brute-force identity "
            f"decision on {fast_path.instances} queries"
        )
    ]


def run_suites(
    suite: str = "all",
    max_n: int = 6,
    max_k: int = 4,
    max_l: int = 6,
    samples: int = 200,
    seed: int = 0,
) -> list[CheckResult]:
    results: list[CheckResult] = []
    if suite in ("engines", "all"):
        results.extend(suite_engines(max_n=max_n, max_k=max_k, samples=samples, seed=seed))
    if suite in ("reduction", "all"):
        results.extend(
            suite_reduction(max_l=max_l, max_k=min(max_k, 4), samples=samples, seed=seed)
        )
    if suite in ("fo", "all"):
        results.extend(suite_fo(max_n=max_n, max_k=max_k, samples=samples, seed=seed))
    if suite in ("lis", "all"):
        results.extend(suite_lis(samples=samples, seed=seed))
    return results
