"""Property suites cross-checking the engines, the reduction pipeline and
the first-order decider on exhaustive small cases and seeded random ones.

Each suite returns a list of CheckResult records; a fixed seed makes every
run reproducible, including the sampled instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from .core import Embedding, GeneralizedPattern, Graph, Permutation
from .matcher import MatchRequest, Mode, is_valid_embedding, lis_length, match_dispatch
from .folog import encode_formula, encode_structure, model_check
from .reduction import (
    deduplicate,
    deduplicate_with_reals,
    find_independent_set,
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


@dataclass
class CheckResult:
    name: str
    ok: bool
    instances: int
    detail: str
    counterexample: str | None = None


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


def all_texts(n: int) -> list[Permutation]:
    return [Permutation(p) for p in permutations(range(1, n + 1))]


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


def suite_engines(
    max_n: int = 6, max_k: int = 4, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """Exhaustive engine cross-checks plus seeded random symmetry checks."""
    results: list[CheckResult] = []
    counts: dict[tuple[GeneralizedPattern, Permutation], int] = {}
    pairs = 0
    embeddings_checked = 0
    mismatch: str | None = None
    invalid: str | None = None
    for k in range(1, max_k + 1):
        patterns = all_patterns(k)
        for n in range(1, max_n + 1):
            texts = all_texts(n)
            for p in patterns:
                for t in texts:
                    pairs += 1
                    # one search per engine: match_dispatch answers DECIDE
                    # with the first item of this stream and COUNT with its
                    # length, so equal enumerations decide and count alike
                    enum = MatchRequest(p, t, Mode.ENUMERATE_ALL)
                    enum_brute = match_dispatch(enum, "brute")
                    enum_back = match_dispatch(enum, "backtrack")
                    counts[(p, t)] = len(enum_back)
                    if enum_brute != enum_back:
                        mismatch = mismatch or _pattern_text_label(p, t)
                    for e in enum_back:
                        embeddings_checked += 1
                        if not is_valid_embedding(p, t, e):
                            invalid = invalid or _pattern_text_label(p, t)
    results.append(
        CheckResult(
            "engine equivalence",
            mismatch is None,
            pairs,
            f"backtracking == brute force on {pairs} instances (decide, count, enumerate)",
            mismatch,
        )
    )
    results.append(
        CheckResult(
            "embedding validity",
            invalid is None,
            embeddings_checked,
            f"all {embeddings_checked} enumerated embeddings are valid",
            invalid,
        )
    )

    mono_bad: str | None = None
    classical_bad: str | None = None
    mono_checked = 0
    classical_checked = 0
    for (p, t), c in counts.items():
        if not p.blocks:
            continue
        classical_checked += 1
        stripped = GeneralizedPattern(p.values, ())
        if c > 0 and counts[(stripped, t)] == 0:
            classical_bad = classical_bad or _pattern_text_label(p, t)
        for drop in range(len(p.blocks)):
            mono_checked += 1
            fewer = GeneralizedPattern(
                p.values, p.blocks[:drop] + p.blocks[drop + 1:]
            )
            if c > counts[(fewer, t)]:
                mono_bad = mono_bad or _pattern_text_label(p, t)
    results.append(
        CheckResult(
            "adjacency monotonicity",
            mono_bad is None,
            mono_checked,
            f"dropping a block never lowered the count on {mono_checked} instances",
            mono_bad,
        )
    )
    results.append(
        CheckResult(
            "classical consistency",
            classical_bad is None,
            classical_checked,
            f"every blocked match implies a classical match on {classical_checked} instances",
            classical_bad,
        )
    )

    rng = random.Random(seed)
    comp_bad: str | None = None
    for _ in range(samples):
        k = rng.randint(1, 6)
        n = rng.randint(1, 10)
        p = random_pattern(rng, k)
        t = random_permutation(rng, n)
        lhs = match_dispatch(MatchRequest(p, t), "backtrack")
        rhs = match_dispatch(MatchRequest(p.complement(), t.complement()), "backtrack")
        if lhs != rhs:
            comp_bad = comp_bad or _pattern_text_label(p, t)
    results.append(
        CheckResult(
            "complement symmetry",
            comp_bad is None,
            samples,
            f"matching is invariant under complement on {samples} random instances",
            comp_bad,
        )
    )
    return results


_ALT_ASSIGN = lambda j, t, m: j + 0.45 + 0.4 * t / (m + 1)

_SEPARATOR_PROBE = GeneralizedPattern((3, 2, 1, 4), ((1, 4),))


def _graph_family(max_l: int, samples: int, rng: random.Random) -> list[Graph]:
    graphs: list[Graph] = []
    for l in range(1, max_l + 1):
        pair_count = l * (l - 1) // 2
        if 2**pair_count <= 64:
            pairs = list(combinations(range(1, l + 1), 2))
            for mask in range(2**pair_count):
                edges = frozenset(
                    pairs[i] for i in range(pair_count) if mask >> i & 1
                )
                graphs.append(Graph(l, edges))
        else:
            for _ in range(samples):
                graphs.append(random_graph(rng, l))
    return graphs


def suite_reduction(
    max_l: int = 6, max_k: int = 3, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """End-to-end checks of the construction against the subset oracle."""
    rng = random.Random(seed)
    graphs = _graph_family(max_l, samples, rng)

    agree = 0
    end_to_end_bad: str | None = None
    multiset_bad: str | None = None
    stage_bad: str | None = None
    separator_bad: str | None = None
    rank_bad: str | None = None
    size_bad: str | None = None
    separator_checked = 0
    instances = 0
    for g in graphs:
        first_k = True
        for k in range(1, min(max_k, g.l) + 1):
            instances += 1
            trace = reduce(g, k)
            expected = find_independent_set(g, k) is not None
            final = match_dispatch(
                MatchRequest(trace.stage3_pattern, trace.stage3_text, Mode.DECIDE)
            ) is not None
            multiset = (
                simultaneous_multiset_witness(trace.stage1_pattern, trace.stage1_text)
                is not None
            )
            if final == expected:
                agree += 1
            else:
                end_to_end_bad = end_to_end_bad or _graph_label(g, k)
            if multiset != expected:
                multiset_bad = multiset_bad or _graph_label(g, k)
            if multiset != final:
                stage_bad = stage_bad or _graph_label(g, k)
            if len(trace.stage3_pattern) != 4 + (3 * k * k + k) // 2 or len(
                trace.stage3_text
            ) != 2 * g.l + 3 * len(g.non_edges()) + 4:
                size_bad = size_bad or _graph_label(g, k)
            if deduplicate(trace.stage1_pattern) != deduplicate_with_reals(
                trace.stage1_pattern, _ALT_ASSIGN
            ) or deduplicate(trace.stage1_text) != deduplicate_with_reals(
                trace.stage1_text, _ALT_ASSIGN
            ):
                rank_bad = rank_bad or _graph_label(g, k)
            if first_k:
                # the text depends only on the graph; probe it once
                first_k = False
                separator_checked += 1
                hits = match_dispatch(
                    MatchRequest(_SEPARATOR_PROBE, trace.stage3_text, Mode.COUNT), "backtrack"
                )
                if hits != 1:
                    separator_bad = separator_bad or _graph_label(g, k)

    results = [
        CheckResult(
            "independent set vs matcher",
            end_to_end_bad is None,
            instances,
            f"IS ⟺ GPPM agreed on {agree} instances",
            end_to_end_bad,
        ),
        CheckResult(
            "multiset stage vs oracle",
            multiset_bad is None,
            instances,
            f"simultaneous halves matching equals the oracle on {instances} instances",
            multiset_bad,
        ),
        CheckResult(
            "multiset stage vs final stage",
            stage_bad is None,
            instances,
            f"stage-1 matching equals stage-3 matching on {instances} instances",
            stage_bad,
        ),
        CheckResult(
            "separator uniqueness",
            separator_bad is None,
            separator_checked,
            f"the separator shape occurs exactly once in {separator_checked} generated texts",
            separator_bad,
        ),
        CheckResult(
            "size identities",
            size_bad is None,
            instances,
            f"pattern and text lengths follow the closed forms on {instances} instances",
            size_bad,
        ),
        CheckResult(
            "rank stability",
            rank_bad is None,
            instances,
            f"two interval assignment schemes rank identically on {instances} instances",
            rank_bad,
        ),
    ]
    return results


def suite_fo(
    max_n: int = 6, max_k: int = 4, samples: int = 500, seed: int = 0
) -> list[CheckResult]:
    """First-order decider agreement, witness validity and formula size."""
    agree_bad: str | None = None
    witness_bad: str | None = None
    literal_bad: str | None = None
    pairs = 0
    witnesses = 0
    pattern_count = 0

    def check_pair(p: GeneralizedPattern, t: Permutation) -> None:
        nonlocal agree_bad, witness_bad, pairs, witnesses
        pairs += 1
        witness = model_check(encode_structure(t), encode_formula(p))
        decided = match_dispatch(MatchRequest(p, t, Mode.DECIDE))
        if witness != (decided.positions if decided else None):
            agree_bad = agree_bad or _pattern_text_label(p, t)
            return
        if witness is not None:
            witnesses += 1
            if not is_valid_embedding(p, t, Embedding(witness)):
                witness_bad = witness_bad or _pattern_text_label(p, t)

    for k in range(1, max_k + 1):
        patterns = all_patterns(k)
        for p in patterns:
            pattern_count += 1
            f = encode_formula(p)
            total = len(f.pos_literals) + len(f.neg_literals)
            if total != k * (k - 1) // 2 or total + len(f.adj_literals) > k * k:
                literal_bad = literal_bad or serialize_pattern(p)
        for n in range(1, max_n + 1):
            for p in patterns:
                for t in all_texts(n):
                    check_pair(p, t)

    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, 5)
        n = rng.randint(1, 12)
        check_pair(random_pattern(rng, k), random_permutation(rng, n))

    return [
        CheckResult(
            "fo decider agreement",
            agree_bad is None,
            pairs,
            f"model checking finds the matcher's witness on {pairs} instances",
            agree_bad,
        ),
        CheckResult(
            "fo witness validity",
            witness_bad is None,
            witnesses,
            f"all {witnesses} model-checking witnesses are valid embeddings",
            witness_bad,
        ),
        CheckResult(
            "formula literal counts",
            literal_bad is None,
            pattern_count,
            "every formula has k(k-1)/2 order literals and at most k^2 literals total",
            literal_bad,
        ),
    ]


def suite_lis(samples: int = 500, max_n: int = 12, seed: int = 0) -> list[CheckResult]:
    """Fast-path consistency: lis_length and the identity-pattern witness of
    match_dispatch against brute-force identity decisions."""
    rng = random.Random(seed)
    bad: str | None = None
    checked = 0
    for _ in range(samples):
        n = rng.randint(1, max_n)
        t = random_permutation(rng, n)
        length = lis_length(t)
        for k in range(1, n + 1):
            checked += 1
            identity = MatchRequest(GeneralizedPattern(tuple(range(1, k + 1)), ()), t)
            brute = match_dispatch(identity, "brute")
            if (length >= k) != (brute is not None) or match_dispatch(identity) != brute:
                bad = bad or f"text: {serialize_permutation(t)} (k={k})"
    return [
        CheckResult(
            "lis fast path",
            bad is None,
            checked,
            f"lis_length >= k and the fast-path witness equal the brute-force identity "
            f"decision on {checked} queries",
            bad,
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
