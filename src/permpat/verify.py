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
from itertools import chain, combinations, permutations, product
from typing import Callable, Iterator

from .core import GeneralizedPattern, Graph, Permutation, _check_budget, _sum_while_shown
from .matcher import Mode, is_valid_embedding, lis_length, match
from .folog import FoFormula, encode_formula, model_check
from .reduction import (
    ReductionTrace,
    _closed_form,
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
    """Every legal set of disjoint adjacency blocks on k positions, sorted: one
    per subset of the k - 1 joins between neighbouring positions, each maximal
    run of joined positions making one block."""
    configs = []
    for joins in product((False, True), repeat=max(k - 1, 0)):
        blocks, start = [], 1
        for end, joined in enumerate((*joins, False), 1):  # joined: end is tied to end + 1
            if not joined:
                if start < end:
                    blocks.append((start, end))
                start = end + 1
        configs.append(tuple(blocks))
    return sorted(configs)


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
    counterexample is recorded; ``detail`` fills the summary template's
    ``{instances}`` and ``{passed}``."""

    def __init__(self, name: str, label: Callable[..., str], summary: str) -> None:
        self.name = name
        self.label = label
        self.summary = summary
        self.instances = 0
        self.passed = 0
        self.counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def detail(self) -> str:
        return self.summary.format(instances=self.instances, passed=self.passed)

    def see(self, ok: bool, *instance: object) -> None:
        self.instances += 1
        if ok:
            self.passed += 1
        elif self.counterexample is None:
            self.counterexample = self.label(*instance)


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
        ([GeneralizedPattern(values, cfg) for cfg in configs],
         (t for n in range(1, max_n + 1) for t in all_texts(n)))
        for k in range(1, max_k + 1)
        for configs in (all_block_configs(k),)  # once per k, shared by its value orders
        for values in permutations(range(1, k + 1))
    )


_LIS_MAX_N = 12  # the lis suite's text length bound; verify has no option for it


def _check_suite_work(suite: str, *, max_n: int = 0, max_k: int = 0, max_l: int = 0,
                      samples: int) -> None:
    """Refuse one suite's work through ``core._check_budget``, in the order
    the suite meets it, before any instance is made: the exhaustive pairs
    (engines, fo), then the sampled work."""
    if suite in ("engines", "fo"):
        _exhaustive(max_k, max_n)  # refuses at the call; builds nothing
    if suite == "engines":
        # two backtracking decides a sample, each over at most C(10, 5) = 252
        # position subsets (k ≤ 6, n ≤ 10)
        _check_budget(samples * 2 * math.comb(10, 5), "engine suite sample work")
    elif suite == "reduction":
        _check_budget(_reduction_work(max_l, max_k, samples), "reduction suite work")
    elif suite == "fo":
        # a model check and a decide a sample, each over at most C(12, 5) = 792
        # position subsets (k ≤ 5, n ≤ 12)
        _check_budget(samples * 2 * math.comb(12, 5), "fo suite sample work")
    else:
        # brute identity decisions for every k ≤ n ≤ max_n: Σ_k C(n, k) = 2^n - 1
        # position subsets a sample
        _check_budget(samples * ((1 << max_n) - 1), "lis suite sample work")


def suite_engines(
    max_n: int = 6, max_k: int = 4, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """Exhaustive engine cross-checks (value order, then text, block set) plus
    seeded random symmetry checks."""
    equivalence = CheckResult("engine equivalence", _pattern_text_label,
                              "backtracking == brute force on {instances} instances "
                              "(decide, count, enumerate)")
    validity = CheckResult("embedding validity", _pattern_text_label,
                           "all {instances} enumerated embeddings are valid")
    monotone = CheckResult("adjacency monotonicity", _pattern_text_label,
                           "dropping a block never lowered the count on {instances} instances")
    classical = CheckResult("classical consistency", _pattern_text_label,
                            "every blocked match implies a classical match on {instances} "
                            "instances")
    complement = CheckResult("complement symmetry", _pattern_text_label,
                             "matching is invariant under complement on {instances} random "
                             "instances")
    _check_suite_work("engines", max_n=max_n, max_k=max_k, samples=samples)
    for patterns, texts in _exhaustive(max_k, max_n):
        for t in texts:
            counts = {}  # this text's counts, by block set
            for p in patterns:
                # one search per engine: match answers DECIDE with the first
                # item of this stream and COUNT with its length, so equal
                # enumerations decide and count alike
                enum_brute = list(match(p, t, Mode.ENUMERATE_ALL, "brute"))
                enum_back = list(match(p, t, Mode.ENUMERATE_ALL, "backtrack"))
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
    for _ in range(samples):
        k = rng.randint(1, 6)
        n = rng.randint(1, 10)
        p = random_pattern(rng, k)
        t = random_permutation(rng, n)
        lhs = match(p, t, engine="backtrack")
        rhs = match(p.complement(), t.complement(), engine="backtrack")
        complement.see(lhs == rhs, p, t)
    return [equivalence, validity, monotone, classical, complement]


_ALT_ASSIGN = lambda j, t, m: j + 0.45 + 0.4 * t / (m + 1)

_SEPARATOR_PROBE = GeneralizedPattern((3, 2, 1, 4), ((1, 4),))


def _graph_family(max_l: int, samples: int, rng: random.Random | None
                  ) -> Iterator[tuple[range, int, Iterator[Graph]]]:
    """Runs of vertex counts up to max_l that share one graph count: per run,
    its vertex counts, the graph count per vertex count, and the graphs, l
    ascending, each made when reached (walk them in order).  Each l ≤ 4 is a
    run of all its at most 64 graphs; then l = 5..max_l is one run of samples
    graphs per l drawn by rng, or none when samples is 0."""
    for l in range(1, min(max_l, 4) + 1):
        pairs = list(combinations(range(1, l + 1), 2))
        yield range(l, l + 1), 2 ** len(pairs), (
            Graph(l, frozenset(pair for i, pair in enumerate(pairs) if mask >> i & 1))
            for mask in range(2 ** len(pairs))
        )
    if samples and max_l > 4:
        ls = range(5, max_l + 1)
        yield ls, samples, (random_graph(rng, l) for l in ls for _ in range(samples))


def _reduction_work(max_l: int, max_k: int, samples: int) -> int:
    """suite_reduction's work: per graph and k ≤ l, reduce's text values
    (4 + 2l + 3·C(l, 2)) and its oracles' subsets (2·C(l, k)).  Each run of
    vertex counts sums in closed form, Σ_{l=a..b} C(l, j) = C(b + 1, j + 1) −
    C(a, j + 1), so the count costs no more for a larger max_l."""
    work = 0
    for ls, count, _ in _graph_family(max_l, samples, None):
        for k in range(1, min(max_k, ls[-1]) + 1):
            a, b = max(ls[0], k), ls[-1]  # the run's vertex counts that take this k
            s = lambda j: math.comb(b + 1, j + 1) - math.comb(a, j + 1)
            work += count * (4 * s(0) + 2 * s(1) + 3 * s(2) + 2 * s(k))
    return work


def _selects_independent_set(g: Graph, trace: ReductionTrace, e: tuple[int, ...]) -> bool:
    """True iff a final-stage witness decodes to trace.k vertices of g with no
    edge among them; a witness that does not decode selects nothing."""
    try:
        chosen = set(matched_vertices(trace, e))
    except ValueError:
        return False
    return len(chosen) == trace.k and not any(g.has_edge(*uv) for uv in combinations(chosen, 2))


def _closed_form_instance(l: int, edges: frozenset[tuple[int, int]] = frozenset()
                          ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """``_closed_form``'s values in one tuple, and its units of width 3 and 4
    as blocks: the instance it streams, laid out as the staged path lays it."""
    values: list[int] = []
    blocks: list[tuple[int, int]] = []
    for width, batch in _closed_form(l, edges):
        if width > 1:
            starts = range(len(values) + 1, len(values) + len(batch), width)
            blocks += [(start, start + width - 1) for start in starts]
        values += batch
    return tuple(values), tuple(blocks)


def suite_reduction(
    max_l: int = 6, max_k: int = 3, samples: int = 200, seed: int = 0
) -> list[CheckResult]:
    """End-to-end checks of the construction against the subset oracle."""
    _check_suite_work("reduction", max_k=max_k, max_l=max_l, samples=samples)
    rng = random.Random(seed)
    end_to_end = CheckResult("independent set vs matcher", _graph_label,
                             "IS ⟺ GPPM agreed on {passed} instances")
    multiset_oracle = CheckResult("multiset stage vs oracle", _graph_label,
                                  "simultaneous halves matching equals the oracle on "
                                  "{instances} instances")
    multiset_final = CheckResult("multiset stage vs final stage", _graph_label,
                                 "stage-1 matching equals stage-3 matching on {instances} "
                                 "instances")
    separator = CheckResult("separator uniqueness", _graph_label,
                            "the separator shape occurs exactly once in {instances} generated "
                            "texts")
    sizes = CheckResult("size identities", _graph_label,
                        "pattern and text lengths follow the closed forms on {instances} "
                        "instances")
    ranks = CheckResult("rank stability", _graph_label,
                        "two interval assignment schemes rank identically on {instances} "
                        "instances")
    closed = CheckResult("closed-form ranks", _graph_label,
                         "the closed-form ranks equal the staged construction on {instances} "
                         "instances")
    for g in chain.from_iterable(graphs for _, _, graphs in _graph_family(max_l, samples, rng)):
        closed_text = _closed_form_instance(g.l, g.edges)[0]  # the same for every k
        for k in range(1, min(max_k, g.l) + 1):
            trace = reduce(g, k)
            expected = find_independent_set(g, k) is not None
            witness = match(trace.stage3_pattern, trace.stage3_text)
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
            closed.see(
                closed_text == trace.stage3_text.values
                and _closed_form_instance(k)
                == (trace.stage3_pattern.values, trace.stage3_pattern.blocks),
                g, k,
            )
            if k == 1:  # the text depends only on the graph; probe it once
                hits = match(_SEPARATOR_PROBE, trace.stage3_text, Mode.COUNT, "backtrack")
                separator.see(hits == 1, g, k)
    return [end_to_end, multiset_oracle, multiset_final, separator, sizes, ranks, closed]


def suite_fo(
    max_n: int = 6, max_k: int = 4, samples: int = 500, seed: int = 0
) -> list[CheckResult]:
    """First-order decider agreement, witness validity and formula size, on
    exhaustive pairs (value order, then text, block set)."""
    agreement = CheckResult("fo decider agreement", _pattern_text_label,
                            "model checking finds the matcher's witness on {instances} instances")
    validity = CheckResult("fo witness validity", _pattern_text_label,
                           "all {instances} model-checking witnesses are valid embeddings")
    literals = CheckResult("formula literal counts", serialize_pattern,
                           "every formula has k(k-1)/2 order literals and at most k^2 literals "
                           "total")

    def check_pair(p: GeneralizedPattern, f: FoFormula, t: Permutation) -> None:
        witness = model_check(t, f)
        decided = match(p, t)
        agrees = witness == decided
        agreement.see(agrees, p, t)
        if agrees and witness is not None:
            validity.see(is_valid_embedding(p, t, witness), p, t)

    _check_suite_work("fo", max_n=max_n, max_k=max_k, samples=samples)
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
    return [agreement, validity, literals]


def _lis_label(t: Permutation, k: int) -> str:
    return f"text: {serialize_permutation(t)} (k={k})"


def suite_lis(samples: int = 500, max_n: int = _LIS_MAX_N, seed: int = 0) -> list[CheckResult]:
    """Fast-path consistency: lis_length and the identity-pattern witness of
    ``match`` against brute-force identity decisions."""
    fast_path = CheckResult("lis fast path", _lis_label,
                            "lis_length >= k and the fast-path witness equal the brute-force "
                            "identity decision on {instances} queries")
    _check_suite_work("lis", max_n=max_n, samples=samples)
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, max_n)
        t = random_permutation(rng, n)
        length = lis_length(t)
        for k in range(1, n + 1):
            identity = GeneralizedPattern(tuple(range(1, k + 1)), ())
            brute = match(identity, t, engine="brute")
            fast_path.see((length >= k) == (brute is not None) and match(identity, t) == brute,
                          t, k)
    return [fast_path]


def run_suites(
    suite: str = "all",
    max_n: int = 6,
    max_k: int = 4,
    max_l: int = 6,
    samples: int = 200,
    seed: int = 0,
) -> list[CheckResult]:
    """The selected suites' checks, in suite order.  Every selected suite's
    up-front work is refused (``_check_suite_work``) before the first runs,
    so a refusal never follows a finished suite."""
    suites = {  # name: (suite, its bounds)
        "engines": (suite_engines, {"max_n": max_n, "max_k": max_k}),
        "reduction": (suite_reduction, {"max_l": max_l, "max_k": min(max_k, 4)}),
        "fo": (suite_fo, {"max_n": max_n, "max_k": max_k}),
        "lis": (suite_lis, {"max_n": _LIS_MAX_N}),
    }
    chosen = [(name, *entry) for name, entry in suites.items() if suite in (name, "all")]
    for name, _, bounds in chosen:
        _check_suite_work(name, samples=samples, **bounds)
    return [check for _, run, bounds in chosen
            for check in run(samples=samples, seed=seed, **bounds)]
