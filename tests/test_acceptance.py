"""Acceptance suite: golden examples plus cross-validation properties at
fixed scales.  One pass/fail line prints per criterion (use pytest -s).
"""

import random
import time
from itertools import combinations

import pytest

from permpat import matcher
from permpat.core import Graph
from permpat.matcher import Mode, is_valid_embedding, lis_length, match
from permpat.reduction import (
    build_multiset_instance,
    deduplicate,
    deduplicate_with_reals,
    find_independent_set,
    matched_vertices,
    reduce,
    simultaneous_multiset_witness,
)
from permpat.textio import parse_pattern, parse_permutation, serialize_pattern
from permpat.verify import random_graph, suite_engines, suite_fo, suite_lis

REFERENCE_TEXT = parse_permutation("53142")
REFERENCE_GRAPH = Graph(6, frozenset([(1, 3), (1, 4), (1, 5), (2, 6), (3, 4), (3, 6), (5, 6)]))
SEPARATOR_PROBE = parse_pattern("[3 2 1 4]")
ALT_ASSIGN = lambda j, t, m: j + 0.45 + 0.4 * t / (m + 1)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_golden_matching_examples():
    cases = [
        ("3 1 2", lambda: match(parse_pattern("3 1 2"), REFERENCE_TEXT), (1, 2, 4)),
        ("1 2 3", lambda: match(parse_pattern("1 2 3"), REFERENCE_TEXT), None),
        ("[3 1] 2 witness", lambda: next(
            match(parse_pattern("[3 1] 2"), REFERENCE_TEXT, Mode.ENUMERATE_ALL, "backtrack")
        ), (1, 2, 4)),
        ("[3 1] 2 rejects (1,3,5)", lambda: is_valid_embedding(
            parse_pattern("[3 1] 2"), REFERENCE_TEXT, (1, 3, 5)
        ), False),
        ("[3 1 2]", lambda: match(parse_pattern("[3 1 2]"), REFERENCE_TEXT), None),
    ]
    ok = True
    worst = 0.0
    for name, fn, expected in cases:
        result, elapsed = best_of(fn)
        worst = max(worst, elapsed)
        if result != expected:
            ok = False
    ok = ok and worst < 0.001
    report(1, ok, f"5 golden matching examples exact, slowest {worst * 1e6:.0f} us (< 1 ms)")


def test_criterion_2_reference_reduction_exact():
    start = time.perf_counter()
    trace = reduce(REFERENCE_GRAPH, 3)
    ok = trace.stage1_pattern.dot == (1, 2, 3)
    ok = ok and trace.stage1_pattern.bar == ((1, 2, 1), (1, 3, 1), (2, 3, 2))
    ok = ok and trace.stage1_text.dot == (1, 2, 3, 4, 5, 6)
    ok = ok and trace.stage1_text.bar == (
        (1, 2, 1), (1, 6, 1), (2, 3, 2), (2, 4, 2),
        (2, 5, 2), (3, 5, 3), (4, 5, 4), (4, 6, 4),
    )
    ok = ok and serialize_pattern(trace.stage3_pattern) == \
        "6 1 11 7 15 12 [18 17 16 19] [2 8 3] [4 13 5] [9 14 10]"
    ok = ok and len(trace.stage3_pattern) == 19 and len(trace.stage3_text) == 40
    decided = match(trace.stage3_pattern, trace.stage3_text)
    ok = ok and decided is not None and matched_vertices(trace, decided) == (2, 3, 5)
    embeddings = match(trace.stage3_pattern, trace.stage3_text, Mode.ENUMERATE_ALL, "backtrack")
    witness_sets = {frozenset(matched_vertices(trace, e)) for e in embeddings}
    ok = ok and frozenset({2, 3, 5}) in witness_sets
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"reference reduction exact through all stages, "
                  f"MATCH with witness {{2,3,5}}, {elapsed:.2f} s (< 1 s)")


def test_criterion_3_size_identities():
    start = time.perf_counter()
    rng = random.Random(303)
    checked = 0
    ok = True
    for k in range(1, 9):
        for _ in range(50):
            l = rng.randint(k, k + 5)
            g = random_graph(rng, l)
            trace = reduce(g, k)
            non_edges = l * (l - 1) // 2 - g.m
            if len(trace.stage3_pattern) != 4 + (3 * k * k + k) // 2:
                ok = False
            if len(trace.stage3_text) != 2 * l + 3 * non_edges + 4:
                ok = False
            if len(trace.stage3_text) > 4 + (3 * l * l + l) // 2:
                ok = False
            if (len(trace.stage3_text) == 4 + (3 * l * l + l) // 2) != (g.m == 0):
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(3, ok, f"size identities exact on {checked} reductions "
                  f"(k = 1..8, 50 graphs each), {elapsed:.2f} s (< 5 s)")


@pytest.fixture(scope="module")
def reduction_sweep():
    """Instances for criteria 4-6: exhaustive graphs for l <= 5, 2000
    uniform samples at l = 6 with k in 1..3, plus 200 random graphs with
    l <= 8 at k = 4."""
    rng = random.Random(2026)
    graphs = []
    for l in range(1, 6):
        pairs = list(combinations(range(1, l + 1), 2))
        for mask in range(2 ** len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
            graphs.append(Graph(l, edges))
    graphs.extend(random_graph(rng, 6) for _ in range(2000))
    instances = []
    for g in graphs:
        for k in range(1, min(3, g.l) + 1):
            instances.append((g, k, reduce(g, k)))
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8))
        instances.append((g, 4, reduce(g, 4)))
    return instances


def test_criterion_4_oracle_equivalence(reduction_sweep):
    start = time.perf_counter()
    disagreements = 0
    for g, k, trace in reduction_sweep:
        expected = find_independent_set(g, k) is not None
        decided = match(trace.stage3_pattern, trace.stage3_text)
        if (decided is not None) != expected:
            disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 120.0
    report(4, ok, f"independent-set oracle == matcher on all "
                  f"{len(reduction_sweep)} reduced instances, {elapsed:.1f} s (< 2 min)")


def test_criterion_5_separator_occurs_exactly_once(reduction_sweep):
    start = time.perf_counter()
    seen = {}
    bad = 0
    for g, _, trace in reduction_sweep:
        text = trace.stage3_text
        if text in seen:
            continue
        hits = match(SEPARATOR_PROBE, text, Mode.COUNT, "backtrack")
        seen[text] = hits
        if hits != 1:
            bad += 1
    elapsed = time.perf_counter() - start
    report(5, bad == 0, f"separator shape found exactly once in every one of "
                        f"{len(seen)} generated texts, {elapsed:.1f} s")


def test_separator_block_has_exactly_one_candidate_start(reduction_sweep):
    """The backtracker's block-candidate rule sees the separator's uniqueness:
    the stage-3 pattern's one four-position block has a single start."""
    for g, k, trace in reduction_sweep:
        plan = matcher._search_plan(trace.stage3_pattern)
        separator = [order for _, length, _, _, _, order, *_ in plan if length == 4]
        assert len(separator) == 1, serialize_pattern(trace.stage3_pattern)
        starts = matcher._factor_starts(separator[0], trace.stage3_text.values)
        assert len(starts) == 1, (g, k)


def test_criterion_6_multiset_stage_equivalence(reduction_sweep):
    start = time.perf_counter()
    disagreements = 0
    for g, k, trace in reduction_sweep:
        multiset = simultaneous_multiset_witness(trace.stage1_pattern, trace.stage1_text)
        decided = match(trace.stage3_pattern, trace.stage3_text)
        if (multiset is not None) != (decided is not None):
            disagreements += 1
    elapsed = time.perf_counter() - start
    report(6, disagreements == 0,
           f"stage-1 matching == stage-3 matching on all "
           f"{len(reduction_sweep)} instances, {elapsed:.1f} s")


def test_criterion_7_engine_equivalence_exhaustive():
    start = time.perf_counter()
    results = {r.name: r for r in suite_engines(max_n=6, max_k=4, samples=0, seed=0)}
    equivalence = results["engine equivalence"]
    validity = results["embedding validity"]
    elapsed = time.perf_counter() - start
    ok = equivalence.ok and validity.ok and equivalence.instances == 221 * 873
    ok = ok and elapsed < 120.0
    report(7, ok, f"backtracking == brute force (decide, count, enumerate) on "
                  f"{equivalence.instances} exhaustive instances, {elapsed:.1f} s (< 2 min)")


def test_criterion_8_fo_decider_agreement():
    start = time.perf_counter()
    results = {r.name: r for r in suite_fo(max_n=6, max_k=4, samples=500, seed=8)}
    agreement = results["fo decider agreement"]
    witnesses = results["fo witness validity"]
    elapsed = time.perf_counter() - start
    ok = agreement.ok and witnesses.ok and agreement.instances == 221 * 873 + 500
    ok = ok and elapsed < 60.0
    report(8, ok, f"model checker == matcher on {agreement.instances} instances "
                  f"(exhaustive + 500 random), {elapsed:.1f} s (< 1 min)")


def test_criterion_9_lis_fast_path():
    start = time.perf_counter()
    results = suite_lis(samples=500, max_n=12, seed=9)
    ok = all(r.ok for r in results) and lis_length(REFERENCE_TEXT) == 2
    queries = results[0].instances
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(9, ok, f"lis fast path agrees with brute force on {queries} "
                  f"identity queries over 500 random texts, {elapsed:.1f} s (< 10 s)")


def test_criterion_10_rank_stability():
    start = time.perf_counter()
    rng = random.Random(1010)
    bad = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        k = rng.randint(1, g.l)
        for halves in build_multiset_instance(g, k):
            canonical = deduplicate(halves)
            if deduplicate_with_reals(halves) != canonical:
                bad += 1
            if deduplicate_with_reals(halves, ALT_ASSIGN) != canonical:
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 5.0
    report(10, ok, f"two real-assignment schemes rank identically on 200 random "
                   f"instances, {elapsed:.2f} s (< 5 s)")
