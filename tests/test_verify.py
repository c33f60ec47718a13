import math
import random
import re
import tracemalloc
from itertools import permutations, product
from types import SimpleNamespace

import pytest

from permpat import folog, matcher, reduction, verify
from permpat.cli import main
from permpat.core import (
    DEFAULT_BUDGET, BudgetExceededError, GeneralizedPattern, Graph, Permutation
)
from permpat.matcher import Mode, match
from permpat.verify import (
    all_block_configs,
    all_patterns,
    run_suites,
    suite_engines,
    suite_fo,
    suite_lis,
    suite_reduction,
)
from permpat.textio import parse_graph, parse_pattern, parse_permutation


def test_block_config_counts():
    assert len(all_block_configs(1)) == 1
    assert len(all_block_configs(2)) == 2
    assert len(all_block_configs(3)) == 4
    assert len(all_block_configs(4)) == 8
    assert all_block_configs(2) == [(), ((1, 2),)]
    # 2^(k-1) distinct legal block sets, sorted, are every one of them in order
    for k in range(1, 10):
        configs = all_block_configs(k)
        assert len(configs) == len(set(configs)) == 2 ** (k - 1)
        assert configs == sorted(configs)
        for blocks in configs:
            assert GeneralizedPattern(tuple(range(1, k + 1)), blocks).blocks == blocks


def test_all_patterns_counts():
    assert len(all_patterns(1)) == 1
    assert len(all_patterns(2)) == 4
    assert len(all_patterns(3)) == 24
    assert len(all_patterns(4)) == 192


def test_engines_suite_small():
    results = suite_engines(max_n=4, max_k=3, samples=30, seed=1)
    assert all(r.ok for r in results)
    assert any("backtracking == brute force" in r.detail for r in results)


def test_the_engine_suite_makes_each_brute_plan_once():
    # the brute engine and the embedding check share one plan per pattern:
    # 1 + 2 * 2 + 6 * 4 = 29 patterns of length at most 3
    matcher._brute_plan.cache_clear()
    suite_engines(max_n=5, max_k=3)
    assert matcher._brute_plan.cache_info().misses == 29


def test_the_fo_suite_groups_each_formula_once():
    # model_check groups a formula's literals once, shared by the formulas
    # that differ only in adjacency: 1 + 2 + 6 = 9 value orders of the 29
    # patterns of length at most 3
    folog._literals_by_variable.cache_clear()
    suite_fo(max_n=5, max_k=3, samples=0)
    assert folog._literals_by_variable.cache_info().misses == 9


def test_reduction_suite_holds_one_graph_at_a_time():
    suite_reduction(max_l=3, max_k=1, samples=1, seed=3)  # imports and caches first
    tracemalloc.start()
    try:
        results = suite_reduction(max_l=30, max_k=1, samples=10, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.ok for r in results)
    # the 335 graphs, all held at once, would take about 2.7 MB
    assert peak < 2**20


def test_reduction_suite_small():
    results = suite_reduction(max_l=4, max_k=3, samples=10, seed=1)
    assert all(r.ok for r in results)
    assert any("IS ⟺ GPPM agreed" in r.detail for r in results)


def test_fo_suite_small():
    results = suite_fo(max_n=4, max_k=3, samples=30, seed=1)
    assert all(r.ok for r in results)


def test_lis_suite_small():
    results = suite_lis(samples=30, seed=1)
    assert all(r.ok for r in results)


def test_suites_are_deterministic_per_seed():
    a = suite_reduction(max_l=5, max_k=2, samples=15, seed=42)
    b = suite_reduction(max_l=5, max_k=2, samples=15, seed=42)
    assert [(r.name, r.ok, r.instances, r.detail) for r in a] == [
        (r.name, r.ok, r.instances, r.detail) for r in b
    ]


def test_run_suites_selects_suites():
    only_engines = run_suites("engines", max_n=3, max_k=2, samples=5, seed=0)
    assert {r.name for r in only_engines} == {
        "engine equivalence",
        "embedding validity",
        "adjacency monotonicity",
        "classical consistency",
        "complement symmetry",
    }
    only_fo = run_suites("fo", max_n=3, max_k=2, samples=5, seed=0)
    assert all("fo" in r.name or "formula" in r.name for r in only_fo)
    only_lis = run_suites("lis", samples=5, seed=0)
    assert [r.name for r in only_lis] == ["lis fast path"]


def test_run_suites_all_includes_the_lis_fast_path():
    names = [r.name for r in run_suites("all", max_n=3, max_k=2, max_l=3, samples=5, seed=0)]
    assert names[-1] == "lis fast path"
    expected = {"engine equivalence", "independent set vs matcher", "fo decider agreement"}
    assert expected <= set(names)


def _last_embedding(pattern, text, mode=Mode.DECIDE, engine="auto", budget=DEFAULT_BUDGET):
    """A wrong auto decider: a valid witness, but the greatest one, not the
    least.  Every other engine and mode answers correctly."""
    if mode is not Mode.DECIDE or engine != "auto":
        return match(pattern, text, mode, engine, budget)
    found = list(match(pattern, text, Mode.ENUMERATE_ALL))
    return found[-1] if found else None


def _brute_out_of_order(pattern, text, mode=Mode.DECIDE, engine="auto", budget=DEFAULT_BUDGET):
    """A wrong brute engine: every embedding, but in reverse lexicographic order."""
    found = match(pattern, text, mode, engine, budget)
    if engine == "brute" and mode is Mode.ENUMERATE_ALL:
        return list(found)[::-1]
    return found


def test_suites_reject_a_witness_that_is_not_the_least(monkeypatch):
    monkeypatch.setattr(verify, "match", _last_embedding)
    lis = {r.name: r for r in suite_lis(samples=30, seed=1)}
    assert not lis["lis fast path"].ok
    fo = {r.name: r for r in suite_fo(max_n=4, max_k=3, samples=0, seed=1)}
    assert not fo["fo decider agreement"].ok
    monkeypatch.setattr(verify, "match", _brute_out_of_order)
    engines = {r.name: r for r in suite_engines(max_n=4, max_k=3, samples=0, seed=1)}
    assert not engines["engine equivalence"].ok


def _decide_fault(witness):
    """A decider that, on every YES instance of a reduced pattern with k = 2
    (11 positions), answers witness(|P|) instead of the true witness."""

    def faulty(pattern, text, mode=Mode.DECIDE, engine="auto", budget=DEFAULT_BUDGET):
        found = match(pattern, text, mode, engine, budget)
        if mode is Mode.DECIDE and found is not None and pattern.k == 11:
            return witness(pattern.k)
        return found

    return faulty


def test_a_reduction_witness_must_decode_to_an_independent_set(monkeypatch):
    # positions 1..|P| put the two dot pairs on text dot pairs 1 and 2, so
    # they select vertices 1 and 2 whether or not the graph joins them
    monkeypatch.setattr(verify, "match", _decide_fault(lambda size: tuple(range(1, size + 1))))
    result = {r.name: r for r in SUITES["reduction"]()}["independent set vs matcher"]
    assert not result.ok
    graph, k = parse_graph(result.counterexample.removeprefix("graph:\n"))
    assert k == 2 and graph.has_edge(1, 2)
    # positions 2..|P|+1 put the first dot pair on an odd text position,
    # which decodes to no vertex: a refutation, not a crash
    monkeypatch.setattr(verify, "match", _decide_fault(lambda size: tuple(range(2, size + 2))))
    result = {r.name: r for r in SUITES["reduction"]()}["independent set vs matcher"]
    assert not result.ok
    _graph(result.counterexample)


def _backtrack_fault(change):
    """A backtracking engine whose enumeration passes through
    change(pattern, text, found), found listed."""

    def faulty(pattern, text, mode=Mode.DECIDE, engine="auto", budget=DEFAULT_BUDGET):
        found = match(pattern, text, mode, engine, budget)
        if engine == "backtrack" and mode is Mode.ENUMERATE_ALL:
            return change(pattern, text, list(found))
        return found

    return faulty


def _doubles_blocked_patterns(pattern, text, found):
    """Blocks ignored, and every classical embedding reported twice."""
    if not pattern.blocks:
        return found
    classical = GeneralizedPattern(pattern.values, ())
    return 2 * list(match(classical, text, Mode.ENUMERATE_ALL))


def _count_one_too_many(pattern, text, mode=Mode.DECIDE, engine="auto", budget=DEFAULT_BUDGET):
    found = match(pattern, text, mode, engine, budget)
    return found + 1 if mode is Mode.COUNT else found


def _reduce_one_too_long(g, k):
    """A reduction whose final pattern has one position too many."""
    trace = reduction.reduce(g, k)
    p = trace.stage3_pattern
    longer = GeneralizedPattern(p.values + (p.k + 1,), p.blocks)
    return SimpleNamespace(**{**vars(trace), "stage3_pattern": longer})


def _last_bar_rank_shifted(l, edges=frozenset()):
    """A closed form whose last bar rank is one too high."""
    batches = list(reduction._closed_form(l, edges))
    width, values = batches[-1]
    if width == 3:
        values[-1] += 1
    return iter(batches)


def _drops_negative_literals(p):
    f = folog.encode_formula(p)
    return SimpleNamespace(var_count=f.var_count, pos_literals=f.pos_literals,
                           neg_literals=frozenset(), adj_literals=f.adj_literals)


def _pattern_text(cx):
    pattern, text = cx.split("\n  text: ")
    parse_pattern(pattern.removeprefix("pattern: "))
    parse_permutation(text)


def _graph(cx):
    assert cx.startswith("graph:\n")
    parse_graph(cx.removeprefix("graph:\n"))


def _lis_text(cx):
    text, k = re.fullmatch(r"text: ([\d ]+) \(k=(\d+)\)", cx).groups()
    assert 1 <= int(k) <= len(parse_permutation(text))


SUITES = {
    "engines": lambda: suite_engines(max_n=4, max_k=3, samples=30, seed=1),
    "reduction": lambda: suite_reduction(max_l=4, max_k=3, samples=10, seed=1),
    "fo": lambda: suite_fo(max_n=4, max_k=3, samples=30, seed=1),
    "lis": lambda: suite_lis(samples=30, seed=1),
}

# (fault: the module attribute it replaces and the replacement, suite,
# the check it must refute, that check's counterexample format)
FAULTS = [
    ((verify, "match", _brute_out_of_order), "engines",
     "engine equivalence", _pattern_text),
    ((verify, "is_valid_embedding", lambda p, t, e: False), "engines",
     "embedding validity", _pattern_text),
    ((verify, "match", _backtrack_fault(_doubles_blocked_patterns)), "engines",
     "adjacency monotonicity", _pattern_text),
    ((verify, "match",
      _backtrack_fault(lambda pattern, text, found: found if pattern.blocks else [])), "engines",
     "classical consistency", _pattern_text),
    ((GeneralizedPattern, "complement", lambda self: self), "engines",
     "complement symmetry", _pattern_text),
    ((verify, "find_independent_set", lambda g, k: None), "reduction",
     "independent set vs matcher", _graph),
    ((verify, "find_independent_set", lambda g, k: None), "reduction",
     "multiset stage vs oracle", _graph),
    ((verify, "simultaneous_multiset_witness", lambda p, t: None), "reduction",
     "multiset stage vs final stage", _graph),
    ((verify, "match", _count_one_too_many), "reduction",
     "separator uniqueness", _graph),
    ((verify, "reduce", _reduce_one_too_long), "reduction",
     "size identities", _graph),
    ((verify, "_ALT_ASSIGN", lambda j, t, m: j + 0.45 - 0.4 * t / (m + 1)), "reduction",
     "rank stability", _graph),
    ((verify, "_closed_form", _last_bar_rank_shifted), "reduction",
     "closed-form ranks", _graph),
    ((verify, "match", _last_embedding), "fo",
     "fo decider agreement", _pattern_text),
    ((verify, "is_valid_embedding", lambda p, t, e: False), "fo",
     "fo witness validity", _pattern_text),
    ((verify, "encode_formula", _drops_negative_literals), "fo",
     "formula literal counts", parse_pattern),
    ((verify, "lis_length", lambda t: 0), "lis",
     "lis fast path", _lis_text),
]


def test_the_faults_cover_every_check():
    names = {r.name for suite in SUITES.values() for r in suite()}
    assert sorted(name for _, _, name, _ in FAULTS) == sorted(names)


@pytest.mark.parametrize("fault, suite, name, label", FAULTS,
                         ids=[name for _, _, name, _ in FAULTS])
def test_an_injected_fault_refutes_the_check(monkeypatch, fault, suite, name, label):
    monkeypatch.setattr(*fault)
    result = {r.name: r for r in SUITES[suite]()}[name]
    assert not result.ok
    assert result.instances > 0
    label(result.counterexample)


def test_size_identities_do_not_trust_the_non_edges_the_reduction_walks(monkeypatch):
    # the reduction and its trace agree with a non-edge walk that drops its
    # last pair; only the closed form in g.l and g.m sees the text one triple short
    non_edges = Graph.non_edges
    monkeypatch.setattr(Graph, "non_edges", lambda g: non_edges(g)[:-1])
    result = {r.name: r for r in SUITES["reduction"]()}["size identities"]
    assert not result.ok
    _graph(result.counterexample)


def _wrong_stage2_text(g, k):
    """A reduction whose trace stores the stage-2 pattern as its stage-2 text."""
    trace = reduction.reduce(g, k)
    return SimpleNamespace(**{**vars(trace), "stage2_text": trace.stage2_pattern})


def test_rank_stability_checks_the_stage_2_that_reduce_built(monkeypatch):
    monkeypatch.setattr(verify, "reduce", _wrong_stage2_text)
    result = {r.name: r for r in SUITES["reduction"]()}["rank stability"]
    assert not result.ok
    _graph(result.counterexample)


def test_the_exhaustive_walk_builds_each_text_when_it_reaches_it(monkeypatch):
    built = []

    def counting(values):
        built.append(values)
        return Permutation(values)

    monkeypatch.setattr(verify, "Permutation", counting)
    groups = verify._exhaustive(2, 7)  # 5,913 texts of length at most 7
    assert built == []
    patterns, texts = next(groups)
    assert built == []
    first_pair = patterns[0], next(texts)
    assert built == [(1,)]
    assert first_pair == (GeneralizedPattern((1,)), Permutation((1,)))


def test_the_exhaustive_walk_goes_one_value_order_at_a_time():
    every_text = [t for n in range(1, 7) for t in permutations(range(1, n + 1))]
    walked = []
    for patterns, texts in verify._exhaustive(4, 6):
        values = patterns[0].values
        assert all(p.values == values for p in patterns)
        assert len(patterns) <= 2 ** (len(values) - 1)
        assert patterns[0].blocks == ()  # the classical pattern leads
        assert [t.values for t in texts] == every_text
        walked += patterns
    assert len(walked) == len(set(walked)) == 221
    assert set(walked) == {p for k in range(1, 5) for p in all_patterns(k)}


def test_the_exhaustive_walk_builds_each_group_when_it_reaches_it(monkeypatch):
    built = []

    def counting(values, blocks=()):
        built.append((values, blocks))
        return GeneralizedPattern(values, blocks)

    monkeypatch.setattr(verify, "GeneralizedPattern", counting)
    groups = verify._exhaustive(8, 3)  # 49.6 M pairs, 5.51 M patterns
    assert built == []
    patterns, _ = next(groups)
    assert built == [((1,), ())]
    assert patterns == [GeneralizedPattern((1,))]
    next(groups)
    assert built[1:] == [((1, 2), ()), ((1, 2), ((1, 2),))]


def test_the_reduction_work_bounds_what_the_suite_builds():
    work = 0
    for ls, count, graphs in verify._graph_family(6, 20, random.Random(0)):
        graphs = list(graphs)
        # count graphs per vertex count of the run, l ascending
        assert [g.l for g in graphs] == [l for l in ls for _ in range(count)]
        for g in graphs:
            l = g.l
            text_bound = 2 * l + 3 * (l * (l - 1) // 2) + 4
            for k in range(1, min(3, l) + 1):
                assert len(reduction.reduce(g, k).stage3_text) <= text_bound
                work += text_bound + 2 * math.comb(l, k)
    assert work == verify._reduction_work(6, 3, 20)
    assert verify._reduction_work(6, 4, 200) == 128_632  # verify's defaults
    assert verify._reduction_work(5, 3, 20) == 11_824  # the crosscheck workload's bounds


def _reduction_work_per_l(max_l, max_k, samples):
    """The reduction suite's work walked one vertex count at a time: every
    graph while there are at most 64, else samples of them, or the end."""
    work = 0
    for l in range(1, max_l + 1):
        pairs = l * (l - 1) // 2
        if pairs <= 6:
            count = 2 ** pairs
        elif samples:
            count = samples
        else:
            break
        work += count * sum(2 * l + 3 * pairs + 4 + 2 * math.comb(l, k)
                            for k in range(1, min(max_k, l) + 1))
    return work


def test_the_reduction_work_sums_each_run_in_closed_form():
    for max_l, max_k, samples in product(range(1, 41), range(1, 7), (0, 1, 7)):
        assert verify._reduction_work(max_l, max_k, samples) == _reduction_work_per_l(
            max_l, max_k, samples
        ), (max_l, max_k, samples)


def test_the_reduction_suite_refuses_over_the_budget_at_the_call(monkeypatch):
    def not_before_the_budget_check(*args):
        raise AssertionError(f"built a graph from {args} before the budget check")

    for builder in ("Graph", "random_graph", "reduce"):
        monkeypatch.setattr(verify, builder, not_before_the_budget_check)
    with pytest.raises(BudgetExceededError) as err:
        suite_reduction(max_l=200, max_k=4, samples=200)
    assert str(err.value) == "reduction suite work = 1070307363032 exceeds budget 100000000"


def test_run_suites_refuses_every_selected_suite_before_running_the_first(monkeypatch):
    def not_before_the_budget_check(**bounds):
        raise AssertionError(f"ran a suite with {bounds} before every budget check")

    monkeypatch.setattr(verify, "suite_engines", not_before_the_budget_check)
    with pytest.raises(BudgetExceededError) as err:
        run_suites(max_l=200)
    assert str(err.value) == "reduction suite work = 1070307363032 exceeds budget 100000000"


def test_verify_prints_a_refuted_check_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "lis_length", lambda t: 0)
    code = main(["verify", "--suite", "lis", "--samples", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 2
    assert lines[0].startswith("FAIL lis fast path: lis_length >= k and the fast-path ")
    assert lines[1].startswith("  counterexample text: ")
    _lis_text(lines[1].removeprefix("  counterexample "))
