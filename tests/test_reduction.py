import dataclasses
import inspect
import random
import tracemalloc
from itertools import combinations

import pytest

from permpat import reduction, verify
from permpat.core import (
    BudgetExceededError,
    GeneralizedPattern,
    Graph,
    MultisetHalves,
    Permutation,
    ValidationError,
)
from permpat.matcher import MatchRequest, Mode, match_dispatch
from permpat.reduction import (
    KRangeError,
    attach_separator,
    build_multiset_instance,
    deduplicate,
    deduplicate_with_reals,
    find_independent_set,
    format_trace,
    matched_vertices,
    reduce,
    simultaneous_multiset_witness,
)
from permpat.textio import parse_graph, parse_pattern, serialize_pattern
from permpat.verify import random_graph

REFERENCE_GRAPH = Graph(6, frozenset([(1, 3), (1, 4), (1, 5), (2, 6), (3, 4), (3, 6), (5, 6)]))

K3 = Graph(3, frozenset([(1, 2), (1, 3), (2, 3)]))


def test_stage1_pattern_and_text_for_the_worked_example():
    pattern, text = build_multiset_instance(REFERENCE_GRAPH, 3)
    assert pattern.dot == (1, 2, 3)
    assert pattern.bar == ((1, 2, 1), (1, 3, 1), (2, 3, 2))
    assert text.dot == (1, 2, 3, 4, 5, 6)
    assert text.bar == (
        (1, 2, 1), (1, 6, 1), (2, 3, 2), (2, 4, 2),
        (2, 5, 2), (3, 5, 3), (4, 5, 4), (4, 6, 4),
    )


def test_stage1_edge_cases():
    pattern, text = build_multiset_instance(Graph(2, frozenset()), 2)
    assert pattern == MultisetHalves((1, 2), ((1, 2, 1),))
    assert text == MultisetHalves((1, 2), ((1, 2, 1),))
    pattern, text = build_multiset_instance(K3, 2)
    assert pattern.bar == ((1, 2, 1),)
    assert text.bar == ()


def test_stage1_rejects_k_out_of_range():
    with pytest.raises(KRangeError):
        build_multiset_instance(REFERENCE_GRAPH, 0)
    with pytest.raises(KRangeError):
        build_multiset_instance(REFERENCE_GRAPH, 7)


def test_deduplicate_worked_example_pattern():
    pattern, _ = build_multiset_instance(REFERENCE_GRAPH, 3)
    ranked = deduplicate(pattern)
    assert ranked.dot == (6, 1, 11, 7, 15, 12)
    assert ranked.bar == ((2, 8, 3), (4, 13, 5), (9, 14, 10))


def test_deduplicate_single_vertex():
    assert deduplicate(MultisetHalves((1,), ())).dot == (2, 1)


# frozen from deduplicate_with_reals (the independent float oracle below)
EXPECTED_TEXT_DOT = (6, 1, 15, 7, 20, 16, 27, 21, 32, 28, 36, 33)
EXPECTED_TEXT_BAR = (
    (2, 8, 3), (4, 34, 5), (9, 17, 10), (11, 22, 12),
    (13, 29, 14), (18, 30, 19), (23, 31, 24), (25, 35, 26),
)


def test_deduplicate_worked_example_text():
    _, text = build_multiset_instance(REFERENCE_GRAPH, 3)
    ranked = deduplicate(text)
    assert len(ranked.dot) + sum(map(len, ranked.bar)) == 36
    assert ranked.dot == EXPECTED_TEXT_DOT
    assert ranked.bar == EXPECTED_TEXT_BAR
    # the vertex-1 pair ranks like its pattern-side analogue
    assert ranked.dot[:2] == (6, 1)
    # cross-check against the real-representative implementation
    assert deduplicate_with_reals(text) == ranked


SCHEMES = [
    None,
    lambda j, t, m: j + 0.45 + 0.4 * t / (m + 1),
    lambda j, t, m: j + 0.9 - 0.8 / (t + 1),
]


def test_deduplicate_rank_stability_across_schemes():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        k = rng.randint(1, g.l)
        for halves in build_multiset_instance(g, k):
            ranked = deduplicate(halves)
            for scheme in SCHEMES:
                assert deduplicate_with_reals(halves, scheme) == ranked


def test_deduplicate_rank_stability_on_arbitrary_halves():
    rng = random.Random(22)
    shapes = {"bar value without a dot": 0, "dot value without a bar": 0, "block length": set()}
    for _ in range(300):
        dot = rng.sample(range(1, 13), rng.randint(0, 6))
        bar = [tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
               for _ in range(rng.randint(0 if dot else 1, 6))]
        halves = MultisetHalves(tuple(dot), tuple(bar))
        in_bar = {v for block in bar for v in block}
        shapes["bar value without a dot"] += bool(in_bar - set(dot))
        shapes["dot value without a bar"] += bool(set(dot) - in_bar)
        shapes["block length"].update(map(len, bar))
        ranked = deduplicate(halves)
        for scheme in SCHEMES:
            assert deduplicate_with_reals(halves, scheme) == ranked
    assert shapes["bar value without a dot"] > 100 and shapes["dot value without a bar"] > 100
    assert shapes["block length"] == {1, 2, 3}


def test_deduplicate_keeps_memory_close_to_its_output():
    _, text = build_multiset_instance(Graph(100, frozenset()), 1)
    assert (len(text.dot), len(text.bar), set(map(len, text.bar))) == (100, 4_950, {3})
    tracemalloc.start()
    try:
        ranked = deduplicate(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each dot entry becomes a pair; the bar keeps its shape
    assert len(ranked.dot) == 2 * len(text.dot)
    assert list(map(len, ranked.bar)) == list(map(len, text.bar))
    assert peak <= 2 * kept


def test_deduplicate_rejects_repeated_dot_values():
    with pytest.raises(ValidationError):
        deduplicate(MultisetHalves((1, 1), ()))


def test_attach_separator_worked_example():
    pattern, _ = build_multiset_instance(REFERENCE_GRAPH, 3)
    text_halves = deduplicate(build_multiset_instance(REFERENCE_GRAPH, 3)[1])
    p, t = attach_separator(deduplicate(pattern), text_halves)
    assert serialize_pattern(p) == "6 1 11 7 15 12 [18 17 16 19] [2 8 3] [4 13 5] [9 14 10]"
    assert t.n == 40
    # 2l = 12 dot elements precede the separator; the ranked maximum is 36
    assert t.values[12:16] == (39, 38, 37, 40)


def test_attach_separator_k1():
    p, _ = attach_separator(
        deduplicate(MultisetHalves((1,), ())), deduplicate(MultisetHalves((1, 2), ()))
    )
    assert serialize_pattern(p) == "2 1 [5 4 3 6]"


def test_reduce_sizes():
    trace = reduce(REFERENCE_GRAPH, 3)
    assert len(trace.stage3_pattern) == 19
    assert len(trace.stage3_text) == 40
    assert len(trace.stage1_text.bar) == 8
    trace = reduce(Graph(2, frozenset()), 2)
    assert len(trace.stage3_pattern) == 11
    trace = reduce(K3, 3)
    assert len(trace.stage3_text) == 10
    assert match_dispatch(MatchRequest(trace.stage3_pattern, trace.stage3_text)) is None


def test_reduce_text_bound_tight_exactly_for_edge_free_graphs():
    for l in range(1, 6):
        bound = 4 + (3 * l * l + l) // 2
        empty = reduce(Graph(l, frozenset()), 1)
        assert len(empty.stage3_text) == bound
        if l >= 2:
            one_edge = reduce(Graph(l, frozenset([(1, 2)])), 1)
            assert len(one_edge.stage3_text) < bound


def test_independent_set_oracle_examples():
    assert find_independent_set(REFERENCE_GRAPH, 3) == (2, 3, 5)
    assert find_independent_set(K3, 2) is None
    assert find_independent_set(Graph(4, frozenset()), 4) == (1, 2, 3, 4)
    assert find_independent_set(REFERENCE_GRAPH, 7) is None


def test_independent_set_oracle_takes_no_budget_and_refuses_over_the_default():
    assert list(inspect.signature(find_independent_set).parameters) == ["g", "k"]
    with pytest.raises(BudgetExceededError) as err:
        find_independent_set(Graph(40), 10)
    assert str(err.value) == "C(40, 10) = 847660528 exceeds budget 100000000"


def test_simultaneous_multiset_witness_refuses_before_walking_a_subset(monkeypatch):
    def not_before_the_budget_check(*args):
        raise AssertionError("walked subsets before the budget check")

    monkeypatch.setattr(reduction, "combinations", not_before_the_budget_check)
    pattern = MultisetHalves(tuple(range(1, 11)))
    text = MultisetHalves(tuple(range(1, 41)))
    with pytest.raises(BudgetExceededError) as err:
        simultaneous_multiset_witness(pattern, text)
    assert str(err.value) == "C(40, 10) = 847660528 exceeds budget 100000000"


def test_stage1_refuses_a_text_over_the_budget_before_building_it(monkeypatch):
    def not_before_the_budget_check(*args):
        raise AssertionError("built a half before the budget check")

    monkeypatch.setattr(Graph, "non_edges", not_before_the_budget_check)
    monkeypatch.setattr(reduction, "combinations", not_before_the_budget_check)
    with pytest.raises(BudgetExceededError) as err:
        build_multiset_instance(Graph(20000), 2)
    assert str(err.value) == "|T| = 600010004 exceeds budget 100000000"
    # an edge removes one non-edge, three text values
    with pytest.raises(BudgetExceededError, match=r"^\|T\| = 600010001 "):
        build_multiset_instance(Graph(20000, frozenset({(1, 2)})), 2)


def test_simultaneous_multiset_match_examples():
    pattern, text = build_multiset_instance(REFERENCE_GRAPH, 3)
    assert simultaneous_multiset_witness(pattern, text) == (2, 3, 5)
    k3_pattern, k3_text = build_multiset_instance(K3, 2)
    assert simultaneous_multiset_witness(k3_pattern, k3_text) is None
    one_pattern, one_text = build_multiset_instance(K3, 1)
    assert simultaneous_multiset_witness(one_pattern, one_text) == (1,)


def test_matched_vertices_on_the_worked_example():
    trace = reduce(REFERENCE_GRAPH, 3)
    embeddings = match_dispatch(
        MatchRequest(trace.stage3_pattern, trace.stage3_text, Mode.ENUMERATE_ALL), "backtrack"
    )
    selected = {tuple(sorted(matched_vertices(trace, e))) for e in embeddings}
    independent_sets = {
        s
        for s in combinations(range(1, 7), 3)
        if all(not REFERENCE_GRAPH.has_edge(u, v) for u, v in combinations(s, 2))
    }
    assert selected == independent_sets
    assert (2, 3, 5) in selected


def test_matched_vertices_refuses_a_dot_pair_across_two_vertex_pairs():
    trace = reduce(REFERENCE_GRAPH, 3)
    witness = match_dispatch(MatchRequest(trace.stage3_pattern, trace.stage3_text))
    assert witness[:6] == (3, 4, 5, 6, 9, 10)  # vertices 2, 3 and 5
    # the third dot pair on text positions 8 and 10: the second dot of
    # vertex 4, then that of vertex 5.  No matcher witness does this, and
    # its second position alone would decode to the independent set again.
    straddling = witness[:4] + (8,) + witness[5:]
    with pytest.raises(ValueError) as err:
        matched_vertices(trace, straddling)
    assert str(err.value) == ("pattern dot pair 3 does not land on a text dot pair "
                              "(positions 8, 10)")
    assert not verify._selects_independent_set(REFERENCE_GRAPH, trace, straddling)


def test_trace_blocks_layout():
    trace = reduce(REFERENCE_GRAPH, 3)
    assert trace.stage3_pattern.blocks == ((7, 10), (11, 13), (14, 16), (17, 19))


@pytest.mark.parametrize("blocks", [
    (),  # classical
    ((7, 8), (9, 10), (11, 13), (14, 16), (17, 19)),  # separator cut in two
    ((7, 10), (11, 13), (14, 16)),  # one triple left free
    ((7, 10), (11, 12), (14, 16), (17, 19)),  # one triple cut short
], ids=["classical", "split-separator", "free-triple", "short-triple"])
def test_trace_rejects_blocks_off_the_separator_and_triples_layout(blocks):
    trace = reduce(REFERENCE_GRAPH, 3)
    moved = GeneralizedPattern(trace.stage3_pattern.values, blocks)
    with pytest.raises(ValidationError, match="separator"):
        dataclasses.replace(trace, stage3_pattern=moved)


def test_trace_rejects_a_pattern_off_its_closed_form_length():
    trace = reduce(REFERENCE_GRAPH, 3)
    p = trace.stage3_pattern
    longer = GeneralizedPattern(p.values + (p.k + 1,), p.blocks)
    with pytest.raises(ValidationError, match=r"^pattern length 20 != 4 \+ \(3k\^2\+k\)/2 = 19$"):
        dataclasses.replace(trace, stage3_pattern=longer)


def test_trace_rejects_a_text_off_its_closed_form_length():
    trace = reduce(REFERENCE_GRAPH, 3)
    longer = Permutation(trace.stage3_text.values + (trace.stage3_text.n + 1,))
    with pytest.raises(ValidationError, match=r"^text length 41 != 2l \+ 3\*non_edges \+ 4 = 40$"):
        dataclasses.replace(trace, stage3_text=longer)


def test_trace_rejects_a_text_over_the_edge_free_bound():
    # l = 2 has one vertex pair; a stage-1 text claiming two non-edges
    # passes the length identity with |T| = 14, over the bound 4 + (3l^2+l)/2 = 11
    trace = reduce(Graph(2), 1)
    two_non_edges = MultisetHalves((1, 2), ((1, 2, 1), (1, 2, 1)))
    with pytest.raises(ValidationError, match=r"^text length 14 exceeds bound 11$"):
        dataclasses.replace(trace, stage1_text=two_non_edges,
                            stage3_text=Permutation(tuple(range(1, 15))))


def test_format_trace_sections_and_roundtrip_of_stage3():
    trace = reduce(REFERENCE_GRAPH, 3)
    dump = format_trace(trace)
    assert "[stage1]" in dump and "[stage2]" in dump and "[stage3]" in dump
    lines = {ln.split(":")[0]: ln for ln in dump.splitlines() if ":" in ln}
    assert lines["pattern"].endswith(serialize_pattern(trace.stage3_pattern))
    assert lines["k"] == "k: 3"
    assert lines["pattern_length"] == "pattern_length: 19"
    assert lines["text_length"] == "text_length: 40"


def test_end_to_end_agreement_small_random():
    rng = random.Random(2)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 6))
        k = rng.randint(1, min(3, g.l))
        trace = reduce(g, k)
        expected = find_independent_set(g, k) is not None
        multiset = simultaneous_multiset_witness(trace.stage1_pattern, trace.stage1_text)
        assert (multiset is not None) == expected
        final = match_dispatch(MatchRequest(trace.stage3_pattern, trace.stage3_text))
        assert (final is not None) == expected


def test_parse_graph_file_drives_reduce():
    g, k = parse_graph("p 6 7\nk 3\n1 3\n1 4\n1 5\n2 6\n3 4\n3 6\n5 6")
    assert g == REFERENCE_GRAPH
    trace = reduce(g, k)
    assert len(trace.stage3_pattern) == 19


def test_separator_probe_matches_reduced_text_exactly_once():
    probe = parse_pattern("[3 2 1 4]")
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7))
        trace = reduce(g, 1)
        assert match_dispatch(MatchRequest(probe, trace.stage3_text, Mode.COUNT), "backtrack") == 1
