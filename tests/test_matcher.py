import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from permpat import matcher
from permpat.core import BudgetExceededError, GeneralizedPattern, Graph, Permutation
from permpat.matcher import ENGINES, Mode, is_valid_embedding, lis_length, match
from permpat.reduction import find_independent_set, matched_vertices, reduce
from permpat.textio import parse_pattern, parse_permutation, serialize_permutation
from permpat.verify import (
    all_block_configs, all_patterns, all_texts, random_pattern, random_permutation
)

T = parse_permutation("53142")


def answer(pattern, text=T, mode=Mode.DECIDE, engine="auto"):
    """match's answer, an enumeration listed."""
    found = match(pattern, text, mode, engine)
    return list(found) if mode is Mode.ENUMERATE_ALL else found


def both(pattern, mode=Mode.DECIDE, text=T):
    a = answer(pattern, text, mode, "brute")
    b = answer(pattern, text, mode, "backtrack")
    assert a == b
    return b


def test_example_text_contains_312():
    assert both(parse_pattern("3 1 2")) == (1, 2, 4)


def test_example_text_avoids_123():
    assert both(parse_pattern("1 2 3")) is None


def test_example_text_avoids_fully_blocked_312():
    assert both(parse_pattern("[3 1 2]")) is None


def test_example_text_contains_vincular_31_2():
    assert both(parse_pattern("[3 1] 2")) == (1, 2, 4)


def test_counts_in_example_text():
    # frozen from the exhaustive enumeration below
    assert both(parse_pattern("3 1 2"), Mode.COUNT) == 4
    assert both(parse_pattern("[3 1] 2"), Mode.COUNT) == 2
    embeddings = both(parse_pattern("3 1 2"), Mode.ENUMERATE_ALL)
    assert embeddings == [(1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5)]
    vincular = both(parse_pattern("[3 1] 2"), Mode.ENUMERATE_ALL)
    assert vincular == [(1, 2, 4), (2, 3, 5)]


def test_is_valid_embedding_examples():
    p = parse_pattern("[3 1] 2")
    assert is_valid_embedding(p, T, (1, 2, 4))
    # 512 is order-isomorphic to 312 but positions 1, 3 are not adjacent
    assert not is_valid_embedding(p, T, (1, 3, 5))
    assert is_valid_embedding(parse_pattern("1"), T, (3,))


def test_is_valid_embedding_precondition_violations():
    p = parse_pattern("[3 1] 2")
    with pytest.raises(ValueError):
        is_valid_embedding(p, T, (1, 2))
    with pytest.raises(ValueError):
        is_valid_embedding(p, T, (1, 2, 6))


def test_is_valid_embedding_equals_the_all_pairs_definition():
    for k in range(1, 5):
        for p in all_patterns(k):
            adjacent = [i for a, b in p.blocks for i in range(a - 1, b - 1)]
            pairs = list(combinations(range(k), 2))
            for n in range(k, 6):
                for t in all_texts(n):
                    tv = t.values
                    for positions in combinations(range(1, n + 1), k):
                        expected = all(
                            positions[i + 1] - positions[i] == 1 for i in adjacent
                        ) and all(
                            (tv[positions[i] - 1] < tv[positions[j] - 1])
                            == (p.values[i] < p.values[j])
                            for i, j in pairs
                        )
                        assert is_valid_embedding(p, t, positions) == expected


def test_every_enumerated_embedding_is_valid():
    for p in all_patterns(3):
        for e in match(p, T, Mode.ENUMERATE_ALL, "backtrack"):
            assert is_valid_embedding(p, T, e)


def test_adjacent_increasing_pair_in_example_text():
    p = parse_pattern("[1 2]")
    assert both(p) == (3, 4)
    assert match(p, T) == (3, 4)


def test_no_match_cases():
    assert both(parse_pattern("1 2"), text=parse_permutation("21")) is None
    long_pattern = GeneralizedPattern(tuple([2, 1, 3, 4, 5, 6]), ())
    assert match(long_pattern, T, engine="backtrack") is None
    assert match(long_pattern, T, Mode.COUNT, "backtrack") == 0
    assert list(match(long_pattern, T, Mode.ENUMERATE_ALL, "backtrack")) == []


def test_lis_examples():
    assert lis_length(T) == 2
    assert lis_length(parse_permutation("12345")) == 5
    assert lis_length(parse_permutation("1")) == 1
    assert lis_length(parse_permutation("4 1 5 2 6 3 7")) == 4


def test_dispatch_uses_lis_for_identity_and_matches_engines():
    assert match(parse_pattern("1 2 3"), T) is None
    assert match(parse_pattern("1 2"), T) == (2, 4)
    assert match(parse_pattern("[1 2]"), T) == (3, 4)
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 9)
        t = random_permutation(rng, n)
        k = rng.randint(1, 6)
        p = random_pattern(rng, k)
        for mode in Mode:
            assert answer(p, t, mode) == answer(p, t, mode, "backtrack")
        identity = GeneralizedPattern(tuple(range(1, k + 1)), ())
        assert match(identity, t) == match(identity, t, engine="backtrack")


def test_budget_guard_refuses_large_bruteforce():
    t = Permutation(tuple(range(1, 41)))
    p = GeneralizedPattern(tuple(range(1, 11)), ())
    with pytest.raises(BudgetExceededError):
        match(p, t, engine="brute", budget=10**6)
    # the workhorse takes the same instance without a budget
    assert match(p, t, engine="backtrack") == tuple(range(1, 11))


def test_engines_agree_exhaustively_small():
    for k in range(1, 4):
        for p in all_patterns(k):
            for n in range(1, 6):
                for t in all_texts(n):
                    for mode in Mode:
                        assert answer(p, t, mode, "brute") == answer(p, t, mode, "backtrack")


def test_enumeration_is_lexicographic():
    rng = random.Random(11)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 8))
        found = list(match(p, t, Mode.ENUMERATE_ALL, "backtrack"))
        assert found == sorted(found)


def test_counts_never_increase_when_blocks_are_added():
    rng = random.Random(5)
    for _ in range(100):
        t = random_permutation(rng, rng.randint(1, 8))
        p = random_pattern(rng, rng.randint(2, 5))
        if not p.blocks:
            continue
        stripped = GeneralizedPattern(p.values, ())
        blocked = match(p, t, Mode.COUNT, "backtrack")
        classical = match(stripped, t, Mode.COUNT, "backtrack")
        assert blocked <= classical


def test_complement_symmetry_random():
    rng = random.Random(9)
    for _ in range(150):
        p = random_pattern(rng, rng.randint(1, 5))
        t = random_permutation(rng, rng.randint(1, 9))
        assert match(p, t, engine="backtrack") == match(
            p.complement(), t.complement(), engine="backtrack"
        )


def test_first_embedding_is_least_and_engine_consistent():
    rng = random.Random(13)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 7))
        found = list(match(p, t, Mode.ENUMERATE_ALL, "backtrack"))
        expected = found[0] if found else None
        assert match(p, t) == expected
        assert match(p, t, engine="brute") == expected


def test_dispatch_identity_witness_equals_brute_exhaustively():
    for n in range(1, 7):
        for t in all_texts(n):
            for k in range(1, n + 2):
                for values in (range(1, k + 1), range(k, 0, -1)):
                    monotone = GeneralizedPattern(tuple(values), ())
                    found = list(match(monotone, t, Mode.ENUMERATE_ALL, "brute"))
                    least = found[0] if found else None
                    assert match(monotone, t) == match(monotone, t, engine="brute") == least


def test_dispatch_engine_table():
    p = parse_pattern("[3 1] 2")
    for engine in ("auto", "brute", "backtrack"):
        for mode in Mode:
            assert answer(p, T, mode, engine) == answer(p, T, mode, "backtrack")
    t = Permutation(tuple(range(1, 41)))
    big = GeneralizedPattern(tuple(range(1, 11)), ())
    with pytest.raises(BudgetExceededError):
        match(big, t, engine="brute", budget=10**6)
    assert match(big, t, engine="auto", budget=0) == tuple(range(1, 11))
    with pytest.raises(ValueError, match="unknown engine"):
        match(big, t, engine="fo")


def test_every_embedding_answer_is_a_plain_tuple(monkeypatch):
    lis_calls = []
    lis_witness = matcher._lis_witness

    def counted(t, k):
        lis_calls.append(k)
        return lis_witness(t, k)

    monkeypatch.setattr(matcher, "_lis_witness", counted)
    vincular, identity, decreasing = map(parse_pattern, ("[3 1] 2", "1 2", "2 1"))
    answers = []
    for engine in ("auto", "backtrack", "brute"):
        for p in (vincular, identity, decreasing):
            answers.append(match(p, T, engine=engine))
            answers.extend(match(p, T, Mode.ENUMERATE_ALL, engine))
    assert lis_calls == [2, 2]  # auto decided "1 2" and "2 1" on the LIS path
    for p in (vincular, identity, decreasing):
        answers.append(match(p, T))
        answers.append(match(p, T, engine="brute"))
        answers.extend(match(p, T, Mode.ENUMERATE_ALL, "brute"))
    assert len(answers) == 63
    assert [type(e) for e in answers] == [tuple] * len(answers)


def test_enumerate_all_streams_the_enumeration_and_refuses_at_the_call():
    p = parse_pattern("[3 1] 2")
    for engine in ("auto", "brute", "backtrack"):
        found = match(p, T, Mode.ENUMERATE_ALL, engine)
        assert next(found) == (1, 2, 4)
        assert list(found) == [(2, 3, 5)]
    big = GeneralizedPattern(tuple(range(1, 11)), ())
    for mode in Mode:
        with pytest.raises(BudgetExceededError):
            match(big, Permutation(tuple(range(1, 41))), mode, "brute", budget=10**6)
        with pytest.raises(ValueError, match="unknown engine"):
            match(p, T, mode, engine="fo")


def test_the_benchmark_adapters_answer_as_match():
    """perfbench/workloads.py calls these four names until it moves onto
    match; each answers as match does, the budget passed on."""
    for p in [*all_patterns(3), *map(parse_pattern, ("1 2", "2 1", "[1 2]"))]:
        assert matcher.first_embedding(p, T) == match(p, T)
        assert matcher.MatchRequest(p, T) == (p, T, Mode.DECIDE)
        for mode in Mode:
            request = matcher.MatchRequest(p, T, mode)
            for engine in ENGINES:
                assert matcher.match_dispatch(request, engine) == answer(p, T, mode, engine)
            assert matcher.match_bruteforce(request) == answer(p, T, mode, "brute")
    big = matcher.MatchRequest(GeneralizedPattern(tuple(range(1, 11)), ()),
                               Permutation(tuple(range(1, 41))))
    with pytest.raises(BudgetExceededError):
        matcher.match_bruteforce(big, budget=10**6)
    with pytest.raises(BudgetExceededError):
        matcher.match_dispatch(big, "brute", budget=10**6)


def test_value_neighbours_are_the_nearest_earlier_values():
    # pattern 3 1 4 2: index 3 (value 2) sits between index 1 (value 1)
    # and index 0 (value 3); 4 and 5 stand for "none below" / "none above"
    below, above = matcher._value_neighbours((3, 1, 4, 2))
    assert below == [4, 4, 0, 1]
    assert above == [5, 0, 5, 0]


def test_block_candidate_starts_are_the_order_isomorphic_factors():
    rng = random.Random(21)
    for _ in range(200):
        p = random_pattern(rng, rng.randint(2, 6))
        t = random_permutation(rng, rng.randint(1, 12))
        plan = matcher._search_plan(p)
        assert [(first, length) for first, length, *_ in plan] == list(p.units)
        for first, length, _, _, _, order, *_ in plan:
            if length == 1:
                assert order == ()
                continue
            block = tuple(sorted(p.values[first:first + length]).index(v) + 1
                          for v in p.values[first:first + length])
            factor = GeneralizedPattern(block, ((1, length),))
            hits = match(factor, t, Mode.ENUMERATE_ALL, "brute")
            assert matcher._factor_starts(order, t.values) == [e[0] - 1 for e in hits]


@pytest.fixture
def scanned(monkeypatch):
    """The block orders the backtracker scans the text for, as it scans them."""
    orders = []
    factor_starts = matcher._factor_starts

    def counted(order, tv):
        orders.append(order)
        return factor_starts(order, tv)

    monkeypatch.setattr(matcher, "_factor_starts", counted)
    return orders


def test_blocks_of_one_shape_share_one_factor_scan(scanned):
    rng = random.Random(18)
    for l, k in ((4, 2), (6, 3), (7, 4)):
        edges = frozenset(e for e in combinations(range(1, l + 1), 2) if rng.random() < 0.4)
        g = Graph(l, edges)
        trace = reduce(g, k)
        p, t = trace.stage3_pattern, trace.stage3_text
        assert len(p.blocks) == 1 + k * (k - 1) // 2
        scanned.clear()
        found = match(p, t)
        # one scan per block shape: the separator's and the triples' one
        assert sorted(scanned) == [(0, 2, 1), (2, 1, 0, 3)]
        assert (found is None) == (find_independent_set(g, k) is None)
        assert found is None or is_valid_embedding(p, t, found)
    # blocks of distinct shapes: one scan each
    scanned.clear()
    p, t = parse_pattern("[1 2] 5 [4 3] [6 8 7]"), parse_permutation("2 1 4 3 5 8 6 7 9")
    assert answer(p, t, Mode.ENUMERATE_ALL) == answer(p, t, Mode.ENUMERATE_ALL, "brute")
    assert sorted(scanned) == [(0, 1), (0, 2, 1), (1, 0)]


def test_unit_without_a_feasible_start_ends_the_search():
    # [3 2] can only start at position 1 of 2 1 3 4, leaving no room before it
    p = parse_pattern("1 [3 2]")
    t = parse_permutation("2 1 3 4")
    assert [unit[5] for unit in matcher._search_plan(p)] == [(), (1, 0)]
    assert matcher._factor_starts((1, 0), t.values) == [0]
    assert list(matcher._iter_backtracking(p, t)) == []
    assert match(p, t, Mode.COUNT, "brute") == 0


def test_no_earlier_block_is_scanned_after_a_unit_without_a_feasible_start(scanned):
    # 1 2 3 4 5 has no descending factor, so [4 3] has no start at all and
    # the right-to-left set-up ends before it reaches [1 2]
    p, t = parse_pattern("[1 2] [4 3]"), parse_permutation("1 2 3 4 5")
    assert list(match(p, t, Mode.ENUMERATE_ALL)) == []
    assert scanned == [(1, 0)]


@st.composite
def patterns_and_texts(draw):
    """A pattern of length k <= 7 with a random block set, and a text of
    length n <= 14: past the exhaustive bounds (k <= 4, n <= 6)."""
    k = draw(st.integers(1, 7))
    values = tuple(draw(st.permutations(range(1, k + 1))))
    pattern = GeneralizedPattern(values, draw(st.sampled_from(all_block_configs(k))))
    n = draw(st.integers(1, 14))
    return pattern, Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


def assert_backtracking_equals_brute(p, t):
    """Backtracking enumerates brute's embeddings in brute's order, DECIDE
    answers the first of them and COUNT their number."""
    found = list(match(p, t, Mode.ENUMERATE_ALL, "backtrack"))
    assert found == list(match(p, t, Mode.ENUMERATE_ALL, "brute")), serialize_permutation(t)
    assert match(p, t, engine="backtrack") == (found[0] if found else None)
    assert match(p, t, Mode.COUNT, "backtrack") == len(found)


@settings(max_examples=400)
@given(patterns_and_texts())
def test_backtracking_equals_brute_past_the_exhaustive_bounds(instance):
    assert_backtracking_equals_brute(*instance)


@pytest.mark.parametrize("pattern, tail", [
    ("1", 0),  # k = 1: the one unit emits
    ("2 1", 1),  # k = 2: the second singleton is the tail
    ("[2 1]", 0),  # k = 2 as one block
    ("3 [1 2]", 0),  # a block as the last unit
    ("[3 1] 2", 1),  # a singleton last unit after a block
    ("2 [4 1] 3 5", 2),  # two singleton last units after a block
    ("3 1 4 2", 2),  # two singleton last units after two more
])
def test_each_tail_shape_equals_brute_on_every_short_text(pattern, tail):
    p = parse_pattern(pattern)
    # a tail singleton is placed by the loop of the unit before it, never
    # by the state machine
    assert [unit[6] for unit in matcher._search_plan(p)].count(None) == tail
    for n in range(1, 8):
        for t in all_texts(n):
            assert_backtracking_equals_brute(p, t)


def _graph_with_answer(l, k, has_independent_set, seed):
    rng = random.Random(seed)
    while True:
        edges = frozenset(e for e in combinations(range(1, l + 1), 2) if rng.random() < 0.5)
        g = Graph(l, edges)
        if (find_independent_set(g, k) is not None) == has_independent_set:
            return g


@pytest.mark.parametrize("has_independent_set", [False, True])
def test_reduced_l14_k5_instance_agrees_with_independent_set(has_independent_set):
    g = _graph_with_answer(14, 5, has_independent_set, seed=1405)
    trace = reduce(g, 5)
    witness = match(trace.stage3_pattern, trace.stage3_text)
    assert (witness is not None) == has_independent_set
    if witness is not None:
        assert is_valid_embedding(trace.stage3_pattern, trace.stage3_text, witness)
        chosen = matched_vertices(trace, witness)
        assert len(set(chosen)) == 5
        assert not any(g.has_edge(u, v) for u, v in combinations(chosen, 2))
