import random
from itertools import combinations

import pytest

from permpat import matcher
from permpat.core import BudgetExceededError, GeneralizedPattern, Graph, Permutation
from permpat.matcher import (
    MatchRequest,
    Mode,
    first_embedding,
    is_valid_embedding,
    iter_embeddings,
    lis_length,
    match_bruteforce,
    match_dispatch,
)
from permpat.reduction import find_independent_set, matched_vertices, reduce
from permpat.textio import parse_pattern, parse_permutation
from permpat.verify import all_patterns, all_texts, random_pattern, random_permutation

T = parse_permutation("53142")


def req(pattern, mode=Mode.DECIDE, text=T):
    return MatchRequest(pattern, text, mode)


def both(request):
    a = match_bruteforce(request)
    b = match_dispatch(request, "backtrack")
    assert a == b
    return b


def test_example_text_contains_312():
    assert both(req(parse_pattern("3 1 2"))) == (1, 2, 4)


def test_example_text_avoids_123():
    assert both(req(parse_pattern("1 2 3"))) is None


def test_example_text_avoids_fully_blocked_312():
    assert both(req(parse_pattern("[3 1 2]"))) is None


def test_example_text_contains_vincular_31_2():
    assert both(req(parse_pattern("[3 1] 2"))) == (1, 2, 4)


def test_counts_in_example_text():
    # frozen from the exhaustive enumeration below
    assert both(req(parse_pattern("3 1 2"), Mode.COUNT)) == 4
    assert both(req(parse_pattern("[3 1] 2"), Mode.COUNT)) == 2
    embeddings = both(req(parse_pattern("3 1 2"), Mode.ENUMERATE_ALL))
    assert embeddings == [(1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5)]
    vincular = both(req(parse_pattern("[3 1] 2"), Mode.ENUMERATE_ALL))
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
        for e in match_dispatch(req(p, Mode.ENUMERATE_ALL), "backtrack"):
            assert is_valid_embedding(p, T, e)


def test_adjacent_increasing_pair_in_example_text():
    p = parse_pattern("[1 2]")
    assert both(req(p)) == (3, 4)
    assert first_embedding(p, T) == (3, 4)


def test_no_match_cases():
    assert both(MatchRequest(parse_pattern("1 2"), parse_permutation("21"))) is None
    long_pattern = GeneralizedPattern(tuple([2, 1, 3, 4, 5, 6]), ())
    assert match_dispatch(
        MatchRequest(long_pattern, parse_permutation("53142")), "backtrack"
    ) is None
    assert match_dispatch(
        MatchRequest(long_pattern, parse_permutation("53142"), Mode.COUNT), "backtrack"
    ) == 0
    assert match_dispatch(
        MatchRequest(long_pattern, parse_permutation("53142"), Mode.ENUMERATE_ALL), "backtrack"
    ) == []


def test_lis_examples():
    assert lis_length(T) == 2
    assert lis_length(parse_permutation("12345")) == 5
    assert lis_length(parse_permutation("1")) == 1
    assert lis_length(parse_permutation("4 1 5 2 6 3 7")) == 4


def test_dispatch_uses_lis_for_identity_and_matches_engines():
    assert match_dispatch(req(parse_pattern("1 2 3"))) is None
    assert match_dispatch(req(parse_pattern("1 2"))) == (2, 4)
    assert match_dispatch(req(parse_pattern("[1 2]"))) == (3, 4)
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 9)
        t = random_permutation(rng, n)
        k = rng.randint(1, 6)
        p = random_pattern(rng, k)
        for mode in Mode:
            assert match_dispatch(MatchRequest(p, t, mode)) == match_dispatch(
                MatchRequest(p, t, mode), "backtrack"
            )
        identity = GeneralizedPattern(tuple(range(1, k + 1)), ())
        assert match_dispatch(MatchRequest(identity, t)) == match_dispatch(
            MatchRequest(identity, t), "backtrack"
        )


def test_budget_guard_refuses_large_bruteforce():
    t = Permutation(tuple(range(1, 41)))
    p = GeneralizedPattern(tuple(range(1, 11)), ())
    with pytest.raises(BudgetExceededError):
        match_bruteforce(MatchRequest(p, t), budget=10**6)
    # the workhorse takes the same instance without a budget
    assert match_dispatch(MatchRequest(p, t), "backtrack") == tuple(range(1, 11))


def test_engines_agree_exhaustively_small():
    for k in range(1, 4):
        for p in all_patterns(k):
            for n in range(1, 6):
                for t in all_texts(n):
                    for mode in Mode:
                        assert match_bruteforce(MatchRequest(p, t, mode)) == \
                            match_dispatch(MatchRequest(p, t, mode), "backtrack")


def test_enumeration_is_lexicographic():
    rng = random.Random(11)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 8))
        enum = MatchRequest(p, t, Mode.ENUMERATE_ALL)
        found = match_dispatch(enum, "backtrack")
        assert found == sorted(found)


def test_counts_never_increase_when_blocks_are_added():
    rng = random.Random(5)
    for _ in range(100):
        t = random_permutation(rng, rng.randint(1, 8))
        p = random_pattern(rng, rng.randint(2, 5))
        if not p.blocks:
            continue
        stripped = GeneralizedPattern(p.values, ())
        blocked = match_dispatch(MatchRequest(p, t, Mode.COUNT), "backtrack")
        classical = match_dispatch(MatchRequest(stripped, t, Mode.COUNT), "backtrack")
        assert blocked <= classical


def test_complement_symmetry_random():
    rng = random.Random(9)
    for _ in range(150):
        p = random_pattern(rng, rng.randint(1, 5))
        t = random_permutation(rng, rng.randint(1, 9))
        assert match_dispatch(MatchRequest(p, t), "backtrack") == match_dispatch(
            MatchRequest(p.complement(), t.complement()), "backtrack"
        )


def test_first_embedding_is_least_and_engine_consistent():
    rng = random.Random(13)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 7))
        found = match_dispatch(MatchRequest(p, t, Mode.ENUMERATE_ALL), "backtrack")
        expected = found[0] if found else None
        assert first_embedding(p, t) == expected
        assert match_dispatch(MatchRequest(p, t), engine="brute") == expected


def test_dispatch_identity_witness_equals_brute_exhaustively():
    for n in range(1, 7):
        for t in all_texts(n):
            for k in range(1, n + 2):
                for values in (range(1, k + 1), range(k, 0, -1)):
                    monotone = MatchRequest(GeneralizedPattern(tuple(values), ()), t)
                    found = match_bruteforce(MatchRequest(monotone.pattern, t, Mode.ENUMERATE_ALL))
                    least = found[0] if found else None
                    assert match_dispatch(monotone) == match_bruteforce(monotone) == least


def test_dispatch_engine_table():
    p = parse_pattern("[3 1] 2")
    for engine in ("auto", "brute", "backtrack"):
        for mode in Mode:
            expected = match_dispatch(req(p, mode), "backtrack")
            assert match_dispatch(req(p, mode), engine) == expected
    t = Permutation(tuple(range(1, 41)))
    big = MatchRequest(GeneralizedPattern(tuple(range(1, 11)), ()), t)
    with pytest.raises(BudgetExceededError):
        match_dispatch(big, "brute", budget=10**6)
    assert match_dispatch(big, "auto", budget=0) == tuple(range(1, 11))
    with pytest.raises(ValueError, match="unknown engine"):
        match_dispatch(big, "fo")


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
            answers.append(match_dispatch(req(p), engine))
            answers.extend(match_dispatch(req(p, Mode.ENUMERATE_ALL), engine))
    assert lis_calls == [2, 2]  # auto decided "1 2" and "2 1" on the LIS path
    for p in (vincular, identity, decreasing):
        answers.append(first_embedding(p, T))
        answers.append(match_bruteforce(req(p)))
        answers.extend(match_bruteforce(req(p, Mode.ENUMERATE_ALL)))
    assert len(answers) == 63
    assert [type(e) for e in answers] == [tuple] * len(answers)


def test_iter_embeddings_streams_the_enumeration_and_refuses_at_the_call():
    p = parse_pattern("[3 1] 2")
    for engine in ("auto", "brute", "backtrack"):
        found = iter_embeddings(p, T, engine)
        assert next(found) == (1, 2, 4)
        assert list(found) == [(2, 3, 5)]
        assert list(iter_embeddings(p, T, engine)) == match_dispatch(
            req(p, Mode.ENUMERATE_ALL), engine
        )
    big = GeneralizedPattern(tuple(range(1, 11)), ())
    with pytest.raises(BudgetExceededError):
        iter_embeddings(big, Permutation(tuple(range(1, 41))), "brute", budget=10**6)
    with pytest.raises(ValueError, match="unknown engine"):
        iter_embeddings(p, T, engine="fo")


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
        units, _, _, _, orders = matcher._search_plan(p)
        starts = matcher._candidate_starts(orders, t.values)
        assert len(starts) == len(units)
        for (first, length), found in zip(units, starts):
            if length == 1:
                assert list(found) == list(range(t.n))
                continue
            block = tuple(sorted(p.values[first:first + length]).index(v) + 1
                          for v in p.values[first:first + length])
            factor = GeneralizedPattern(block, ((1, length),))
            hits = match_bruteforce(MatchRequest(factor, t, Mode.ENUMERATE_ALL))
            assert list(found) == [e[0] - 1 for e in hits]


def test_unit_without_a_feasible_start_ends_the_search():
    # [3 2] can only start at position 1 of 2 1 3 4, leaving no room before it
    p = parse_pattern("1 [3 2]")
    t = parse_permutation("2 1 3 4")
    starts = matcher._candidate_starts(matcher._search_plan(p)[4], t.values)
    assert [list(s) for s in starts] == [[0, 1, 2, 3], [0]]
    assert list(matcher._iter_backtracking(p, t)) == []
    assert match_bruteforce(MatchRequest(p, t, Mode.COUNT)) == 0


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
    witness = match_dispatch(MatchRequest(trace.stage3_pattern, trace.stage3_text))
    assert (witness is not None) == has_independent_set
    if witness is not None:
        assert is_valid_embedding(trace.stage3_pattern, trace.stage3_text, witness)
        chosen = matched_vertices(trace, witness)
        assert len(set(chosen)) == 5
        assert not any(g.has_edge(u, v) for u, v in combinations(chosen, 2))
