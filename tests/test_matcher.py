import random

import pytest

from permpat.core import BudgetExceededError, Embedding, GeneralizedPattern, Permutation
from permpat.matcher import (
    MatchRequest,
    Mode,
    first_embedding,
    is_valid_embedding,
    lis_length,
    match_backtracking,
    match_bruteforce,
    match_dispatch,
)
from permpat.textio import parse_pattern, parse_permutation
from permpat.verify import all_patterns, all_texts, random_pattern, random_permutation

T = parse_permutation("53142")


def req(pattern, mode=Mode.DECIDE, text=T):
    return MatchRequest(pattern, text, mode)


def both(request):
    a = match_bruteforce(request)
    b = match_backtracking(request)
    assert a == b
    return b


def test_example_text_contains_312():
    assert both(req(parse_pattern("3 1 2"))) == Embedding((1, 2, 4))


def test_example_text_avoids_123():
    assert both(req(parse_pattern("1 2 3"))) is None


def test_example_text_avoids_fully_blocked_312():
    assert both(req(parse_pattern("[3 1 2]"))) is None


def test_example_text_contains_vincular_31_2():
    assert both(req(parse_pattern("[3 1] 2"))) == Embedding((1, 2, 4))


def test_counts_in_example_text():
    # frozen from the exhaustive enumeration below
    assert both(req(parse_pattern("3 1 2"), Mode.COUNT)) == 4
    assert both(req(parse_pattern("[3 1] 2"), Mode.COUNT)) == 2
    embeddings = both(req(parse_pattern("3 1 2"), Mode.ENUMERATE_ALL))
    assert [e.positions for e in embeddings] == [(1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5)]
    vincular = both(req(parse_pattern("[3 1] 2"), Mode.ENUMERATE_ALL))
    assert [e.positions for e in vincular] == [(1, 2, 4), (2, 3, 5)]


def test_is_valid_embedding_examples():
    p = parse_pattern("[3 1] 2")
    assert is_valid_embedding(p, T, Embedding((1, 2, 4)))
    # 512 is order-isomorphic to 312 but positions 1, 3 are not adjacent
    assert not is_valid_embedding(p, T, Embedding((1, 3, 5)))
    assert is_valid_embedding(parse_pattern("1"), T, Embedding((3,)))


def test_is_valid_embedding_precondition_violations():
    p = parse_pattern("[3 1] 2")
    with pytest.raises(ValueError):
        is_valid_embedding(p, T, Embedding((1, 2)))
    with pytest.raises(ValueError):
        is_valid_embedding(p, T, Embedding((1, 2, 6)))


def test_every_enumerated_embedding_is_valid():
    for p in all_patterns(3):
        for e in match_backtracking(req(p, Mode.ENUMERATE_ALL)):
            assert is_valid_embedding(p, T, e)


def test_adjacent_increasing_pair_in_example_text():
    p = parse_pattern("[1 2]")
    assert both(req(p)) == Embedding((3, 4))
    assert first_embedding(p, T).positions == (3, 4)


def test_no_match_cases():
    assert both(MatchRequest(parse_pattern("1 2"), parse_permutation("21"))) is None
    long_pattern = GeneralizedPattern(tuple([2, 1, 3, 4, 5, 6]), ())
    assert match_backtracking(MatchRequest(long_pattern, parse_permutation("53142"))) is None
    assert match_backtracking(
        MatchRequest(long_pattern, parse_permutation("53142"), Mode.COUNT)
    ) == 0
    assert match_backtracking(
        MatchRequest(long_pattern, parse_permutation("53142"), Mode.ENUMERATE_ALL)
    ) == []


def test_lis_examples():
    assert lis_length(T) == 2
    assert lis_length(parse_permutation("12345")) == 5
    assert lis_length(parse_permutation("1")) == 1
    assert lis_length(parse_permutation("4 1 5 2 6 3 7")) == 4


def test_dispatch_uses_lis_for_identity_and_matches_engines():
    assert match_dispatch(req(parse_pattern("1 2 3"))) is None
    assert match_dispatch(req(parse_pattern("1 2"))) == Embedding((2, 4))
    assert match_dispatch(req(parse_pattern("[1 2]"))) == Embedding((3, 4))
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 9)
        t = random_permutation(rng, n)
        k = rng.randint(1, 6)
        p = random_pattern(rng, k)
        for mode in Mode:
            assert match_dispatch(MatchRequest(p, t, mode)) == match_backtracking(
                MatchRequest(p, t, mode)
            )
        identity = GeneralizedPattern(tuple(range(1, k + 1)), ())
        assert match_dispatch(MatchRequest(identity, t)) == match_backtracking(
            MatchRequest(identity, t)
        )


def test_budget_guard_refuses_large_bruteforce():
    t = Permutation(tuple(range(1, 41)))
    p = GeneralizedPattern(tuple(range(1, 11)), ())
    with pytest.raises(BudgetExceededError):
        match_bruteforce(MatchRequest(p, t), budget=10**6)
    # the workhorse takes the same instance without a budget
    assert match_backtracking(MatchRequest(p, t)) == Embedding(tuple(range(1, 11)))


def test_engines_agree_exhaustively_small():
    for k in range(1, 4):
        for p in all_patterns(k):
            for n in range(1, 6):
                for t in all_texts(n):
                    for mode in Mode:
                        assert match_bruteforce(MatchRequest(p, t, mode)) == \
                            match_backtracking(MatchRequest(p, t, mode))


def test_enumeration_is_lexicographic():
    rng = random.Random(11)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 8))
        found = [e.positions for e in match_backtracking(MatchRequest(p, t, Mode.ENUMERATE_ALL))]
        assert found == sorted(found)


def test_counts_never_increase_when_blocks_are_added():
    rng = random.Random(5)
    for _ in range(100):
        t = random_permutation(rng, rng.randint(1, 8))
        p = random_pattern(rng, rng.randint(2, 5))
        if not p.blocks:
            continue
        stripped = GeneralizedPattern(p.values, ())
        blocked = match_backtracking(MatchRequest(p, t, Mode.COUNT))
        classical = match_backtracking(MatchRequest(stripped, t, Mode.COUNT))
        assert blocked <= classical


def test_complement_symmetry_random():
    rng = random.Random(9)
    for _ in range(150):
        p = random_pattern(rng, rng.randint(1, 5))
        t = random_permutation(rng, rng.randint(1, 9))
        assert match_backtracking(MatchRequest(p, t)) == match_backtracking(
            MatchRequest(p.complement(), t.complement())
        )


def test_first_embedding_is_least_and_engine_consistent():
    rng = random.Random(13)
    for _ in range(50):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 7))
        found = match_backtracking(MatchRequest(p, t, Mode.ENUMERATE_ALL))
        expected = found[0] if found else None
        assert first_embedding(p, t) == expected
        assert match_dispatch(MatchRequest(p, t), engine="brute") == expected


def test_dispatch_identity_witness_equals_brute_exhaustively():
    for n in range(1, 7):
        for t in all_texts(n):
            for k in range(1, n + 2):
                identity = MatchRequest(GeneralizedPattern(tuple(range(1, k + 1)), ()), t)
                found = match_bruteforce(MatchRequest(identity.pattern, t, Mode.ENUMERATE_ALL))
                least = found[0] if found else None
                assert match_dispatch(identity) == match_bruteforce(identity) == least


def test_dispatch_engine_table():
    p = parse_pattern("[3 1] 2")
    for engine in ("auto", "brute", "backtrack"):
        for mode in Mode:
            assert match_dispatch(req(p, mode), engine) == match_backtracking(req(p, mode))
    t = Permutation(tuple(range(1, 41)))
    big = MatchRequest(GeneralizedPattern(tuple(range(1, 11)), ()), t)
    with pytest.raises(BudgetExceededError):
        match_dispatch(big, "brute", budget=10**6)
    assert match_dispatch(big, "auto", budget=0) == Embedding(tuple(range(1, 11)))
    with pytest.raises(ValueError, match="unknown engine"):
        match_dispatch(big, "fo")
