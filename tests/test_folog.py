import random

import pytest

from permpat.core import ValidationError
from permpat.folog import (
    FoFormula,
    encode_formula,
    encode_structure,
    export_instance,
    model_check,
    parse_instance,
)
from permpat.matcher import MatchRequest, Mode, is_valid_embedding, match_bruteforce
from permpat.textio import ParseError, parse_pattern, parse_permutation
from permpat.verify import all_patterns, all_texts, random_pattern, random_permutation

T = parse_permutation("53142")


def _relation_lines(t, kind):
    """The (x, y) pairs of export_instance's lines of one kind, in order."""
    out = export_instance(t, encode_formula(parse_pattern("1")))
    return [tuple(map(int, ln.split()[1:])) for ln in out.splitlines() if ln.split()[0] == kind]


def test_structure_relations_for_example_text():
    assert encode_structure(T) is T
    assert export_instance(T, encode_formula(parse_pattern("1"))).startswith("fo 5 1\n")
    pairs = _relation_lines(T, "tl")
    assert len(pairs) == 10
    assert set(pairs) == {
        (2, 1), (2, 4), (3, 1), (3, 2), (3, 4),
        (3, 5), (4, 1), (5, 1), (5, 2), (5, 4),
    }
    assert pairs == sorted(pairs)
    succ = _relation_lines(T, "s")
    assert succ == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert (3, 1) in pairs and (1, 3) not in pairs
    assert (1, 2) in succ and (2, 1) not in succ


def test_structure_trivial_cases():
    one = parse_permutation("1")
    assert _relation_lines(one, "tl") == []
    assert _relation_lines(one, "s") == []
    two = parse_permutation("12")
    assert _relation_lines(two, "tl") == [(1, 2)]
    assert _relation_lines(two, "s") == [(1, 2)]


def test_formula_for_vincular_31_2():
    f = encode_formula(parse_pattern("[3 1] 2"))
    assert f.var_count == 3
    assert f.pos_literals == frozenset({(2, 3)})
    assert f.neg_literals == frozenset({(1, 2), (1, 3)})
    assert f.adj_literals == frozenset({1})


def test_formula_trivial_cases():
    f = encode_formula(parse_pattern("1 2"))
    assert (f.pos_literals, f.neg_literals, f.adj_literals) == (
        frozenset({(1, 2)}), frozenset(), frozenset()
    )
    assert encode_formula(parse_pattern("[3 2 1 4]")).adj_literals == frozenset({1, 2, 3})


def test_formula_literal_partition_enforced():
    with pytest.raises(ValidationError):
        FoFormula(3, frozenset({(1, 2)}), frozenset({(1, 2), (1, 3), (2, 3)}), frozenset())
    with pytest.raises(ValidationError):
        FoFormula(3, frozenset({(1, 2)}), frozenset({(1, 3)}), frozenset())
    with pytest.raises(ValidationError):
        FoFormula(2, frozenset({(1, 2)}), frozenset(), frozenset({2}))


def test_model_check_examples():
    # the least of the four embeddings (1,2,4),(1,3,4),(1,3,5),(2,3,5)
    assert model_check(T, encode_formula(parse_pattern("3 1 2"))) == (1, 2, 4)
    assert model_check(T, encode_formula(parse_pattern("1 2 3"))) is None
    one = parse_permutation("1")
    assert model_check(one, encode_formula(parse_pattern("1"))) == (1,)
    assert model_check(one, encode_formula(parse_pattern("1 2"))) is None


def test_model_check_agrees_with_bruteforce_witness():
    rng = random.Random(23)
    for _ in range(150):
        p = random_pattern(rng, rng.randint(1, 4))
        t = random_permutation(rng, rng.randint(1, 8))
        witness = model_check(t, encode_formula(p))
        found = match_bruteforce(MatchRequest(p, t, Mode.ENUMERATE_ALL))
        if found:
            assert witness == found[0]
        else:
            assert witness is None


def test_witnesses_are_valid_embeddings_exhaustively_small():
    for k in range(1, 4):
        for p in all_patterns(k):
            for n in range(1, 5):
                for t in all_texts(n):
                    witness = model_check(t, encode_formula(p))
                    if witness is not None:
                        assert is_valid_embedding(p, t, witness)


def test_literal_count_identity():
    for k in range(1, 6):
        for p in all_patterns(k)[:40]:
            f = encode_formula(p)
            assert len(f.pos_literals) + len(f.neg_literals) == k * (k - 1) // 2
            total = len(f.pos_literals) + len(f.neg_literals) + len(f.adj_literals)
            assert total <= k * k


def test_export_smallest_case_is_byte_exact():
    t = parse_permutation("12")
    f = encode_formula(parse_pattern("1 2"))
    assert export_instance(t, f) == "fo 2 2\ntl 1 2\ns 1 2\npos 1 2"


def test_export_line_counts_for_example_instance():
    out = export_instance(T, encode_formula(parse_pattern("[3 1] 2")))
    lines = out.splitlines()
    assert lines[0] == "fo 5 3"
    kinds = [ln.split()[0] for ln in lines[1:]]
    assert kinds.count("tl") == 10
    assert kinds.count("s") == 4
    assert kinds.count("pos") == 1
    assert kinds.count("neg") == 2
    assert kinds.count("adj") == 1
    assert len(lines) == 19


def test_export_parse_roundtrip():
    rng = random.Random(29)
    for _ in range(40):
        p = random_pattern(rng, rng.randint(1, 5))
        t = random_permutation(rng, rng.randint(1, 9))
        f = encode_formula(p)
        t2, f2 = parse_instance(export_instance(t, f))
        assert (t2, f2) == (t, f)
        assert export_instance(t2, f2) == export_instance(t, f)


def test_parse_instance_rejects_garbage():
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError):
        parse_instance("fo x 2")
    with pytest.raises(ParseError):
        parse_instance("fo 2 2\nzz 1 2")
    with pytest.raises(ParseError):
        parse_instance("fo 2 2\ntl 1 2\ntl 2 1\ns 1 2\npos 1 2")
    # missing succ pair
    with pytest.raises(ParseError):
        parse_instance("fo 2 2\ntl 1 2\npos 1 2")
    # text_less pairs naming positions outside 1..n
    for pair in ("1 3", "0 1", "3 1"):
        with pytest.raises(ParseError, match="outside"):
            parse_instance(f"fo 2 2\ntl {pair}\ntl 1 2\ns 1 2\npos 1 2")
    # a header far larger than its body is refused before anything is sized
    for huge in ("fo 1000000000000 1\n", "fo 1 1000000000000\n"):
        with pytest.raises(ParseError, match="needs"):
            parse_instance(huge)


def test_parse_instance_rejects_a_header_without_positions_or_variables():
    for header in ("fo 0 1", "fo 1 0"):
        with pytest.raises(ParseError) as err:
            parse_instance(header)
        assert str(err.value) == "the header's n and k must be positive (line 1)"


def test_parse_instance_reports_a_literal_the_formula_rejects():
    # right counts, but (2, 1) is no ordered pair: FoFormula's check, as a ParseError
    with pytest.raises(ParseError) as err:
        parse_instance("fo 2 2\ntl 1 2\ns 1 2\npos 2 1")
    assert str(err.value) == "literal (2, 1) is not an ordered pair in 1..2"


def test_parse_instance_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="malformed 'tl' line") as err:
        parse_instance("fo 2 2\ntl 1 ²\ns 1 2\npos 1 2")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="header") as err:
        parse_instance("fo ² 2")
    assert err.value.line == 1


def test_k_larger_than_n_is_representable_and_false():
    t = parse_permutation("1")
    f = encode_formula(parse_pattern("1 2 3"))
    out = export_instance(t, f)
    t2, f2 = parse_instance(out)
    assert model_check(t2, f2) is None


def test_structure_rejects_non_permutations():
    with pytest.raises(ParseError) as err:
        parse_instance("fo 3 1\ntl 1 2\ntl 2 1\ntl 1 3\ns 1 2\ns 2 3")
    assert str(err.value) == (
        "text_less relation is not induced by a permutation: "
        "permutation: duplicate 2 at position 2"
    )


def test_parse_instance_rejects_relations_not_induced_by_the_text():
    # in-degrees give the permutation 123, but (3, 3) does not rise in value
    with pytest.raises(ParseError) as err:
        parse_instance("fo 3 1\ntl 1 2\ntl 1 3\ntl 3 3\ns 1 2\ns 2 3")
    assert str(err.value) == "text_less relation is not induced by a permutation"
    with pytest.raises(ParseError) as err:
        parse_instance("fo 3 1\ntl 1 2\ntl 1 3\ntl 2 3\ns 1 2\ns 1 3")
    assert str(err.value) == "succ relation must be exactly the 2 consecutive pairs"


def test_parse_instance_counts_blank_lines_in_line_numbers():
    with pytest.raises(ParseError, match="malformed 'tl' line") as err:
        parse_instance("fo 2 2\n\ntl 1 x\ns 1 2\npos 1 2")
    assert err.value.line == 3
    assert str(err.value) == "malformed 'tl' line (line 3)"
    with pytest.raises(ParseError, match="header") as err:
        parse_instance("\n\nfo x 2")
    assert err.value.line == 3
