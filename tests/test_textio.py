import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from permpat.core import Graph, ValidationError
from permpat.textio import (
    ParseError,
    _int_tokens,
    _parse_dash,
    are_int_tokens,
    parse_graph,
    parse_pattern,
    parse_permutation,
    serialize_graph,
    serialize_pattern,
    serialize_permutation,
)
from permpat.verify import all_patterns

SIX_VERTEX_GRAPH_TEXT = "p 6 7\nk 3\n1 3\n1 4\n1 5\n2 6\n3 4\n3 6\n5 6"


def test_parse_permutation_forms():
    assert parse_permutation("5 3 1 4 2").values == (5, 3, 1, 4, 2)
    assert parse_permutation("53142").values == (5, 3, 1, 4, 2)
    assert parse_permutation("5,3,1,4,2").values == (5, 3, 1, 4, 2)
    assert parse_permutation("10 9 8 7 6 5 4 3 2 1").n == 10
    assert parse_permutation("1").values == (1,)


def test_parse_permutation_propagates_validation():
    with pytest.raises(ValidationError, match="duplicate 6"):
        parse_permutation("5,3,1,4,2,6,6")


def test_parse_permutation_reports_byte_offset():
    with pytest.raises(ParseError) as err:
        parse_permutation("5 3 x 4")
    assert err.value.offset == 4
    with pytest.raises(ParseError, match="empty input"):
        parse_permutation("   ")


def test_parse_pattern_bracket():
    p = parse_pattern("[3 1] 2")
    assert p.values == (3, 1, 2)
    assert p.blocks == ((1, 2),)
    assert parse_pattern("[3 1 2]").blocks == ((1, 3),)
    assert parse_pattern("3 1 2").blocks == ()


def test_parse_pattern_accepts_angle_bracket_aliases():
    assert parse_pattern("⟨3 1⟩ 2") == parse_pattern("[3 1] 2")


def test_parse_pattern_dash():
    assert parse_pattern("31-2") == parse_pattern("[3 1] 2")
    assert parse_pattern("3-1-2") == parse_pattern("3 1 2")
    # without any dash, the input is a classical pattern
    assert parse_pattern("312").blocks == ()


def test_parse_pattern_errors():
    with pytest.raises(ParseError, match="nested"):
        parse_pattern("[3 [1 2]]")
    with pytest.raises(ParseError, match="unbalanced"):
        parse_pattern("[3 1 2")
    with pytest.raises(ParseError, match="unbalanced"):
        parse_pattern("3 1] 2")
    with pytest.raises(ParseError, match="empty brackets"):
        parse_pattern("[] 1 2")
    with pytest.raises(ParseError, match="mixed"):
        parse_pattern("[3 1]-2")
    with pytest.raises(ParseError, match="empty group"):
        parse_pattern("31--2")
    with pytest.raises(ParseError, match="empty group"):
        parse_pattern("31-2-")
    with pytest.raises(ValidationError):
        parse_pattern("[3 1] 5")
    with pytest.raises(ValidationError, match="length < 2"):
        parse_pattern("[3] 1 2")


def test_serialize_pattern_canonical_forms():
    assert serialize_pattern(parse_pattern("[3 1] 2")) == "[3 1] 2"
    assert serialize_pattern(parse_pattern("3 1 2")) == "3 1 2"
    assert serialize_pattern(parse_pattern("[3 1 2]")) == "[3 1 2]"


def test_parse_graph_six_vertex_example():
    g, k = parse_graph(SIX_VERTEX_GRAPH_TEXT)
    assert g.l == 6
    assert g.m == 7
    assert k == 3
    assert g.has_edge(5, 6) and not g.has_edge(1, 2)


def test_parse_graph_small_and_errors():
    g, k = parse_graph("p 1 0")
    assert (g.l, g.m, k) == (1, 0, None)
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph("p 3 1\n2 2")
    with pytest.raises(ParseError, match="out of range"):
        parse_graph("p 3 1\n2 4")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_graph("p 3 2\n1 2\n2 1")
    with pytest.raises(ParseError, match="wrong edge count"):
        parse_graph("p 3 2\n1 2")
    with pytest.raises(ParseError, match="wrong edge count"):
        parse_graph("p 3 0\n1 2")
    with pytest.raises(ParseError, match="header"):
        parse_graph("1 2\n2 3")
    with pytest.raises(ParseError, match="k must be positive"):
        parse_graph("p 2 0\nk 0")


EDGE_ERRORS = {  # the edges, their lines in a file, core's message, the reader's own
    "not a pair": ([(1, 2, 3)], "1 2 3",
                   "edge endpoints must be pairs of integers, got (1, 2, 3)",
                   "edge: expected '<u> <v>'"),
    "bool endpoint": ([(True, 2)], "True 2", "edge endpoints must contain integers, got True",
                      "edge: expected an integer, got 'True'"),
    "self-loop": ([(2, 2)], "2 2", "self-loop at vertex 2", None),
    "out of range": ([(1, 4)], "1 4", "edge (1, 4) out of range 1..3", None),
    "duplicate": ([(1, 2), (2, 1)], "1 2\n2 1", "duplicate edge (1, 2)", None),
}


@pytest.mark.parametrize("case", EDGE_ERRORS)
def test_an_edge_error_reads_the_same_from_graph_and_from_a_file(case):
    """The reader refuses what its grammar cannot carry by itself; core's
    edge rule words the rest for both, and the reader adds the line."""
    edges, lines, message, grammar = EDGE_ERRORS[case]
    with pytest.raises(ValidationError) as err:
        Graph(3, edges)
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        parse_graph(f"p 3 {len(edges)}\n{lines}\n")
    assert str(err.value) == f"{grammar or message} (line {1 + len(edges)})"


def test_parse_graph_comments_and_crlf():
    g, k = parse_graph("# a comment\r\np 2 1\r\n# another\r\n1 2\r\n")
    assert g.m == 1 and k is None


# '²' passes str.isdigit() but not int(); '٣' (Arabic-Indic three) passes both
def test_permutation_rejects_non_ascii_digits():
    for digit in "²٣":
        with pytest.raises(ParseError, match="expected an integer") as err:
            parse_permutation(f"2 {digit} 1")
        assert err.value.offset == 2


def test_int_tokens_separates_on_exactly_whitespace_and_commas():
    """The tokenizer splits with str.split(); over every code point it must
    agree with the grammar's regex class [\\s,]."""
    separator = re.compile(r"[\s,]")
    expected = [c for c in range(0x110000) if separator.fullmatch(chr(c))]
    split_at = []
    for c in range(0x110000):
        try:
            if _int_tokens("1" + chr(c) + "2") == [1, 2]:
                split_at.append(c)
        except ParseError:
            pass
    assert split_at == expected


def test_int_tokens_forms_and_errors():
    assert _int_tokens("1,,2") == [1, 2]
    assert _int_tokens("1   2") == [1, 2]
    assert _int_tokens(" 1\u3000,\t2\n") == [1, 2]
    assert _int_tokens("53142") == [5, 3, 1, 4, 2]
    for text, message, offset in [
        (",", "empty input (byte 0)", 0),
        (" ,\t\n", "empty input (byte 0)", 0),
        ("1 x 3", "expected an integer, got 'x' (byte 2)", 2),
        ("1 \u00b2", "expected an integer, got '\u00b2' (byte 2)", 2),
        ("1 \u0663", "expected an integer, got '\u0663' (byte 2)", 2),
        ("1\u3000x 2", "expected an integer, got 'x' (byte 4)", 4),
        ("1 2 \u00b2x 3", "expected an integer, got '\u00b2x' (byte 4)", 4),
    ]:
        with pytest.raises(ParseError) as err:
            _int_tokens(text)
        assert (str(err.value), err.value.offset) == (message, offset), text


def test_an_integer_token_has_at_most_the_digits_int_reads(int_max_str_digits):
    int_max_str_digits(640)
    assert are_int_tokens("1", "9" * 640) and not are_int_tokens("1", "9" * 641)
    assert not are_int_tokens() and not are_int_tokens("") and not are_int_tokens("1", "")
    int_max_str_digits(0)  # no limit
    assert are_int_tokens("9" * 5000)
    with pytest.raises(ValidationError):
        parse_permutation("1 " + "9" * 5000)


def test_permutation_reports_an_integer_past_the_digit_limit(int_max_str_digits):
    int_max_str_digits(4300)
    huge = "9" * 4301
    with pytest.raises(ParseError) as err:
        parse_permutation(f"1 {huge}")
    assert (str(err.value), err.value.offset) == (f"expected an integer, got {huge!r} (byte 2)", 2)
    with pytest.raises(ValidationError):  # one run of digits is one value per digit
        parse_permutation(huge)


def test_bracket_pattern_reports_an_integer_past_the_digit_limit(int_max_str_digits):
    int_max_str_digits(4300)
    huge = "9" * 4301
    with pytest.raises(ParseError) as err:
        parse_pattern(f"[1 {huge}]")
    assert (str(err.value), err.value.offset) == (f"expected an integer, got {huge!r} (byte 3)", 3)


def test_bracket_pattern_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_pattern("[1 ²]")
    assert err.value.offset == 3


def test_dash_pattern_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_pattern("1-²")
    assert err.value.offset == 2


def test_every_dash_input_has_a_value_or_a_dash_error():
    # a dash either closes a non-empty group or raises, so the dash grammar
    # never reaches its end with no values read
    for length in range(1, 8):
        for chars in itertools.product("12 -", repeat=length):
            text = "".join(chars)
            if "-" not in text:
                continue
            try:
                assert parse_pattern(text).k >= 1
            except ParseError as exc:
                assert "dash" in str(exc), text
            except ValidationError as exc:
                assert "duplicate" in str(exc) or "out of range" in str(exc), text


def test_graph_rejects_non_ascii_digits():
    with pytest.raises(ParseError, match="edge: expected an integer") as err:
        parse_graph("p 2 1\n1 ²")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="header: expected an integer") as err:
        parse_graph("p ² 0")
    assert err.value.line == 1


def test_graph_reports_an_integer_past_the_digit_limit(int_max_str_digits):
    int_max_str_digits(4300)
    huge = "9" * 4301
    for text, message in [
        (f"p {huge} 0", f"header: expected an integer, got {huge!r} (line 1)"),
        (f"p 2 1\n{huge} 1", f"edge: expected an integer, got {huge!r} (line 2)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert str(err.value) == message


def test_dash_and_bracket_forms_agree_exhaustively_up_to_k4():
    for p in (p for k in range(1, 5) for p in all_patterns(k)):
        dash = _dash_form(p)
        # a dash form with no dash (one group, or k = 1) reads as classical
        # under parse_pattern, so it goes to the dash grammar directly
        assert (parse_pattern if "-" in dash else _parse_dash)(dash) == p
        assert parse_pattern(serialize_pattern(p)) == p


def _dash_form(p):
    starts = {a: b for a, b in p.blocks}
    groups = []
    i = 1
    while i <= p.k:
        b = starts.get(i, i)
        groups.append("".join(str(v) for v in p.values[i - 1:b]))
        i = b + 1
    return "-".join(groups)


@st.composite
def permutations_(draw, max_n=20):
    n = draw(st.integers(1, max_n))
    return parse_permutation(" ".join(str(v) for v in draw(st.permutations(list(range(1, n + 1))))))


@st.composite
def patterns_(draw, max_k=8):
    from permpat.verify import all_block_configs

    k = draw(st.integers(1, max_k))
    values = draw(st.permutations(list(range(1, k + 1))))
    config = draw(st.sampled_from(all_block_configs(k)))
    from permpat.core import GeneralizedPattern

    return GeneralizedPattern(tuple(values), config)


@given(permutations_())
def test_permutation_roundtrip(t):
    assert parse_permutation(serialize_permutation(t)) == t


@given(patterns_())
def test_pattern_roundtrip(p):
    assert parse_pattern(serialize_pattern(p)) == p


@st.composite
def graphs_(draw, max_l=8):
    from itertools import combinations

    l = draw(st.integers(0, max_l))
    pairs = list(combinations(range(1, l + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(l, frozenset(chosen))


@settings(max_examples=60)
@given(graphs_(), st.one_of(st.none(), st.integers(1, 8)))
def test_graph_roundtrip(g, k):
    g2, k2 = parse_graph(serialize_graph(g, k))
    assert g2 == g
    assert k2 == k
