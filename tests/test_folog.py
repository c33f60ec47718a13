import collections
import json
import os
import random
import tracemalloc

import fo_corpus
import pytest

from permpat import cli, folog
from permpat.core import BudgetExceededError, GeneralizedPattern, Permutation, ValidationError
from permpat.folog import (
    FoFormula,
    encode_formula,
    encode_structure,
    export_instance,
    model_check,
    parse_instance,
)
from permpat.matcher import Mode, is_valid_embedding, match
from permpat.textio import ParseError, parse_pattern, parse_permutation, serialize_permutation
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


@pytest.mark.parametrize("args, message", [
    ((True, (), (), ()), "variable count must be a positive integer, got True"),
    ((2, {(True, 2)}, (), ()), "order literals must contain integers, got True"),
    ((2, {(1.0, 2)}, (), ()), "order literals must contain integers, got 1.0"),
    ((2, (), {(1, 2)}, {True}), "adjacency literals must contain integers, got True"),
    ((2, (), {(1, 2)}, {1.0}), "adjacency literals must contain integers, got 1.0"),
], ids=["bool-var-count", "bool-in-literal", "float-in-literal", "bool-adjacency",
        "float-adjacency"])
def test_formula_takes_no_bool_or_float_for_an_integer(args, message):
    with pytest.raises(ValidationError) as err:
        FoFormula(*args)
    assert str(err.value) == message


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
        found = list(match(p, t, Mode.ENUMERATE_ALL, "brute"))
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


def test_the_line_walk_equals_splitlines():
    def check(text):
        assert _read_lines(text) == list(enumerate(text.splitlines(), start=1)), text

    rng = random.Random(18)
    alphabet = ["a", "1", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                "\x1e", "\x85", " ", " ", "tl 1 2\n"]
    for _ in range(3200):
        check("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))))
    # long lines, and a CRLF or any other break after 8,191 or 8,192 characters
    for size in (8191, 8192):
        for brk in alphabet[4:-1]:
            check("x" * (size - 1) + brk + "y" * 3)
            check("x" * (size - 1) + brk)
    check("x" * 16389 + "\n\n")
    check(("tl 1 2\r\n" * 8192)[:24577])


def _corpus():
    path = os.path.join(os.path.dirname(__file__), "fo_parse_corpus.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _first_pair_outside(text, n):
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["tl"] and not all(1 <= int(v) <= n for v in fields[1:]):
            return tuple(map(int, fields[1:]))
    raise AssertionError("no text_less pair outside 1..n")


def test_parse_outcomes_equal_the_golden_corpus():
    renamed = 0
    for text, want in _corpus():
        got = fo_corpus.outcome(text)
        if got != want and want[1].startswith("text_less pair ("):
            # several pairs outside 1..n: the first in file order is named,
            # where the set-based parser named the first it happened to hash
            n = int(want[1].rsplit("..", 1)[1])
            assert got == [want[0], f"text_less pair {_first_pair_outside(text, n)} "
                                    f"outside positions 1..{n}"]
            renamed += 1
            continue
        assert got == want, text
    assert renamed < 40


def _read_lines(text):
    """(line number, line) for every line _reads gives, runs cut into lines."""
    return [(lineno + i, line)
            for lineno, raw, run in folog._reads(text)
            for i, line in enumerate(raw.splitlines() if run else [raw])]


def _run_lines(text):
    return [line for _, raw, run in folog._reads(text) if run for line in raw.splitlines()]


def test_the_reads_give_every_line_once_with_its_number():
    f = encode_formula(parse_pattern("[2 1] 3"))
    plain = export_instance(_shuffled_text(9), f)
    tl = [i for i, line in enumerate(plain.split("\n")) if line.startswith("tl ")]
    rng = random.Random(20)
    for _ in range(120):
        # line breaks of every kind and blank lines next to the runs
        lines = plain.split("\n")
        text = "".join(line + rng.choice(["\n", "\n", "\n", "\r\n", "\x0b", "\x85", "\n\n"])
                       for line in lines)
        assert _read_lines(text) == list(enumerate(text.splitlines(), start=1))
        assert parse_instance(text) == parse_instance(plain)
    # the 36 tl lines read as one run
    assert _run_lines(plain + "\n") == plain.split("\n")[tl[0]:tl[-1] + 1]
    assert sum(run for _, _, run in folog._reads(plain)) == 1


def test_a_run_holds_at_most_256_lines():
    t = _shuffled_text(60)  # 1,770 tl lines
    text = export_instance(t, encode_formula(parse_pattern("1 [3 2]")))
    assert _read_lines(text) == list(enumerate(text.splitlines(), start=1))
    runs = [raw.count("\n") for _, raw, run in folog._reads(text) if run]
    assert sum(runs) == 1770 and max(runs) == 256 and len(runs) == 7
    assert parse_instance(text) == (t, encode_formula(parse_pattern("1 [3 2]")))


def test_a_run_starts_only_at_a_line_start():
    for text, message in (("fo 2 1\nxtl 1 2\n", "unknown line kind 'xtl' (line 2)"),
                          ("fo 2 2\ntl 1 2\ns 1 2\npos 1 2\nadj 1 tl 1 2\n",
                           "malformed 'adj' line (line 5)")):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message


def test_the_run_reader_names_the_first_pair_outside_in_file_order():
    # (9, 1) on a CRLF line before the run, (7, 1) inside it, (1, 5) after
    for text, first in (("fo 2 1\ntl 1 2\ntl 7 1\ntl 1 5\ns 1 2", (7, 1)),
                        ("fo 2 1\ntl 9 1\r\ntl 1 2\ntl 7 1\ns 1 2", (9, 1)),
                        ("fo 2 1\ntl 1 2\ntl 7 1\ntl 9 1\r\ns 1 2", (7, 1)),
                        ("fo 2 1\ntl 1 2\ntl 1 2\ntl 1 2\ntl 0 1\n", (0, 1))):
        assert any(run for _, _, run in folog._reads(text))
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == f"text_less pair {first} outside positions 1..2"


def test_the_run_reader_absorbs_a_repeated_line():
    t, f = parse_permutation("2 3 1"), encode_formula(parse_pattern("[1 2]"))
    lines = export_instance(t, f).split("\n")
    text = "\n".join(lines[:2] + lines[1:])  # the first tl line twice, in one run
    assert _run_lines(text) == lines[1:2] + lines[1:4]
    assert parse_instance(text) == (t, f)


def test_a_tl_number_of_19_digits_goes_line_by_line():
    t, f = parse_permutation("2 3 1"), encode_formula(parse_pattern("[1 2]"))
    plain = export_instance(t, f)
    long = plain.replace("tl 1 2\n", "tl 0000000000000000001 2\n")
    assert long != plain
    assert "tl 0000000000000000001 2" not in _run_lines(long)
    assert ("tl 0000000000000000001 2" in dict(_read_lines(long)).values())
    assert parse_instance(long) == (t, f)
    with pytest.raises(ParseError) as err:
        parse_instance(long.replace("tl 0000000000000000001 2", "tl 9999999999999999999 2"))
    assert str(err.value) == "text_less pair (9999999999999999999, 2) outside positions 1..3"


def test_a_run_before_the_header_fails_as_a_header():
    for text, line in (("tl 1 2\ntl 1 3\nfo 2 1\n", 1), ("\n\ntl 1 2\ntl 1 3\nfo 2 1", 3),
                       ("\r\n\x85tl 1 2\ntl 1 3\n", 3)):
        assert any(run for _, _, run in folog._reads(text))
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == f"expected header 'fo <n> <k>' (line {line})"


def test_the_corpus_holds_what_its_generator_makes():
    assert [text for text, _ in _corpus()] == fo_corpus.inputs()


def test_an_instance_is_never_shorter_than_its_table():
    # parse_instance makes its n x n table only when n^2 <= len(text).  A
    # tl line's length depends only on its unordered pair of positions, so
    # every text of length n has an instance of one length.
    f = encode_formula(parse_pattern("1"))
    for n in range(1, 61):
        assert len(export_instance(_shuffled_text(n), f)) >= n * n


def test_a_truncated_instance_fails_the_count_check_with_or_without_the_table():
    lines = export_instance(T, encode_formula(parse_pattern("1"))).split("\n")
    short = "\n".join([lines[0], lines[1], lines[11]])  # the header, one tl, one s
    long = "\n".join(lines[:1] + lines[2:])  # every line but the first tl
    assert len(short) < 5 * 5 <= len(long)
    for text, got in ((short, "1 and 1"), (long, "9 and 4")):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == ("a text of length 5 needs 10 text_less and 4 succ pairs, "
                                  f"got {got}")


def test_parse_instance_reports_an_integer_past_the_digit_limit(int_max_str_digits):
    int_max_str_digits(4300)
    huge = "9" * 4301
    for text, message in [
        (f"fo {huge} 1", "expected header 'fo <n> <k>' (line 1)"),
        (f"fo 1 {huge}", "expected header 'fo <n> <k>' (line 1)"),
        (f"fo 2 1\ntl 1 {huge}", "malformed 'tl' line (line 2)"),
        (f"fo 2 1\ntl {huge} 2", "malformed 'tl' line (line 2)"),
        (f"fo 2 1\ntl 1 2\ns 1 {huge}", "malformed 's' line (line 3)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == message


def test_parse_instance_absorbs_repeated_lines():
    t, f = parse_permutation("312"), encode_formula(parse_pattern("[2 1]"))
    lines = export_instance(t, f).split("\n")
    for i in range(1, len(lines)):
        assert parse_instance("\n".join(lines + [lines[i]])) == (t, f)


def test_parse_instance_names_the_first_pair_outside_in_file_order():
    with pytest.raises(ParseError) as err:
        parse_instance("fo 2 1\ntl 1 2\ntl 7 1\ntl 1 5\ns 1 2")
    assert str(err.value) == "text_less pair (7, 1) outside positions 1..2"


def test_parse_instance_takes_a_header_past_every_machine_integer():
    n = 10**20
    with pytest.raises(ParseError) as err:
        parse_instance(f"fo {n} 1\ntl {n - 1} {n}\ntl {n - 1} {n}\ntl 1 2")
    assert str(err.value) == (f"a text of length {n} needs {n * (n - 1) // 2} text_less "
                              f"and {n - 1} succ pairs, got 2 and 0")


def _shuffled_text(n):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    return parse_permutation(" ".join(map(str, values)))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_instance_keeps_memory_in_proportion_to_its_input():
    text = export_instance(_shuffled_text(200), encode_formula(parse_pattern("[3 1] 2 4")))
    parse_instance(text)  # the first call imports and caches what it needs
    assert _traced_peak(lambda: parse_instance(text)) < 4 * len(text)


@pytest.mark.parametrize("brk", ["\r\n", "\u2028"], ids=["crlf", "u2028"])
def test_the_reads_hold_one_line_at_a_time(brk):
    # no tl line ends in a line feed alone, so no line is read in a run
    text = export_instance(_shuffled_text(200), encode_formula(parse_pattern("[3 1] 2 4")))
    text = text.replace("\n", brk)
    collections.deque(folog._reads(text), maxlen=0)  # the first call compiles what it needs
    assert _traced_peak(lambda: collections.deque(folog._reads(text), maxlen=0)) < 8 * 1024


def test_encode_fo_streams_its_lines(capsys, tmp_path):
    t, pattern = _shuffled_text(200), "[3 1] 2 4"
    out_file = tmp_path / "big.fo"
    argv = ["encode-fo", "-p", pattern, "-t", serialize_permutation(t), "-o", str(out_file)]
    assert cli.main(argv) == 0  # the first call builds the parser
    peak = _traced_peak(lambda: cli.main(argv))
    written = out_file.read_text(encoding="utf-8")
    assert written == export_instance(t, encode_formula(parse_pattern(pattern))) + "\n"
    assert peak < len(written) / 2


def test_instance_lines_refuse_over_the_budget_at_the_call():
    t = Permutation(tuple(range(1, 14_144)))
    with pytest.raises(BudgetExceededError, match="fo instance lines = 100019297 "):
        folog._instance_lines(t, encode_formula(parse_pattern("1 2")))


def test_encode_formula_refuses_order_literals_over_the_budget():
    p = GeneralizedPattern(tuple(range(1, 14_144)), ())
    with pytest.raises(BudgetExceededError) as err:
        encode_formula(p)
    assert str(err.value) == "fo order literals = 100005153 exceeds budget 100000000"
