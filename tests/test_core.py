import enum
import random
import tracemalloc
from itertools import combinations, repeat

import pytest
from hypothesis import given, strategies as st

from permpat.core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    GeneralizedPattern,
    Graph,
    MultisetHalves,
    Permutation,
    ValidationError,
    _check_budget,
    _sum_while_shown,
)
from permpat.folog import FoFormula
from permpat.matcher import is_valid_embedding
from permpat.verify import all_patterns


def test_validate_permutation_accepts_valid():
    p = Permutation((5, 3, 1, 4, 2))
    assert p.values == (5, 3, 1, 4, 2)
    assert p.n == 5
    assert Permutation((1,)).n == 1


def test_validate_permutation_reports_duplicate_with_position():
    with pytest.raises(ValidationError, match=r"duplicate 1 at position 2"):
        Permutation((1, 1, 2))


def test_validate_permutation_reports_out_of_range():
    with pytest.raises(ValidationError, match=r"out of range"):
        Permutation((1, 3))
    with pytest.raises(ValidationError, match=r"out of range"):
        Permutation((0, 1))


def test_validate_permutation_rejects_empty():
    with pytest.raises(ValidationError):
        Permutation(())


def test_validate_pattern_accepts_blocked_and_classical():
    p = GeneralizedPattern((3, 1, 2), ((1, 2),))
    assert p.values == (3, 1, 2)
    assert p.blocks == ((1, 2),)
    assert not p.is_classical
    assert GeneralizedPattern((3, 1, 2)).is_classical


def test_validate_pattern_distinct_errors():
    with pytest.raises(ValidationError, match=r"duplicate"):
        GeneralizedPattern((1, 1), ())
    with pytest.raises(ValidationError, match=r"length < 2"):
        GeneralizedPattern((3, 1, 2), ((2, 2),))
    with pytest.raises(ValidationError, match=r"exceeds pattern bounds"):
        GeneralizedPattern((3, 1, 2), ((2, 4),))
    with pytest.raises(ValidationError, match=r"overlaps"):
        GeneralizedPattern((3, 1, 2, 4), ((1, 2), (2, 3)))
    with pytest.raises(ValidationError, match=r"overlaps"):
        GeneralizedPattern((3, 1, 2, 4), ((1, 4), (2, 3)))  # nested


def test_pattern_blocks_are_normalized_left_to_right():
    p = GeneralizedPattern((4, 3, 2, 1), ((3, 4), (1, 2)))
    assert p.blocks == ((1, 2), (3, 4))


def test_whole_pattern_may_be_one_block():
    p = GeneralizedPattern((3, 1, 2), ((1, 3),))
    assert p.blocks == ((1, 3),)


def test_classical_pattern_roundtrips_through_permutation():
    perm = Permutation((3, 1, 2))
    p = GeneralizedPattern(perm.values)
    assert p.is_classical
    assert Permutation(p.values) == perm


def test_units_tile_the_pattern_and_keep_each_block_whole():
    for k in range(1, 6):
        for p in all_patterns(k):
            covered = [i for start, length in p.units for i in range(start, start + length)]
            assert covered == list(range(k)), p
            blocks = [(start + 1, start + length) for start, length in p.units if length > 1]
            assert tuple(blocks) == p.blocks, p
            assert p.units is p.units  # computed once per pattern


def _embedding(positions):
    """is_valid_embedding of positions for the identity pattern of their
    length in the text 1..9, where every strictly increasing run of
    positions from 1 to 9 is a matching."""
    k = max(len(positions), 1)
    return is_valid_embedding(
        GeneralizedPattern(tuple(range(1, k + 1))), Permutation(tuple(range(1, 10))), positions
    )


def test_embedding_must_strictly_increase():
    assert _embedding((1, 2, 4))
    with pytest.raises(ValidationError):
        _embedding((2, 2))
    with pytest.raises(ValidationError):
        _embedding((3, 1))
    with pytest.raises(ValidationError):
        _embedding((0, 1))
    with pytest.raises(ValidationError):
        _embedding(())


def test_multiset_halves_validation():
    h = MultisetHalves((1, 2), [[1, 2, 1]])
    assert (h.dot, h.bar) == ((1, 2), ((1, 2, 1),))
    with pytest.raises(ValidationError):
        MultisetHalves((0,), ())
    with pytest.raises(ValidationError):
        MultisetHalves((1,), ((),))


class _Rank(enum.IntEnum):
    ONE = 1
    TWO = 2


def _message(build, values):
    with pytest.raises(ValidationError) as err:
        build(values)
    return str(err.value)


CONSTRUCTORS = {
    "permutation": Permutation,
    "pattern": GeneralizedPattern,
    "embedding": _embedding,
    "bar block": lambda values: MultisetHalves((1,), (values,)),
}


@pytest.mark.parametrize("what", CONSTRUCTORS)
def test_non_integers_are_named_in_full_at_the_first_offence(what):
    build = CONSTRUCTORS[what]
    for values, shown in [((1, True), "True"), ((1, 2.0, True), "2.0"),
                          ((1, "2"), "'2'"), ((True, 5, 5), "True")]:
        assert _message(build, values) == f"{what} must contain integers, got {shown}"


def test_bijection_errors_name_the_first_offence_by_position():
    for what, build in (("permutation", Permutation), ("pattern", GeneralizedPattern)):
        assert _message(build, (1, 1, 5)) == f"{what}: duplicate 1 at position 2"
        assert _message(build, (5, 1, 1)) == f"{what}: value 5 out of range 1..3 at position 1"
        assert _message(build, (4, 2, 2, 9)) == f"{what}: duplicate 2 at position 3"
        assert _message(build, (2, 1, 0)) == f"{what}: value 0 out of range 1..3 at position 3"
        assert _message(build, ()) == f"{what} must contain at least one value"
    assert _message(_embedding, ()) == "embedding must contain at least one position"
    assert _message(_embedding, (4, 2, 2, 9)) == (
        "embedding positions must strictly increase, got 4 then 2")
    assert _message(CONSTRUCTORS["bar block"], ()) == "bar blocks must be non-empty"
    assert _message(CONSTRUCTORS["bar block"], (2, 1, 0)) == (
        "halves must contain positive values, got 0")


def test_halves_check_their_bar_values_without_copying_them():
    # shaped like stage 1's text halves of the edgeless graph on 300 vertices
    dot = tuple(range(1, 301))
    bar = tuple((i, j, i) for i, j in combinations(dot, 2))
    tracemalloc.start()
    try:
        MultisetHalves(dot, bar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a tuple of tuples is kept as it is; a new tuple of its 44,850 block
    # references would take 0.36 MB, a flat copy of the 134,550 bar values
    # about 1.1 MB more
    assert peak < 0.7 * 2**20


def test_halves_errors_name_the_first_offence_in_reading_order():
    def halves(bar):
        return _message(lambda b: MultisetHalves((1,), b), bar)

    assert halves(((), (True,))) == "bar blocks must be non-empty"
    assert halves(((True,), ())) == "bar block must contain integers, got True"
    assert halves(((2, 0, -5),)) == "halves must contain positive values, got 0"


def test_int_subclasses_other_than_bool_are_accepted():
    values = (_Rank.TWO, _Rank.ONE)
    assert Permutation(values).values == (2, 1)
    assert GeneralizedPattern(values, ((1, 2),)).values == (2, 1)
    assert _embedding(values[::-1])
    h = MultisetHalves(values, (values,))
    assert (h.dot, h.bar) == ((2, 1), ((2, 1),))
    assert Permutation(values).values[0] is _Rank.TWO


SEQUENCES = {
    "permutation": Permutation,
    "pattern": GeneralizedPattern,
    "dot half": MultisetHalves,
    "embedding": lambda values: is_valid_embedding(
        GeneralizedPattern((1, 2)), Permutation((1, 2)), values),
}


@pytest.mark.parametrize("what", SEQUENCES)
def test_a_non_sequence_is_refused_by_name(what):
    build = SEQUENCES[what]
    for value, shown in [(5, "5"), (None, "None"), (1.5, "1.5"), (True, "True")]:
        assert _message(build, value) == f"{what} must be a sequence of integers, got {shown}"
    assert _message(build, (1, True)) == f"{what} must contain integers, got True"
    assert build((_Rank.ONE, _Rank.TWO))


PAIRS = {
    "block bounds": lambda pair: GeneralizedPattern((1, 2, 3), (pair,)),
    "edge endpoints": lambda pair: Graph(3, [pair]),
    "order literals": lambda pair: FoFormula(2, frozenset({pair}), frozenset(), frozenset()),
}


@pytest.mark.parametrize("what", PAIRS)
def test_pairs_of_the_wrong_shape_are_refused_by_name(what):
    build = PAIRS[what]
    for pair in [(1,), (1, 2, 3), (), 5, None, "123"]:
        assert _message(build, pair) == f"{what} must be pairs of integers, got {pair!r}"
    for pair, shown in [((True, 2), "True"), ((1, True), "True"), ((1.0, 2), "1.0"),
                        ((1, "2"), "'2'"), ("12", "'1'")]:
        assert _message(build, pair) == f"{what} must contain integers, got {shown}"
    assert build((_Rank.ONE, _Rank.TWO))
    assert build(iter([1, 2])) == build((1, 2))  # any iterable of two integers


@pytest.mark.parametrize("build, message", [
    (lambda: GeneralizedPattern((1, 2), 5), "blocks must be a sequence of pairs, got 5"),
    (lambda: Graph(3, 5), "edges must be a sequence of pairs, got 5"),
    (lambda: FoFormula(2, 5, (), ()), "order literals must be a sequence of pairs, got 5"),
    (lambda: MultisetHalves((1,), (5,)), "bar block must be a sequence of integers, got 5"),
    (lambda: MultisetHalves((1,), 5), "bar half must be a sequence of blocks, got 5"),
], ids=["pattern blocks", "graph edges", "fo literals", "bar block", "bar half"])
def test_a_non_iterable_collection_is_refused_by_name(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_graph_validation():
    g = Graph(3, frozenset([(2, 1), (1, 3)]))
    assert g.edges == frozenset([(1, 2), (1, 3)])
    assert g.m == 2
    assert g.has_edge(2, 1) and not g.has_edge(2, 3)
    assert g.non_edges() == ((2, 3),)
    with pytest.raises(ValidationError, match=r"self-loop"):
        Graph(3, frozenset([(2, 2)]))
    with pytest.raises(ValidationError, match=r"out of range"):
        Graph(3, frozenset([(1, 4)]))
    with pytest.raises(ValidationError, match=r"duplicate edge"):
        Graph(3, [(1, 2), (2, 1)])


def test_types_are_immutable_and_hashable():
    p = Permutation((2, 1))
    with pytest.raises(AttributeError):
        p.values = (1, 2)
    assert {p: 1}[Permutation((2, 1))] == 1
    blocked = ((1, 2),)
    assert hash(GeneralizedPattern((1, 2), blocked)) == hash(GeneralizedPattern((1, 2), blocked))


def test_complement_keeps_blocks_and_is_an_involution():
    p = GeneralizedPattern((3, 1, 2), ((1, 2),))
    c = p.complement()
    assert c.values == (1, 3, 2)
    assert c.blocks == p.blocks
    assert c.complement() == p
    t = Permutation((5, 3, 1, 4, 2))
    assert t.complement().values == (1, 3, 5, 2, 4)
    assert t.complement().complement() == t


def test_constructor_fuzzing_rejects_corrupted_permutations():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        corrupted = list(values)
        kind = rng.choice(["dup", "range", "zero"])
        i = rng.randrange(n)
        if kind == "dup" and n >= 2:
            corrupted[i] = corrupted[(i + 1) % n]
        elif kind == "range":
            corrupted[i] = n + rng.randint(1, 5)
        else:
            corrupted[i] = 0
        with pytest.raises(ValidationError):
            Permutation(tuple(corrupted))


@given(st.permutations(list(range(1, 9))))
def test_any_rearrangement_of_1_to_n_is_accepted(values):
    assert Permutation(tuple(values)).n == 8


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=8))
def test_constructor_accepts_exactly_bijections(values):
    is_bijection = sorted(values) == list(range(1, len(values) + 1))
    if is_bijection:
        assert Permutation(tuple(values)).values == tuple(values)
    else:
        with pytest.raises(ValidationError):
            Permutation(tuple(values))


def test_the_budget_check_admits_the_budget_itself_and_refuses_one_more():
    _check_budget(DEFAULT_BUDGET, "items")
    _check_budget(5, "items", budget=5)
    with pytest.raises(BudgetExceededError) as err:
        _check_budget(6, "items", budget=5)
    assert str(err.value) == "items = 6 exceeds budget 5"
    with pytest.raises(BudgetExceededError, match="exceeds budget 100000000$"):
        _check_budget(DEFAULT_BUDGET + 1, "items")


def test_a_count_too_long_to_print_is_refused_as_a_bound():
    assert _sum_while_shown(range(5)) == 10
    assert _sum_while_shown(repeat(10**4299)) == 10**4300  # stops there
    shown = 10**4300 - 1  # 4,300 digits, str()'s limit
    with pytest.raises(BudgetExceededError) as err:
        _check_budget(shown, "items")
    assert str(err.value) == f"items = {shown} exceeds budget 100000000"
    for count in (10**4300, 3**100_000):
        with pytest.raises(BudgetExceededError) as err:
            _check_budget(count, "items")
        assert str(err.value) == "items = at least 10^4300 exceeds budget 100000000"
