"""Seeded fuzz gate: mutated command lines and reader inputs never end in
an internal error.

Each case starts from a valid input and applies one to three edits: insert
an atom, delete a short span, or replace a short span with an atom.  A
command line keeps its subcommand; its other arguments are edited.  The
atoms hold no short run of digits, and no two edits share a field, so no
edit makes a large value: the 4,301-digit atom stays past int()'s digit
limit, which every grammar refuses, and a deletion merges at most a few
digits.  That keeps each case small, since a graph header cannot grow to
thousands of vertices and verify never gets a large bound: verify refuses
more than 10^8 units of work up front, but work just below that still takes
minutes.  Output names are relative, so every file a case writes lands
in the test's own directory.
"""

import contextlib
import io
import random

import pytest

from permpat import cli
from permpat.core import ValidationError
from permpat.folog import encode_formula, export_instance, parse_instance
from permpat.textio import ParseError, parse_graph, parse_pattern, parse_permutation

ATOMS = ["\0", "1" + "0" * 4300, "²", "\x85", "\r\n", "\n", "[", "]", "⟨", "⟩",
         "-", "--", " ", "\t", ",", "#", "@"]

GRAPH = "p 6 7\nk 3\n1 3\n1 4\n1 5\n2 6\n3 4\n3 6\n5 6\n"
FILES = {"pat.txt": "[3 1] 2\n", "text.txt": "6 2 9 4 1 8 3 11 10 7 5 12\n"}

ARGVS = [
    ["match", "-p", "[3 1] 2", "-t", "53142"],
    ["match", "-p", "31-2", "-t", "5 3 1 4 2", "--count"],
    ["match", "-p", "[3 1 2]", "-t", "53142", "--all"],
    ["match", "-p", "⟨1 2⟩ 3", "-t", "1 2 3 4", "--engine", "brute", "--budget", "100"],
    ["match", "-p", "1-2", "-t", "2,1,3", "--engine", "fo"],
    ["match", "-p", "@pat.txt", "-t", "@text.txt", "--engine", "backtrack", "--all"],
    ["match", "-p", "2 [1 3]", "-t", "@text.txt", "--engine", "auto", "--count"],
    ["reduce", "g.txt", "-o", "out", "--trace"],
    ["reduce", "g.txt", "-k", "4", "-o", "out"],
    ["encode-fo", "-p", "[3 1] 2", "-t", "53142", "-o", "out.fo"],
    ["encode-fo", "-p", "@pat.txt", "-t", "@text.txt", "-o", "out.fo"],
    *(["verify", "--suite", suite, "--max-n", "3", "--max-k", "2", "--max-l", "3",
       "--samples", "1", "--seed", "7"] for suite in ("engines", "reduction", "fo", "lis", "all")),
]

FO_INSTANCE = export_instance(parse_permutation("53142"), encode_formula(parse_pattern("[3 1] 2")))

READERS = {
    parse_pattern: (["[3 1] 2", "31-2", "⟨2 1⟩ [4 3]", "1 2 3"], (ParseError, ValidationError)),
    parse_permutation: (["53142", "5 3 1 4 2", "2,1,3", "6 2 9 4 1 8 3 11 10 7 5 12"],
                        (ParseError, ValidationError)),
    parse_graph: ([GRAPH, "p 3 0\n", "# c\np 2 1\r\n1 2\r\n"], ParseError),
    parse_instance: ([FO_INSTANCE], ParseError),
}

CASES = 1500  # per seed


def _mutated(rng, fields):
    """One to three edits, each in a different field drawn in proportion to
    its length: most land in values rather than in option names, and none
    can shorten or split an atom another edit put in."""
    fields = list(fields)
    picks = rng.choices(range(len(fields)), [len(s) + 1 for s in fields], k=rng.randint(1, 3))
    for i in sorted(set(picks)):
        s = fields[i]
        a = rng.randint(0, len(s))
        b = min(len(s), a + rng.randint(1, 3))
        edit = rng.randrange(3)
        if edit == 0:
            fields[i] = s[:a] + rng.choice(ATOMS) + s[a:]
        elif edit == 1:
            fields[i] = s[:a] + s[b:]
        else:
            fields[i] = s[:a] + rng.choice(ATOMS) + s[b:]
    return fields


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def _negative(out):
    return out in ("NO MATCH\n", "0\n", "") or any(
        line.startswith("FAIL ") for line in out.splitlines())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_command_lines_exit_with_a_documented_code(seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PERMPAT_BUDGET", raising=False)
    for name, content in FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    rng = random.Random(seed)
    answered = matches = 0
    for _ in range(CASES):
        base = rng.choice(ARGVS)
        if base[0] == "reduce":  # the graph file is one more field
            *args, graph = _mutated(rng, [*base[1:], GRAPH])
            (tmp_path / "g.txt").write_text(graph, encoding="utf-8", newline="")
        else:
            args = _mutated(rng, base[1:])
        argv = [base[0], *args]
        code, out = _run(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert code != 1 or _negative(out), (argv, out)
        if base[0] == "match":
            matches += 1
            answered += code in (0, 1)
    # most match cases are refused as malformed (about 1 in 13 is answered
    # at these seeds); a gate that only reached the parsers would show here
    assert answered >= matches // 20, (answered, matches)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutated_reader_inputs_raise_only_their_documented_errors(seed):
    rng = random.Random(seed)
    for _ in range(CASES):
        reader = rng.choice(list(READERS))
        inputs, allowed = READERS[reader]
        text = "".join(_mutated(rng, rng.choice(inputs)))  # one field per character
        try:
            reader(text)
        except allowed:
            pass
