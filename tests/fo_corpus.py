"""A golden corpus of ``folog.parse_instance`` outcomes on damaged instances.

Each case is an exported instance (random pattern of 1-4 values, random
text of 1-8 values) with one to three seeded mutations: a line deleted,
duplicated or swapped, a blank line inserted, digits altered, junk or '²'
appended, an unknown line kind, one or two ``tl`` pairs pushed out of
range, or separators or line breaks swapped for tabs, CRLF, U+2028 and the
other breaks ``str.splitlines`` knows.  The outcome is the parse result, or
the exception's type and message.

``fo_parse_corpus.json`` holds the outcomes of the set-based parser that
preceded the table-marking one, and ``test_folog.py`` checks the current
parser against them.  To rebuild it from a source tree:

    PYTHONPATH=<checkout>/src python3 tests/fo_corpus.py > tests/fo_parse_corpus.json
"""

from __future__ import annotations

import json
import random
import sys

CASES = 1000
SEED = 18


def _base(rng: random.Random) -> str:
    from permpat.folog import encode_formula, export_instance
    from permpat.verify import random_pattern, random_permutation

    p = random_pattern(rng, rng.randint(1, 4))
    t = random_permutation(rng, rng.randint(1, 8))
    return export_instance(t, encode_formula(p))


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    how = rng.randrange(13)
    if how == 0 and len(lines) > 1:
        del lines[i]
    elif how == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif how == 2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", " ", "\t"]))
    elif how == 3:
        chars = list(lines[i])
        digits = [j for j, c in enumerate(chars) if c.isdigit()]
        if digits:
            chars[rng.choice(digits)] = rng.choice("0123456789")
        lines[i] = "".join(chars)
    elif how == 4:
        lines[i] += rng.choice([" x", " 7", "²", " ²", "x", " -1"])
    elif how == 5:
        lines[i] = rng.choice(["zz", "TL", "t", "fo", "s1"]) + lines[i][lines[i].find(" "):]
    elif how == 6:  # one or two pairs out of range
        tl = [j for j, line in enumerate(lines) if line.startswith("tl ") and line.count(" ") == 2]
        for j in rng.sample(tl, min(len(tl), rng.randint(1, 2))):
            a, b = lines[j].split()[1:]
            far = str(rng.choice([0, 9, 10, 99, 10**20]))
            lines[j] = f"tl {far} {b}" if rng.random() < 0.5 else f"tl {a} {far}"
    elif how == 7:
        lines.append(rng.choice([ln for ln in lines if ln.startswith("tl ")] or ["tl 9 1"]))
    elif how == 8:
        lines[i] = lines[i].replace(" ", "\t")
    elif how == 9:
        return "\r\n".join(lines)
    elif how == 10:
        return rng.choice([" ", "\x0b", "\x1c", "\x85", "\u2028", "\r"]).join(lines)
    elif how == 11:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = lines[i].replace(" 1", " 2", 1)
    return "\n".join(lines)


def inputs(cases: int = CASES, seed: int = SEED) -> list[str]:
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        text = _base(rng)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        out.append(text)
    return out


def outcome(text: str) -> list:
    """["ok", text values, k, pos, neg, adj] or [exception type, message]."""
    from permpat.folog import parse_instance

    try:
        t, f = parse_instance(text)
    except Exception as exc:  # every failure is part of the outcome
        return [type(exc).__name__, str(exc)]
    return ["ok", list(t.values), f.var_count, sorted(map(list, f.pos_literals)),
            sorted(map(list, f.neg_literals)), sorted(f.adj_literals)]


if __name__ == "__main__":
    cases = [json.dumps([text, outcome(text)]) for text in inputs()]
    sys.stdout.write("[\n" + ",\n".join(cases) + "\n]\n")
