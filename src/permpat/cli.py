"""Command-line interface.

Four subcommands: ``match`` decides/counts/enumerates matchings, ``reduce``
turns a graph file into a pattern/text instance, ``encode-fo`` exports the
first-order form of an instance, and ``verify`` runs the property suites.
``reduce`` writes its instance, and under ``--trace`` every stage of
it, as it makes it from closed-form ranks, holding one byte per text value.

Exit codes: 0 affirmative / all checks passed, 1 negative result or a
refuted property (with counterexample), 2 usage error, 3 parse or
validation error, 4 resource budget exceeded, 70 internal error (a
fault in permpat itself, reported on stderr without a traceback), 141
standard output closed by its reader before everything was written.

Pattern and text arguments are taken inline; an argument starting with
'@' names a file to read instead, refused past 10^8 characters.  The
brute-force budget may also be set through the PERMPAT_BUDGET environment
variable.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call; PERMPAT_BUDGET is read again on each call.
A call whose first argument names a subcommand is parsed once, by that
subcommand's parser.  The whole tree parses the call only when there is
no such first argument or arguments are left over, so that the top-level
parser reports those errors as before.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from contextlib import suppress
from functools import cache
from itertools import islice, repeat, takewhile
from typing import Callable, Iterable, Iterator

from .core import DEFAULT_BUDGET, BudgetExceededError, ValidationError, _check_budget
from .folog import _instance_lines, encode_formula, model_check
from .matcher import ENGINES, Mode, match
from .reduction import KRangeError, _closed_form, _refuse, _stage1
from .textio import ParseError, are_int_tokens, parse_graph, parse_pattern, parse_permutation

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


def _file(name: str) -> str:
    if "\0" in name:  # open() would raise ValueError, not OSError
        raise ParseError(f"file name {name!r} holds a NUL byte")
    return name


def _read_file(name: str) -> str:
    """A file's text, refused through the budget when it runs past
    DEFAULT_BUDGET characters, at most one more of which is read."""
    with open(_file(name), encoding="utf-8") as handle:
        text = handle.read(1 << 20)  # a 10^8 request allocates 10^8 bytes each call
        if len(text) == 1 << 20:
            text += handle.read(DEFAULT_BUDGET + 1 - len(text))
    _check_budget(len(text), f"characters read from {name}")
    return text


def _read_arg(arg: str) -> str:
    return _read_file(arg[1:]) if arg.startswith("@") else arg


class _FromEnv(str):
    """The --budget default.  argparse runs a str default through the
    option's type, so ``_budget`` meets it on each match call given no
    --budget, reads PERMPAT_BUDGET then, and a malformed value is reported
    by the match subparser, as a malformed --budget is."""


def _budget(text: str) -> int:
    if isinstance(text, _FromEnv):
        text = os.environ.get("PERMPAT_BUDGET") or str(DEFAULT_BUDGET)
    if not are_int_tokens(text):
        raise argparse.ArgumentTypeError(
            f"budget must be a non-negative integer, got {text!r} "
            "(from --budget or PERMPAT_BUDGET)"
        )
    return int(text)


def _cmd_match(args: argparse.Namespace) -> int:
    pattern = parse_pattern(_read_arg(args.pattern))
    text = parse_permutation(_read_arg(args.text))
    mode = Mode.COUNT if args.count else Mode.ENUMERATE_ALL if args.all else Mode.DECIDE
    # every embedding has k positions: one format string serves the query
    line = "(" + ",".join(["%d"] * pattern.k) + ")"
    if args.engine != "fo":
        result = match(pattern, text, mode, args.engine, args.budget)
    elif mode is not Mode.DECIDE:
        print("error: the fo engine only decides; drop --count/--all", file=sys.stderr)
        return EXIT_USAGE
    else:  # the model checker shares no code with the engines
        result = model_check(text, encode_formula(pattern))

    if mode is Mode.COUNT:
        print(result)
    elif mode is Mode.DECIDE:
        print("MATCH " + line % result if result else "NO MATCH")
    else:  # each embedding is written as the search finds it, one call a line
        write, each, last = sys.stdout.write, line + "\n", None
        for last in result:
            write(each % last)
        result = last
    return EXIT_OK if result else EXIT_NEGATIVE


def _line(write: Callable[[str], object], head: str,
          batches: Iterable[tuple[int, list[int]]], brackets: bool) -> None:
    """Write head, then the values of ``reduction._closed_form``-shaped
    batches space separated, units of width 3 and 4 bracketed when brackets
    is set, then a newline: a write per batch, so no line is held whole."""
    write(head)
    space = ""
    for width, values in batches:
        if brackets and width > 1:
            unit = "[" + " ".join(["%d"] * width) + "]"
            write(space + " ".join([unit] * (len(values) // width)) % tuple(values))
        else:
            write(space + " ".join(map(str, values)))
        space = " "
    write("\n")


def _checked(batches: Iterator[tuple[int, list[int]]], name: str, l: int,
             n: int) -> Iterator[tuple[int, list[int]]]:
    """One side of the instance on l vertices as it passes, proven to hold 2l
    dot values, a separator of 4, n - 2l - 4 bar values and a permutation of
    1..n (a mark per value); a failure is permpat's fault: exit 70."""
    marks, found = bytearray(n + 1), dict.fromkeys((1, 4, 3), 0)
    for width, values in batches:
        if min(values) < 1 or max(values) > n:
            raise RuntimeError(f"{name}: a value outside 1..{n}")
        deque(map(marks.__setitem__, values, repeat(1)), 0)  # marks[v] = 1, in C
        found[width] += len(values)
        yield width, values
    expected = {1: 2 * l, 4: 4, 3: n - 2 * l - 4}
    if found != expected:
        raise RuntimeError(f"{name}: {found} values in units of width 1, 4 and 3, "
                           f"expected {expected}")
    if marks.count(1) != n:
        raise RuntimeError(f"{name}: a repeated value, so not a permutation of 1..{n}")


def _write_trace(write: Callable[[str], object], sides: list, sizes: list[int]) -> None:
    """The audit dump, every line from closed forms: stage 1 from
    ``_stage1``, stage 2 as stage 3 without its separator (which lies above
    every stage-2 value), stage 3 as the pattern and text files' lines."""
    for stage, form in (("stage1", _stage1), ("stage2", _closed_form)):
        write(f"[{stage}]\n")
        for name, l, edges, _ in sides:
            _line(write, f"{name}.dot: ", takewhile(lambda b: b[0] == 1, form(l, edges)), True)
            _line(write, f"{name}.bar: ", (b for b in form(l, edges) if b[0] == 3), True)
    write("[stage3]\n")
    for name, l, edges, brackets in sides:
        _line(write, f"{name}: ", _closed_form(l, edges), brackets)
    write("[parameters]\nk: %d\nl: %d\npattern_length: %d\ntext_length: %d\n"
          % (sides[0][1], sides[1][1], *sizes))


def _cmd_reduce(args: argparse.Namespace) -> int:
    prefix = _file(args.output)  # refused before the instance is built
    graph, file_k = parse_graph(_read_file(args.graph))
    k = args.k if args.k is not None else file_k
    if k is None:
        print("error: no k given (neither -k nor a 'k' line in the graph file)",
              file=sys.stderr)
        return EXIT_USAGE
    _refuse(graph, k)
    # the pattern side is the text side of the edgeless graph on k vertices
    sides = [("pattern", k, frozenset(), True), ("text", graph.l, graph.edges, False)]
    sizes = [2 * l + 3 * (l * (l - 1) // 2 - len(edges)) + 4 for _, l, edges, _ in sides]
    opened = []
    try:  # written as made, one byte of marks per value; no file outlives a fault
        for (name, l, edges, brackets), n in zip(sides, sizes):
            with open(f"{prefix}.{name}", "w", encoding="utf-8") as handle:
                opened.append(handle.name)
                _line(handle.write, "", _checked(_closed_form(l, edges), name, l, n), brackets)
        if args.trace:
            with open(prefix + ".trace", "w", encoding="utf-8") as handle:
                opened.append(handle.name)
                _write_trace(handle.write, sides, sizes)
    except BaseException:
        for name in opened:
            with suppress(OSError):
                os.remove(name)
        raise
    print(f"|P| = {sizes[0]}\n|T| = {sizes[1]}")
    return EXIT_OK


def _cmd_encode_fo(args: argparse.Namespace) -> int:
    pattern = parse_pattern(_read_arg(args.pattern))
    text = parse_permutation(_read_arg(args.text))
    lines = _instance_lines(text, encode_formula(pattern))  # refuses before the file opens
    with open(_file(args.output), "w", encoding="utf-8") as handle:
        # lines go out as they are made, a batch per write call: one call
        # per line would cost more than making the line
        while batch := list(islice(lines, 512)):
            handle.write("\n".join(batch) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1 or args.max_k < 1 or args.max_l < 1 or args.samples < 0:
        print("error: contradictory bounds (all maxima must be >= 1, samples >= 0)",
              file=sys.stderr)
        return EXIT_USAGE
    from .verify import run_suites  # here, so that no other command pays its import

    results = run_suites(
        suite=args.suite,
        max_n=args.max_n,
        max_k=args.max_k,
        max_l=args.max_l,
        samples=args.samples,
        seed=args.seed,
    )
    for r in results:  # a check fails exactly when it holds a counterexample
        print(f"ok {r.detail}" if r.ok
              else f"FAIL {r.name}: {r.detail}\n  counterexample {r.counterexample}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_NEGATIVE


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Generalized permutation pattern matching toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)  # subcommand name -> its parser, for main

    p_match = sub.add_parser("match", help="decide/count/enumerate matchings")
    p_match.add_argument("-p", "--pattern", required=True,
                         help="pattern, inline or @file (bracket or dash syntax)")
    p_match.add_argument("-t", "--text", required=True, help="text permutation, inline or @file")
    group = p_match.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the exact matching count")
    group.add_argument("--all", action="store_true",
                       help="print every embedding, lexicographically")
    p_match.add_argument("--engine", choices=[*ENGINES, "fo"], default="auto")
    p_match.add_argument("--budget", type=_budget, default=_FromEnv(),
                         help="candidate budget for the brute engine "
                              "(default: $PERMPAT_BUDGET, else 10^8)")
    p_match.set_defaults(func=_cmd_match)

    p_reduce = sub.add_parser("reduce", help="build a matching instance from a graph")
    p_reduce.add_argument("graph", help="graph file ('p <l> <m>' header format)")
    p_reduce.add_argument("-k", type=int, default=None,
                          help="independent set size (default: the file's k line)")
    p_reduce.add_argument("-o", "--output", required=True,
                          help="output prefix for .pattern/.text[/.trace]")
    p_reduce.add_argument("--trace", action="store_true", help="also write the stage trace")
    p_reduce.set_defaults(func=_cmd_reduce)

    p_fo = sub.add_parser("encode-fo", help="export the first-order form of an instance")
    p_fo.add_argument("-p", "--pattern", required=True)
    p_fo.add_argument("-t", "--text", required=True)
    p_fo.add_argument("-o", "--output", required=True)
    p_fo.set_defaults(func=_cmd_encode_fo)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("--suite", choices=["engines", "reduction", "fo", "lis", "all"],
                          default="all")
    p_verify.add_argument("--max-n", type=int, default=6, dest="max_n")
    p_verify.add_argument("--max-k", type=int, default=4, dest="max_k")
    p_verify.add_argument("--max-l", type=int, default=6, dest="max_l")
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # the whole tree parses only to report what the subcommand's parser cannot
    command = parser.get_default("commands").get(argv[0]) if argv else None
    args, extra = command.parse_known_args(argv[1:]) if command else (None, None)
    if args is None or extra:
        args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here rather than at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so that the flush at interpreter exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # a bug, never to be mistaken for an answer
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
