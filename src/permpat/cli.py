"""Command-line interface.

Four subcommands: ``match`` decides/counts/enumerates matchings, ``reduce``
turns a graph file into a pattern/text instance, ``encode-fo`` exports the
first-order form of an instance, and ``verify`` runs the property suites.

Exit codes: 0 affirmative / all checks passed, 1 negative result or a
refuted property (with counterexample), 2 usage error, 3 parse or
validation error, 4 resource budget exceeded, 70 internal error (a
fault in permpat itself, reported on stderr without a traceback), 141
standard output closed by its reader before everything was written.

Pattern and text arguments are taken inline; an argument starting with
'@' names a file to read instead.  The brute-force budget may also be set
through the PERMPAT_BUDGET environment variable.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call; PERMPAT_BUDGET is read again on each call.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .core import DEFAULT_BUDGET, BudgetExceededError, ValidationError
from .folog import encode_formula, export_instance, model_check
from .matcher import ENGINES, MatchRequest, Mode, iter_embeddings, match_dispatch
from .reduction import KRangeError, format_trace, reduce
from .textio import (
    ParseError,
    is_ascii_digits,
    parse_graph,
    parse_pattern,
    parse_permutation,
    serialize_pattern,
    serialize_permutation,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process killed by SIGPIPE


def _read_arg(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as handle:
            return handle.read()
    return arg


class _FromEnv(str):
    """The --budget default.  argparse runs a str default through the
    option's type, so ``_budget`` meets it on each match call given no
    --budget, reads PERMPAT_BUDGET then, and a malformed value is reported
    by the match subparser, as a malformed --budget is."""


def _budget(text: str) -> int:
    if isinstance(text, _FromEnv):
        text = os.environ.get("PERMPAT_BUDGET") or str(DEFAULT_BUDGET)
    if not is_ascii_digits(text):
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
    if args.engine != "fo" and mode is Mode.ENUMERATE_ALL:
        result = None  # print each embedding as the search finds it
        for result in iter_embeddings(pattern, text, args.engine, args.budget):
            print(line % result)
    elif args.engine != "fo":
        result = match_dispatch(MatchRequest(pattern, text, mode), args.engine, args.budget)
    elif mode is not Mode.DECIDE:
        print("error: the fo engine only decides; drop --count/--all", file=sys.stderr)
        return EXIT_USAGE
    else:  # the model checker shares no code with the engines
        result = model_check(text, encode_formula(pattern))

    if mode is Mode.COUNT:
        print(result)
    elif mode is Mode.DECIDE:
        print("MATCH " + line % result if result else "NO MATCH")
    return EXIT_OK if result else EXIT_NEGATIVE


def _cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.graph, "r", encoding="utf-8") as handle:
        graph, file_k = parse_graph(handle.read())
    k = args.k if args.k is not None else file_k
    if k is None:
        print("error: no k given (neither -k nor a 'k' line in the graph file)",
              file=sys.stderr)
        return EXIT_USAGE
    trace = reduce(graph, k)
    with open(args.output + ".pattern", "w", encoding="utf-8") as handle:
        handle.write(serialize_pattern(trace.stage3_pattern) + "\n")
    with open(args.output + ".text", "w", encoding="utf-8") as handle:
        handle.write(serialize_permutation(trace.stage3_text) + "\n")
    if args.trace:
        with open(args.output + ".trace", "w", encoding="utf-8") as handle:
            handle.write(format_trace(trace))
    print(f"|P| = {len(trace.stage3_pattern)}")
    print(f"|T| = {len(trace.stage3_text)}")
    return EXIT_OK


def _cmd_encode_fo(args: argparse.Namespace) -> int:
    pattern = parse_pattern(_read_arg(args.pattern))
    text = parse_permutation(_read_arg(args.text))
    payload = export_instance(text, encode_formula(pattern))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(payload + "\n")
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
    failed = False
    for r in results:
        if r.ok:
            print(f"ok {r.detail}")
        else:
            failed = True
            print(f"FAIL {r.name}: {r.detail}")
            if r.counterexample:
                print(f"  counterexample {r.counterexample}")
    return EXIT_NEGATIVE if failed else EXIT_OK


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Generalized permutation pattern matching toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
