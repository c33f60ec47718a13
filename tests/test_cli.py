import argparse
import functools
import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import permpat
from permpat import cli, core, matcher, verify
from permpat.cli import EXIT_INTERNAL, main
from permpat.folog import parse_instance
from permpat.matcher import is_valid_embedding, iter_embeddings
from permpat.textio import parse_pattern, parse_permutation

SIX_VERTEX_GRAPH_TEXT = "p 6 7\nk 3\n1 3\n1 4\n1 5\n2 6\n3 4\n3 6\n5 6\n"


@pytest.fixture(autouse=True)
def child_processes_import_this_permpat(monkeypatch):
    """A `python -m permpat` child imports the package under test, whether it
    is installed or found through pytest's pythonpath setting."""
    src = str(Path(permpat.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_decide_reports_witness(capsys):
    code, out, _ = run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")
    assert code == 0
    assert out == "MATCH (1,2,4)\n"


def test_match_decide_no_match(capsys):
    code, out, _ = run(capsys, "match", "-p", "[3 1 2]", "-t", "53142")
    assert code == 1
    assert out == "NO MATCH\n"


def test_match_count(capsys):
    code, out, _ = run(capsys, "match", "-p", "3 1 2", "-t", "53142", "--count")
    assert code == 0
    assert out == "4\n"
    code, out, _ = run(capsys, "match", "-p", "1 2 3", "-t", "53142", "--count")
    assert code == 1
    assert out == "0\n"


def test_match_all(capsys):
    code, out, _ = run(capsys, "match", "-p", "[3 1] 2", "-t", "53142", "--all")
    assert code == 0
    assert out == "(1,2,4)\n(2,3,5)\n"


@pytest.mark.parametrize("engine", matcher.ENGINES)
def test_match_all_without_an_embedding_prints_nothing_and_exits_1(capsys, engine):
    assert run(capsys, "match", "-p", "[3 1 2]", "-t", "53142", "--all",
               "--engine", engine) == (1, "", "")


def test_match_prints_one_position_embeddings_without_a_trailing_comma(capsys):
    assert run(capsys, "match", "-p", "1", "-t", "2 1", "--all") == (0, "(1)\n(2)\n", "")
    for engine in ["auto", "brute", "backtrack", "fo"]:
        assert run(capsys, "match", "-p", "1", "-t", "2 1", "--engine", engine) == (
            0, "MATCH (1)\n", "")


def test_match_all_prints_the_same_embeddings_under_both_engines(capsys):
    pattern, text = "[3 1] 4 [2 5]", "6 2 9 4 1 8 3 11 10 7 5 12"
    p, t = parse_pattern(pattern), parse_permutation(text)
    expected = "".join(
        "(" + ",".join(map(str, combo)) + ")\n"
        for combo in itertools.combinations(range(1, t.n + 1), p.k)
        if is_valid_embedding(p, t, combo)
    )
    assert expected.count("\n") >= 3
    for engine in ["brute", "backtrack"]:
        assert run(capsys, "match", "-p", pattern, "-t", text, "--all",
                   "--engine", engine) == (0, expected, "")


def test_match_does_not_import_the_verify_suites():
    code = ("import sys; from permpat.cli import main; main(['match', '-p', '1', '-t', '1']); "
            "print('permpat.verify' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "MATCH (1)\nFalse\n", "")


def test_match_engines_agree(capsys):
    outputs = set()
    for engine in ["auto", "brute", "backtrack", "fo"]:
        code, out, _ = run(capsys, "match", "-p", "3 1 2", "-t", "53142",
                           "--engine", engine)
        assert code == 0
        outputs.add(out)
    assert outputs == {"MATCH (1,2,4)\n"}


def test_match_dash_syntax(capsys):
    code, out, _ = run(capsys, "match", "-p", "31-2", "-t", "53142")
    assert code == 0
    assert out == "MATCH (1,2,4)\n"


def test_match_parse_error_exits_3(capsys):
    code, _, err = run(capsys, "match", "-p", "[3 1 2", "-t", "53142")
    assert code == 3
    assert "unbalanced" in err
    code, _, err = run(capsys, "match", "-p", "1 2", "-t", "1 1 2")
    assert code == 3
    assert "duplicate" in err


def test_non_ascii_digits_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "match", "-p", "1 2", "-t", "2 ² 1")
    assert (code, out) == (3, "")
    assert "expected an integer" in err
    graph = tmp_path / "graph.txt"
    graph.write_text("p 2 1\n1 ²\n", encoding="utf-8")
    code, _, err = run(capsys, "reduce", str(graph), "-k", "1", "-o", str(tmp_path / "x"))
    assert code == 3
    assert "line 2" in err


@pytest.mark.parametrize("argv, graph", [
    (["match", "-p", "1 2", "-t", "1 {huge}"], None),
    (["match", "-p", "[1 {huge}]", "-t", "1 2"], None),
    (["reduce", "{graph}", "-k", "1", "-o", "{out}"], "p {huge} 0\n"),
    (["reduce", "{graph}", "-k", "1", "-o", "{out}"], "p 2 1\n1 {huge}\n"),
], ids=["text", "pattern", "graph-header", "graph-edge"])
def test_an_integer_past_the_digit_limit_exits_3(capsys, tmp_path, int_max_str_digits,
                                                  argv, graph):
    int_max_str_digits(4300)
    huge = "9" * 4301
    if graph is not None:
        (tmp_path / "graph.txt").write_text(graph.format(huge=huge), encoding="utf-8")
    argv = [a.format(huge=huge, graph=tmp_path / "graph.txt", out=tmp_path / "x") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "expected an integer" in err


def test_match_budget_exceeded_exits_4(capsys):
    text = " ".join(str(v) for v in range(1, 41))
    pattern = " ".join(str(v) for v in range(1, 11))
    code, _, err = run(capsys, "match", "-p", pattern, "-t", text,
                       "--engine", "brute", "--budget", "1000")
    assert code == 4
    assert err == "error: C(40, 10) = 847660528 exceeds budget 1000\n"


def test_match_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PERMPAT_BUDGET", "2")
    code, _, err = run(capsys, "match", "-p", "1 2", "-t", "1 2 3", "--engine", "brute")
    assert code == 4
    monkeypatch.setenv("PERMPAT_BUDGET", "100")
    code, out, _ = run(capsys, "match", "-p", "1 2", "-t", "1 2 3", "--engine", "brute")
    assert code == 0


def test_match_budget_rejects_negative_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "-p", "1 2", "-t", "1 2 3", "--engine", "brute", "--budget", "-5"])
    assert exc.value.code == 2
    assert "'-5'" in capsys.readouterr().err


def _malformed_env_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "-p", "1 2", "-t", "1 2 3", "--engine", "brute"])
    return exc.value.code, capsys.readouterr().err


def test_match_budget_rejects_malformed_env_var(capsys, monkeypatch):
    main(["match", "-p", "1 2", "-t", "1 2 3"])  # the parser is built by now
    monkeypatch.setenv("PERMPAT_BUDGET", "1e3")
    code, err = _malformed_env_usage_error(capsys)
    assert code == 2
    assert "'1e3'" in err
    assert err.startswith("usage: permpat match ")  # reported by the match subparser


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):  # argparse names its own class, so wrap, not subclass
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
    assert run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")[:2] == (0, "MATCH (1,2,4)\n")
    assert len(built) == 5  # permpat and its four subcommands
    assert run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")[:2] == (0, "MATCH (1,2,4)\n")
    assert run(capsys, "verify", "--suite", "lis", "--samples", "2")[0] == 0
    assert len(built) == 5


def _whole_tree(argv):
    """What main did before it parsed with the subcommand's parser alone:
    the whole tree parses every call."""
    args = cli._build_parser().parse_args(argv)
    return args.func(args)


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["bogus", "-p", "1"],
    ["match", "-h"],
    ["match", "-p", "1 2"],
    ["match", "-p", "1", "-t", "1", "--engine", "bogus"],
    ["match", "-p", "[3 1] 2", "-t", "53142", "--eng", "brute"],
    ["match", "-p", "1", "-t", "1", "--bogus"],
    ["match", "-p", "1", "-t", "1", "stray"],
    ["reduce", "graph.txt"],
], ids=["empty", "help", "unknown", "match-help", "no-text", "bad-engine", "abbreviated",
        "extra-option", "stray", "reduce-no-output"])
def test_main_answers_as_the_whole_parser_tree_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    outcomes = []
    for call in (main, _whole_tree):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


def test_a_subcommand_call_is_parsed_once(capsys, monkeypatch):
    parser = cli._build_parser()
    whole = []

    def counted(argv=None, namespace=None):
        whole.append(argv)
        return argparse.ArgumentParser.parse_args(parser, argv, namespace)

    monkeypatch.setattr(parser, "parse_args", counted)
    assert run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")[:2] == (0, "MATCH (1,2,4)\n")
    assert whole == []
    with pytest.raises(SystemExit):
        main(["match", "-p", "1", "-t", "1", "--bogus"])
    assert whole == [["match", "-p", "1", "-t", "1", "--bogus"]]
    assert "permpat: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_an_explicit_budget_wins_over_a_malformed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PERMPAT_BUDGET", "1e3")
    code, out, err = run(capsys, "match", "-p", "1 2", "-t", "1 2 3",
                         "--engine", "brute", "--budget", "100")
    assert (code, out, err) == (0, "MATCH (1,2)\n", "")


def test_the_budget_env_var_binds_only_match(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PERMPAT_BUDGET", "1e3")
    graph = tmp_path / "graph.txt"
    graph.write_text(SIX_VERTEX_GRAPH_TEXT)
    code, out, err = run(capsys, "reduce", str(graph), "-o", str(tmp_path / "out"))
    assert (code, out, err) == (0, "|P| = 19\n|T| = 40\n", "")
    code, _, err = run(capsys, "encode-fo", "-p", "1 2", "-t", "12", "-o", str(tmp_path / "x"))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "verify", "--suite", "lis", "--samples", "20")
    assert (code, err) == (0, "")
    assert out.startswith("ok lis_length")


def test_a_fresh_process_reports_usage_errors_like_a_reused_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    proc = subprocess.run([sys.executable, "-m", "permpat", "match", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: permpat match ")
    main(["match", "-p", "1 2", "-t", "1 2 3"])
    monkeypatch.setenv("PERMPAT_BUDGET", "1e3")
    expected = _malformed_env_usage_error(capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "permpat", "match", "-p", "1 2", "-t", "1 2 3",
         "--engine", "brute"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == expected
    assert proc.stdout == ""


def test_engine_output_is_not_revalidated(capsys, monkeypatch):
    p, t = parse_pattern("[3 1] 2"), parse_permutation("53142")
    checked = []
    as_int_tuple = core._as_int_tuple

    def counted(values, what):
        checked.append(what)
        return as_int_tuple(values, what)

    monkeypatch.setattr(core, "_as_int_tuple", counted)
    found = list(iter_embeddings(p, t))
    assert checked == []
    assert found == [(1, 2, 4), (2, 3, 5)]
    assert hash(found[0]) == hash((1, 2, 4))
    checked.clear()
    assert run(capsys, "match", "-p", "[3 1] 2", "-t", "53142", "--all")[:2] == (
        0, "(1,2,4)\n(2,3,5)\n")
    assert run(capsys, "match", "-p", "1 2 3", "-t", "1 3 2 4")[:2] == (0, "MATCH (1,2,4)\n")
    assert checked == ["pattern", "permutation"] * 2  # parsing the arguments only


def test_match_auto_searches_once(capsys, monkeypatch):
    calls = []
    search = matcher._iter_backtracking

    def counted(pattern, text):
        calls.append(pattern)
        return search(pattern, text)

    monkeypatch.setattr(matcher, "_iter_backtracking", counted)
    code, out, _ = run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")
    assert (code, out) == (0, "MATCH (1,2,4)\n")
    assert len(calls) == 1


def test_match_deep_identity_pattern(capsys):
    pattern = " ".join(str(v) for v in range(1, 1001))
    text = " ".join(str(v) for v in range(1, 1011))
    code, out, _ = run(capsys, "match", "-p", pattern, "-t", text)
    assert code == 0
    assert out == "MATCH (" + ",".join(str(v) for v in range(1, 1001)) + ")\n"


def test_match_deep_blocked_decreasing_pattern_with_backtrack_engine(capsys):
    # 1500 decreasing values, every third pair blocked; the text is decreasing
    # except for three swapped neighbours, so the witness has to skip ahead
    k, n = 1500, 1510
    tokens = [str(v) for v in range(k, 0, -1)]
    for i in range(0, k - 1, 3):
        tokens[i], tokens[i + 1] = "[" + tokens[i], tokens[i + 1] + "]"
    values = list(range(n, 0, -1))
    for i in (10, 700, 1400):
        values[i], values[i + 1] = values[i + 1], values[i]
    pattern = parse_pattern(" ".join(tokens))
    text = parse_permutation(" ".join(map(str, values)))
    code, out, _ = run(capsys, "match", "-p", " ".join(tokens),
                       "-t", " ".join(map(str, values)), "--engine", "backtrack")
    assert code == 0
    assert out.startswith("MATCH (")
    witness = tuple(int(v) for v in out.strip()[len("MATCH ("):-1].split(","))
    assert is_valid_embedding(pattern, text, witness)
    assert witness[:10] == tuple(range(1, 11))


def test_match_fo_engine_deep_pattern(capsys):
    pattern = " ".join(str(v) for v in range(1000, 0, -1))
    text = " ".join(str(v) for v in range(1005, 0, -1))
    code, out, _ = run(capsys, "match", "-p", pattern, "-t", text, "--engine", "fo")
    assert code == 0
    assert out == "MATCH (" + ",".join(str(v) for v in range(1, 1001)) + ")\n"


def test_internal_error_exits_70_without_traceback(capsys, monkeypatch):
    def broken(pattern, text):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(matcher, "_iter_backtracking", broken)
    code, out, err = run(capsys, "match", "-p", "[3 1] 2", "-t", "53142")
    assert code == EXIT_INTERNAL == 70
    assert out == ""
    assert err.startswith("error: internal: ") and "engine fault" in err
    assert "Traceback" not in err


def test_match_all_prints_each_embedding_as_it_is_found(capsys, monkeypatch):
    def one_then_fault(pattern, text):
        yield (1, 2)  # engines yield 1-based positions
        raise RuntimeError("engine fault")

    monkeypatch.setattr(matcher, "_iter_backtracking", one_then_fault)
    code, out, err = run(capsys, "match", "-p", "1 2", "-t", "1 2 3", "--all")
    assert code == EXIT_INTERNAL
    assert out == "(1,2)\n"
    assert "engine fault" in err


def test_match_all_over_budget_prints_nothing_and_exits_4(capsys):
    text = " ".join(str(v) for v in range(1, 41))
    pattern = " ".join(str(v) for v in range(1, 11))
    code, out, err = run(capsys, "match", "-p", pattern, "-t", text,
                         "--engine", "brute", "--budget", "1000", "--all")
    assert (code, out) == (4, "")
    assert "budget" in err


def test_match_all_into_closed_pipe_exits_141():
    text = " ".join(str(v) for v in range(1, 400))
    proc = subprocess.Popen(
        [sys.executable, "-m", "permpat", "match", "-p", "1 2", "-t", text, "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"(1,2)\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_match_fo_engine_rejects_count(capsys):
    code, _, err = run(capsys, "match", "-p", "1 2", "-t", "1 2",
                       "--engine", "fo", "--count")
    assert code == 2
    assert "fo engine" in err


def test_match_file_arguments(capsys, tmp_path):
    pat = tmp_path / "pattern.txt"
    pat.write_text("[3 1] 2\n")
    txt = tmp_path / "text.txt"
    txt.write_text("5 3 1 4 2\n")
    code, out, _ = run(capsys, "match", "-p", f"@{pat}", "-t", f"@{txt}")
    assert code == 0
    assert out == "MATCH (1,2,4)\n"
    code, _, err = run(capsys, "match", "-p", f"@{tmp_path}/absent", "-t", "1 2")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["match", "-p", "@{bad}", "-t", "53142"],
    ["reduce", "{bad}", "-o", "{out}"],
    ["encode-fo", "-p", "1 2", "-t", "@{bad}", "-o", "{out}"],
], ids=["match", "reduce", "encode-fo"])
def test_non_utf8_input_exits_3(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe 1 2\n")
    argv = [a.format(bad=bad, out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "internal" not in err
    assert "can't decode" in err


@pytest.mark.parametrize("argv", [
    ["match", "-p", "@a\0b", "-t", "1 2"],
    ["reduce", "a\0b", "-o", "x"],
    ["reduce", "{graph}", "-o", "a\0b"],
    ["encode-fo", "-p", "1", "-t", "1", "-o", "a\0b"],
], ids=["match", "reduce", "reduce-output", "encode-fo"])
def test_a_file_name_holding_a_nul_byte_exits_3(capsys, tmp_path, monkeypatch, argv):
    graph = tmp_path / "graph.txt"
    graph.write_text(SIX_VERTEX_GRAPH_TEXT)
    # the output name is refused before the instance is built
    monkeypatch.setattr(cli, "reduce", lambda *_: pytest.fail("reduce() was called"))
    code, out, err = run(capsys, *(a.format(graph=graph) for a in argv))
    assert (code, out) == (3, "")
    assert err == "error: file name 'a\\x00b' holds a NUL byte\n"


def test_reduce_writes_instance_files(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(SIX_VERTEX_GRAPH_TEXT)
    prefix = str(tmp_path / "out")
    code, out, _ = run(capsys, "reduce", str(graph), "-o", prefix, "--trace")
    assert code == 0
    assert out == "|P| = 19\n|T| = 40\n"
    pattern = parse_pattern((tmp_path / "out.pattern").read_text())
    text = parse_permutation((tmp_path / "out.text").read_text())
    assert pattern.k == 19 and text.n == 40
    trace_text = (tmp_path / "out.trace").read_text()
    assert "[stage1]" in trace_text and "[stage3]" in trace_text
    # the written instance matches: drive it back through the matcher
    code, out, _ = run(capsys, "match", "-p", f"@{prefix}.pattern", "-t", f"@{prefix}.text")
    assert code == 0
    assert out.startswith("MATCH ")


def test_reduce_k_flag_overrides_file(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text(SIX_VERTEX_GRAPH_TEXT)
    code, out, _ = run(capsys, "reduce", str(graph), "-k", "2", "-o", str(tmp_path / "two"))
    assert code == 0
    assert out.splitlines()[0] == "|P| = 11"


def test_reduce_k_out_of_range_exits_2(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("p 2 0\n")
    code, _, err = run(capsys, "reduce", str(graph), "-k", "0", "-o", str(tmp_path / "x"))
    assert code == 2
    code, _, err = run(capsys, "reduce", str(graph), "-k", "5", "-o", str(tmp_path / "x"))
    assert code == 2
    code, _, err = run(capsys, "reduce", str(graph), "-o", str(tmp_path / "x"))
    assert code == 2
    assert "no k" in err


def test_reduce_bad_graph_exits_3(capsys, tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("p 3 1\n2 2\n")
    code, _, err = run(capsys, "reduce", str(graph), "-k", "1", "-o", str(tmp_path / "x"))
    assert code == 3
    assert "self-loop" in err


def test_reduce_refuses_a_text_over_the_budget_before_building_it(capsys, monkeypatch,
                                                                 tmp_path):
    def not_before_the_budget_check(self):
        raise AssertionError("walked the non-edges before the budget check")

    monkeypatch.setattr(core.Graph, "non_edges", not_before_the_budget_check)
    graph = tmp_path / "graph.txt"
    graph.write_text("p 20000 0\nk 2\n")  # |T| = 2l + 3·l(l-1)/2 + 4
    code, out, err = run(capsys, "reduce", str(graph), "-o", str(tmp_path / "out"), "--trace")
    assert (code, out) == (4, "")
    assert err == "error: |T| = 600010004 exceeds budget 100000000\n"
    assert [f.name for f in tmp_path.iterdir()] == ["graph.txt"]


def _at_most_one_gib():
    # a refusal that fails to fire then ends in MemoryError, within this process
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_encode_fo_refuses_an_instance_over_the_budget(tmp_path):
    text = tmp_path / "text.txt"
    text.write_text(" ".join(map(str, range(1, 14_144))))
    out_file = tmp_path / "big.fo"
    proc = subprocess.run(
        [sys.executable, "-m", "permpat", "encode-fo", "-p", "1 2", "-t", f"@{text}",
         "-o", str(out_file)],
        capture_output=True, text=True, preexec_fn=_at_most_one_gib,
    )
    assert (proc.returncode, proc.stdout) == (4, "")
    # 1 header + n(n-1)/2 text_less + (n-1) succ + k(k-1)/2 order literals
    assert proc.stderr == "error: fo instance lines = 100019297 exceeds budget 100000000\n"
    assert not out_file.exists()


@pytest.mark.parametrize("command", [["encode-fo"], ["match", "--engine", "fo"]],
                         ids=["encode-fo", "match"])
def test_fo_refuses_order_literals_over_the_budget(tmp_path, command):
    pattern = tmp_path / "pattern.txt"
    pattern.write_text(" ".join(map(str, range(1, 14_144))))
    out_file = tmp_path / "big.fo"
    argv = [*command, "-p", f"@{pattern}", "-t", "1"]
    if command[0] == "encode-fo":
        argv += ["-o", str(out_file)]
    proc = subprocess.run([sys.executable, "-m", "permpat", *argv],
                          capture_output=True, text=True, preexec_fn=_at_most_one_gib)
    assert (proc.returncode, proc.stdout) == (4, "")
    # k(k-1)/2 literals, counted before the first is built
    assert proc.stderr == "error: fo order literals = 100005153 exceeds budget 100000000\n"
    assert not out_file.exists()


def test_encode_fo_writes_instance(capsys, tmp_path):
    out_file = tmp_path / "tiny.fo"
    code, _, _ = run(capsys, "encode-fo", "-p", "1 2", "-t", "12", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text() == "fo 2 2\ntl 1 2\ns 1 2\npos 1 2\n"
    structure, formula = parse_instance(out_file.read_text())
    assert structure.n == 2 and formula.var_count == 2


def test_encode_fo_example_line_count(capsys, tmp_path):
    out_file = tmp_path / "inst.fo"
    code, _, _ = run(capsys, "encode-fo", "-p", "[3 1] 2", "-t", "53142", "-o", str(out_file))
    assert code == 0
    assert len(out_file.read_text().splitlines()) == 19


def test_encode_fo_k_larger_than_n(capsys, tmp_path):
    out_file = tmp_path / "kn.fo"
    code, _, _ = run(capsys, "encode-fo", "-p", "1 2 3", "-t", "1", "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("fo 1 3\n")


def test_verify_small_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "reduction",
                       "--max-l", "4", "--max-k", "2", "--samples", "5")
    assert code == 0
    assert "IS ⟺ GPPM agreed" in out
    assert all(line.startswith("ok") for line in out.splitlines())


def test_verify_lis_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lis", "--samples", "20")
    assert code == 0
    assert out.startswith("ok lis_length >= k and the fast-path witness")
    assert len(out.splitlines()) == 1


def test_verify_contradictory_bounds(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "0")
    assert code == 2
    assert "contradictory" in err


@pytest.mark.parametrize("suite, bound, value, pairs", [
    ("engines", "--max-k", "9", 98_405_981 * 873),  # k <= 9 against the default n <= 6
    ("fo", "--max-n", "11", 221 * 43_954_713),  # the default k <= 4 against n <= 11
], ids=["engines", "fo"])
def test_verify_refuses_exhaustive_bounds_over_the_budget(capsys, monkeypatch,
                                                          suite, bound, value, pairs):
    def not_before_the_budget_check(*args):
        raise AssertionError(f"built cases from {args} before the budget check")

    for builder in ("all_patterns", "all_block_configs", "GeneralizedPattern", "all_texts"):
        monkeypatch.setattr(verify, builder, not_before_the_budget_check)
    code, out, err = run(capsys, "verify", "--suite", suite, bound, value)
    assert code == 4
    assert out == ""
    assert f"exhaustive (pattern, text) pairs = {pairs} exceeds budget 100000000" in err


def test_verify_refuses_reduction_bounds_over_the_budget(capsys, monkeypatch):
    def not_before_the_budget_check(*args):
        raise AssertionError(f"built a graph from {args} before the budget check")

    for builder in ("Graph", "random_graph", "reduce"):
        monkeypatch.setattr(verify, builder, not_before_the_budget_check)
    code, out, err = run(capsys, "verify", "--suite", "reduction", "--max-l", "200",
                         "--samples", "200")
    assert (code, out) == (4, "")
    assert err == "error: reduction suite work = 1070307363032 exceeds budget 100000000\n"


def test_verify_reduction_without_samples_ends_at_four_vertices(capsys):
    at_four = run(capsys, "verify", "--suite", "reduction", "--max-l", "4")
    assert at_four[0] == 0
    assert run(capsys, "verify", "--suite", "reduction", "--samples", "0",
               "--max-l", "1000000000") == at_four


def test_counts_too_long_to_print_are_refused_as_bounds(capsys, tmp_path):
    (tmp_path / "p").write_text(" ".join(map(str, range(1, 7001))))
    (tmp_path / "t").write_text(" ".join(map(str, range(1, 15001))))
    (tmp_path / "g").write_text("p 1" + "0" * 3000 + " 0\nk 1\n")
    over = "= at least 10^4300 exceeds budget 100000000\n"
    for argv, what in [
        (["verify", "--suite", "engines", "--max-n", "3000"], "exhaustive (pattern, text) pairs"),
        (["verify", "--suite", "fo", "--max-k", "2000"], "exhaustive (pattern, text) pairs"),
        (["verify", "--max-n", "1000000000"], "exhaustive (pattern, text) pairs"),
        (["match", "--engine", "brute", "-p", f"@{tmp_path / 'p'}", "-t", f"@{tmp_path / 't'}"],
         "C(15000, 7000)"),
        (["reduce", str(tmp_path / "g"), "-o", str(tmp_path / "out")], "|T|"),
    ]:
        assert run(capsys, *argv) == (4, "", f"error: {what} {over}")


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "fo", "--max-n", "3", "--max-k", "2",
            "--samples", "20", "--seed", "7"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["match", "-p", "1 2"])  # missing -t
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "permpat", "match", "-p", "[3 1] 2", "-t", "53142"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "MATCH (1,2,4)\n"
