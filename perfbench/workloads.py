"""The three workloads: how each one's operations are generated, run,
checked and split into layers.

A workload is a list of rounds.  Every round holds the same cells (the
same mix of operation kinds and input sizes) with fresh random inputs, so
two runs of the same length attempt the same mix, whatever the seed.
No operation is timed twice on the same inputs in one run.

Each operation runs through the package's public functions and keeps its
raw output.  ``check`` compares that output with ``oracle`` after the
timed part of the run.  ``decompose`` (traced runs only) times the same
inputs once more through each layer's public function, one span per call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Op:
    kind: str
    own: dict                                  # the benchmark's own view of the inputs
    argv: list = field(default_factory=list)   # CLI arguments, when the op goes through the CLI


def call_cli(pp, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pp.cli.main(argv)
    if rc not in (0, 1):
        raise RuntimeError(f"permpat {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


def _positions(line: str) -> tuple[int, ...]:
    return tuple(int(x) for x in line.strip().strip("()").split(","))


def random_text(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def random_pattern(rng: random.Random, k: int, block_p: float) -> tuple[tuple, tuple]:
    """A random vincular pattern: shuffled values; at each position a block
    of length 2 or 3 starts with probability block_p."""
    values = random_text(rng, k)
    blocks, i = [], 1
    while i < k:
        if rng.random() < block_p:
            b = min(k, i + rng.randint(1, 2))
            blocks.append((i, b))
            i = b + 1
        else:
            i += 1
    return values, tuple(blocks)


def _fresh(seen, make):
    while True:
        item = make()
        if item not in seen:
            seen.add(item)
            return item


def _serialize(pp, own):
    """The command-line form of an instance, written by permpat's constructors
    and serializers."""
    own["P"] = pp.textio.serialize_pattern(pp.core.GeneralizedPattern(own["pv"], own["blocks"]))
    own["T"] = pp.textio.serialize_permutation(pp.core.Permutation(own["tv"]))


def _parse_pt(pp, own, tr):
    with tr.span("textio.parse"):
        p = pp.textio.parse_pattern(own["P"])
        t = pp.textio.parse_permutation(own["T"])
    tr.count("textio.bytes", len(own["P"].encode()) + len(own["T"].encode()))
    with tr.span("core.construct"):
        p = pp.core.GeneralizedPattern(p.values, p.blocks)
        t = pp.core.Permutation(t.values)
    return p, t


# ---------------------------------------------------------------- match-random

class MatchRandom:
    """Short `permpat match` queries on random vincular patterns."""

    name = "match-random"
    BLOCK_P = 0.35
    # (k, n): auto-engine decide, witness printed; each text length is drawn
    # from n/2..n, so that no percentile sits on a cluster of equal operations.
    # Larger k at large n is left out: (5, 300), (5, 1000) and (6, 100) each
    # have instances that take seconds (about 1 in 1000), which would swing a
    # whole run.
    DECIDE = [(3, 100), (3, 300), (3, 1000), (4, 100), (4, 300), (4, 1000),
              (5, 50), (5, 100), (6, 30), (6, 50)]
    # (k, n): classical identity patterns, decided through the LIS fast path
    LIS = [(4, 300), (6, 1000)]
    # k: one instance with n in 20..40, queried by decide, --count and --all
    GROUPS = [3, 4, 5]
    # k: --engine brute --count with n in 8..12
    BRUTE = [3, 4]
    EXHAUSTIVE_LIMIT = 2000   # C(n, k) up to which the oracle filters every tuple
    FLAGS = {"decide": [], "lis": [], "count": ["--count"], "all": ["--all"],
             "brute": ["--engine", "brute", "--count"]}

    def generate(self, rng, rounds):
        ops, seen = [], set()

        def inst(k, n, identity=False):
            def make():
                pv, blocks = (tuple(range(1, k + 1)), ()) if identity else \
                    random_pattern(rng, k, self.BLOCK_P)
                return pv, blocks, random_text(rng, n)
            pv, blocks, tv = _fresh(seen, make)
            return {"pv": pv, "blocks": blocks, "tv": tv}

        for _ in range(rounds):
            for k, n in self.DECIDE:
                ops.append(Op("decide", inst(k, rng.randint(n // 2, n))))
            for k, n in self.LIS:
                ops.append(Op("lis", inst(k, rng.randint(n // 2, n), identity=True)))
            for k in self.GROUPS:
                own = inst(k, rng.randint(20, 40))
                ops += [Op("decide", own), Op("count", own), Op("all", own)]
            for k in self.BRUTE:
                ops.append(Op("brute", inst(k, rng.randint(8, 12))))
        return ops

    def build(self, pp, ops, workdir):
        for op in ops:
            _serialize(pp, op.own)
            op.argv = ["match", "-p", op.own["P"], "-t", op.own["T"]] + self.FLAGS[op.kind]

    def run(self, pp, op, span):
        with span("cli.match"):
            return call_cli(pp, op.argv)

    def check(self, op, out):
        rc, text = out
        own = op.own
        pv, blocks, tv = own["pv"], own["blocks"], own["tv"]
        expected = self.expected(op)
        lines = text.split("\n")[:-1]
        if op.kind in ("decide", "lis"):
            want = expected[0] if expected else None
            if want is None:
                return None if (rc, lines) == (1, ["NO MATCH"]) else "NO MATCH expected"
            if rc != 0 or len(lines) != 1 or not lines[0].startswith("MATCH "):
                return "MATCH expected"
            got = _positions(lines[0][6:])
            if not oracle.is_embedding(pv, blocks, tv, got):
                return f"witness {got} is not an embedding"
            return None if got == want else f"witness {got} is not the least {want}"
        if op.kind in ("count", "brute"):
            if len(lines) != 1 or int(lines[0]) != len(expected) or rc != (0 if expected else 1):
                return f"count {lines} != {len(expected)}"
            return None
        got = [_positions(line) for line in lines]
        if any(b <= a for a, b in zip(got, got[1:])):
            return "enumeration is not strictly lexicographic"
        if any(not oracle.is_embedding(pv, blocks, tv, e) for e in got):
            return "enumeration holds a non-embedding"
        if got != expected or rc != (0 if expected else 1):
            return f"enumeration of {len(got)} differs from the oracle's {len(expected)}"
        return None

    def expected(self, op):
        own = op.own
        pv, blocks, tv = own["pv"], own["blocks"], own["tv"]
        if "expected" not in own:
            if op.kind in ("decide", "lis") and len(tv) > 40:
                own["expected"] = oracle.embeddings(pv, blocks, tv, first_only=True)
            else:
                found = oracle.embeddings(pv, blocks, tv)
                if math.comb(len(tv), len(pv)) <= self.EXHAUSTIVE_LIMIT:
                    brute = oracle.brute_embeddings(pv, blocks, tv)
                    if brute != found:
                        raise RuntimeError(f"oracle searches disagree on {own['P']} / {own['T']}")
                own["expected"] = found
        return own["expected"]

    def group_check(self, ops, outs):
        """Across one instance: the enumeration starts with the decide witness
        and has as many entries as the count."""
        by_inst: dict[int, dict] = {}
        for op, out in zip(ops, outs):
            if out is not None and op.kind in ("decide", "count", "all") and len(op.own["tv"]) <= 40:
                by_inst.setdefault(id(op.own), {})[op.kind] = out
        for got in by_inst.values():
            if len(got) != 3:
                continue
            lines = got["all"][1].split("\n")[:-1]
            count = int(got["count"][1])
            head = got["decide"][1].strip()
            if len(lines) != count:
                return f"--all printed {len(lines)} lines, --count said {count}"
            if count and head != "MATCH " + lines[0]:
                return f"witness {head} is not the first enumerated {lines[0]}"
            if not count and head != "NO MATCH":
                return "decide found a match that enumeration missed"
        return None

    def decompose(self, pp, op, out, tr):
        span = tr.span
        p, t = _parse_pt(pp, op.own, tr)
        m = pp.matcher
        if op.kind in ("decide", "lis"):
            if p.is_classical and p.values == tuple(range(1, p.k + 1)):
                with span("matcher.lis"):
                    yes = m.lis_length(t) >= p.k
            else:
                with span("matcher.decide"):
                    yes = m.match_dispatch(m.MatchRequest(p, t, m.Mode.DECIDE))
            # auto-mode `permpat match` repeats this search after a YES decide
            with span("matcher.witness", "repeat" if yes else None):
                m.first_embedding(p, t)
        elif op.kind == "count":
            with span("matcher.count"):
                tr.count("matcher.embeddings", m.match_dispatch(m.MatchRequest(p, t, m.Mode.COUNT)))
        elif op.kind == "all":
            with span("matcher.enumerate"):
                found = m.match_dispatch(m.MatchRequest(p, t, m.Mode.ENUMERATE_ALL))
            tr.count("matcher.embeddings", len(found))
        else:
            with span("matcher.brute"):
                found = m.match_bruteforce(m.MatchRequest(p, t, m.Mode.COUNT))
            tr.count("matcher.brute_candidates", math.comb(t.n, p.k))
            tr.count("matcher.brute_found", found)


# ------------------------------------------------------------------- reduce-is

class ReduceIS:
    """The paper's construction: `permpat reduce` then `permpat match`."""

    name = "reduce-is"
    # (l, k, edge density); each round holds one YES and one NO graph per cell
    CELLS = [(6, 3, 0.6), (7, 3, 0.6), (8, 3, 0.65), (7, 4, 0.45), (8, 4, 0.5)]

    def generate(self, rng, rounds):
        ops, seen = [], set()
        for _ in range(rounds):
            for l, k, density in self.CELLS:
                for label in (True, False):
                    for _ in range(100000):
                        edges = tuple((u, v) for u in range(1, l + 1) for v in range(u + 1, l + 1)
                                      if rng.random() < density)
                        answer = oracle.independent_set(l, edges, k)
                        if (answer is not None) == label and (l, k, edges) not in seen:
                            break
                    else:
                        raise RuntimeError(f"no {'YES' if label else 'NO'} graph in cell {(l, k, density)}")
                    seen.add((l, k, edges))
                    ops.append(Op("reduce", {"l": l, "k": k, "edges": edges, "yes": label}))
        return ops

    def build(self, pp, ops, workdir):
        for i, op in enumerate(ops):
            own = op.own
            g = pp.core.Graph(own["l"], frozenset(own["edges"]))
            own["graph"] = pp.textio.serialize_graph(g, own["k"])
            prefix = os.path.join(workdir, f"r{i}")
            op.argv = ["reduce", os.path.join(workdir, f"g{i}.txt"), "-o", prefix]
            own["match"] = ["match", "-p", "@" + prefix + ".pattern", "-t", "@" + prefix + ".text"]

    @staticmethod
    def prepare(op):
        """Put the graph file on disk; done before the operation's timer starts."""
        with open(op.argv[1], "w", encoding="utf-8") as handle:
            handle.write(op.own["graph"])

    def run(self, pp, op, span):
        with span("cli.reduce"):
            reduced = call_cli(pp, op.argv)
        with span("cli.match"):
            return reduced, call_cli(pp, op.own["match"])

    @staticmethod
    def files(op):
        prefix = op.argv[3]
        with open(prefix + ".pattern", encoding="utf-8") as handle:
            pattern = handle.read()
        with open(prefix + ".text", encoding="utf-8") as handle:
            text = handle.read()
        return pattern, text

    def check(self, op, out):
        (rc_r, reduced), (rc_m, matched) = out
        own = op.own
        l, k = own["l"], own["k"]
        non_edges = l * (l - 1) // 2 - len(own["edges"])
        plen, tlen = 4 + (3 * k * k + k) // 2, 2 * l + 3 * non_edges + 4
        if rc_r != 0 or reduced != f"|P| = {plen}\n|T| = {tlen}\n":
            return f"reduce printed {reduced!r}, expected |P| = {plen}, |T| = {tlen}"
        pattern, text = self.files(op)
        pv, blocks = oracle.parse_bracket(pattern)
        tv = tuple(int(x) for x in text.split())
        if len(pv) != plen or len(tv) != tlen or sorted(tv) != list(range(1, tlen + 1)):
            return "written pattern or text has the wrong size or is not a permutation"
        line = matched.strip()
        if not own["yes"]:
            return None if (rc_m, line) == (1, "NO MATCH") else f"expected NO MATCH, got {line!r}"
        if rc_m != 0 or not line.startswith("MATCH "):
            return f"expected MATCH, got {line!r}"
        emb = _positions(line[6:])
        if not oracle.is_embedding(pv, blocks, tv, emb):
            return "witness is not an embedding"
        vertices = []
        for i in range(k):
            a, b = emb[2 * i], emb[2 * i + 1]
            if b % 2 or a != b - 1 or b > 2 * l:
                return f"dot pair {i + 1} lands on {(a, b)}, not on a vertex pair"
            vertices.append(b // 2)
        edges = set(own["edges"])
        if len(set(vertices)) != k or any(
                (u, v) in edges for u in vertices for v in vertices if u < v):
            return f"witness decodes to {vertices}, not an independent set"
        return None

    def decompose(self, pp, op, out, tr):
        span, r = tr.span, pp.reduction
        with open(op.argv[1], encoding="utf-8") as handle:
            graph_text = handle.read()
        with span("textio.parse"):
            g, k = pp.textio.parse_graph(graph_text)
        tr.count("textio.bytes", len(graph_text.encode()))
        with span("core.construct"):
            g = pp.core.Graph(g.l, g.edges)
        with span("reduction.stage1"):
            p1, t1 = r.build_multiset_instance(g, k)
        with span("reduction.stage2"):
            p2, t2 = r.deduplicate(p1), r.deduplicate(t1)
        with span("reduction.stage3"):
            p3, t3 = r.attach_separator(p2, t2)
        tr.count("reduction.pattern_len", len(p3))
        tr.count("reduction.text_len", len(t3))
        pattern, text = self.files(op)
        p, t = _parse_pt(pp, {"P": pattern, "T": text}, tr)
        m = pp.matcher
        with span("matcher.decide"):
            yes = m.match_dispatch(m.MatchRequest(p, t, m.Mode.DECIDE))
        with span("matcher.witness", "repeat" if yes else None):
            m.first_embedding(p, t)


# ------------------------------------------------------------------ crosscheck

class Crosscheck:
    """The independent checkers: verify suites and the fo round trip."""

    name = "crosscheck"
    # (suite, bound, bound); samples are fixed per suite.  Operation costs are
    # kept spread out (one suite per size, fo texts of random length), so
    # that no percentile sits on a cluster of equal operations: there, a
    # machine that changes speed for part of a run moves it in jumps.
    SUITES = [("engines", 4, 3), ("engines", 5, 3),
              ("reduction", 4, 2), ("reduction", 5, 3),
              ("fo", 4, 3), ("fo", 5, 3),
              ("lis", 100, 10), ("lis", 200, 10)]
    SAMPLES = {"engines": 50, "reduction": 20, "fo": 50}
    # encode-fo round trips per round: n uniform in each of these ranges
    FO_N = [(50, 74), (75, 99), (100, 124), (125, 149), (150, 174), (175, 200)]

    def generate(self, rng, rounds):
        ops, seen = [], set()
        for _ in range(rounds):
            for suite, a, b in self.SUITES:
                seed = _fresh(seen, lambda: rng.randrange(2**31))
                ops.append(Op("suite", {"suite": suite, "a": a, "b": b, "seed": seed}))
            for lo, hi in self.FO_N:
                pv, blocks = random_pattern(rng, rng.randint(3, 4), MatchRandom.BLOCK_P)
                tv = random_text(rng, rng.randint(lo, hi))
                ops.append(Op("fo", {"pv": pv, "blocks": blocks, "tv": tv}))
        return ops

    def build(self, pp, ops, workdir):
        for i, op in enumerate(ops):
            if op.kind == "fo":
                _serialize(pp, op.own)
                op.argv = ["encode-fo", "-p", op.own["P"], "-t", op.own["T"],
                           "-o", os.path.join(workdir, f"f{i}.fo")]

    def run(self, pp, op, span):
        own = op.own
        if op.kind == "suite":
            v, suite, a, b, seed = pp.verify, own["suite"], own["a"], own["b"], own["seed"]
            with span("verify." + suite):
                if suite == "engines":
                    res = v.suite_engines(max_n=a, max_k=b, samples=self.SAMPLES[suite], seed=seed)
                elif suite == "reduction":
                    res = v.suite_reduction(max_l=a, max_k=b, samples=self.SAMPLES[suite], seed=seed)
                elif suite == "fo":
                    res = v.suite_fo(max_n=a, max_k=b, samples=self.SAMPLES[suite], seed=seed)
                else:
                    res = v.suite_lis(samples=a, max_n=b, seed=seed)
            return [(r.name, r.ok, r.instances) for r in res]
        with span("cli.encode_fo"):
            call_cli(pp, op.argv)
        with open(op.argv[-1], encoding="utf-8") as handle:
            fo_text = handle.read()
        with span("folog.parse"):
            structure, formula = pp.folog.parse_instance(fo_text)
        with span("folog.model_check"):
            witness = pp.folog.model_check(structure, formula)
        parsed = (structure.values, formula.var_count, formula.pos_literals,
                  formula.neg_literals, formula.adj_literals)
        return parsed, witness

    def expected_counts(self, suite, a, b, samples):
        """The instance counts the exhaustive checks must report, from the bounds."""
        if suite == "engines":
            pairs = sum(math.factorial(k) * 2 ** (k - 1) for k in range(1, b + 1)) * \
                sum(math.factorial(n) for n in range(1, a + 1))
            return {"engine equivalence": pairs, "complement symmetry": samples}
        if suite == "fo":
            patterns = sum(math.factorial(k) * 2 ** (k - 1) for k in range(1, b + 1))
            return {"fo decider agreement": patterns * sum(math.factorial(n) for n in range(1, a + 1))
                    + samples, "formula literal counts": patterns}
        if suite == "reduction":
            graphs = [2 ** (l * (l - 1) // 2) if 2 ** (l * (l - 1) // 2) <= 64 else samples
                      for l in range(1, a + 1)]
            instances = sum(g * min(b, l) for l, g in zip(range(1, a + 1), graphs))
            return {"independent set vs matcher": instances, "size identities": instances,
                    "separator uniqueness": sum(graphs)}
        return {}

    def check(self, op, out):
        own = op.own
        if op.kind == "suite":
            suite, a, b = own["suite"], own["a"], own["b"]
            got = {name: (ok, n) for name, ok, n in out}
            bad = [name for name, (ok, _) in got.items() if not ok]
            if bad:
                return f"verify {suite} failed {bad}"
            for name, n in self.expected_counts(suite, a, b, self.SAMPLES.get(suite)).items():
                if got.get(name, (None, None))[1] != n:
                    return f"verify {suite} {name}: {got.get(name)} instances, expected {n}"
            if suite == "lis":
                n = got["lis fast path"][1]
                if not a <= n <= a * b:
                    return f"lis suite checked {n} queries, outside {a}..{a * b}"
            return None
        parsed, witness = out
        pv, blocks, tv = own["pv"], own["blocks"], own["tv"]
        with open(op.argv[-1], encoding="utf-8") as handle:
            fo_text = handle.read()
        lines = fo_text.split("\n")[:-1]
        if len(lines) != oracle.fo_line_count(len(tv), len(pv), blocks):
            return f"fo instance has {len(lines)} lines"
        if [lines[0]] + sorted(lines[1:]) != oracle.fo_lines(pv, blocks, tv):
            return "fo instance lines differ from the pattern and text"
        values, k, pos, neg, adj = parsed
        want_pos = {(i + 1, j + 1) for i in range(k) for j in range(i + 1, k) if pv[i] < pv[j]}
        want_neg = {(i + 1, j + 1) for i in range(k) for j in range(i + 1, k) if pv[i] > pv[j]}
        want_adj = {i for a, b in blocks for i in range(a, b)}
        if (values, k, set(pos), set(neg), set(adj)) != (tv, len(pv), want_pos, want_neg, want_adj):
            return "fo instance does not read back to the same structure and formula"
        first = oracle.embeddings(pv, blocks, tv, first_only=True)
        if (tuple(witness) if witness else None) != (first[0] if first else None):
            return f"model_check found {witness}, the least embedding is {first}"
        return None

    def decompose(self, pp, op, out, tr):
        own, span = op.own, tr.span
        if op.kind == "suite":
            tr.count("verify.instances", sum(n for _, _, n in out))
            if own["suite"] == "engines":
                # the suite's exhaustive inputs through the brute engine; one span
                # per (k, n) slice, since a span per call would outweigh the call
                v, m = pp.verify, pp.matcher
                for k in range(1, own["b"] + 1):
                    patterns = v.all_patterns(k)
                    for n in range(1, own["a"] + 1):
                        pairs = [(p, t) for t in v.all_texts(n) for p in patterns]
                        with span("matcher.brute"):
                            found = sum(len(m.match_bruteforce(
                                m.MatchRequest(p, t, m.Mode.ENUMERATE_ALL))) for p, t in pairs)
                        tr.count("matcher.brute_candidates", len(pairs) * math.comb(n, k))
                        tr.count("matcher.brute_found", found)
            return
        p, t = _parse_pt(pp, own, tr)
        f = pp.folog
        with span("folog.encode"):
            s, formula = f.encode_structure(t), f.encode_formula(p)
        with span("folog.export"):
            text = f.export_instance(s, formula)
        tr.count("folog.instance_bytes", len(text.encode()))


WORKLOADS = {w.name: w for w in (MatchRandom(), ReduceIS(), Crosscheck())}
