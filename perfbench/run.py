"""Benchmark for permpat: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload match-random --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; permpat is imported from its
``src`` directory and nowhere else.  The seed fixes every input.  The
length of the operation list follows from --seconds and the workload's
reference round time, and the run always executes the whole list.

With --trace 0 the last line of stdout holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics, taken from spans the
benchmark records around each call it makes into a layer (see README.md).
Results go to perfbench/results/, traces next to them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

LAYERS = ("core", "textio", "matcher", "reduction", "folog", "verify", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100            # so that at least ten operations lie beyond the 90th percentile
PROCESS_STARTS = 5

# Timed seconds one round takes on the reference machine (README.md); a run
# of --seconds S executes round(S / ROUND_SECONDS) rounds.
ROUND_SECONDS = {"match-random": 0.08, "reduce-is": 0.22, "crosscheck": 1.8}

# span names whose busy time is reported as <name>_ms
PER_LAYER_SPANS = (
    "textio.parse", "core.construct", "matcher.decide", "matcher.witness",
    "matcher.count", "matcher.enumerate", "matcher.lis", "matcher.brute",
    "reduction.stage1", "reduction.stage2", "reduction.stage3", "folog.encode",
    "folog.export", "folog.parse", "folog.model_check", "verify.engines",
    "verify.reduction", "verify.fo", "verify.lis", "cli.match", "cli.reduce",
    "cli.encode_fo",
)
PER_LAYER_COUNTS = {
    "textio.bytes": "B",
    "matcher.embeddings": "count",
    "matcher.brute_candidates": "count",
    "reduction.pattern_len": "count",
    "reduction.text_len": "count",
    "folog.instance_bytes": "B",
    "verify.instances": "count",
}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, op id, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0, 0, parent, self.op, tag]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict[str, dict]:
        """Calls, busy time and self time (busy minus child spans) per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, *_), children in zip(self.spans, child_ns):
            row = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["busy_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - children) / 1e6
        return out


def _no_span(name, tag=None):
    return nullcontext()


def import_permpat() -> SimpleNamespace:
    """Import permpat afresh from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "permpat" or m.startswith("permpat.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("permpat." + name) for name in LAYERS}
    if Path(mods["core"].__file__).resolve().parent != SRC / "permpat":
        raise ImportError(f"permpat was imported from {mods['core'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def rounds_for(workload: str, seconds: float, ops_per_round: int) -> int:
    return max(round(seconds / ROUND_SECONDS[workload]), math.ceil(MIN_OPS / ops_per_round), 1)


def setup(wl, ops, workdir: Path):
    """Import permpat and build the inputs through its constructors and serializers."""
    pp = import_permpat()
    wl.build(pp, ops, str(workdir))
    return pp


def execute(wl, pp, ops, tracer: Tracer | None):
    """Run every operation once, in order; returns outputs, latencies and errors."""
    span = tracer.span if tracer else _no_span
    outs, lats, errors = [], [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        if hasattr(wl, "prepare"):
            wl.prepare(op)
        t0 = time.perf_counter()
        try:
            with span("op", op.kind):
                out = wl.run(pp, op, span)
        except Exception as exc:  # an operation that fails is counted, not fatal
            out = None
            errors.append(f"op {i} ({op.kind}) failed: {type(exc).__name__}: {exc}")
        lats.append(time.perf_counter() - t0)
        outs.append(out)
        if tracer and out is not None:
            with tracer.span("layers", op.kind):
                wl.decompose(pp, op, out, tracer)
    return outs, lats, errors


def check_all(wl, ops, outs) -> list[str]:
    problems = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if out is None:
            continue
        try:
            why = wl.check(op, out)
        except Exception as exc:  # a checker that cannot decide counts as a mismatch
            why = f"checker raised {type(exc).__name__}: {exc}"
        if why:
            problems.append(f"op {i} ({op.kind}): {why}")
    if hasattr(wl, "group_check"):
        why = wl.group_check(ops, outs)
        if why:
            problems.append(why)
    return problems


def process_start_ms() -> list[float]:
    """Wall time of fresh `python -m permpat match` processes on a trivial query."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "permpat", "match", "-p", "1 2", "-t", "2 1 3"]
    times = []
    for _ in range(PROCESS_STARTS):
        t0 = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
        if done.returncode != 0 or done.stdout != "MATCH (1,3)\n":
            raise RuntimeError(f"python -m permpat printed {done.stdout!r}, exit {done.returncode}")
    return times


def layer_metrics(tracer: Tracer, starts: list[float]) -> dict[str, dict]:
    summary = tracer.summary()
    metrics = {span + "_ms": {"value": summary.get(span, {}).get("busy_ms", 0.0), "unit": "ms"}
               for span in PER_LAYER_SPANS}
    repeat = sum(end - start for name, start, end, _, _, tag in tracer.spans
                 if name == "matcher.witness" and tag == "repeat")
    metrics["cli.witness_repeat_ms"] = {"value": repeat / 1e6, "unit": "ms"}
    metrics["cli.process_start_ms"] = {"value": statistics.median(starts), "unit": "ms"}
    for name, unit in PER_LAYER_COUNTS.items():
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    candidates = tracer.counts.get("matcher.brute_candidates", 0)
    found = tracer.counts.get("matcher.brute_found", 0)
    metrics["matcher.brute_yield"] = {"value": found / candidates if candidates else 0.0,
                                      "unit": "ratio"}
    return metrics


def end_to_end_metrics(lats: list[float], setups: list[float], peak_kb: int) -> dict[str, dict]:
    cuts = statistics.quantiles(lats, n=100, method="inclusive")
    return {
        "ops_per_s": {"value": len(lats) / sum(lats), "unit": "1/s"},
        "op_p50_ms": {"value": cuts[49] * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": cuts[89] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None = None):
    """One benchmark run; returns the result object and the tracer (or None)."""
    wl = WORKLOADS[workload]
    if rounds is None:
        per_round = len(wl.generate(Random(seed), 1))
        rounds = rounds_for(workload, seconds, per_round)
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = wl.generate(Random(seed), rounds)
        gc.collect()
        gc.freeze()  # the benchmark's own records stay out of every later collection
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pp = setup(wl, ops, workdir)
            setups.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()
        tracer = Tracer() if trace else None
        outs, lats, errors = execute(wl, pp, ops, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checkers run
        problems = check_all(wl, ops, outs)
        starts = process_start_ms() if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in (errors + problems)[:20]:
        print(line, file=sys.stderr)
    metrics = layer_metrics(tracer, starts) if trace else end_to_end_metrics(lats, setups, peak_kb)
    result = {"correct": not problems, "attempted": len(ops), "failed": len(errors),
              "metrics": metrics}
    return result, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "permpat" / "__init__.py").is_file():
        print(f"error: no permpat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        with open(results / f"{stem}.spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
                       "summary": tracer.summary(), "counts": tracer.counts,
                       "spans": tracer.spans}, handle, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
