"""Self-test of the benchmark's checkers, on a tiny preset (one round of
each workload, traced and untraced):

    python3 perfbench/selftest.py

Every workload must run with no failed operation and pass its checks, and
every checker must reject a corrupted answer: a witness shifted by one
position, a count off by one, a flipped YES/NO label, a mangled fo line
and a wrong suite instance count.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from random import Random

import run
from workloads import WORKLOADS


def _shift(line: str) -> str:
    positions = line[len("MATCH ("):-1].split(",")
    return "MATCH (" + ",".join(str(int(p) + 1) for p in positions) + ")"


def corruptions(name, ops, outs):
    """(label, op, output) for the corruptions that apply to a workload; the
    fo corruption is made in the file the output was read from."""
    out = []
    if name == "match-random":
        op, (rc, text) = next((op, o) for op, o in zip(ops, outs)
                              if op.kind == "decide" and o[0] == 0)
        out.append(("witness shifted by one", op, (rc, _shift(text.strip()) + "\n")))
        op, (rc, text) = next((op, o) for op, o in zip(ops, outs) if op.kind == "count")
        out.append(("count off by one", op, (rc, f"{int(text) + 1}\n")))
        op, (rc, text) = next((op, o) for op, o in zip(ops, outs)
                              if op.kind == "all" and o[1].count("\n") > 1)
        lines = text.split("\n")
        out.append(("enumeration out of order", op, (rc, "\n".join([lines[1], lines[0]] + lines[2:]))))
    elif name == "reduce-is":
        op, (reduced, _) = next((op, o) for op, o in zip(ops, outs) if op.own["yes"])
        out.append(("YES flipped to NO", op, (reduced, (1, "NO MATCH\n"))))
        op, (reduced, _) = next((op, o) for op, o in zip(ops, outs) if not op.own["yes"])
        plen = 4 + (3 * op.own["k"] ** 2 + op.own["k"]) // 2
        fake = "MATCH (" + ",".join(map(str, range(1, plen + 1))) + ")\n"
        out.append(("NO flipped to YES", op, (reduced, (0, fake))))
    else:
        op, res = next((op, o) for op, o in zip(ops, outs) if op.kind == "fo")
        with open(op.argv[-1], encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        x, y = lines[1].split()[1:]
        lines[1] = f"tl {y} {x}"
        with open(op.argv[-1], "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        out.append(("mangled fo line", op, res))
        op, res = next((op, o) for op, o in zip(ops, outs)
                       if op.kind == "suite" and op.own["suite"] == "engines")
        name0, ok0, n0 = res[0]
        out.append(("suite instance count off by one", op, [(name0, ok0, n0 + 1)] + res[1:]))
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name, wl in WORKLOADS.items():
        workdir = run.HERE / ".work" / f"selftest-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            ops = wl.generate(Random(7), 1)
            pp = run.setup(wl, ops, workdir)
            outs, _, errors = run.execute(wl, pp, ops, None)
            problems = run.check_all(wl, ops, outs)
            if errors or problems:
                failures += 1
                print(f"FAIL {name}: {errors[:3]} {problems[:3]}")
                continue
            print(f"ok {name}: {len(ops)} operations checked")
            for label, op, bad in corruptions(name, ops, outs):
                if wl.check(op, bad) is None:
                    failures += 1
                    print(f"FAIL {name}: the checker accepted a {label}")
                else:
                    print(f"ok {name}: {label} rejected")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result, _ = run.run(name, 7, 1.0, trace=True, rounds=1)
        names = set(result["metrics"])
        want = {m["name"] for m in spec["per_layer"]}
        if not result["correct"] or result["failed"] or names != want:
            failures += 1
            print(f"FAIL {name} traced: {result['correct']} {result['failed']} {names ^ want}")
        else:
            print(f"ok {name} traced: {len(names)} per-layer metrics")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
