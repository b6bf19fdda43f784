"""Regenerate the stored reference outputs under perfbench/refs.

    python3 perfbench/make_refs.py [--only proofs|table|case1]

References are the outputs of the commit they were made at; a later commit
must reproduce them byte for byte.  Regenerate them only when an output is
meant to change, and say so in the change.

The case-1 pool also stores each word's median time over three rounds; the
pool is sorted by that time and cut into strata, and a seed draws one word
from each stratum (see workloads.case1_words).
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _write(name, text):
    (workloads.REFS / name).write_bytes(text.encode())
    print(f"wrote refs/{name}")


def _passed(out):
    """Whether a proofs item's output is a passing result."""
    if out.startswith("{"):
        return json.loads(out)["ok"]       # an eigen report
    return out in ("YBE verified", "True", "16")


def make_proofs(pkg):
    _, outputs = workloads.run_proofs(pkg, {"items": None},
                                      workloads.Speed(enabled=False))
    bad = [name for name, out in outputs.items() if not _passed(out)]
    if bad:
        raise SystemExit(f"proofs checks fail at this commit: {bad}")
    _write("proofs.json", json.dumps(outputs, indent=1, sort_keys=True) + "\n")


def make_table(pkg):
    workloads.HERE.joinpath("out").mkdir(exist_ok=True)
    inp = workloads.workload_input("table", 0)
    _, outputs = workloads.run_table(pkg, inp, pkg.harness.load_table(),
                                     workloads.Speed(enabled=False))
    rows = json.loads(outputs["suite.json"])
    if rows["failed"] or rows["total"] != 111:
        raise SystemExit(f"table suite at this commit: {rows['total']} rows,"
                         f" {rows['failed']} failures")
    _write("table_suite.csv", outputs["suite.csv"])
    _write("table_suite.json", outputs["suite.json"])


def make_case1(pkg, reps=3):
    """The pool, sorted by each word's median time over ``reps`` rounds, so
    that each stratum is narrow in time and every seed's set has the same
    cost profile."""
    per = workloads.CASE1_PER_STRATUM
    words = workloads.pool_words(pkg, workloads.CASE1_WORDS * per)
    model = pkg.engine.model(1, "ambient")
    invariants, times = {}, {w: [] for w in words}
    for rep in range(reps):
        for i, w in enumerate(words):
            t0 = time.perf_counter()
            inv = pkg.engine.tangle_invariant(pkg.braid.parse(w),
                                              model).scalar()
            times[w].append(time.perf_counter() - t0)
            if invariants.setdefault(w, str(inv)) != str(inv):
                raise SystemExit(f"invariant of {w} changed between rounds")
            print(f"round {rep + 1} {i + 1}/{len(words)} "
                  f"{times[w][-1]:.3f}s {w}", flush=True)
    pool = [{"word": w, "invariant": invariants[w],
             "seconds": round(statistics.median(times[w]), 4)}
            for w in words]
    pool.sort(key=lambda r: (r["seconds"], r["word"]))
    doc = {"pool_seed": workloads.CASE1_POOL_SEED,
           "length": workloads.CASE1_LENGTH, "strands": 4,
           "per_stratum": per, "words": pool}
    _write("case1_pool.json", json.dumps(doc, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", choices=["proofs", "table", "case1"])
    args = ap.parse_args()
    pkg = tracer.package()
    workloads.REFS.mkdir(exist_ok=True)
    for name, fn in (("proofs", make_proofs), ("table", make_table),
                     ("case1", make_case1)):
        if args.only in (None, name):
            fn(pkg)


if __name__ == "__main__":
    main()
