"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --input IN.json --result OUT.json
                                [--trace] [--spans SPANS.jsonl] [--setup-only]
                                [--order N]

Set-up is what every user of the package pays in a new process: the
interpreter, ``import gaugeknot``, ``load_table()`` and the five state
models.  The worker writes the monotonic time at which set-up ended, so the
parent can time set-up from the moment it started the process, and the
machine's speed right after it (see workloads.Speed).  Then it runs the pass
described by the input file and writes the items with their times and
outputs, the pass's wall time (without the speed probes), the machine's
speed over the pass, its peak RSS and, with ``--trace``, the per-layer
metrics (traced passes take no speed probes).  The parent checks the
outputs.
"""

import argparse
import json
import resource
import time
from pathlib import Path

import tracer
import workloads

#: Speed probes right after set-up; their median scales set-up time.
SETUP_PROBES = 3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--order", type=int, default=0,
                    help="shuffle the items with this seed (0: as given)")
    args = ap.parse_args()
    inp = json.loads(Path(args.input).read_text())

    pkg = tracer.package()
    t_trace = time.perf_counter()
    tr = tracer.Tracer(pkg).install() if args.trace else None
    table = pkg.harness.load_table()
    for spec in workloads.MODELS:
        pkg.engine.model(*spec)
    ready = time.monotonic()
    speed = workloads.Speed(enabled=not args.trace)
    for _ in range(SETUP_PROBES):
        speed()
    result = {"ready_monotonic": ready, "setup_factor": speed.factor()}

    if not args.setup_only:
        workloads.HERE.joinpath("out").mkdir(exist_ok=True)
        kind = inp["workload"]
        t0 = time.perf_counter()
        if kind == "proofs":
            items, outputs = workloads.run_proofs(pkg, inp, speed,
                                                  args.order)
        elif kind == "table":
            items, outputs = workloads.run_table(pkg, inp, table, speed)
        elif kind == "case1-words":
            items, outputs = workloads.run_case1(pkg, inp, speed,
                                                 args.order)
        else:
            raise SystemExit(f"unknown workload {kind!r}")
        t1 = time.perf_counter()
        result.update(
            wall_s=t1 - t0 - sum(speed.probes[SETUP_PROBES:]),
            factor=speed.factor(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            items=items, outputs=outputs)
        if tr is not None:
            tr.restore()
            layers = tracer.layer_metrics(tr)
            # the trace covers set-up and the pass
            layers["trace.wall_s"] = t1 - t_trace
            result["layers"] = layers
            if args.spans:
                tr.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
