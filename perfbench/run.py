"""gaugeknot benchmark.

    python3 perfbench/run.py --workload proofs|table|case1-words
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py) with one process and one thread, and its outputs are
checked against the references in perfbench/refs.

--trace 0 measures the end-to-end metrics: passes, each after two
set-up-only processes and each in its own item order, until the next one
would end after S seconds (at least one).  Times are reported at a fixed
reference speed of the machine (see workloads.Speed).  --trace 1 runs one
untraced and one traced pass, checks that their outputs are byte-identical,
and reports the per-layer metrics of the traced pass and the tracing
overhead.  A human-readable summary comes first; the last line of standard
output is the JSON result.  Details of the run, with the seed and the input
words, are written to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Set-up-only processes started before each pass.  Spreading them over the
#: run keeps one slow stretch of the machine from setting the median.
SETUP_PROBES_PER_PASS = 2
PASS_TIMEOUT_S = 150


def tail(values):
    """(percentile, value, items beyond): the highest whole percentile that
    leaves at least 10 items above it, by nearest rank."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return 100, s[-1], 0
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)
    return pct, s[rank - 1], n - rank


class Runner:
    """Starts worker processes on one input, keeping their files in
    ``directory``."""

    def __init__(self, directory, inp):
        self.dir = Path(directory)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.input = self.dir / "input.json"
        self.input.write_text(json.dumps(inp))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.env.pop("GAUGEKNOT_TABLE", None)
        self.count = 0

    def spawn(self, trace=False, setup_only=False, order=0):
        """Run one worker process; returns its result with ``setup_raw_s``,
        ``setup_s`` (at reference speed) and ``process_s`` (start to exit)
        added."""
        self.count += 1
        result = self.dir / f"pass-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--input",
               str(self.input), "--result", str(result)]
        if trace:
            cmd += ["--trace", "--spans", str(self.dir / "spans.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        if order:
            cmd += ["--order", str(order)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        t1 = time.monotonic()
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker failed with code {proc.returncode}")
        out = json.loads(result.read_text())
        out["setup_raw_s"] = out["ready_monotonic"] - t0
        out["setup_s"] = out["setup_raw_s"] / out["setup_factor"]
        out["process_s"] = t1 - t0
        return out


def run_untraced(runner, seconds):
    start = time.monotonic()
    setups, passes = [], []
    while True:
        setups += [runner.spawn(setup_only=True)
                   for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(runner.spawn(order=len(passes) + 1))
        spent = time.monotonic() - start
        typical = statistics.median(p["process_s"] for p in passes)
        if spent + typical > seconds:
            break
    return setups + passes, passes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "gaugeknot" / "__init__.py").is_file():
        print(f"error: no gaugeknot sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = workloads.load_refs()
    inp = workloads.workload_input(args.workload, args.seed)
    runner = Runner(HERE / "out" / f"{args.workload}-seed{args.seed}-"
                    f"trace{args.trace}", inp)

    if args.trace:
        passes = [runner.spawn(), runner.spawn(trace=True)]
    else:
        setups, passes = run_untraced(runner, args.seconds)

    failed = sum(workloads.check_items(
        args.workload, [(name, out) for name, _, out in p["items"]],
        p["outputs"], refs) for p in passes)
    attempted = sum(len(p["items"]) for p in passes)
    if not attempted:
        raise SystemExit("error: the passes ran no items")
    same = all(p["outputs"] == passes[0]["outputs"] for p in passes)
    correct = failed == 0 and same

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"passes {len(passes)}  python {sys.version.split()[0]}  "
             f"nproc {os.cpu_count()}"]
    if args.workload == "case1-words":
        lines.append("words " + json.dumps(inp["words"]))
    if args.trace:
        plain, traced = passes
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        lines.append(f"traced outputs identical to untraced: {same}")
    else:
        # times at reference speed: each pass divided by its speed factor
        times = {}
        for p in passes:
            for name, secs, _ in p["items"]:
                times.setdefault(name, []).append(secs / p["factor"])
        per_item = [statistics.median(t) for t in times.values()]
        pct, tail_s, beyond = tail(per_item)
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] / p["factor"]
                                        for p in passes),
            "item_p50_s": statistics.median(per_item),
            "item_tail_s": tail_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
        }
        lines.append(f"items {len(times)} per pass; item_tail_s is p{pct} "
                     f"with {beyond} items beyond it; setup_s is the median "
                     f"of {len(setups)} cold starts")
        lines.append("times are at reference speed (workloads.Speed); raw "
                     "medians: setup_s %.6g, wall_s %.6g, speed factor %.4g"
                     % (statistics.median(s["setup_raw_s"] for s in setups),
                        statistics.median(p["wall_s"] for p in passes),
                        statistics.median(p["factor"] for p in passes)))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"{'failed_frac':<28} {failed / attempted:.6g} "
                 f"({failed} of {attempted} items)")

    (runner.dir / "results.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "input": inp,
         "correct": correct, "attempted": attempted, "failed": failed,
         "metrics": metrics, "passes": passes}, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
