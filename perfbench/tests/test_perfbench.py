"""Tests of the benchmark itself, on tiny inputs.

Each tiny workload runs in worker processes exactly as the benchmark runs
it: once untraced and once (twice for the cheap ones) traced.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_KNOTS = ("3_1", "4_1", "5_2")


def _tiny_inputs(tmp):
    from gaugeknot import harness
    words = {r.name: r.word for r in harness.load_table()}
    table = tmp / "tiny_table.txt"
    table.write_text("".join(
        f"{k} ; {words[k].strands} ; "
        + " ".join(str(x) for x in words[k].letters) + "\n"
        for k in TINY_KNOTS))
    cheapest = [w["word"] for w in workloads.load_pool()["words"][:2]]
    return {
        "proofs": {"workload": "proofs", "items": [
            "QYBE R4", "gauge properties", "gauge conjugation",
            "TYBE gauge-free", "spectral limit case 4",
            "handle case 2 regular", "eigen check case 3",
            "eigenvector count case 4"]},
        "table": {"workload": "table", "cases": [2, 3, 4],
                  "max_crossings": 10, "table": str(table)},
        "case1-words": {"workload": "case1-words", "words": cheapest},
    }


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """workload -> {"plain": untraced pass, "traced": [traced passes]}."""
    tmp = tmp_path_factory.mktemp("tiny")
    out = {}
    for name, inp in _tiny_inputs(tmp).items():
        runner = run.Runner(tmp / name, inp)
        repeats = 1 if name == "proofs" else 2
        out[name] = {"plain": runner.spawn(),
                     "traced": [runner.spawn(trace=True)
                                for _ in range(repeats)]}
    return out


def test_tiny_passes_match_the_references(tiny):
    refs = workloads.load_refs()
    for workload, runs in tiny.items():
        for p in [runs["plain"]] + runs["traced"]:
            assert p["items"], workload
            items = [(name, out) for name, _, out in p["items"]]
            assert workloads.check_items(workload, items, p["outputs"],
                                         refs) == 0, workload


def test_every_layer_metric_present_and_nonzero_where_targeted(tiny):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert set(names) == set(SPEC["per_layer"])
    for workload, runs in tiny.items():
        layers = runs["traced"][0]["layers"]
        missing = set(names) - set(layers) - {"trace.overhead_s"}
        assert not missing, (workload, missing)
    for metric, target in SPEC["per_layer"].items():
        for workload in target["workloads"]:
            value = tiny[workload]["traced"][0]["layers"][metric]
            assert value > 0, (metric, workload)


def test_engine_metrics_flat_on_proofs(tiny):
    layers = tiny["proofs"]["traced"][0]["layers"]
    for metric in ("engine.represent_calls", "engine.columns",
                   "oracles.jones_calls"):
        assert layers[metric] == 0, metric


def test_layer_self_times_within_traced_wall(tiny):
    for workload, runs in tiny.items():
        for p in runs["traced"]:
            layers = p["layers"]
            total = sum(layers[f"{layer}.self_s"]
                        for layer in tracer.LAYERS)
            assert 0 < total <= layers["trace.wall_s"], workload


def test_counts_repeat_between_traced_runs(tiny):
    counts = [m["name"] for m in BENCHMARK["per_layer"]
              if m["unit"] != "s"]
    assert "ring.mul_calls" in counts and "engine.columns" in counts
    for workload in ("table", "case1-words"):
        first, second = tiny[workload]["traced"]
        for name in counts:
            assert first["layers"][name] == second["layers"][name], \
                (workload, name)


def test_traced_and_untraced_outputs_identical(tiny):
    for workload, runs in tiny.items():
        plain = json.dumps(runs["plain"]["outputs"], sort_keys=True)
        for p in runs["traced"]:
            assert json.dumps(p["outputs"], sort_keys=True) == plain, \
                workload


def test_table_items_are_rows(tiny):
    names = [name for name, _, _ in tiny["table"]["plain"]["items"]]
    assert names == [f"case {c} {k}" for c in (2, 3, 4) for k in TINY_KNOTS]


def test_tracer_patches_every_binding():
    pkg = tracer.package()
    from gaugeknot import engine, harness, oracles, rmat
    named = {"compare_case2": (oracles, harness),
             "compare_case3": (oracles, harness),
             "ambient_invariant": (engine, harness),
             "tangle_invariant": (engine, oracles),
             "model": (engine, oracles),
             "invert": (rmat, engine)}
    before = {n: getattr(home, n) for n, (home, _) in named.items()}
    mul = engine.LaurentPoly.__mul__
    tr = tracer.Tracer(pkg).install()
    try:
        for n, (home, user) in named.items():
            wrapped = getattr(home, n)
            assert wrapped is not before[n] and wrapped.__wrapped__ is before[n]
            assert getattr(user, n) is wrapped, n
        assert engine.LaurentPoly.__rmul__ is not mul
    finally:
        tr.restore()
    for n, (home, user) in named.items():
        assert getattr(home, n) is before[n] and getattr(user, n) is before[n]
    assert engine.LaurentPoly.__mul__ is mul
    assert engine.LaurentPoly.__rmul__ is mul


def test_ring_counted_at_outermost_call_only():
    pkg = tracer.package()
    from gaugeknot.ring import QUANTUM
    y = QUANTUM.var("Y")
    tr = tracer.Tracer(pkg).install()
    try:
        y * y           # the Y^2 rewrite multiplies inside _reduce_y
        y ** 3          # __pow__ multiplies inside itself
    finally:
        tr.restore()
    assert tr.stats["ring.mul"].calls == 1
    assert tr.stats["ring.pow"].calls == 1
    assert tr.counts["ring.y_mul_calls"] == 1
    assert tr.counts["ring.mul_term_pairs"] == 1


@pytest.mark.parametrize("n", [11, 26, 30, 111])
def test_tail_leaves_ten_items_beyond(n):
    pct, value, beyond = run.tail(list(range(n)))
    assert beyond >= 10
    assert 100 * (n - 10) < (pct + 1) * n      # no higher whole percentile
    assert sum(v > value for v in range(n)) == beyond


def test_speed_factor_is_median_probe_over_nominal():
    speed = workloads.Speed()
    speed.probes = [workloads.PROBE_NOMINAL_S * k for k in (1.0, 2.0, 1.5)]
    assert speed.factor() == pytest.approx(1.5)
    off = workloads.Speed(enabled=False)
    off()
    assert off.probes == [] and off.factor() == 1.0


def test_case1_words_seeded():
    seeds = SPEC["seeds"]["case1-words"]
    dev = workloads.case1_words(seeds["development"])
    hold = workloads.case1_words(seeds["holdout"])
    assert dev == workloads.case1_words(seeds["development"])
    assert len(dev) == workloads.CASE1_WORDS and dev != hold
    from gaugeknot import braid
    pool = workloads.load_pool()
    assert len({w["word"] for w in pool["words"]}) == len(pool["words"])
    for w in pool["words"]:
        word = braid.parse(w["word"])
        assert word.strands == 4
        assert braid.closure_components(word) == 1


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    seen = set()
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert name.match(m["name"]) and m["name"] not in seen
        seen.add(m["name"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in BENCHMARK["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "proofs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
