"""The benchmark's three workloads and their inputs.

* ``proofs``: every check ``gaugeknot verify`` makes plus ``gaugeknot eigen``
  for cases 1-4; one item is one public call.
* ``table``: ``gaugeknot suite --cases 2,3,4 --max-crossings 10 --jobs 1``
  over the bundled table; one item is one (case, knot) row.
* ``case1-words``: the case-1 ambient invariant of 24 seeded 4-strand knot
  words; one item is one ``engine.ambient_invariant`` call.

Every item output is a string, so that the outputs of a pass can be compared
byte for byte with the stored references and between traced and untraced
passes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import random
import statistics
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from tracer import Patcher

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

WORKLOADS = ("proofs", "table", "case1-words")

#: The five state models every set-up builds.
MODELS = ((1, "ambient"), (2, "ambient"), (4, "ambient"),
          (2, "regular"), (3, "regular"))

TABLE_CASES = (2, 3, 4)
TABLE_MAX_CROSSINGS = 10
#: Cases whose suite rows are compared with an independent result (case 2
#: with the Burau oracle, case 3 with the bracket oracle, case 4 with the
#: constant 1).  Case-1 rows say "match" without any comparison, so a
#: case-1 row is never counted as verified.
CHECKED_CASES = frozenset(TABLE_CASES)

# case1-words: 24 strata of 15 pool words each; a seed draws one word per
# stratum.  The pool is sorted by each word's time when the references were
# made, so every seed gets a set of the same cost profile and the spread
# between seeds stays within the benchmark's bounds, while two seeds still
# share few words.  24 words (about 16 s here) let a run make two passes.
CASE1_WORDS = 24
CASE1_PER_STRATUM = 15
CASE1_POOL_SEED = 20001
#: A 4-strand closure is a knot only when the word's permutation is a
#: 4-cycle, an odd permutation, so only odd lengths close; 11-letter words
#: cost 2.5 times as much as 9-letter ones and do not fit a pass.
CASE1_LENGTH = 9


# ---------------------------------------------------------------------------
# Machine speed.  The 2-vCPU machine this was built on runs the same code 20
# to 40% slower for stretches of seconds to minutes, and every metric of a
# run moves with it.  A pass therefore times a fixed piece of pure-Python
# work (no package code, no objects the garbage collector tracks, so the
# pass's collections do not move) after set-up and before every item, and
# the run reports times divided by the pass's median probe over
# PROBE_NOMINAL_S: seconds at a fixed reference speed.  Measured here over
# 16 blocks of case-1 words: raw times varied +-24%, scaled times +-12%.

PROBE_LOOPS = 50000
PROBE_NOMINAL_S = 0.0075


def probe():
    t0 = time.perf_counter()
    acc = dict.fromkeys(range(64), 0)
    for i in range(PROBE_LOOPS):
        acc[i & 63] += i * i
    return time.perf_counter() - t0


class Speed:
    """Probe times of one process; a disabled instance (traced passes)
    takes none and reports the reference speed."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.probes = []

    def __call__(self):
        if self.enabled:
            self.probes.append(probe())

    def factor(self):
        """How many times slower than the reference the machine ran."""
        if not self.probes:
            return 1.0
        return statistics.median(self.probes) / PROBE_NOMINAL_S


# ---------------------------------------------------------------------------
# Inputs


def pool_words(pkg, count):
    """Distinct random 4-strand knot words with no cancelling neighbours
    (cyclically), as text."""
    braid = pkg.braid
    rng = random.Random(CASE1_POOL_SEED)
    out, seen = [], set()
    while len(out) < count:
        letters = []
        while len(letters) < CASE1_LENGTH:
            k = rng.choice((1, 2, 3)) * rng.choice((1, -1))
            if letters and letters[-1] == -k:
                continue
            letters.append(k)
        if letters[0] == -letters[-1]:
            continue
        word = braid.BraidWord(4, tuple(letters))
        if braid.closure_components(word) != 1 or str(word) in seen:
            continue
        seen.add(str(word))
        out.append(str(word))
    return out


def load_pool():
    return json.loads((REFS / "case1_pool.json").read_text())


def case1_words(seed):
    """The words of one seed: one word from each cost stratum of the pool."""
    pool = load_pool()
    words = pool["words"]
    per = pool["per_stratum"]
    rng = random.Random(seed)
    return [words[j * per + rng.randrange(per)]["word"]
            for j in range(len(words) // per)]


def workload_input(workload, seed):
    """The input one pass receives.  ``proofs`` and ``table`` are fixed by
    the package; ``case1-words`` is drawn from the seed."""
    if workload == "proofs":
        return {"workload": "proofs", "items": None}
    if workload == "table":
        return {"workload": "table", "cases": list(TABLE_CASES),
                "max_crossings": TABLE_MAX_CROSSINGS, "table": None}
    if workload == "case1-words":
        return {"workload": "case1-words", "words": case1_words(seed)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Passes.  Each returns (items, outputs): items is a list of
# (name, seconds, output) and outputs a dict of the pass's output texts.
# ``speed`` is called before every item.  The table's rows run in the
# suite's own order.


def _proof_items(pkg):
    """(name, call) for every proofs item, in run order."""
    rmat, ybe, engine = pkg.rmat, pkg.ybe, pkg.engine
    gauged = rmat.build_trig_gauged()
    free = rmat.build_trig_gauge_free()
    items = []
    for i in (1, 2, 3, 4):
        items.append((f"QYBE R{i}",
                      lambda i=i: str(ybe.verify_qybe(rmat.quantum_r(i)))))
    items.append(("gauge properties",
                  lambda: str(ybe.verify_gauge_properties(
                      rmat.GaugeMatrix.standard(), free))))
    items.append(("gauge conjugation",
                  lambda: str(rmat.apply_gauge(
                      free, rmat.GaugeMatrix.standard()) == gauged)))
    items.append(("TYBE gauge-free",
                  lambda: str(ybe.verify_tybe_additive(free))))
    items.append(("TYBE gauged",
                  lambda: str(ybe.verify_tybe_additive(gauged))))
    for i in (1, 2, 3, 4):
        items.append((f"spectral limit case {i}",
                      lambda i=i: str(rmat.spectral_limit(
                          gauged, rmat.GaugeCase.standard(i))
                          == rmat.quantum_r(i))))
    items.append(("spectral limit case 4 at gamma=2/3",
                  lambda: str(rmat.spectral_limit(
                      gauged, rmat.GaugeCase.standard(4, Fraction(2, 3)))
                      == rmat.quantum_r(4))))
    for spec in MODELS:
        items.append((f"handle case {spec[0]} {spec[1]}",
                      lambda spec=spec: str(engine.verify_handle(
                          engine.model(*spec)))))
    for i in (1, 2, 3, 4):
        items.append((f"eigen check case {i}",
                      lambda i=i: json.dumps(dataclasses.asdict(
                          rmat.eigen_check(rmat.quantum_r(i),
                                           rmat.claimed_eigenvalues(i))),
                          sort_keys=True)))
        items.append((f"eigenvector count case {i}",
                      lambda i=i: str(rmat.eigenvector_deficiency(
                          rmat.quantum_r(i)))))
    return items


def _timed(speed, name, call):
    speed()
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # an item that raises is a failed item
        out = f"error: {type(exc).__name__}: {exc}"
    return name, time.perf_counter() - t0, out


def _in_order(items, order):
    """The items in the order of pass ``order``: as given for 0, else a
    shuffle seeded by ``order``.  Runs vary the order from pass to pass so
    that each item meets the machine's slow and fast stretches at different
    times, instead of sharing them with its neighbours in every pass."""
    items = list(items)
    if order:
        random.Random(order).shuffle(items)
    return items


def run_proofs(pkg, inp, speed, order=0):
    wanted = inp.get("items")
    calls = [(name, call) for name, call in _proof_items(pkg)
             if wanted is None or name in wanted]
    items = [_timed(speed, name, call)
             for name, call in _in_order(calls, order)]
    return items, {name: out for name, _, out in items}


def run_case1(pkg, inp, speed, order=0):
    engine, braid = pkg.engine, pkg.braid
    items = [_timed(speed, w, lambda w=w: str(engine.ambient_invariant(
                 braid.parse(w), 1)))
             for w in _in_order(inp["words"], order)]
    return items, {"invariants": {w: out for w, _, out in items}}


class _RowClock:
    """Times each suite row with the benchmark's clock, around the public
    call the row makes (compare_case2/compare_case3 for regular rows,
    ambient_invariant for ambient rows), at every binding of it."""

    def __init__(self, pkg, table, speed):
        self.rows = []
        self.speed = speed
        self.patcher = Patcher([getattr(pkg, m) for m in
                                ("engine", "oracles", "harness", "cli")])
        names = {r.word: r.name for r in table}
        targets = ((pkg.oracles, "compare_case2", lambda a, kw: 2),
                   (pkg.oracles, "compare_case3", lambda a, kw: 3),
                   (pkg.engine, "ambient_invariant",
                    lambda a, kw: a[1] if len(a) > 1 else kw["case"]))
        for mod, attr, case_of in targets:
            fn = getattr(mod, attr)
            self.patcher.replace(fn, self._wrap(fn, case_of, names))

    def _wrap(self, fn, case_of, names):
        rows = self.rows
        speed = self.speed

        def wrapper(*args, **kwargs):
            speed()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                word = args[0]
                rows.append((f"case {case_of(args, kwargs)} "
                             f"{names.get(word, str(word))}",
                             time.perf_counter() - t0, ""))
        return wrapper

    def restore(self):
        self.patcher.restore()


def run_table(pkg, inp, table, speed):
    argv = ["suite", "--cases", ",".join(str(c) for c in inp["cases"]),
            "--max-crossings", str(inp["max_crossings"]), "--jobs", "1"]
    if inp.get("table"):
        argv += ["--table", inp["table"]]
    clock = _RowClock(pkg, table, speed)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                pkg.cli.main(argv + ["--out", tmp])
        finally:
            clock.restore()
        # bytes as written: the CSV has \r\n line ends
        outputs = {name: (Path(tmp) / name).read_bytes().decode()
                   for name in ("suite.csv", "suite.json")}
    return clock.rows, outputs


# ---------------------------------------------------------------------------
# Checks against the stored references (run in the parent process).


def check_items(workload, items, outputs, refs):
    """Number of failed items in one pass, given (name, output) items.  An
    item fails when it raised, when its output differs from the reference,
    or (table) when its row is missing, has status "fail", or belongs to a
    case nothing checks."""
    if workload == "proofs":
        want = refs["proofs"]
        return sum(1 for name, out in items if want.get(name) != out)
    if workload == "case1-words":
        want = refs["case1"]
        return sum(1 for word, out in items
                   if out.startswith("error:") or want.get(word) != out)
    if workload == "table":
        got = _table_rows(outputs)
        want = _table_rows({"suite.csv": refs["table.csv"],
                            "suite.json": refs["table.json"]})
        if len(items) == len(want) and outputs != {
                "suite.csv": refs["table.csv"],
                "suite.json": refs["table.json"]}:
            return len(items)       # whole table: the files must match
        failed = 0
        for name, _ in items:
            _, case, knot = name.split(" ", 2)
            row = got.get((knot, int(case)))
            if (row is None or row != want.get((knot, int(case)))
                    or row[0]["status"] == "fail"
                    or int(case) not in CHECKED_CASES):
                failed += 1
        return failed
    raise ValueError(workload)


def _table_rows(outputs):
    """(knot, case) -> (CSV record, JSON record) of a suite report."""
    rows = {}
    for rec in csv.DictReader(io.StringIO(outputs["suite.csv"])):
        rows[(rec["knot"], int(rec["case"]))] = [rec, None]
    for rec in json.loads(outputs["suite.json"])["rows"]:
        rows.setdefault((rec["knot"], rec["case"]), [None, None])[1] = rec
    return rows


def load_refs():
    pool = load_pool()
    return {"proofs": json.loads((REFS / "proofs.json").read_text()),
            "table.csv": (REFS / "table_suite.csv").read_bytes().decode(),
            "table.json": (REFS / "table_suite.json").read_bytes().decode(),
            "case1": {w["word"]: w["invariant"] for w in pool["words"]}}
