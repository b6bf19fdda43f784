"""Knot-table ingestion and the batch suite reproducing the per-case
invariant identifications over the bundled table."""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .braid import BraidError, BraidWord, closure_components, parse_int
from .engine import MODELS, ambient_invariant, model, suite_isotopy
from .oracles import OracleError, compare_case2, compare_case3
from .ring import RingError

BUNDLED_TABLE = Path(__file__).parent / "data" / "knots.txt"


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class KnotRecord:
    """A knot of the table.  Its name begins with its crossing number, the
    ASCII digits before the first ``_`` (TableError otherwise)."""
    name: str
    word: BraidWord

    def __post_init__(self):
        head = self.name.split("_")[0] if isinstance(self.name, str) else ""
        if not (head.isascii() and head.isdigit()):
            raise TableError(f"knot name {self.name!r} does not begin with "
                             f"its crossing number")

    @property
    def crossings(self):
        """Nominal crossing count from the table name (e.g. 8 for '8_19')."""
        return int(self.name.split("_")[0])


def load_table(path=None):
    if path is None:
        path = os.environ.get("GAUGEKNOT_TABLE", BUNDLED_TABLE)
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc.reason
        raise TableError(f"{path}: cannot read the knot table: {reason}") \
            from None
    records = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise TableError(f"{path}:{lineno}: expected 'name ; n ; letters'")
        name, ns, ls = parts
        if name in seen:
            raise TableError(f"{path}:{lineno}: duplicate knot {name!r}")
        seen.add(name)
        try:   # a TableError is a ValueError
            record = KnotRecord(name, BraidWord(
                parse_int(ns, "strand count"),
                tuple(parse_int(t, "letter") for t in ls.split())))
        except (ValueError, BraidError) as exc:
            raise TableError(f"{path}:{lineno}: {exc}") from None
        if closure_components(record.word) != 1:
            raise TableError(f"{path}:{lineno}: closure of {name} is a link")
        records.append(record)
    return records


@dataclass
class RunReport:
    rows: list = field(default_factory=list)

    @property
    def total(self):
        return len(self.rows)

    @property
    def failed(self):
        return sum(1 for r in self.rows if r["status"] == "fail")

    @property
    def unchecked(self):
        return sum(1 for r in self.rows if r["status"] == "unchecked")

    @property
    def ok(self):
        """No row failed: every compared row matched exactly, and an
        unchecked row is no failure."""
        return not self.failed

    def sort(self):
        self.rows.sort(key=lambda r: (r["case"], _knot_key(r["knot"])))

    def write_csv(self, path):
        cols = ["knot", "case", "isotopy", "writhe",
                "entry11", "entry22", "entry33", "entry44", "status", "unit"]
        with open(path, "w", newline="") as fh:
            out = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
            out.writeheader()
            for r in self.rows:
                out.writerow(r)

    def write_json(self, path):
        rows = [{k: v for k, v in r.items() if k != "seconds"}
                for r in self.rows]
        with open(path, "w") as fh:
            json.dump({"total": self.total, "failed": self.failed,
                       "rows": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _knot_key(name):
    """A row name's sort key: its crossing number, then the index after
    the first ``_`` when that is ASCII digits (0 else), then the name.  A
    name with no ASCII-digit head, which ``run_suite`` meets only in a
    table of records other than ``KnotRecord``, sorts after the rest."""
    a, _, b = name.partition("_")
    if a.isascii() and a.isdigit():
        return (0, int(a), int(b) if b.isascii() and b.isdigit() else 0, name)
    return (1, 0, 0, name)


def _run_one(args):
    name, word, case = args
    t0 = time.monotonic()
    row = {"knot": name, "case": case, "writhe": "",
           "unit": "", "status": "match"}
    try:
        if not isinstance(word, BraidWord):
            raise BraidError(f"{name}: {word!r} is not a braid word")
        row["writhe"] = word.writhe
        row["isotopy"] = isotopy = suite_isotopy(case)
        if isotopy == "regular":
            # Looked up by name at call time, so that rebinding the
            # module's compare_case<n> reaches every row.  The "unit"
            # column keeps the report format: "1" on an exact match, the
            # first differing entry on a failure.
            rep = globals()[f"compare_case{case}"](word)
            diag = rep.diag
            if rep.ok:
                row["unit"] = "1"
            else:
                row["status"] = "fail"
                row["unit"] = rep.detail
        else:
            inv = ambient_invariant(word, case)
            diag = [inv] * 4
            want = model(case, isotopy).scalar
            if want is None:
                row["status"] = "unchecked"
            elif inv != want:
                row["status"] = "fail"
        for i, v in enumerate(diag, start=1):
            row[f"entry{i}{i}"] = str(v)
    except (RingError, OracleError, BraidError) as exc:
        # The package's own errors (EngineError is a RingError) become a
        # fail row; anything else is a fault and propagates.
        row["status"] = "fail"
        row["unit"] = f"{type(exc).__name__}: {exc}"
        for i in range(1, 5):
            row.setdefault(f"entry{i}{i}", "")
        row.setdefault("isotopy", "")
    row["seconds"] = round(time.monotonic() - t0, 3)
    return row


def run_suite(cases, table=None, max_crossings=8, jobs=1):
    """Run the per-case checks over the table, filtered by crossing count,
    each case once however often it is given, in ``jobs`` processes, but
    no more processes than rows.  ValueError unless every case is an int
    with a state model, ``max_crossings`` is an int and ``jobs`` is an int
    of at least 1 (a bool is no int here); TableError when the selection
    has no row, since an empty run checks nothing."""
    known = {case for case, _ in MODELS}
    for case in cases:
        if type(case) is not int or case not in known:
            raise ValueError(f"case {case!r}: need an int with a state model")
    if type(max_crossings) is not int:
        raise ValueError(f"max_crossings {max_crossings!r}: need an int")
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs {jobs!r}: need an int of at least 1")
    if table is None:
        table = load_table()
    work = [(rec.name, rec.word, case)
            for case in sorted(set(cases))
            for rec in table if rec.crossings <= max_crossings]
    if not work:
        raise TableError(f"no knot with at most {max_crossings} crossings "
                         f"in the table: nothing to check")
    report = RunReport()
    if jobs > 1 and len(work) > 1:
        # imported here: multiprocessing is no cost of a serial run.  The
        # pool starts all its workers at once: no more than rows
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            report.rows = list(pool.map(_run_one, work))
    else:
        report.rows = [_run_one(w) for w in work]
    report.sort()
    return report
