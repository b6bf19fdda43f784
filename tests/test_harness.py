"""Knot-table loading, suite runs and report determinism."""

import re

import pytest

from gaugeknot import braid, cli, engine, harness, oracles
from gaugeknot.ring import QUANTUM


def test_bundled_table():
    table = harness.load_table()
    names = [r.name for r in table]
    assert len(names) == len(set(names))
    assert "3_1" in names and "4_1" in names and "8_19" in names
    by_name = {r.name: r for r in table}
    assert str(by_name["3_1"].word) == "2 : 1 1 1"
    assert by_name["3_1"].crossings == 3
    assert by_name["8_19"].crossings == 8
    for rec in table:
        assert braid.closure_components(rec.word) == 1
    # every prime knot through 8 crossings is present
    counts = {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 21}
    for c, n in counts.items():
        assert sum(1 for r in table if r.crossings == c) == n


def test_table_words_have_frozen_alexander():
    """Spot-check the braid words against knot-table Alexander data."""
    by_name = {r.name: r for r in harness.load_table()}

    def alex(name):
        return {e // 2: c for e, c in
                oracles.alexander(by_name[name].word).terms.items()}

    assert alex("3_1") == {1: 1, 0: -1, -1: 1}
    assert alex("4_1") == {1: -1, 0: 3, -1: -1}
    assert alex("5_1") == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    assert alex("6_1") == {1: -2, 0: 5, -1: -2}
    assert alex("8_19") == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}


def test_load_table_errors(tmp_path):
    def load(text):
        f = tmp_path / "table.txt"
        f.write_text(text)
        return harness.load_table(f)

    assert load("# only a comment\n") == []
    recs = load("3_1 ; 2 ; 1 1 1  # trefoil\n")
    assert len(recs) == 1 and recs[0].name == "3_1"
    with pytest.raises(harness.TableError, match=":2: "):
        load("3_1 ; 2 ; 1 1 1\n3_2 ; 2 ; 5\n")
    with pytest.raises(harness.TableError, match="duplicate"):
        load("3_1 ; 2 ; 1 1 1\n3_1 ; 2 ; 1 1 1\n")
    with pytest.raises(harness.TableError, match="link"):
        load("2_1 ; 2 ; 1 1\n")
    with pytest.raises(harness.TableError):
        load("3_1 ; 2\n")


@pytest.mark.parametrize("row, token", [
    ("3_1 ; 1_0 ; 1 1 1", "1_0"),
    ("3_1 ; \u0662 ; 1 1 1", "\u0662"),
    ("3_1 ; 2 ; 1 1_0 1", "1_0"),
    ("3_1 ; 2 ; 1 \u0661 1", "\u0661"),
    ("3_1 ; 2.0 ; 1 1 1", "2.0"),
])
def test_load_table_takes_ascii_decimal_integers_only(tmp_path, row, token):
    """Strand counts and letters of a row take braid text's integers."""
    f = tmp_path / "table.txt"
    f.write_text(f"4_1 ; 3 ; 1 -2 1 -2\n{row}\n")
    with pytest.raises(harness.TableError,
                       match=re.escape(f"{f}:2: bad ") + ".*"
                       + re.escape(repr(token))):
        harness.load_table(f)


@pytest.mark.parametrize("name", ["trefoil", "x3_1", "3a_1", "_1", "+3_1",
                                  "-3_1", "\u0663_1", "\u00b3_1"])
def test_load_table_refuses_a_name_without_crossing_number(tmp_path, name):
    """The crossing filter reads the crossing number from the knot name."""
    f = tmp_path / "table.txt"
    f.write_text(f"3_1 ; 2 ; 1 1 1\n{name} ; 2 ; 1 1 1\n")
    with pytest.raises(harness.TableError,
                       match=re.escape(f"{f}:2: knot name {name!r}")):
        harness.load_table(f)


@pytest.mark.parametrize("name", ["trefoil", "x3_1", "_1", "\u0663_1", 31])
def test_knot_record_refuses_a_name_without_crossing_number(name):
    """A record built directly, as run_suite takes them, is checked too."""
    with pytest.raises(harness.TableError,
                       match=re.escape(f"knot name {name!r} does not begin")):
        harness.KnotRecord(name, braid.parse("2 : 1 1 1"))


def test_load_table_refuses_an_unreadable_path(tmp_path, monkeypatch):
    missing = tmp_path / "no-such-table.txt"
    for path in (missing, tmp_path):
        with pytest.raises(harness.TableError,
                           match=re.escape(f"{path}: cannot read the knot "
                                           f"table: ")):
            harness.load_table(path)
    monkeypatch.setenv("GAUGEKNOT_TABLE", str(missing))
    with pytest.raises(harness.TableError, match=re.escape(str(missing))):
        harness.load_table()
    binary = tmp_path / "table.bin"
    binary.write_bytes(b"3_1 ; 2 ; 1 1 1\n\xff\n")
    with pytest.raises(harness.TableError, match="cannot read"):
        harness.load_table(binary)


def test_empty_table_variable_is_refused(monkeypatch):
    """An empty GAUGEKNOT_TABLE names no file: it is refused by name, not
    read as the path '.' and not taken for the bundled table."""
    monkeypatch.setenv("GAUGEKNOT_TABLE", "")
    with pytest.raises(harness.TableError,
                       match="^GAUGEKNOT_TABLE: empty path$"):
        harness.load_table()
    with pytest.raises(harness.TableError,
                       match="^GAUGEKNOT_TABLE: empty path$"):
        harness.run_suite([2], max_crossings=3)


def test_table_env_override(tmp_path, monkeypatch):
    f = tmp_path / "mini.txt"
    f.write_text("3_1 ; 2 ; 1 1 1\n")
    monkeypatch.setenv("GAUGEKNOT_TABLE", str(f))
    table = harness.load_table()
    assert [r.name for r in table] == ["3_1"]


def test_empty_selection_is_refused():
    """A run with no row checks nothing, so it is no pass."""
    for kwargs in ({"table": []}, {"max_crossings": 2}):
        with pytest.raises(harness.TableError, match="nothing to check"):
            harness.run_suite({2, 3}, **kwargs)
    with pytest.raises(harness.TableError, match="at most 2 crossings"):
        harness.run_suite([4], max_crossings=2)
    with pytest.raises(harness.TableError):
        harness.run_suite(set(), max_crossings=10)


def test_a_repeated_case_is_run_once():
    report = harness.run_suite([4, 4], max_crossings=3)
    assert report.total == 1
    assert [(r["case"], r["knot"]) for r in report.rows] == [(4, "3_1")]
    assert harness.run_suite([3, 4, 3], max_crossings=3).total == 2


@pytest.mark.parametrize("jobs", [0, -3, 1.0, "2", None, True])
def test_bad_jobs_are_refused(jobs):
    table = [r for r in harness.load_table() if r.name == "3_1"]
    with pytest.raises(ValueError, match=re.escape(f"jobs {jobs!r}")):
        harness.run_suite({3}, table=table, jobs=jobs)


@pytest.mark.parametrize("top", [8.5, "8", None, True])
def test_bad_max_crossings_are_refused(top):
    """A float, str, None or bool is no crossing bound, refused before
    any row runs: 8.5 would select the rows of 8 and True those of 1."""
    with pytest.raises(ValueError, match=re.escape(f"max_crossings {top!r}")):
        harness.run_suite({3}, max_crossings=top)


@pytest.mark.parametrize("case", [2.0, True, "3", 7, None])
def test_bad_cases_are_refused(case):
    """Refused before any row runs: a float or bool is no case, and a
    case with no state model is no row of the report."""
    table = [r for r in harness.load_table() if r.name == "3_1"]
    with pytest.raises(ValueError, match=re.escape(f"case {case!r}")):
        harness.run_suite({3, case}, table=table)


def test_a_global_unit_is_a_failure(monkeypatch, capsys):
    """Every case-3 diagonal scaled by p^2 reads fail on every row, naming
    the entry, and neither the report nor the CLI passes."""
    true = oracles.tangle_invariant
    p2 = QUANTUM.mono(1, p=2)

    def scaled(word, mod):
        return engine.TangleInvariant(tuple(d * p2 for d in
                                            true(word, mod).entries))

    monkeypatch.setattr(oracles, "tangle_invariant", scaled)
    table = [r for r in harness.load_table() if r.crossings <= 5]
    report = harness.run_suite({3}, table=table)
    assert report.total == 4 and report.failed == 4 and not report.ok
    for row in report.rows:
        assert row["status"] == "fail"
        assert row["unit"].startswith("entry11: got ")
    assert cli.main(["suite", "--cases", "3", "--max-crossings", "5"]) == 1
    assert capsys.readouterr().out.endswith(
        "4 rows, 4 failures, 0 unchecked\n")


def test_suite_small():
    table = [r for r in harness.load_table() if r.name in ("3_1", "4_1")]
    report = harness.run_suite({2, 3, 4}, table=table)
    assert report.total == 6
    assert report.failed == 0 and report.ok
    for row in report.rows:
        assert row["status"] == "match"
        if row["case"] in (2, 3):
            assert row["unit"] == "1"
            assert row["isotopy"] == "regular"
        else:
            assert row["entry11"] == "1"
            assert row["isotopy"] == "ambient"


def test_case1_rows_are_unchecked():
    table = [r for r in harness.load_table() if r.name == "3_1"]
    report = harness.run_suite({1}, table=table)
    assert [r["status"] for r in report.rows] == ["unchecked"]
    assert report.failed == 0 and report.ok


def test_suite_records_failures():
    bad = harness.KnotRecord("9_99", braid.parse("2 : 1 1 1 1 1"))
    report = harness.run_suite({4}, table=[bad], max_crossings=10)
    # the word closes to 5_1, a genuine knot, so case 4 still matches;
    # the report machinery must not blow up on arbitrary words
    assert report.total == 1

    class Boom:
        name = "x_1"
        word = None
        crossings = 0

    report = harness.run_suite({2}, table=[Boom()])
    assert report.failed == 1 and not report.ok


def test_package_errors_become_fail_rows(monkeypatch):
    table = [r for r in harness.load_table() if r.name == "3_1"]

    def refuse(word):
        raise oracles.OracleError("bracket refused")

    monkeypatch.setattr(harness, "compare_case3", refuse)
    report = harness.run_suite({3}, table=table)
    (row,) = report.rows
    assert row["status"] == "fail"
    assert row["unit"] == "OracleError: bracket refused"
    assert row["isotopy"] == "regular" and row["entry11"] == ""


def test_other_errors_propagate(monkeypatch):
    table = [r for r in harness.load_table() if r.name == "3_1"]

    def broken(word):
        return {}["missing"]

    monkeypatch.setattr(harness, "compare_case3", broken)
    with pytest.raises(KeyError, match="missing"):
        harness.run_suite({3}, table=table)


def test_report_determinism(tmp_path):
    table = [r for r in harness.load_table() if r.crossings <= 4]
    paths = []
    for k in (1, 2):
        report = harness.run_suite({2, 4}, table=table)
        csv_p = tmp_path / f"s{k}.csv"
        json_p = tmp_path / f"s{k}.json"
        report.write_csv(csv_p)
        report.write_json(json_p)
        paths.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert paths[0] == paths[1]


def test_suite_pool_is_capped_at_the_rows(monkeypatch):
    """The pool starts all its workers at the first task, so it gets no
    more workers than there are rows; the fake pool starts no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    table = [r for r in harness.load_table() if r.name in ("3_1", "4_1")]
    report = harness.run_suite({4}, table=table, jobs=64)
    assert sizes == [2] and report.total == 2 and report.ok
    harness.run_suite({2, 4}, table=table, jobs=3)
    assert sizes == [2, 3]
    harness.run_suite({4}, table=table[:1], jobs=64)   # one row: no pool
    assert sizes == [2, 3]


@pytest.mark.parametrize("jobs", [1, 2])
def test_suite_rows_run_by_case_then_in_table_order(jobs):
    """Rows are listed by case ascending, then in the table's order, which
    here is not crossing order; the pool keeps that order."""
    by_name = {r.name: r for r in harness.load_table()}
    table = [by_name["4_1"], by_name["3_1"]]
    report = harness.run_suite({3, 2}, table=table, jobs=jobs)
    assert [(r["case"], r["knot"]) for r in report.rows] == \
        [(2, "4_1"), (2, "3_1"), (3, "4_1"), (3, "3_1")]


def test_suite_parallel_matches_serial():
    table = [r for r in harness.load_table() if r.crossings <= 5]
    serial = harness.run_suite({3}, table=table, jobs=1)
    parallel = harness.run_suite({3}, table=table, jobs=2)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                          for r in rows]
    assert strip(serial.rows) == strip(parallel.rows)
