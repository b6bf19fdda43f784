"""CLI surface: argument handling, output formats and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaugeknot import cli, rmat


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: The whole standard output of ``gaugeknot verify``, one line per check.
VERIFY_LINES = [
    "PASS  trig gauged entries == 36",
    "PASS  trig gauge-free entries == 36",
    "PASS  quantum R1 entries == 26",
    "PASS  quantum R2 entries == 20",
    "PASS  quantum R3 entries == 17",
    "PASS  quantum R4 entries == 16",
    "PASS  QYBE R1",
    "PASS  QYBE R2",
    "PASS  QYBE R3",
    "PASS  QYBE R4",
    "PASS  gauge properties",
    "PASS  gauge conjugation",
    "PASS  TYBE gauge-free",
    "PASS  TYBE gauged",
    "PASS  spectral limit case 1",
    "PASS  spectral limit case 2",
    "PASS  spectral limit case 3",
    "PASS  spectral limit case 4",
    "PASS  spectral limit case 4 at gamma=2/3",
    "PASS  handle case 1 ambient",
    "PASS  handle case 2 ambient",
    "PASS  handle case 4 ambient",
    "PASS  handle case 2 regular",
    "PASS  handle case 3 regular",
]


def test_verify_prints_every_check(capsys):
    """``verify`` and ``verify --what tybe`` exit 0 and print exactly these
    lines: every check passes, in a fixed order."""
    code, out, err = run(capsys, "verify")
    assert (code, out, err) == (0, "\n".join(VERIFY_LINES) + "\n", "")
    assert len(VERIFY_LINES) == 24
    code, out, err = run(capsys, "verify", "--what", "tybe")
    assert (code, out, err) == (0, "\n".join(VERIFY_LINES[12:14]) + "\n", "")


def test_verify_gauge_subset(capsys):
    code, out, _ = run(capsys, "verify", "--what", "gauge")
    assert code == 0
    assert "PASS  gauge properties" in out


def test_verify_qybe_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--what", "qybe", "--case", "3")
    assert code == 0
    assert out.count("QYBE") == 1


def test_rmatrix_show_json(capsys):
    code, out, _ = run(capsys, "rmatrix", "show", "--regime", "quantum",
                       "--case", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert rows[0]["indices"] == [1, 1, 1, 1]
    assert rows[0]["entry"] == "1"


def test_rmatrix_show_trig(capsys):
    """Each trigonometric entry prints as its numerator over the one
    denominator N."""
    code, out, _ = run(capsys, "rmatrix", "show", "--regime", "trig")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# 36 nonzero components"
    over = f" / ({rmat.TRIG_DENOMINATOR})"
    assert len(lines) == 37 and all(line.endswith(over) for line in lines[1:])
    code, out, _ = run(capsys, "rmatrix", "show", "--regime", "trig",
                       "--format", "json")
    assert all(row["entry"].endswith(over) for row in json.loads(out))


@pytest.mark.parametrize("case, header", [
    (1, "# case 1 substitution: X -> X^1, Ru -> X^0, Su -> X^0"),
    (2, "# case 2 substitution: X -> X^1, Ru -> X^0, Su -> X^1"),
    (3, "# case 3 substitution: X -> X^1, Ru -> X^1, Su -> X^1"),
    (4, "# case 4 substitution: X -> X^2, Ru -> X^1, Su -> X^3"),
])
def test_rmatrix_show_trig_case(capsys, case, header):
    """With --case 1..4 the gauged operator and N are printed under the
    case's (Ru, Su) -> X-power substitution, the one spectral_limit takes,
    so no two cases print the same operator."""
    code, out, _ = run(capsys, "rmatrix", "show", "--regime", "trig",
                       "--case", str(case))
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == [header, "# 36 nonzero components"]
    op, den, _ = rmat.substitute_case(rmat.build_trig_gauged(),
                                      rmat.GaugeCase.standard(case))
    assert lines[2:] == [f"({a}{b})<-({c}{d})  ({v}) / ({den})"
                         for (a, b, c, d), v in op.sorted_items()]
    assert all("Ru" not in line and "Su" not in line for line in lines[2:])
    code, out, _ = run(capsys, "rmatrix", "show", "--regime", "trig",
                       "--case", str(case), "--format", "json")
    assert [row["entry"] for row in json.loads(out)] == \
        [line.split("  ", 1)[1] for line in lines[2:]]


def test_rmatrix_show_trig_cases_differ(capsys):
    """Cases 1..4 print four different operators; case 1 sends r**u and
    s**u to 1, so its operator is the gauge-free one of --case 0."""
    bodies = []
    for case in range(5):
        _, out, _ = run(capsys, "rmatrix", "show", "--regime", "trig",
                        "--case", str(case))
        bodies.append(out.split("# 36 nonzero components\n", 1)[1])
    assert len(set(bodies[1:])) == 4
    assert bodies[1] == bodies[0]


def test_eigen(capsys):
    """For every case, one line per claimed eigenvalue, in the claimed
    order, whose multiplicities add up to the 16 dimensions."""
    for case, distinct in ((1, 3), (2, 7), (3, 9), (4, 10)):
        code, out, _ = run(capsys, "eigen", "--case", str(case))
        assert code == 0
        head, *values, count, verdict = out.splitlines()
        assert head == f"case {case}: distinct eigenvalues {distinct}"
        claimed = rmat.claimed_eigenvalues(case)
        assert len(claimed) == len(values) == distinct
        mults = []
        for value, line in zip(claimed, values):
            assert line.startswith(f"  {value}  x")
            mults.append(int(line.rsplit("  x", 1)[1]))
        assert min(mults) > 0 and sum(mults) == 16
        assert (count, verdict) == ("eigenvector count 16 / 16", "PASS")


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--case", "3",
                       "--isotopy", "regular", "--knot", "3_1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["knot"] == "3_1" and data["writhe"] == 3
    mid = "1 * Q^4 - 1 - 1 * Q^-8"
    assert data["matrix"] == [["1 * p^-6", "0", "0", "0"],
                              ["0", mid, "0", "0"],
                              ["0", "0", mid, "0"],
                              ["0", "0", "0", "1 * p^6"]]


def test_invariant_default_isotopy_is_the_suite_one(capsys):
    code, out, _ = run(capsys, "invariant", "--case", "1", "--knot", "3_1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["isotopy"] == "ambient"


def test_invariant_without_a_model_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "--case", "3", "--isotopy", "ambient",
            "--knot", "3_1")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, usage", [
    (("invariant", "--case", "3", "--isotopy", "ambient", "--knot", "3_1"),
     "usage: gaugeknot invariant "),
    (("rmatrix", "show", "--regime", "quantum"),
     "usage: gaugeknot rmatrix show "),
    (("rmatrix", "show", "--regime", "trig", "--case", "9"),
     "usage: gaugeknot rmatrix show "),
    # a suite that would check nothing is refused, not reported as passing
    (("suite", "--max-crossings", "2"), "usage: gaugeknot suite "),
    (("suite", "--jobs", "0"), "usage: gaugeknot suite "),
    (("suite", "--jobs", "-3"), "usage: gaugeknot suite "),
    # exactly one of --braid and --knot names the knot
    (("invariant", "--case", "2", "--braid", "2 : 1", "--knot", "3_1"),
     "usage: gaugeknot invariant "),
    (("invariant", "--case", "2"), "usage: gaugeknot invariant "),
    (("oracle", "alexander", "--braid", "2 : 1", "--knot", "3_1"),
     "usage: gaugeknot oracle "),
    (("oracle", "jones"), "usage: gaugeknot oracle "),
])
def test_usage_errors_name_the_subcommand(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


def test_invariant_braid_text(capsys):
    code, out, _ = run(capsys, "invariant", "--case", "4",
                       "--isotopy", "ambient", "--braid", "2 : 1 1 1")
    assert code == 0
    assert "[1][1]  1" in out


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "alexander", "--braid", "2 : 1 1 1")
    assert code == 0
    code, out, _ = run(capsys, "oracle", "jones", "--knot", "4_1")
    assert code == 0


def test_matveev(capsys):
    code, out, _ = run(capsys, "matveev", "--case", "4")
    assert code == 0
    assert "cannot distinguish" in out
    code, out, _ = run(capsys, "matveev", "--case", "2")
    assert "distinguishes" in out


def test_suite_writes_reports(capsys, tmp_path):
    code, out, _ = run(capsys, "suite", "--cases", "4",
                       "--max-crossings", "4", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "suite.csv").exists()
    assert (tmp_path / "suite.json").exists()
    header = (tmp_path / "suite.csv").read_text().splitlines()[0]
    assert header == ("knot,case,isotopy,writhe,entry11,entry22,"
                      "entry33,entry44,status,unit")


def test_suite_out_errors_are_usage_errors(capsys, tmp_path):
    """A file where the directory goes is refused before the run, which
    here selects no row and would fail first; a directory where a report
    goes, after the run.  Each exits 2 naming the path."""
    f, d = tmp_path / "file", tmp_path / "dir"
    f.write_text("")
    (d / "suite.csv").mkdir(parents=True)
    for arg, top, path, why in ((f, "0", f, "File exists"),
                                (d, "4", d / "suite.csv", "Is a directory")):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "suite", "--cases", "4", "--max-crossings", top,
                "--out", str(arg))
        stdout, err = capsys.readouterr()
        assert (exc.value.code, stdout) == (2, "")
        assert err.endswith(f"error: --out: {path}: {why}\n")


def test_suite_refuses_an_empty_out(capsys, tmp_path, monkeypatch):
    """An empty --out names no directory: it is refused before any row
    runs, and no report lands in the working directory."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "suite", "--cases", "4", "--max-crossings", "3",
            "--out", "")
    stdout, err = capsys.readouterr()
    assert (exc.value.code, stdout) == (2, "")
    assert err.endswith("error: --out: empty path\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_multiprocessing_out():
    """Only a suite in more than one job imports the process pool, so a
    fresh interpreter that imports the CLI has no multiprocessing."""
    src = str(Path(cli.__file__).parents[1])
    probe = "import sys, gaugeknot.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_suite_summary_counts_unchecked_rows(capsys):
    """Case-1 rows are compared with nothing, so the summary says so."""
    code, out, _ = run(capsys, "suite", "--cases", "1,4",
                       "--max-crossings", "4")
    assert code == 0
    assert out.endswith("\n4 rows, 0 failures, 2 unchecked\n")


@pytest.mark.parametrize("cases", ["x", "5"])
def test_bad_suite_cases_are_usage_errors(capsys, cases):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "suite", "--cases", cases)
    assert exc.value.code == 2


@pytest.mark.parametrize("cases, token", [("2,1_0", "1_0"),
                                          ("\u0663", "\u0663"),
                                          ("3,", "")])
def test_suite_cases_take_ascii_decimal_integers_only(capsys, cases, token):
    """``--cases`` takes braid text's integers, and the error names the
    token."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, "suite", "--cases", cases)
    assert exc.value.code == 2
    assert f"bad case {token!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, token", [
    (("invariant", "--case", "3", "--braid", "1_0 : 1 2 3 4 5 6 7 8 9"),
     "1_0"),
    (("oracle", "jones", "--braid", "\u0663 : 1 -2 1"), "\u0663"),
])
def test_non_ascii_or_underscored_braid_text_is_a_usage_error(capsys, argv,
                                                              token):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    assert f"error: bad strand count {token!r}" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["\u0663", "1_0"])
@pytest.mark.parametrize("argv", [
    ("verify", "--case"),
    ("rmatrix", "show", "--case"),
    ("eigen", "--case"),
    ("invariant", "--knot", "3_1", "--case"),
    ("matveev", "--case"),
    ("suite", "--max-crossings"),
    ("suite", "--jobs"),
])
def test_integer_options_take_ascii_decimal_integers_only(capsys, argv,
                                                          token):
    """Every integer option reads its value as braid text's integers do,
    and the error names the option and the token; ``int`` would take
    both tokens."""
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv, token)
    assert exc.value.code == 2
    assert (f"error: argument {argv[-1]}: bad integer {token!r}"
            in capsys.readouterr().err)


def test_integer_options_take_a_sign_and_leading_zeros(capsys):
    code, out, _ = run(capsys, "verify", "--what", "qybe", "--case", "+03")
    assert (code, out) == (0, "PASS  QYBE R3\n")


def test_bad_braid_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "invariant", "--case", "2", "--braid", "2 : 9")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, usage", [
    (("invariant", "--case", "2"), "usage: gaugeknot invariant "),
    (("oracle", "jones"), "usage: gaugeknot oracle "),
    (("oracle", "alexander"), "usage: gaugeknot oracle "),
])
def test_link_braid_is_usage_error(capsys, argv, usage):
    """A --braid word whose closure is a link is refused input, exit 2,
    not a failed check."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--braid", "2 : 1 1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert err.endswith("error: --braid '2 : 1 1': the closure is a link, "
                        "not a knot\n")


def test_table_name_without_crossing_number_is_usage_error(capsys,
                                                          tmp_path):
    f = tmp_path / "table.txt"
    f.write_text("trefoil ; 2 ; 1 1 1\n")
    code, out, err = run(capsys, "suite", "--cases", "4", "--table", str(f))
    assert code == 2 and out == ""
    assert err == (f"error: {f}:1: knot name 'trefoil' does not begin "
                   f"with its crossing number\n")


def test_suite_orders_a_row_whose_index_is_not_ascii_digits(capsys,
                                                             tmp_path):
    """'3_\u00b9' begins with its crossing number, so the table takes it;
    its index '\u00b9' counts as a digit to ``str.isdigit`` but is no
    ASCII digit, so it sorts as index 0 and the suite runs to the end."""
    f = tmp_path / "table.txt"
    f.write_text("3_\u00b9 ; 2 ; 1 1 1\n4_1 ; 3 ; 1 -2 1 -2\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "suite", "--cases", "4", "--table", str(f),
                         "--out", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert [line.split()[3] for line in out.splitlines()[:-1]] == \
        ["3_\u00b9", "4_1"]
    rows = (tmp_path / "out" / "suite.csv").read_text(
        encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3_\u00b9", "4_1"]


def test_missing_table_is_usage_error(capsys, tmp_path, monkeypatch):
    """Through --table and through GAUGEKNOT_TABLE."""
    missing = tmp_path / "no-such-table.txt"
    want = (f"error: {missing}: cannot read the knot table: "
            f"No such file or directory\n")
    code, out, err = run(capsys, "suite", "--table", str(missing))
    assert (code, out, err) == (2, "", want)
    monkeypatch.setenv("GAUGEKNOT_TABLE", str(missing))
    code, out, err = run(capsys, "invariant", "--case", "2", "--knot", "3_1")
    assert (code, out, err) == (2, "", want)


def test_unknown_knot_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "oracle", "jones", "--knot", "99_9")
    assert exc.value.code == 2
