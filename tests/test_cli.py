"""CLI surface: argument handling, output formats and exit codes."""

import json

import pytest

from gaugeknot import cli, rmat


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    code, out, _ = run(capsys, "eigen", "--case", "1")
    assert code == 0
    assert "distinct eigenvalues 3" in out
    assert "eigenvector count 16 / 16" in out


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--case", "3",
                       "--isotopy", "regular", "--knot", "3_1",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["knot"] == "3_1" and data["writhe"] == 3
    assert data["matrix"][0][0] == "1 * p^-6"


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
