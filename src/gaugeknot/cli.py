"""Command-line interface.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import braid, engine, harness, oracles, rmat, ybe
from .ring import RingError

EX_OK, EX_FAIL, EX_USAGE = 0, 1, 2


def _word_from_args(args, parser):
    if args.braid is not None:
        try:
            word = braid.parse(args.braid)
        except braid.BraidError as exc:
            parser.error(str(exc))
        if braid.closure_components(word) != 1:
            parser.error(f"--braid {args.braid!r}: the closure is a link, "
                         f"not a knot")
        return word
    for rec in harness.load_table():
        if rec.name == args.knot:
            return rec.word
    parser.error(f"knot {args.knot!r} not in table")


def _cmd_verify(args, parser):
    what = getattr(args, "what", None)
    checks = []
    gauged = rmat.build_trig_gauged()
    free = rmat.build_trig_gauge_free()
    if what is None:
        checks.append(("trig gauged entries == 36", len(gauged) == 36))
        checks.append(("trig gauge-free entries == 36", len(free) == 36))
        for i, count in ((1, 26), (2, 20), (3, 17), (4, 16)):
            checks.append((f"quantum R{i} entries == {count}",
                           len(rmat.quantum_r(i)) == count))
    if what in (None, "qybe"):
        cases = [args.case] if args.case else [1, 2, 3, 4]
        for i in cases:
            checks.append((f"QYBE R{i}",
                           bool(ybe.verify_qybe(rmat.quantum_r(i)))))
    if what in (None, "gauge"):
        checks.append(("gauge properties",
                       bool(ybe.verify_gauge_properties(
                           rmat.GaugeMatrix.standard(), free))))
        checks.append(("gauge conjugation",
                       rmat.apply_gauge(free, rmat.GaugeMatrix.standard())
                       == gauged))
    if what in (None, "tybe"):
        checks.append(("TYBE gauge-free",
                       bool(ybe.verify_tybe_additive(free))))
        checks.append(("TYBE gauged", bool(ybe.verify_tybe_additive(gauged))))
    if what is None:
        for i in (1, 2, 3, 4):
            case = rmat.GaugeCase.standard(i)
            checks.append((f"spectral limit case {i}",
                           rmat.spectral_limit(gauged, case)
                           == rmat.quantum_r(i)))
        checks.append(("spectral limit case 4 at gamma=2/3",
                       rmat.spectral_limit(
                           gauged, rmat.GaugeCase.standard(4, Fraction(2, 3)))
                       == rmat.quantum_r(4)))
        for spec in engine.MODELS:
            checks.append((f"handle case {spec[0]} {spec[1]}",
                           engine.verify_handle(engine.model(*spec))))
    bad = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        bad += not ok
    return EX_FAIL if bad else EX_OK


def _cmd_rmatrix(args, parser):
    header = None
    if args.regime == "trig":
        if args.case == 0:
            op, den = rmat.build_trig_gauge_free(), rmat.TRIG_DENOMINATOR
        else:
            case = rmat.GaugeCase.standard(args.case)
            op, den, scale = rmat.substitute_case(rmat.build_trig_gauged(),
                                                  case)
            header = (f"# case {args.case} substitution: X -> X^{scale}, "
                      f"Ru -> X^{case.ru_exp * scale}, "
                      f"Su -> X^{case.su_exp * scale}")
        fmt = lambda v: f"({v}) / ({den})"
    else:
        if args.case == 0:
            parser.error("--regime quantum requires --case 1..4")
        op = rmat.quantum_r(args.case)
        fmt = str
    if args.format == "json":
        rows = [{"indices": list(k), "entry": fmt(v)}
                for k, v in op.sorted_items()]
        print(json.dumps(rows, indent=2))
    else:
        if header:
            print(header)
        print(f"# {len(op)} nonzero components")
        for (a, b, c, d), v in op.sorted_items():
            print(f"({a}{b})<-({c}{d})  {fmt(v)}")
    return EX_OK


def _cmd_eigen(args, parser):
    R = rmat.quantum_r(args.case)
    claimed = rmat.claimed_eigenvalues(args.case)
    rep = rmat.eigen_check(R, claimed)
    print(f"case {args.case}: distinct eigenvalues {rep.distinct}")
    for val, mult in (rep.multiplicities or {}).items():
        print(f"  {val}  x{mult}")
    deficiency = rmat.eigenvector_deficiency(R)
    print(f"eigenvector count {deficiency} / 16")
    print("PASS" if rep.ok else f"FAIL  {rep.message}")
    return EX_OK if rep.ok else EX_FAIL


def _cmd_invariant(args, parser):
    word = _word_from_args(args, parser)
    isotopy = args.isotopy or engine.suite_isotopy(args.case)
    if (args.case, isotopy) not in engine.MODELS:
        parser.error(f"--isotopy: no {isotopy} model for case {args.case}")
    mod = engine.model(args.case, isotopy)
    inv = engine.tangle_invariant(word, mod)
    matrix = [[str(v) for v in row] for row in inv.matrix]
    if args.format == "json":
        print(json.dumps({"knot": args.knot or str(word), "case": args.case,
                          "isotopy": isotopy, "writhe": word.writhe,
                          "matrix": matrix}, indent=2, sort_keys=True))
    else:
        for a in range(4):
            print(f"[{a + 1}][{a + 1}]  {matrix[a][a]}")
    return EX_OK


def _cmd_oracle(args, parser):
    word = _word_from_args(args, parser)
    fn = oracles.alexander if args.oracle == "alexander" else oracles.jones
    print(fn(word))
    return EX_OK


def _cmd_matveev(args, parser):
    mod = engine.model(args.case, engine.suite_isotopy(args.case))
    res = engine.matveev_test(mod)
    print(f"case {args.case}: "
          + ("distinguishes the pair" if res else "cannot distinguish (trivial)"))
    return EX_OK


def _cmd_suite(args, parser):
    try:
        cases = sorted({int(c) for c in args.cases.split(",")})
    except ValueError:
        parser.error(f"--cases {args.cases!r}: not comma-separated integers")
    unknown = set(cases) - {case for case, _ in engine.MODELS}
    if unknown:
        parser.error(f"--cases: no state model for case {min(unknown)}")
    if args.jobs < 1:
        parser.error(f"--jobs {args.jobs}: need at least 1")
    table = harness.load_table(args.table) if args.table else None
    try:
        report = harness.run_suite(cases, table=table,
                                   max_crossings=args.max_crossings,
                                   jobs=args.jobs)
    except harness.TableError as exc:
        parser.error(str(exc))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.write_csv(out / "suite.csv")
        report.write_json(out / "suite.json")
    for r in report.rows:
        print(f"{r['status']:<14} case {r['case']}  {r['knot']:<7} "
              f"({r['seconds']}s)  {r['unit']}")
    print(f"{report.total} rows, {report.failed} failures, "
          f"{report.unchecked} unchecked")
    return EX_OK if report.ok else EX_FAIL


def build_parser():
    p = argparse.ArgumentParser(prog="gaugeknot")
    sub = p.add_subparsers(dest="cmd", required=True)

    ver = sub.add_parser("verify", help="run symbolic R-matrix checks")
    ver.add_argument("--what", choices=["qybe", "tybe", "gauge"])
    ver.add_argument("--case", type=int, choices=[1, 2, 3, 4])
    ver.set_defaults(func=_cmd_verify, parser=ver)

    rm = sub.add_parser("rmatrix", help="print an R-matrix")
    rm_sub = rm.add_subparsers(dest="rcmd", required=True)
    show = rm_sub.add_parser("show")
    show.add_argument("--regime", default="trig",
                      choices=["trig", "quantum"])
    show.add_argument("--case", type=int, default=0, choices=range(5),
                      help="quantum case 1..4; with --regime trig, 0 "
                           "selects the gauge-free operator and 1..4 the "
                           "gauged one under that case's (Ru, Su) -> "
                           "X-power substitution, N included")
    show.add_argument("--format", default="text", choices=["text", "json"])
    show.set_defaults(func=_cmd_rmatrix, parser=show)

    eig = sub.add_parser("eigen", help="eigenvalue check at sample points")
    eig.add_argument("--case", type=int, required=True, choices=[1, 2, 3, 4])
    eig.set_defaults(func=_cmd_eigen, parser=eig)

    inv = sub.add_parser("invariant", help="evaluate a (1,1)-tangle invariant")
    inv.add_argument("--case", type=int, required=True, choices=[1, 2, 3, 4])
    inv.add_argument("--isotopy", choices=["ambient", "regular"],
                     help="default: regular when the case has a regular "
                          "model, else ambient")
    word = inv.add_mutually_exclusive_group(required=True)
    word.add_argument("--braid")
    word.add_argument("--knot")
    inv.add_argument("--format", default="text", choices=["text", "json"])
    inv.set_defaults(func=_cmd_invariant, parser=inv)

    orc = sub.add_parser("oracle", help="classical oracle polynomials")
    orc.add_argument("oracle", choices=["alexander", "jones"])
    word = orc.add_mutually_exclusive_group(required=True)
    word.add_argument("--braid")
    word.add_argument("--knot")
    orc.set_defaults(func=_cmd_oracle, parser=orc)

    mat = sub.add_parser("matveev", help="distinguishing-pair test")
    mat.add_argument("--case", type=int, required=True, choices=[1, 2, 3, 4])
    mat.set_defaults(func=_cmd_matveev, parser=mat)

    st = sub.add_parser("suite", help="run the knot-table suite")
    st.add_argument("--cases", default="2,3,4")
    st.add_argument("--max-crossings", type=int, default=8)
    st.add_argument("--out")
    st.add_argument("--jobs", type=int, default=1)
    st.add_argument("--table")
    st.set_defaults(func=_cmd_suite, parser=st)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # each handler reports usage errors through its own subcommand's
        # parser, so the usage line names that subcommand's options
        return args.func(args, args.parser)
    except (braid.BraidError, harness.TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (RingError, oracles.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL


if __name__ == "__main__":
    sys.exit(main())
