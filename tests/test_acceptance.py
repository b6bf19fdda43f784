"""Acceptance gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASS/FAIL line
per criterion.  Everything here is exact arithmetic; no floats anywhere.
"""

import random
from fractions import Fraction

from conftest import rand_knot_word, rand_poly
from gaugeknot import braid, engine, harness, oracles, rmat, ybe
from gaugeknot.ring import QUANTUM

QUANTUM_COUNTS = {1: 26, 2: 20, 3: 17, 4: 16}
SIGMA_MODELS = ((1, "ambient"), (2, "regular"), (3, "regular"),
                (4, "ambient"))


def test_criterion_01_component_counts():
    assert len(rmat.build_trig_gauged()) == 36
    assert len(rmat.build_trig_gauge_free()) == 36
    for i, count in QUANTUM_COUNTS.items():
        assert len(rmat.quantum_r(i)) == count


def test_criterion_02_qybe():
    for i in (1, 2, 3, 4):
        assert ybe.verify_qybe(rmat.quantum_r(i))
    for case, isotopy in SIGMA_MODELS:
        assert ybe.verify_qybe(engine.model(case, isotopy).sigma)


def test_criterion_03_tybe():
    assert ybe.verify_tybe_additive(rmat.build_trig_gauge_free())
    assert ybe.verify_tybe_additive(rmat.build_trig_gauged())


def test_criterion_04_gauge_properties():
    A = rmat.GaugeMatrix.standard()
    free = rmat.build_trig_gauge_free()
    assert ybe.verify_gauge_properties(A, free)
    assert rmat.apply_gauge(free, A) == rmat.build_trig_gauged()


def test_criterion_05_limit_consistency():
    gauged = rmat.build_trig_gauged()
    for i in (1, 2, 3, 4):
        case = rmat.GaugeCase.standard(i)
        assert rmat.spectral_limit(gauged, case) == rmat.quantum_r(i)
    alt = rmat.GaugeCase.standard(4, Fraction(2, 3))
    assert rmat.spectral_limit(gauged, alt) == rmat.quantum_r(4)


def test_criterion_06_eigen_data():
    for i, distinct in ((1, 3), (2, 7), (3, 9), (4, 10)):
        rep = rmat.eigen_check(rmat.quantum_r(i),
                               rmat.claimed_eigenvalues(i))
        assert rep.ok, rep.message
        assert rep.distinct == distinct
        assert rep.points_used >= 5
    assert rmat.eigenvector_deficiency(engine.model(2, "ambient").sigma) == 14
    assert rmat.eigenvector_deficiency(engine.model(4, "ambient").sigma) == 16


def test_criterion_07_handle_identities():
    m = QUANTUM.mono
    for key in engine.MODELS:
        assert engine.verify_handle(engine.model(*key)), key
    assert engine.model(2, "regular").handle == \
        (m(1, p=-1), m(1, p=-1), m(1, p=1), m(1, p=1))
    assert engine.model(3, "regular").handle == \
        (m(1, p=-2), m(-1, Q=-4), m(-1, Q=-4), m(1, p=2))


def test_criterion_08_case2_is_alexander():
    report = harness.run_suite({2}, max_crossings=8, jobs=4)
    assert report.total >= 35
    assert report.failed == 0 and report.ok
    units = {r["unit"] for r in report.rows}
    assert units == {"1"}


def test_criterion_09_case3_is_jones():
    report = harness.run_suite({3}, max_crossings=8, jobs=4)
    assert report.total >= 35
    assert report.failed == 0 and report.ok
    units = {r["unit"] for r in report.rows}
    assert units == {"1"}


def test_criterion_10_case4_triviality():
    assert engine.matveev_test(engine.model(4, "ambient")) is False
    report = harness.run_suite({4}, max_crossings=8, jobs=4)
    assert report.failed == 0
    for row in report.rows:
        assert row["status"] == "match"
        assert row["entry11"] == "1"


def test_criterion_11a_ring_axioms_1000():
    rng = random.Random(11)
    for _ in range(1000):
        a = rand_poly(rng, max_terms=3)
        b = rand_poly(rng, max_terms=3)
        c = rand_poly(rng, max_terms=3)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_criterion_11b_oracle_markov_1000():
    rng = random.Random(12)
    for _ in range(1000):
        word = rand_knot_word(rng, strands=3, length=6)
        a = oracles.alexander(word)
        j = oracles.jones(word)
        g = rng.choice([1, -1, 2, -2])
        conj = braid.BraidWord(3, (g,) + word.letters + (-g,))
        sign = rng.choice([1, -1])
        stab = braid.BraidWord(4, word.letters + (3 * sign,))
        assert oracles.alexander(conj) == a
        assert oracles.jones(conj) == j
        assert oracles.alexander(stab) == a
        assert oracles.jones(stab) == j


def test_criterion_11c_engine_invariance_1000():
    """Each trial draws a model and, independently, a move: the braid
    relation, a conjugation or a stabilization."""
    rng = random.Random(13)
    mods = [engine.model(2, "regular"), engine.model(3, "regular"),
            engine.model(4, "ambient")]
    for _ in range(1000):
        mod = rng.choice(mods)
        move = rng.choice(("braid", "conjugate", "stabilize"))
        if move == "braid":
            # braid relation: insert the two sides of s1 s2 s1 = s2 s1 s2
            # at a random cut of a random word whose closure stays a knot
            while True:
                letters = tuple(rng.choice((1, -1, 2, -2))
                                for _ in range(rng.choice((4, 5))))
                cut = rng.randrange(len(letters) + 1)
                pre, post = letters[:cut], letters[cut:]
                w1 = braid.BraidWord(3, pre + (1, 2, 1) + post)
                if braid.closure_components(w1) == 1:
                    break
            w2 = braid.BraidWord(3, pre + (2, 1, 2) + post)
            assert engine.closure(w1, mod) == engine.closure(w2, mod)
            continue
        word = rand_knot_word(rng, strands=3, length=5)
        base = engine.closure(word, mod).entries
        if move == "conjugate":
            g = rng.choice([1, -1, 2, -2])
            conj = braid.BraidWord(3, (g,) + word.letters + (-g,))
            assert engine.closure(conj, mod).entries == base
        else:
            # identity for ambient, handle factor for regular
            sign = rng.choice([1, -1])
            stab = braid.BraidWord(4, word.letters + (3 * sign,))
            factor = (1,) * 4 if mod.isotopy == "ambient" else (
                mod.handle if sign > 0
                else tuple(h.invert_monomial() for h in mod.handle))
            assert engine.closure(stab, mod).entries == tuple(
                f * r for f, r in zip(factor, base))


def test_criterion_12_y_freeness_and_reality():
    table = [r for r in harness.load_table() if r.crossings <= 8]
    assert len(table) >= 35
    y = QUANTUM.y_index
    for rec in table:
        for case in (2, 3):
            inv = engine.tangle_invariant(rec.word,
                                          engine.model(case, "regular"))
            for v in inv.entries:
                assert all(e[y] == 0 for e in v.terms)
        amb = engine.ambient_invariant(rec.word, 2)
        assert all(c[1] == 0 for c in amb.terms.values())
