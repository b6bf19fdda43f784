"""Yang-Baxter and gauge-property verifiers."""

from itertools import product

import pytest

from gaugeknot import rmat, ybe
from gaugeknot.ring import QUANTUM, TRIG, RingError


def test_distant_commutativity(rng):
    """R on strands 2, 3 commutes with any operator acting only on
    strand 1 (the lower slot of a letter at position 1)."""
    R = rmat.quantum_r(3)
    diag = {x: QUANTUM.mono((rng.randint(1, 5), 0), Q=rng.randint(-2, 2))
            for x in (1, 2, 3, 4)}
    D = rmat.SparseROp(QUANTUM, {(x, d, x, d): diag[d] for x in range(1, 5)
                                 for d in range(1, 5)})
    left = dict(rmat._columns(QUANTUM, 3, [(1, D), (2, R)]))
    right = dict(rmat._columns(QUANTUM, 3, [(2, R), (1, D)]))
    assert left == right
    assert left != dict(rmat._columns(QUANTUM, 3, [(2, R)]))


TRIPLES = list(product(range(1, 5), repeat=3))


def _site_op(op, slot):
    """A two-site operator on sites (1, 2) or (2, 3) of (C^4)^{x3}, as
    dense rows {row triple: {column triple: value}}."""
    M = {r: {} for r in TRIPLES}
    for (a, b, c, d), v in op.entries.items():
        for x in range(1, 5):
            if slot == 12:
                M[(a, b, x)][(c, d, x)] = v
            else:
                M[(x, a, b)][(x, c, d)] = v
    return M


def _dense_product(*factors):
    """The matrix product of dense three-site operators, left to right."""
    out = factors[0]
    for B in factors[1:]:
        prod = {}
        for r, row in out.items():
            acc = {}
            for m, w in row.items():
                for c, v in B[m].items():
                    acc[c] = acc[c] + w * v if c in acc else w * v
            prod[r] = {c: v for c, v in acc.items() if not v.is_zero()}
        out = prod
    return out


def _kernel_dense(ring, word):
    """The operator product of a word as dense rows; the kernel's strand
    order is the reverse of the site order."""
    M = {r: {} for r in TRIPLES}
    for s, image in rmat._columns(ring, 3, word):
        for t, v in image.items():
            M[t[::-1]][s[::-1]] = v
    return M


def test_sides_are_the_stated_products(rng):
    """On an asymmetric operator, each side of the QYBE and the TYBE is the
    three-site product the equation states, with R12 on sites 1, 2."""
    m = TRIG.mono
    keys = list(product(range(1, 5), repeat=4))
    entries = {k: m((rng.randint(1, 9), rng.randint(-3, 3)),
                    X=rng.randint(-2, 2), Q=rng.randint(-2, 2))
               for k in rng.sample(keys, 24)}
    P = rmat.SparseROp(TRIG, entries)
    lhs, rhs = ybe._qybe_sides(P)
    assert _kernel_dense(TRIG, lhs) == _dense_product(
        _site_op(P, 12), _site_op(P, 23), _site_op(P, 12))
    assert _kernel_dense(TRIG, rhs) == _dense_product(
        _site_op(P, 23), _site_op(P, 12), _site_op(P, 23))
    assert _kernel_dense(TRIG, lhs) != _kernel_dense(TRIG, rhs)

    def at(images):
        full = {n: TRIG.var(n) for n in TRIG.names}
        full.update(images)
        return P.mapped(TRIG, full)

    Pv = at({"X": TRIG.var("Xv")})
    Puv = at({"X": TRIG.var("X") * TRIG.var("Xv")})
    lhs, rhs = ybe._tybe_sides(P)
    # R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u)
    assert _kernel_dense(TRIG, lhs) == _dense_product(
        _site_op(P, 12), _site_op(Puv, 23), _site_op(Pv, 12))
    assert _kernel_dense(TRIG, rhs) == _dense_product(
        _site_op(Pv, 23), _site_op(Puv, 12), _site_op(P, 23))


def test_qybe_passes():
    assert ybe.verify_qybe(rmat.identity_op(QUANTUM))
    assert ybe.verify_qybe(rmat.quantum_r(1))


def test_qybe_perturbation_fails_with_witness():
    R = rmat.quantum_r(1)
    entries = dict(R.entries)
    entries[(2, 3, 3, 2)] = -entries[(2, 3, 3, 2)]
    rep = ybe.verify_qybe(rmat.SparseROp(QUANTUM, entries))
    assert not rep.ok
    assert rep.witness is not None
    assert rep.lhs != rep.rhs


def test_tybe_perturbation_fails():
    free = rmat.build_trig_gauge_free()
    entries = dict(free.entries)
    entries[(2, 3, 3, 2)] = entries[(2, 3, 3, 2)] * 2
    rep = ybe.verify_tybe_additive(rmat.SparseROp(TRIG, entries))
    assert not rep.ok


def test_tybe_of_an_operator_without_the_v_variables_is_refused():
    """The TYBE reads Xv, Rv and Sv, which QUANTUM lacks: a RingError
    that names the variable and the ring, not a bare KeyError."""
    with pytest.raises(RingError,
                       match=r"variable 'Xv' not in ring \('p', 'Q', 'Y'\)"):
        ybe.verify_tybe_additive(rmat.quantum_r(1))


def test_gauge_properties_pass():
    free = rmat.build_trig_gauge_free()
    assert ybe.verify_gauge_properties(rmat.GaugeMatrix.standard(), free)
    assert ybe.verify_gauge_properties(rmat.GaugeMatrix.identity(), free)


def test_gauge_properties_bad_diagonal():
    free = rmat.build_trig_gauge_free()
    m = TRIG.mono
    bad = rmat.GaugeMatrix((TRIG.one, m(1, Ru=1), m(1, Su=1),
                            m(1, Ru=1, Su=1, X=1)))
    rep = ybe.verify_gauge_properties(bad, free)
    assert not rep.ok
    assert rep.witness == ("diag", 4)


def test_gauge_properties_nonzero_at_zero():
    free = rmat.build_trig_gauge_free()
    m = TRIG.mono
    bad = rmat.GaugeMatrix((TRIG.one, m(1, Q=2, Ru=1), m(1, Su=1),
                            m(1, Q=2, Ru=1, Su=1)))
    rep = ybe.verify_gauge_properties(bad, free)
    assert not rep.ok


def test_gauge_covariance_of_tybe():
    """Conjugating a TYBE solution by a valid gauge keeps it a solution;
    checked via the standard gauge (the gauged operator's own TYBE run is
    the acceptance gate, so use a lighter gauge here)."""
    free = rmat.build_trig_gauge_free()
    m = TRIG.mono
    A = rmat.GaugeMatrix((TRIG.one, m(1, Ru=1), TRIG.one, m(1, Ru=1)))
    assert ybe.verify_gauge_properties(A, free)
    assert ybe.verify_tybe_additive(rmat.apply_gauge(free, A))


@pytest.fixture
def reads(monkeypatch):
    """The ``keep`` masks of every product ``ybe._compare`` forms."""
    seen = []
    real = ybe._columns

    def recorded(ring, strands, letters, keep=None):
        seen.append(keep)
        return real(ring, strands, letters, keep)
    monkeypatch.setattr(ybe, "_columns", recorded)
    return seen


def _full_report(ring, lhs, rhs):
    """The reference comparison: every output of both sides, the first
    difference in input and then output order."""
    L, R = (dict(rmat._columns(ring, 3, word)) for word in (lhs, rhs))
    for s in sorted(L.keys() | R.keys()):
        left, right = L.get(s, {}), R.get(s, {})
        for t in sorted(left.keys() | right.keys()):
            lv, rv = left.get(t), right.get(t)
            if lv is None or rv is None or lv != rv:
                return ybe.YBEReport(False, (s, t), lv, rv)
    return ybe.YBEReport(True)


def _with(op, scale, *keys):
    """``op`` with the entries at ``keys`` multiplied by ``scale``."""
    entries = dict(op.entries)
    for k in keys:
        entries[k] = entries[k] * scale
    return rmat.SparseROp(op.ring, entries)


def _t(k):
    """The transpose's key map: (a, b, c, d) -> (c, d, a, b)."""
    return k[2:] + k[:2]


def _pj(k):
    """PJ's key map: entry (a, b, c, d) of PJ(op) is op's (Jb, Ja, Jd, Jc),
    J swapping 1 <-> 4 and 2 <-> 3."""
    a, b, c, d = k
    return (5 - b, 5 - a, 5 - d, 5 - c)


ORBIT = ybe._masks(3)


def test_the_paper_operators_are_decided_on_the_orbit_domain(reads):
    """The QYBE of the four quantum R-matrices and the TYBE of both
    trigonometric operators meet the premise of the orbit domain, one pair
    per orbit of T and K: symmetric, charge-conserving letters that
    reflect, and for the TYBE an R with no Xv, Rv or Sv."""
    for i in (1, 2, 3, 4):
        assert ybe.verify_qybe(rmat.quantum_r(i))
    for R in (rmat.build_trig_gauge_free(), rmat.build_trig_gauged()):
        assert ybe.verify_tybe_additive(R)
    assert reads == [ORBIT] * 12


def test_the_orbit_domain_holds_one_pair_per_orbit():
    """Over the pairs (s, t) of one charge sector on three strands, each
    orbit of T: (s, t) -> (t, s) and K: (s, t) -> (Ks, Kt), Ks = (Js3, Js2,
    Js1), holds exactly one kept pair of the orbit masks, its least."""
    states = list(product(range(1, 5), repeat=3))
    bits = dict(zip(states, rmat._sector_bits(3)))

    def charge(s):
        return tuple(map(sum, zip(*(rmat.CHARGE[x] for x in s))))

    def kept(masks, s, t):
        return bool(masks[states.index(s)] & bits[t])

    def k(s):
        return tuple(5 - x for x in s[::-1])

    pairs = [(s, t) for s in states for t in states if charge(s) == charge(t)]
    orbits = {frozenset([(s, t), (t, s), (k(s), k(t)), (k(t), k(s))])
              for s, t in pairs}
    for orbit in orbits:
        assert [p for p in sorted(orbit) if kept(ORBIT, *p)] == [min(orbit)]
    assert len(pairs) == 400 and len(orbits) == 116
    assert sum(kept(ORBIT, *p) for p in pairs) == 116


def test_a_symmetric_perturbation_fails_with_the_full_report(reads):
    """Doubling a pair (a, b, c, d), (c, d, a, b) keeps an operator
    symmetric, so the orbit domain is read when the doubled keys are also
    closed under PJ, and every output otherwise, and the report is the full
    comparison's, witness and both sides: (2, 3, 3, 2) with (3, 2, 2, 3) in
    R1 and in the gauged trigonometric operator, which fail, and every
    off-diagonal pair of R1-R4, most of which fail."""
    pair = ((2, 3, 3, 2), (3, 2, 2, 3))
    cases = [(ybe.verify_qybe, ybe._qybe_sides, rmat.quantum_r(1), pair),
             (ybe.verify_tybe_additive, ybe._tybe_sides,
              rmat.build_trig_gauged(), pair)]
    for i in (1, 2, 3, 4):
        R = rmat.quantum_r(i)
        cases += [(ybe.verify_qybe, ybe._qybe_sides, R, (k, _t(k)))
                  for k in R.entries if k < _t(k)]
    failed = 0
    for n, (verify, sides, R, keys) in enumerate(cases):
        P = _with(R, 2, *keys)
        del reads[:]
        rep = verify(P)
        closed = {_pj(k) for k in keys} == set(keys)
        assert reads == [ORBIT if closed else None] * 2
        assert n > 1 or not rep.ok
        want = _full_report(P.ring, *sides(P))
        assert rep == want and str(rep) == str(want)
        if not rep.ok:
            s, t = rep.witness
            assert t >= s
            failed += 1
    assert len(cases) > 20 and failed > len(cases) // 2


def test_a_doubled_orbit_of_entries_fails_on_the_orbit_domain(reads):
    """Doubling the entries of one orbit of the key maps of T and PJ keeps
    an operator symmetric and reflecting, so the orbit domain is read, and
    the report is the full comparison's: every such orbit of R1-R4 and of
    both trigonometric operators, and all 36 of the trigonometric ones
    fail.  Doubling (1, 2, 2, 1) with (2, 1, 1, 2), whose PJ keys are
    (3, 4, 4, 3) and (4, 3, 3, 4), keeps T and breaks K: in R1 and in the
    gauged trigonometric operator every output is read, and the equation
    fails with the full comparison's report."""
    ops = [(ybe.verify_qybe, ybe._qybe_sides, rmat.quantum_r(i))
           for i in (1, 2, 3, 4)]
    ops += [(ybe.verify_tybe_additive, ybe._tybe_sides, R)
            for R in (rmat.build_trig_gauge_free(), rmat.build_trig_gauged())]
    pair = ((1, 2, 2, 1), (2, 1, 1, 2))
    cases = [(verify, sides, R, orbit, ORBIT)
             for verify, sides, R in ops
             for orbit in {frozenset({k, _t(k), _pj(k), _t(_pj(k))})
                           for k in R.entries}]
    cases += [(verify, sides, R, pair, None)
              for verify, sides, R in (ops[0], ops[-1])]
    trig_failed = 0
    for verify, sides, R, keys, domain in cases:
        P = _with(R, 2, *keys)
        del reads[:]
        rep = verify(P)
        assert reads == [domain] * 2
        want = _full_report(P.ring, *sides(P))
        assert rep == want and str(rep) == str(want)
        assert rep.ok or rep.witness[1] >= rep.witness[0]
        if domain is ORBIT:
            trig_failed += R.ring is TRIG and not rep.ok
        else:
            assert not rep.ok
    assert trig_failed == 36


def test_an_operator_off_the_premise_is_compared_in_full(reads):
    """A non-symmetric R1, a symmetric R1 that does not conserve the
    charge, and a symmetric trigonometric R with an Xv term each read every
    output, with the full comparison's report."""
    xv = TRIG.var("Xv")
    free = rmat.build_trig_gauge_free()
    pair = ((2, 3, 3, 2), (3, 2, 2, 3))
    mixing = dict(rmat.quantum_r(1).entries)
    for k in ((1, 2, 1, 3), (2, 1, 3, 1)):
        mixing[k] = mixing[k[2:] + k[:2]] = QUANTUM.one
    mixing = rmat.SparseROp(QUANTUM, mixing)
    assert mixing.transpose() == mixing and not mixing.conserves_charge()
    with_xv = _with(free, xv, *pair)
    assert with_xv.transpose() == with_xv and with_xv.conserves_charge()
    for verify, sides, P in (
            (ybe.verify_qybe, ybe._qybe_sides,
             _with(rmat.quantum_r(1), 2, pair[0])),
            (ybe.verify_qybe, ybe._qybe_sides, mixing),
            (ybe.verify_tybe_additive, ybe._tybe_sides, with_xv)):
        del reads[:]
        rep = verify(P)
        assert reads == [None, None]
        assert not rep.ok
        assert rep == _full_report(P.ring, *sides(P))
