"""Yang-Baxter and gauge-property verifiers."""

from itertools import product

from gaugeknot import rmat, ybe
from gaugeknot.ring import QUANTUM, TRIG, map_poly


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
        return P.map_entries(lambda v: map_poly(v, TRIG, full))

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
