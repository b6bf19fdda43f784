"""R-matrix construction: component counts, golden entries, gauge
conjugation, spectral limits, inversion and eigen-data."""

from fractions import Fraction

import pytest

from conftest import charge_mixing_op
from gaugeknot import rmat
from gaugeknot.ring import (QUANTUM, TRIG, RationalLaurent, RingError,
                            map_poly, qbracket)


def test_component_counts():
    assert len(rmat.build_trig_gauged()) == 36
    assert len(rmat.build_trig_gauge_free()) == 36
    for i, count in ((1, 26), (2, 20), (3, 17), (4, 16)):
        assert len(rmat.quantum_r(i)) == count


def test_trig_first_component_is_one():
    for op in (rmat.build_trig_gauged(), rmat.build_trig_gauge_free()):
        v = op.get(1, 1, 1, 1)
        assert v.is_poly() and v.as_poly().is_one()


def test_trig_golden_entries():
    free = rmat.build_trig_gauge_free()
    # (2,3)<-(3,2): -[u]^2 / ([alpha-u][1+alpha-u])
    got = free.get(2, 3, 3, 2)
    u = qbracket(TRIG, u=1)
    want = -(u * u) / (qbracket(TRIG, alpha=1, u=-1)
                       * qbracket(TRIG, const=1, alpha=1, u=-1))
    assert got == want
    # gauged (1,2)<-(1,2): ([alpha]/[alpha-u]) * r^u * qbar^u
    gauged = rmat.build_trig_gauged()
    got = gauged.get(1, 2, 1, 2)
    want = (qbracket(TRIG, alpha=1) / qbracket(TRIG, alpha=1, u=-1)) \
        * RationalLaurent(TRIG.mono(1, Ru=1, X=-1))
    assert got == want


def test_quantum_golden_entries():
    m = QUANTUM.mono
    r1 = rmat.quantum_r(1)
    assert r1.get(3, 2, 3, 2) == m(1, p=2, Q=2) - m(1, p=2, Q=-2)
    for i in (1, 2, 3, 4):
        op = rmat.quantum_r(i)
        assert op.get(1, 1, 1, 1).is_one()


def test_quantum_diagonal_components():
    allowed = {
        str(QUANTUM.one),
        str(QUANTUM.mono(-1, p=2, Q=-2)),
        str(QUANTUM.mono(1, p=4)),
    }
    for i in (1, 2, 3, 4):
        op = rmat.quantum_r(i)
        for j in (1, 2, 3, 4):
            v = op.get(j, j, j, j)
            if not v.is_zero():
                assert str(v) in allowed


def test_weight_conservation():
    for op in (rmat.build_trig_gauged(), rmat.build_trig_gauge_free(),
               *(rmat.quantum_r(i) for i in (1, 2, 3, 4))):
        assert op.conserves_charge()


def test_gauge_matrix():
    A = rmat.GaugeMatrix.standard()
    assert A.diag[0].is_one()
    assert A.diag[3] == A.diag[1] * A.diag[2]
    Ainv = A.inverse()
    for d, di in zip(A.diag, Ainv.diag):
        assert (d * di).is_one()
    with pytest.raises(RingError):
        rmat.GaugeMatrix((TRIG.one, TRIG.one + TRIG.var("Ru"),
                          TRIG.one, TRIG.one))
    with pytest.raises(RingError):
        rmat.GaugeMatrix((TRIG.one,) * 3)


def test_apply_gauge():
    free = rmat.build_trig_gauge_free()
    gauged = rmat.build_trig_gauged()
    A = rmat.GaugeMatrix.standard()
    assert rmat.apply_gauge(free, rmat.GaugeMatrix.identity()) == free
    assert rmat.apply_gauge(free, A) == gauged
    assert rmat.apply_gauge(gauged, A.inverse()) == free
    # the two conjugations undo each other
    assert rmat.apply_gauge(rmat.apply_gauge(free, A), A.inverse()) == free


def test_gauge_case_table():
    for i in (1, 2, 3, 4):
        rmat.GaugeCase.standard(i)
    with pytest.raises(RingError):
        rmat.GaugeCase.standard(5)
    with pytest.raises(RingError):
        rmat.GaugeCase.standard(4, Fraction(3, 2))
    case4 = rmat.GaugeCase.standard(4, Fraction(1, 3))
    assert case4.ru_exp + case4.su_exp == 2


def test_spectral_limit_single_entry():
    """[alpha+u]/[alpha-u] -> -q^(2 alpha) = -p^2 Qbar^2."""
    entry = qbracket(TRIG, alpha=1, u=1) / qbracket(TRIG, alpha=1, u=-1)
    op = rmat.SparseROp(TRIG, {(1, 1, 1, 1): entry})
    lim = rmat.spectral_limit(op, rmat.GaugeCase.standard(1))
    assert lim.get(1, 1, 1, 1) == QUANTUM.mono(-1, p=2, Q=-2)


def test_subst_case_needs_integer_grid():
    half = rmat.GaugeCase.standard(4)        # Ru -> X^(1/2)
    images = rmat._case_images(TRIG, half, 2)
    assert map_poly(TRIG.var("Ru"), TRIG, images) == TRIG.var("X")
    with pytest.raises(RingError):
        rmat._case_images(TRIG, half, 1)


def test_spectral_limits_match_tables():
    gauged = rmat.build_trig_gauged()
    for i in (1, 2, 3, 4):
        case = rmat.GaugeCase.standard(i)
        assert rmat.spectral_limit(gauged, case) == rmat.quantum_r(i)
    alt = rmat.GaugeCase.standard(4, Fraction(2, 3))
    assert rmat.spectral_limit(gauged, alt) == rmat.quantum_r(4)


def test_gauge_free_off_diagonals_vanish_at_u_zero():
    """Every off-diagonal entry carries a factor [u], so its numerator
    vanishes at X = 1 (u = 0)."""
    images = {n: TRIG.var(n) for n in TRIG.names}
    images["X"] = TRIG.one
    for (a, b, c, d), v in rmat.build_trig_gauge_free().entries.items():
        if (a, b) != (c, d):
            assert map_poly(v.num, TRIG, images).is_zero()


def test_invert():
    ident = rmat.identity_op(QUANTUM)
    assert rmat.invert(ident) == ident
    for i in (1, 2, 3, 4):
        R = rmat.quantum_r(i)
        Rinv = rmat.invert(R)
        for pair in ((R, Rinv), (Rinv, R)):
            word = [(1, op) for op in pair]
            assert dict(rmat._columns(QUANTUM, 2, word)) == \
                dict(rmat._columns(QUANTUM, 2, ()))
    assert rmat.invert(rmat.quantum_r(4)).get(1, 1, 1, 1).is_one()


def test_invert_refuses_a_singular_sector():
    ident = rmat.identity_op(QUANTUM)
    entries = {k: v for k, v in ident.entries.items() if k != (2, 3, 2, 3)}
    with pytest.raises(RingError, match="determinant 0"):
        rmat.invert(rmat.SparseROp(QUANTUM, entries))


def test_invert_refuses_a_non_unit_determinant():
    with pytest.raises(RingError, match="determinant 2"):
        rmat.invert(rmat.identity_op(QUANTUM).scale(2))


def test_invert_refuses_a_weight_mixing_operator():
    ident = rmat.identity_op(QUANTUM)
    entries = dict(ident.entries)
    entries[(2, 1, 1, 1)] = QUANTUM.one      # weight 1 <- weight 0
    with pytest.raises(RingError, match="does not conserve the charge"):
        rmat.invert(rmat.SparseROp(QUANTUM, entries))


def test_invert_refuses_a_charge_mixing_operator():
    """Conserving the weight alone is not enough: invert works in the 9
    charge sectors."""
    op = charge_mixing_op()
    assert not op.conserves_charge()
    with pytest.raises(RingError, match=r"charge \(weight, n\(2\) - n\(3\)\)"):
        rmat.invert(op)


def test_closure_only_prunes_strand_one():
    """The closure-only product keeps each column's image at the input
    column only, also where the operator changes strand 1 alone."""
    op = charge_mixing_op()
    full = dict(rmat._columns(QUANTUM, 2, [(1, op)]))
    assert set(full[(3, 1)]) == {(3, 1), (2, 1)}
    fast = dict(rmat._columns(QUANTUM, 2, [(1, op)], closure_only=True))
    assert fast == {s: {s: full[s][s]} for s in full}


def test_eigen_check_counts():
    for i, distinct in ((1, 3), (2, 7), (3, 9), (4, 10)):
        claimed = rmat.claimed_eigenvalues(i)
        assert len(claimed) == distinct
        rep = rmat.eigen_check(rmat.quantum_r(i), claimed)
        assert rep.ok, rep.message
        assert rep.distinct == distinct
        assert sum(rep.multiplicities.values()) == 16
        assert rep.points_used >= 5


def test_eigen_check_claimed_values():
    m = QUANTUM.mono
    claimed = {str(c) for c in rmat.claimed_eigenvalues(1)}
    assert claimed == {str(QUANTUM.one), str(m(-1, p=2, Q=-2)),
                       str(m(1, p=4))}
    vals4 = {str(c) for c in rmat.claimed_eigenvalues(4)}
    assert str(m(1, p=2)) in vals4 and str(m(-1, p=2)) in vals4


def test_eigen_check_identity():
    rep = rmat.eigen_check(rmat.identity_op(QUANTUM), [QUANTUM.one])
    assert rep.ok and rep.distinct == 1
    assert rep.multiplicities == {str(QUANTUM.one): 16}


def test_eigen_check_rejects_wrong_claim():
    rep = rmat.eigen_check(rmat.quantum_r(1), [QUANTUM.one])
    assert not rep.ok


def test_eigenvector_deficiency():
    assert rmat.eigenvector_deficiency(rmat.identity_op(QUANTUM)) == 16
    for i in (1, 2, 3, 4):
        assert rmat.eigenvector_deficiency(rmat.quantum_r(i)) == 16
