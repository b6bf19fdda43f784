"""R-matrix construction: component counts, the trigonometric entries
against their bracket formulas, golden quantum entries, gauge conjugation,
spectral limits, inversion and eigen-data."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import (GaussQ, charge_mixing_op, rand_poly, reference_value,
                      sample_point)
from gaugeknot import braid, engine, rmat, ybe
from gaugeknot import ring as ring_module
from gaugeknot.ring import (CONST, EXP_BIAS, QONLY, QUANTUM, TRIG, Ring,
                            RingError, map_poly)
from gaugeknot.rmat import SparseROp

#: The sample points that give Y an imaginary value (sign -1).
IMAGINARY_Y = [pt for pt in rmat.SAMPLE_POINTS if pt[3] < 0]


def test_quantum_r_keeps_one_operator_per_index():
    for i in (1, 2, 3, 4):
        assert rmat.quantum_r(i) is rmat.quantum_r(i)
    with pytest.raises(RingError, match="no quantum R-matrix 5"):
        rmat.quantum_r(5)


def test_entries_are_read_only():
    """An operator's tables, bound and plans rest on entries that never
    change; a copy of them is a plain dict."""
    op = rmat.quantum_r(1)
    with pytest.raises(TypeError):
        op.entries[(1, 1, 1, 1)] = QUANTUM.zero
    with pytest.raises(TypeError):
        del op.entries[(1, 1, 1, 1)]
    copy = dict(op.entries)
    copy[(1, 1, 1, 1)] = QUANTUM.zero
    assert len(op) == 26 and op.get(1, 1, 1, 1) == QUANTUM.one


def test_trig_first_component_is_one():
    """The (1,1)<-(1,1) entry is 1: its numerator is the denominator."""
    for op in (rmat.build_trig_gauged(), rmat.build_trig_gauge_free()):
        assert op.get(1, 1, 1, 1) == rmat.TRIG_DENOMINATOR


def bracket_formulas(v, gauged):
    """The 36 entries of R(u) at a point ``v`` of TRIG, in GaussQ, written as
    the paper's bracket formulas with [x] = (q**x - q**-x)/(q - q**-1),
    q = Q**2, q**alpha = Aa, q**u = X and [alpha]^(1/2) [1+alpha]^(1/2) =
    Y/(q - q**-1); r**u = Ru and s**u = Su when gauged, else 1."""
    Q, a, x = (GaussQ.of(v[n]) for n in ("Q", "Aa", "X"))
    q = Q * Q
    delta = q - 1 / q
    br = lambda qx: (qx - 1 / qx) / delta
    r, s = (GaussQ.of(v[n] if gauged else 1) for n in ("Ru", "Su"))
    bA, b1A = br(a), br(q * a)                   # [alpha], [1+alpha]
    bAp, b1Ap = br(a * x), br(q * a * x)         # [alpha+u], [1+alpha+u]
    bAm, b1Am = br(a / x), br(q * a / x)         # [alpha-u], [1+alpha-u]
    bu, b1mu = br(x), br(q / x)                  # [u], [1-u]
    D2 = bAm * b1Am
    # q**(1+2alpha) + q**-(1+2alpha) - 2 q**(+-1) +- q**(+-2u) (q - 1/q)
    f = q * a * a + 1 / (q * a * a) - 2 * q + x * x * delta
    fbar = q * a * a + 1 / (q * a * a) - 2 / q - delta / (x * x)
    gy = GaussQ.of(v["Y"]) / delta * bu / D2
    ent = {(1, 1, 1, 1): GaussQ(1),
           (2, 2, 2, 2): bAp / bAm, (3, 3, 3, 3): bAp / bAm,
           (4, 4, 4, 4): bAp * b1Ap / D2,
           (1, 2, 1, 2): bA / bAm * r / x, (1, 3, 1, 3): bA / bAm * s / x,
           (2, 1, 2, 1): bA / bAm * x / r, (3, 1, 3, 1): bA / bAm * x / s,
           (1, 4, 1, 4): bA * b1A / D2 * r * s / (x * x),
           (4, 1, 4, 1): bA * b1A / D2 * x * x / (r * s),
           (2, 3, 2, 3): fbar / (delta * delta * D2) * s / r,
           (3, 2, 3, 2): f / (delta * delta * D2) * r / s,
           (2, 4, 2, 4): b1A * bAp / D2 * s / x,
           (3, 4, 3, 4): b1A * bAp / D2 * r / x,
           (4, 2, 4, 2): b1A * bAp / D2 * x / s,
           (4, 3, 4, 3): b1A * bAp / D2 * x / r,
           (1, 4, 4, 1): -b1mu * bu / D2, (4, 1, 1, 4): -b1mu * bu / D2,
           (2, 3, 3, 2): -bu * bu / D2, (3, 2, 2, 3): -bu * bu / D2,
           (1, 4, 3, 2): gy * r / x * Q, (3, 2, 1, 4): gy * r / x * Q,
           (4, 1, 2, 3): -gy * x / (r * Q), (2, 3, 4, 1): -gy * x / (r * Q),
           (3, 2, 4, 1): gy * x / s * Q, (4, 1, 3, 2): gy * x / s * Q,
           (2, 3, 1, 4): -gy * s / (x * Q), (1, 4, 2, 3): -gy * s / (x * Q)}
    for k in ((1, 2, 2, 1), (1, 3, 3, 1), (2, 1, 1, 2), (3, 1, 1, 3)):
        ent[k] = -bu / bAm
    for k in ((2, 4, 4, 2), (3, 4, 4, 3), (4, 2, 2, 4), (4, 3, 3, 4)):
        ent[k] = bu * bAp / D2
    return ent


def trig_point(row, x, ru, su):
    """A TRIG assignment from a SAMPLE_POINTS row: Aa = p/Q makes TRIG's
    Y**2 equal QUANTUM's, so the row's Y value serves."""
    point = sample_point(row)
    return {"Q": point["Q"], "Y": point["Y"], "Aa": point["p"] / point["Q"],
            "X": x, "Ru": ru, "Su": su, "Xv": 1, "Rv": 1, "Sv": 1}


def test_trig_entries_match_the_bracket_formulas():
    """Every entry, evaluated as numerator / TRIG_DENOMINATOR at exact
    points (one with an imaginary Y), equals its bracket formula."""
    points = [trig_point(rmat.SAMPLE_POINTS[0], Fraction(5, 7),
                         Fraction(2, 3), Fraction(7, 4)),
              trig_point(rmat.SAMPLE_POINTS[1], Fraction(-3, 2),
                         Fraction(9, 5), Fraction(-1, 6)),
              trig_point(rmat.SAMPLE_POINTS[8], Fraction(4, 11),
                         Fraction(-5, 3), Fraction(3, 8))]
    for gauged, op in ((True, rmat.build_trig_gauged()),
                       (False, rmat.build_trig_gauge_free())):
        for v in points:
            den = reference_value(rmat.TRIG_DENOMINATOR, v)
            want = bracket_formulas(v, gauged)
            assert len(want) == 36 and set(op.entries) == set(want)
            for key, num in op.entries.items():
                assert reference_value(num, v) / den == want[key], \
                    (gauged, key)


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
    assert rmat.GaugeCase.standard(3, 1) == rmat.GaugeCase.standard(3)


@pytest.mark.parametrize("args, named", [
    ((4, 0.3), "0.3"), ((4, "1/3"), "'1/3'"), ((4, True), "True"),
    ((True,), "True"), ((1.0,), "1.0"), (("4",), "'4'")],
    ids=["float-gamma", "str-gamma", "bool-gamma", "bool-index",
         "float-index", "str-index"])
def test_gauge_case_refuses_inexact_input(args, named):
    """The index is an int (not a bool) and gamma an int or a Fraction;
    anything else is refused by name, before a float's binary expansion or
    a parsed string can reach the spectral limit."""
    with pytest.raises(RingError, match=named):
        rmat.GaugeCase.standard(*args)


def test_spectral_limit_single_entry():
    """[alpha+u]/[alpha-u] -> -q^(2 alpha) = -p^2 Qbar^2; over N its
    numerator is n(alpha+u) n(1+alpha-u)."""
    entry = rmat._n(0, 1, 1) * rmat._n(1, 1, -1)
    op = rmat.SparseROp(TRIG, {(1, 1, 1, 1): entry})
    lim = rmat.spectral_limit(op, rmat.GaugeCase.standard(1))
    assert lim.get(1, 1, 1, 1) == QUANTUM.mono(-1, p=2, Q=-2)


def test_spectral_limit_refuses_a_divergent_entry():
    """N has X-degree 2: an X**1 numerator tends to 0, an X**3 one has no
    limit."""
    case = rmat.GaugeCase.standard(1)
    low = rmat.SparseROp(TRIG, {(1, 1, 1, 1): TRIG.var("X")})
    assert len(rmat.spectral_limit(low, case)) == 0
    high = rmat.SparseROp(TRIG, {(1, 1, 1, 1): TRIG.var("X", 3)})
    with pytest.raises(RingError, match=r"divergent spectral limit at "
                                        r"\(1, 1, 1, 1\) \(X-degree 3 > 2\)"):
        rmat.spectral_limit(high, case)


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
            assert map_poly(v, TRIG, images).is_zero()


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


#: Everything that works one charge sector at a time.
_SECTOR_CHECKS = (rmat.invert, rmat.eigenvector_deficiency,
                  lambda op: rmat.eigen_check(op, [QUANTUM.one]))


def test_invert_refuses_a_weight_mixing_operator():
    """So do the eigen checks."""
    ident = rmat.identity_op(QUANTUM)
    entries = dict(ident.entries)
    entries[(2, 1, 1, 1)] = QUANTUM.one      # weight 1 <- weight 0
    for check in _SECTOR_CHECKS:
        with pytest.raises(RingError, match="does not conserve the charge"):
            check(rmat.SparseROp(QUANTUM, entries))


def test_invert_refuses_a_charge_mixing_operator():
    """Conserving the weight alone is not enough: invert and the eigen
    checks work in the 9 charge sectors."""
    op = charge_mixing_op()
    assert not op.conserves_charge()
    for check in _SECTOR_CHECKS:
        with pytest.raises(RingError,
                           match=r"charge \(weight, n\(2\) - n\(3\)\)"):
            check(op)


def test_closure_only_refuses_a_charge_mixing_letter():
    """The full product takes an operator that changes strand 1 alone; the
    closure-only one and the orbit domain of ``ybe``, both masks of kept
    outputs, refuse it, at any place in the word, before a column is
    yielded, with an error that names the pruned product."""
    op = charge_mixing_op()
    full = dict(rmat._columns(QUANTUM, 2, [(1, op)]))
    assert set(full[(3, 1)]) == {(3, 1), (2, 1)}
    sigma = engine.model(1, "ambient").sigma
    for letters in ([(1, op)], [(1, sigma), (2, op)], [(2, op), (1, sigma)]):
        for keep in (rmat._sector_bits(3), ybe._masks(3)):
            with pytest.raises(RingError, match=r"pruned product \(one mask "
                               r"of kept outputs per column\) needs operators "
                               r"that conserve the charge"):
                next(rmat._columns(QUANTUM, 3, letters, keep))


def _tuple_product(ring, letters, s):
    """One column's image, with tuple states and one ``+`` per product."""
    vec = {s: ring.one}
    for pos, op in letters:
        lo = pos - 1
        new = {}
        for state, coeff in vec.items():
            for (a, b, c, d), v in op.entries.items():
                if state[lo:lo + 2] == (d, c):
                    t = state[:lo] + (b, a) + state[lo + 2:]
                    new[t] = new.get(t, ring.zero) + coeff * v
        vec = {t: v for t, v in new.items() if not v.is_zero()}
    return vec


@pytest.mark.parametrize("strands", [1, 2, 3, 4, 5])
def test_columns_yield_tuples_in_lexicographic_order(rng, strands):
    """Packed states come out as tuple keys, inputs in lexicographic order,
    each image equal to the product formed with tuple states."""
    columns = list(product((1, 2, 3, 4), repeat=strands))
    assert list(rmat._columns(QUANTUM, strands, ())) == \
        [(s, {s: QUANTUM.one}) for s in columns]
    if strands == 1:
        return
    mod = engine.model(1, "ambient")
    for _ in range(1 if strands == 5 else 4):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(strands + 1)]
        ref = {s: _tuple_product(QUANTUM, letters, s) for s in columns}
        closed = {s: {s: v[s]} for s, v in ref.items() if s in v}
        for keep, want in ((None, ref), (rmat._sector_bits(strands), closed)):
            got = list(rmat._columns(QUANTUM, strands, letters, keep))
            assert [s for s, _ in got] == [s for s in columns if want.get(s)]
            for s, image in got:
                assert image == want[s]
                assert all(type(t) is tuple and len(t) == strands
                           for t in image)


def test_key_width_of_each_ring():
    """The key width above which ``_columns`` packs a state: 2 bits of i,
    2 of Y and 32 per Laurent variable."""
    assert [r._width for r in (QUANTUM, TRIG, QONLY, CONST)] == \
        [68, 260, 34, 2]
    for ring in (QUANTUM, TRIG, QONLY):
        top = ring.mono(1, **{ring.names[0]: EXP_BIAS - 1})
        assert max(top._t) < 1 << ring._width


def _kept(columns, keep):
    """The nonzero columns of a full product with the outputs ``keep``
    keeps: all for None, else for a tuple of masks, one per column in
    lexicographic order, the outputs whose ``_sector_bits`` bits are set
    in their column's mask."""
    if keep is not None:
        states = list(product((1, 2, 3, 4), repeat=len(columns[0][0])))
        bits = dict(zip(states, rmat._sector_bits(len(states[0]))))
        masks = dict(zip(states, keep))
        columns = [(s, {t: v for t, v in vec.items() if masks[s] & bits[t]})
                   for s, vec in columns]
    return [(s, vec) for s, vec in columns if vec]


def _reference_columns(ring, strands, letters, keep=None):
    """The operator product with tuple states, formed with the ring's own
    ``*`` and ``+`` (``_tuple_product``), so independent of the kernel's
    tables, with the outputs ``keep`` keeps (``_kept``)."""
    return _kept([(s, dict(sorted(_tuple_product(ring, letters, s).items())))
                  for s in product((1, 2, 3, 4), repeat=strands)], keep)


def _assert_columns_match(ring, strands, letters):
    """Full, closure-only (each column's own ``_sector_bits`` bit) and the
    orbit domain of ``ybe``, the last two refused unless every letter
    conserves the charge."""
    full = _reference_columns(ring, strands, letters)
    for keep in (None, rmat._sector_bits(strands), ybe._masks(strands)):
        if keep is not None and not all(op.conserves_charge()
                                        for _, op in letters):
            with pytest.raises(RingError, match="conserve the charge"):
                next(rmat._columns(ring, strands, letters, keep))
            continue
        got = list(rmat._columns(ring, strands, letters, keep))
        want = _kept(full, keep)
        assert got == want
        # outputs in lexicographic order too
        assert all(list(image) == sorted(image) for _, image in got)


def _symmetric_op(rng):
    """A seeded operator that conserves the charge and equals its
    transpose: ``rand_poly`` entries on half of the charge-conserving keys
    (a, b, c, d) <= (c, d, a, b), each also set at (c, d, a, b)."""
    keys = [k for k in product(range(1, 5), repeat=4)
            if rmat._PAIR_CHARGE[k[:2]] == rmat._PAIR_CHARGE[k[2:]]
            and k <= k[2:] + k[:2]]
    entries = {}
    for a, b, c, d in rng.sample(keys, len(keys) // 2):
        entries[a, b, c, d] = entries[c, d, a, b] = rand_poly(
            rng, max_terms=2, span=2)
    return SparseROp(QUANTUM, entries)


def test_columns_keep_exactly_the_masked_outputs(rng):
    """On case-1 letters and seeded symmetric charge-conserving operators,
    2-4 strands, with seeded per-column masks (empty, whole-sector and
    random ones) and with the triangle t >= s: each yielded column holds
    exactly the full product's outputs whose ``_sector_bits`` bits are set
    in its mask, and a column with no such nonzero output is absent.  A
    tuple of masks of another length is refused."""
    mod = engine.model(1, "ambient")
    skipped = 0
    for strands in (2, 3, 3, 4):
        states = list(product((1, 2, 3, 4), repeat=strands))
        bit = dict(zip(states, rmat._sector_bits(strands)))
        sector = {}
        for s in states:
            charge = tuple(map(sum, zip(*(rmat.CHARGE[x] for x in s))))
            sector.setdefault(charge, []).append(s)
        same = {s: group for group in sector.values() for s in group}
        whole = [sum(bit[t] for t in same[s]) for s in states]
        kinds = [i % 3 for i in range(len(states))]
        rng.shuffle(kinds)
        drawn = tuple((0, w, rng.randint(0, w))[kind]
                      for kind, w in zip(kinds, whole))
        triangle = tuple(sum(bit[t] for t in same[s] if t >= s)
                         for s in states)
        ops = (mod.sigma, mod.sigma_inv,
               _symmetric_op(rng), _symmetric_op(rng))
        letters = [(rng.randint(1, strands - 1), rng.choice(ops))
                   for _ in range(strands + 2)]
        full = dict(rmat._columns(QUANTUM, strands, letters))
        for keep in (drawn, tuple(whole), triangle):
            want = []
            for s, mask in zip(states, keep):
                image = {t: v for t, v in full.get(s, {}).items()
                         if mask & bit[t]}
                if image:
                    want.append((s, image))
                skipped += s in full and not image
            assert list(rmat._columns(QUANTUM, strands, letters, keep)) == \
                want
        assert [(s, {t: v for t, v in image.items() if t >= s})
                for s, image in full.items() if max(image) >= s] == \
            list(rmat._columns(QUANTUM, strands, letters, triangle))
    assert skipped
    with pytest.raises(ValueError, match="16 output masks for 64 columns"):
        next(rmat._columns(QUANTUM, 3, (), rmat._sector_bits(2)))


@pytest.mark.parametrize("case", [2, 4])
def test_columns_match_the_reference_in_the_ambient_rings(rng, case):
    """Case 2 ambient works in QONLY with i in its entries, case 4 ambient
    in CONST, where a key is the i field alone."""
    mod = engine.model(case, "ambient")
    assert mod.ring is (QONLY if case == 2 else CONST)
    if case == 2:
        assert any(k & 1 for v in mod.sigma.entries.values() for k in v._t)
    for strands in (2, 3, 4):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(strands + 2)]
        _assert_columns_match(mod.ring, strands, letters)


def test_columns_match_the_reference_on_the_tybe_sides():
    """Both sides of the additive Yang-Baxter equation on 3 strands, TRIG
    keys with Y, full, closure-only and on the orbit domain."""
    for side in ybe._tybe_sides(rmat.build_trig_gauged()):
        _assert_columns_match(TRIG, 3, side)


def test_cached_transition_tables_equal_a_fresh_build():
    """One operator at two positions, in both modes, twice: it keeps one
    table per shift, equal to a fresh build's, and the tables it keeps give
    what a fresh copy of it gives."""
    mod = engine.model(1, "ambient")
    op = SparseROp(QUANTUM, mod.sigma.entries)
    inv = SparseROp(QUANTUM, mod.sigma_inv.entries)
    word = [(1, op), (2, inv), (2, op), (1, op), (2, op)]
    for keep in (None, rmat._sector_bits(3)) * 2:
        fresh = [(pos, SparseROp(QUANTUM, o.entries)) for pos, o in word]
        assert list(rmat._columns(QUANTUM, 3, word, keep)) == \
            list(rmat._columns(QUANTUM, 3, fresh, keep))
    assert set(op._tables) == {0, 2}    # both positions, both modes
    for shift in (0, 2):
        assert op._tables[shift] == \
            SparseROp(QUANTUM, op.entries)._transitions(shift)


def test_cached_reach_plans_equal_a_fresh_build():
    """One operator at two positions on 3 strands and one on 4, in both
    modes: the full product builds no plan, and each plan kept on the
    operator, one per (strands, shift), equals a fresh copy's."""
    mod = engine.model(2, "regular")
    op = SparseROp(QUANTUM, mod.sigma.entries)
    inv = SparseROp(QUANTUM, mod.sigma_inv.entries)
    list(rmat._columns(QUANTUM, 3, [(1, op), (2, inv), (2, op)]))
    assert op._plans == {}
    for strands, word in ((3, [(1, op), (2, inv), (2, op), (1, op)]),
                          (4, [(3, op), (1, inv)])):
        for _ in range(2):
            fresh = [(pos, SparseROp(QUANTUM, o.entries)) for pos, o in word]
            closure = rmat._sector_bits(strands)
            assert list(rmat._columns(QUANTUM, strands, word, closure)) == \
                list(rmat._columns(QUANTUM, strands, fresh, closure))
    assert set(op._plans) == {(3, 0), (3, 2), (4, 0)}
    for strands, shift in op._plans:
        assert op._plans[strands, shift] == \
            SparseROp(QUANTUM, op.entries)._plan(strands, shift)


def _reference_reach(strands, letters):
    """Per state, with tuple states: after each number of letters, the
    states each state can still reach through the nonzero entries of the
    later letters."""
    states = list(product((1, 2, 3, 4), repeat=strands))
    reach = [{t: {t} for t in states}]
    for pos, op in reversed(letters):
        lo = pos - 1
        nxt = reach[-1]
        reach.append({t: set().union(*(
            nxt[t[:lo] + (b, a) + t[lo + 2:]] for (a, b, c, d) in op.entries
            if t[lo:lo + 2] == (d, c))) for t in states})
    reach.reverse()
    return reach


def _assert_reach_matches_the_reference(strands, letters):
    """``_reach``'s bitsets read as sets of states, their bits numbered in
    each state's charge sector."""
    states = list(product((1, 2, 3, 4), repeat=strands))
    seen = {}
    bit = {}
    for t in states:
        charge = tuple(map(sum, zip(*(rmat.CHARGE[x] for x in t))))
        i = seen[charge] = seen.get(charge, -1) + 1
        bit[t] = 1 << i
    got = rmat._reach(strands, letters)
    assert len(got) == len(letters) + 1
    for bits, sets in zip(got, _reference_reach(strands, letters)):
        assert list(bits) == [sum(bit[u] for u in sets[t]) for t in states]


@pytest.mark.parametrize("key", list(engine.MODELS))
def test_reach_matches_a_per_state_backward_pass(rng, key):
    """Seeded words of each model on 2-5 strands."""
    mod = engine.model(*key)
    for strands in (2, 3, 4, 5):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(rng.randint(1, strands + 1))]
        _assert_reach_matches_the_reference(strands, letters)


def test_reach_refuses_a_charge_mixing_letter():
    """Its bits are numbered within charge sectors, which a letter that
    does not conserve the charge would leave."""
    mod = engine.model(1, "ambient")
    for letters in ([(1, charge_mixing_op())],
                    [(1, mod.sigma), (2, charge_mixing_op()), (1, mod.sigma)]):
        with pytest.raises(RingError, match="conserve the charge"):
            rmat._reach(3, letters)


def _returns(letters, s):
    """Whether some path of nonzero entries leads from state s back to s
    through the letters, followed with tuple states."""
    states = {s}
    for pos, op in letters:
        lo = pos - 1
        states = {state[:lo] + (b, a) + state[lo + 2:]
                  for state in states for (a, b, c, d) in op.entries
                  if state[lo:lo + 2] == (d, c)}
    return s in states


def _assert_closure_only_exact(ring, strands, letters):
    """The pruned closure-only product equals the reference's; returns the
    number of columns that cannot return to themselves."""
    closure = rmat._sector_bits(strands)
    got = list(rmat._columns(ring, strands, letters, closure))
    assert got == _reference_columns(ring, strands, letters, closure)
    return sum(not _returns(letters, s)
               for s in product((1, 2, 3, 4), repeat=strands))


@pytest.mark.parametrize("key", list(engine.MODELS))
def test_closure_only_matches_the_reference_on_every_model(rng, key):
    """Seeded words of each model on 2-5 strands, some with columns that
    cannot return to themselves, which the kernel skips."""
    mod = engine.model(*key)
    stuck = 0
    for strands in (2, 2, 3, 3, 4, 4, 5):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(rng.randint(1, strands + 1))]
        stuck += _assert_closure_only_exact(mod.ring, strands, letters)
    assert stuck


def test_closure_only_matches_the_reference_with_a_sparse_letter(rng):
    """A charge-conserving operator with half of R1's entries, some input
    pairs left with no entry at all, mixed with case 1's on 3 strands."""
    mod = engine.model(1, "ambient")
    entries = rmat.quantum_r(1).sorted_items()
    sparse = SparseROp(QUANTUM, dict(rng.sample(entries, len(entries) // 2)))
    assert sparse.conserves_charge()
    assert any(not by_out for by_out in sparse._transitions(0)[0].values())
    stuck = 0
    for _ in range(6):
        letters = [(rng.randint(1, 2),
                    rng.choice((sparse, mod.sigma, mod.sigma_inv)))
                   for _ in range(4)]
        letters.insert(rng.randint(0, 4), (rng.randint(1, 2), sparse))
        stuck += _assert_closure_only_exact(QUANTUM, 3, letters)
    assert stuck


def test_columns_refuse_a_letter_of_another_ring():
    op = rmat.identity_op(QONLY)
    with pytest.raises(RingError, match="variable-set mismatch"):
        next(rmat._columns(QUANTUM, 2, [(1, op)]))
    mixed = SparseROp(QUANTUM, {(1, 1, 1, 1): QONLY.one})
    with pytest.raises(RingError, match="variable-set mismatch"):
        next(rmat._columns(QUANTUM, 2, [(1, mixed)]))


#: (ring, variable): the highest field of each ring, whose borrow would
#: reach the state bits, and the lowest Laurent field of TRIG.
FIELDS = [(QUANTUM, "p"), (QUANTUM, "Q"), (QONLY, "Q"), (TRIG, "Q"),
          (TRIG, "Sv")]


@pytest.mark.parametrize("ring, name", FIELDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_columns_refuse_an_exponent_out_of_range_mid_word(ring, name, sign):
    """The state |2,2> gains name**(sign * 40000) per step: the second step
    leaves [-2**16, 2**16) and the third would bring it back into range.
    The check after each letter raises before that column is yielded;
    every column before it in lexicographic order is yielded."""
    def step(power):
        entries = dict(rmat.identity_op(ring).entries)
        entries[(2, 2, 2, 2)] = ring.mono(1, **{name: sign * power})
        return SparseROp(ring, entries)
    word = [(1, step(40000)), (1, step(40000)), (1, step(-40000))]
    got = []
    with pytest.raises(RingError, match="exponent outside"):
        for item in rmat._columns(ring, 2, word):
            got.append(item)
    assert [s for s, _ in got] == \
        [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)]
    assert all(image == {s: ring.one} for s, image in got)
    # two steps of 30000 stay in range
    word = [(1, step(30000)), (1, step(30000))]
    image = dict(rmat._columns(ring, 2, word))[(2, 2)]
    assert image == {(2, 2): ring.mono(1, **{name: sign * 60000})}


#: (ring, variable): the variables of each Y ring that its Y**2 relation
#: moves, so that a folded delta can carry them out of range.
FOLDED_FIELDS = [(QUANTUM, "p"), (QUANTUM, "Q"), (TRIG, "Q"), (TRIG, "Aa")]


@pytest.mark.parametrize("ring, name", FOLDED_FIELDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_columns_refuse_an_exponent_out_of_range_through_a_folded_delta(
        ring, name, sign):
    """|2,2> gains Y * name**(sign * 60000), then Y * name**(sign * 5535):
    the Y**2 term name**(sign * 65535) is in range, but the relation's
    name**(sign * 2) term takes it out.  The kernel adds the folded delta
    at once, and its range check raises before that column is yielded;
    the ring's own product raises as well."""
    def step(power):
        entries = dict(rmat.identity_op(ring).entries)
        entries[(2, 2, 2, 2)] = ring.mono(1, Y=1, **{name: sign * power})
        return SparseROp(ring, entries)
    word = [(1, step(60000)), (1, step(5535))]
    assert word[1][1]._transitions(0)[1] & 1 << ring._ys
    got = []
    with pytest.raises(RingError, match="exponent outside"):
        for item in rmat._columns(ring, 2, word):
            got.append(item)
    assert [s for s, _ in got] == \
        [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)]
    assert all(image == {s: ring.one} for s, image in got)
    with pytest.raises(RingError, match="exponent outside"):
        word[0][1].get(2, 2, 2, 2) * word[1][1].get(2, 2, 2, 2)


def test_columns_keep_an_out_of_range_sum_that_cancels():
    """Column (3, 2) goes to P (3, 2) + P (2, 3), P = p**(2**15), and then
    both terms go to (3, 2), with P and -P: the two products p**(2**16)
    are out of range but cancel, and the kernel drops the zero before its
    range check.  No single ring product can do this: the term of a
    product at the sum of its factors' highest exponents is never
    cancelled."""
    big = QUANTUM.var("p", EXP_BIAS // 2)
    first = dict(rmat.identity_op(QUANTUM).entries)
    first[(2, 3, 2, 3)] = first[(3, 2, 2, 3)] = big
    second = dict(rmat.identity_op(QUANTUM).entries)
    second[(2, 3, 2, 3)] = big
    second[(2, 3, 3, 2)] = -big
    word = [(1, SparseROp(QUANTUM, first)), (1, SparseROp(QUANTUM, second))]
    assert dict(rmat._columns(QUANTUM, 2, word))[(3, 2)] == {(2, 3): big}
    assert (3, 2) not in dict(rmat._columns(QUANTUM, 2, word,
                                            rmat._sector_bits(2)))
    with pytest.raises(RingError, match="exponent outside"):
        big * big


@pytest.mark.parametrize("strands", [1, 2, 3, 4, 5, 6])
def test_sector_bits_match_the_charge_sums(strands):
    """The strand-by-strand charges give the bits of the per-state sums."""
    seen = {}
    want = []
    for s in product((1, 2, 3, 4), repeat=strands):
        q = tuple(map(sum, zip(*(rmat.CHARGE[x] for x in s))))
        i = seen.get(q, 0)
        seen[q] = i + 1
        want.append(1 << i)
    assert rmat._sector_bits(strands) == tuple(want)


def _operators_with_y():
    """A function that makes each operator the package multiplies with
    Y-carrying terms: the model sigmas and their inverses, quantum R1 and
    both trigonometric operators.  Nothing is made until a test calls one,
    so a kernel fault fails the tests that make it, not the module's
    collection."""
    ops = {"R1": lambda: rmat.quantum_r(1),
           "trig gauged": rmat.build_trig_gauged,
           "trig gauge-free": rmat.build_trig_gauge_free}
    for key in engine.MODELS:
        ops[f"{key} sigma"] = lambda key=key: engine.model(*key).sigma
        ops[f"{key} sigma_inv"] = lambda key=key: engine.model(*key).sigma_inv
    return ops


def _assert_lists_are_products(op, shift, ybit, factor):
    """Under each input group's key with ``ybit``, each output's deltas are
    the terms of ``factor`` times the entry, formed by the ring's own
    product and Y**2 fold, less the key of ``factor``; no coefficient is
    zero."""
    ring = op.ring
    table = op._transitions(shift)[0]
    up = shift + ring._width
    (fkey,) = factor._t
    for g in range(16):
        want = {}
        for (a, b, c, d), v in op.entries.items():
            if (d - 1) << 2 | (c - 1) == g:
                out = (b - 1) << 2 | (a - 1)
                want[(g ^ out) << shift] = {
                    ((out - g) << up) + k - fkey: x
                    for k, x in (factor * v)._t.items()}
        got = {xor: dict(pairs) for xor, pairs in table[g << up | ybit]}
        assert got == want
        assert all(x for pairs in got.values() for x in pairs.values())


def _assert_y_lists_are_products(op):
    """An operator that folds Y: its mask holds the Y bit, its table has
    the keys of the 16 input groups without and with Y, and a key that
    carries Y takes the deltas of Y times each entry, folded by the Y**2
    relation; a key without Y takes the entry's own."""
    ring = op.ring
    ybit = 1 << ring._ys
    for shift in (0, 2, 4):
        table, mask = op._transitions(shift)
        up = shift + ring._width
        assert mask == 15 << up | ybit
        assert set(table) == {g << up | b for g in range(16)
                              for b in (0, ybit)}
        _assert_lists_are_products(op, shift, 0, ring.one)
        _assert_lists_are_products(op, shift, ybit, ring.var("Y"))


def _assert_a_y_free_table(op):
    """An operator that does not fold Y: its mask holds no Y bit, and its
    table has exactly the keys of the 16 input groups, each with the
    entries' own deltas."""
    for shift in (0, 2):
        table, mask = op._transitions(shift)
        up = shift + op.ring._width
        assert mask == 15 << up
        assert set(table) == {g << up for g in range(16)}
        _assert_lists_are_products(op, shift, 0, op.ring.one)


@pytest.mark.parametrize("name, build", [
    pytest.param(name, build, id=f"{name}-op{i}")
    for i, (name, build) in enumerate(_operators_with_y().items())])
def test_y_delta_lists_equal_the_ring_products(name, build):
    """Every model sigma and inverse, R1 and the trigonometric operators;
    one with no Y-carrying term has no key with Y."""
    op = build()
    ring = op.ring
    if ring._ys is not None and any(k >> ring._ys & 1
                                    for v in op.entries.values()
                                    for k in v._t):
        _assert_y_lists_are_products(op)
    else:
        _assert_a_y_free_table(op)


def test_folded_deltas_fold_i_squared():
    """With Y**2 = i*p, an entry i*Y*p times a key with Y forms i**2 in the
    delta itself, which the table folds; the kernel matches the reference
    in every mode."""
    ring = Ring(("p", "Y"), lambda r: r.mono((0, 1), p=1))
    entries = dict(rmat.identity_op(ring).entries)
    entries[(2, 2, 2, 2)] = ring.mono((0, 1), p=1, Y=1)
    entries[(3, 3, 3, 3)] = ring.mono(1, Y=1) + ring.mono(-2, p=-1)
    entries[(2, 3, 3, 2)] = entries[(3, 2, 2, 3)] = ring.mono(1, Y=1)
    op = SparseROp(ring, entries)
    _assert_y_lists_are_products(op)
    image = dict(rmat._columns(ring, 2, [(1, op)] * 2))[(2, 2)]
    assert image == {(2, 2): ring.mono((0, -1), p=3)}   # (iYp)**2 = -ip**3
    for strands in (2, 3):
        _assert_columns_match(ring, strands, [(1, op), (strands - 1, op),
                                              (1, op), (1, op)])


def test_y_lists_of_a_sparse_operator(rng):
    """Y-carrying entries on a few input pairs only: every input group has
    its lists under both keys, empty or not, and the full product matches
    the reference; the closure-only one refuses such an operator, which
    does not conserve the charge."""
    keys = list(product((1, 2, 3, 4), repeat=4))
    for _ in range(4):
        sparse = SparseROp(QUANTUM, {
            k: QUANTUM.mono(rng.choice((1, -1)), p=rng.randint(-2, 2),
                            Y=rng.randint(0, 1))
            for k in rng.sample(keys, 12)})
        if not sparse._transitions(0)[1] & 1 << QUANTUM._ys:
            continue
        _assert_y_lists_are_products(sparse)
        assert not sparse.conserves_charge()
        for strands in (2, 3):
            _assert_columns_match(QUANTUM, strands,
                                  [(rng.randint(1, strands - 1), sparse)
                                   for _ in range(4)])


def test_models_without_y_terms_keep_a_single_list():
    """Cases 3 and 4, case 2 ambient, R3 and R4 have no Y-carrying term:
    one list per input group, and no Y bit in the mask."""
    ops = [rmat.quantum_r(3), rmat.quantum_r(4)]
    for key in ((3, "regular"), (4, "ambient"), (2, "ambient")):
        ops += [engine.model(*key).sigma, engine.model(*key).sigma_inv]
    for op in ops:
        _assert_a_y_free_table(op)


@pytest.fixture
def y_folds(monkeypatch):
    """Counts the products the ring forms with a Y**2 relation's offsets:
    the calls of ``ring._mul_into`` that ``ring._folded``'s Y**2 branch
    makes."""
    calls = []
    real = ring_module._mul_into

    def counted(terms, a, b, bias):
        if any(b is r._y_fold for r in (QUANTUM, TRIG)):
            calls.append(len(a))
        return real(terms, a, b, bias)
    monkeypatch.setattr(ring_module, "_mul_into", counted)
    return calls


def test_columns_never_fold_y_squared_after_a_letter(rng, y_folds):
    """Seeded case-1 words in both modes and one TYBE side form no Y**2
    term: the tables fold it.  The reference products of the same words
    do form Y**2 terms."""
    y = QUANTUM.var("Y")
    y * y
    assert y_folds == [1]
    mod = engine.model(1, "ambient")
    words = [[(rng.randint(1, strands - 1),
               rng.choice((mod.sigma, mod.sigma_inv)))
              for _ in range(strands + 3)] for strands in (2, 3, 3, 4)]
    side = ybe._tybe_sides(rmat.build_trig_gauged())[0]
    del y_folds[:]
    for letters in words:
        strands = len(letters) - 3
        for keep in (None, rmat._sector_bits(strands)):
            list(rmat._columns(QUANTUM, strands, letters, keep))
    list(rmat._columns(TRIG, 3, side))
    assert y_folds == []
    for letters in words:
        _reference_columns(QUANTUM, len(letters) - 3, letters)
    assert y_folds


@pytest.mark.parametrize("key", [(1, "ambient"), (2, "regular")])
def test_columns_match_the_reference_where_y_products_arise(rng, key,
                                                            y_folds):
    """Seeded words of the two models whose letters carry Y, in every mode,
    on 2-4 strands; their reference products form Y**2 terms.  So does a
    word that alternates R1 and R3 letters, where keys with Y meet a letter
    with no key with Y."""
    mod = engine.model(*key)
    for strands in (2, 3, 3, 4):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(strands + 3)]
        _assert_columns_match(mod.ring, strands, letters)
    r1, r3 = rmat.quantum_r(1), rmat.quantum_r(3)
    _assert_columns_match(QUANTUM, 3, [(1, r1), (2, r3), (2, r1), (1, r3),
                                       (1, r1), (2, r3)])
    assert y_folds


@pytest.fixture
def folded_calls(monkeypatch):
    """Counts the columns the operator product settles after a letter: the
    calls of ``rmat._folded``, which the ring's own products do not
    make."""
    calls = []
    real = rmat._folded

    def counted(ring, terms):
        calls.append(len(terms))
        return real(ring, terms)
    monkeypatch.setattr(rmat, "_folded", counted)
    return calls


@pytest.mark.parametrize("ring, name", FIELDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_columns_prove_the_range_up_to_the_boundary(ring, name, sign,
                                                    folded_calls):
    """|2,2> gains name**(sign * 2**15), then name**(sign * (2**15 - 1)):
    the bounds sum to 2**16 - 1, below EXP_BIAS, so no letter is settled
    and the image is name**(sign * 65535).  With 2**15 twice the sum
    reaches EXP_BIAS and every letter is settled: the product raises at
    the top of the range and gives name**-65536 at the bottom."""
    def step(power):
        entries = dict(rmat.identity_op(ring).entries)
        entries[(2, 2, 2, 2)] = ring.mono(1, **{name: sign * power})
        return SparseROp(ring, entries)
    half = EXP_BIAS // 2
    word = [(1, step(half)), (1, step(half - 1))]
    image = dict(rmat._columns(ring, 2, word))[(2, 2)]
    assert [op._bound for _, op in word] == [half, half - 1]
    assert image == {(2, 2): ring.mono(1, **{name: sign * (EXP_BIAS - 1)})}
    assert folded_calls == []
    word = [(1, step(half)), (1, step(half))]
    if sign > 0:
        with pytest.raises(RingError, match="exponent outside"):
            list(rmat._columns(ring, 2, word))
    else:
        image = dict(rmat._columns(ring, 2, word))[(2, 2)]
        assert image == {(2, 2): ring.mono(1, **{name: -EXP_BIAS})}
    assert folded_calls


@pytest.mark.parametrize("ring, name", FOLDED_FIELDS)
@pytest.mark.parametrize("sign", [1, -1])
def test_a_letters_bound_counts_the_y_relation_it_folds(ring, name, sign,
                                                        folded_calls):
    """Y * name**(sign * power) moves an exponent by up to power + 2, as
    the relation's terms carry name**+-2; without Y, by power.  Two such
    letters with Y are proven at power 2**15 - 3 and settled at
    2**15 - 2, and both give the ring's own product."""
    def step(power, y):
        entries = dict(rmat.identity_op(ring).entries)
        entries[(2, 2, 2, 2)] = ring.mono(1, Y=y, **{name: sign * power})
        return SparseROp(ring, entries)
    for power, settled in ((EXP_BIAS // 2 - 3, False),
                           (EXP_BIAS // 2 - 2, True)):
        op = step(power, 0)
        op._transitions(0)
        assert op._bound == power and not op._settle
        op = step(power, 1)
        image = dict(rmat._columns(ring, 2, [(1, op)] * 2))[(2, 2)]
        assert op._bound == power + 2
        assert image == {(2, 2): op.get(2, 2, 2, 2) ** 2}
        assert bool(folded_calls) == settled


@pytest.mark.parametrize("key", list(engine.MODELS))
def test_model_words_settle_a_letter_only_when_i_can_square(rng, key,
                                                            folded_calls):
    """Seeded words of each model on 2-4 strands, in every mode, equal the
    reference.  Only case 2 ambient, whose entries carry i, settles its
    columns after each letter."""
    mod = engine.model(*key)
    carries_i = any(k & 1 for v in mod.sigma.entries.values() for k in v._t)
    assert carries_i == (key == (2, "ambient"))
    for strands in (2, 3, 4):
        letters = [(rng.randint(1, strands - 1),
                    rng.choice((mod.sigma, mod.sigma_inv)))
                   for _ in range(strands + 3)]
        _assert_columns_match(mod.ring, strands, letters)
    assert mod.sigma._settle == mod.sigma_inv._settle == carries_i
    assert bool(folded_calls) == carries_i


@pytest.mark.parametrize("name", ["R1", "R2", "R3", "R4", "TYBE"])
def test_yang_baxter_sides_settle_no_letter(name, folded_calls):
    """Both QYBE sides of each quantum R-matrix, and both sides of the
    gauged TYBE, equal the reference with no letter settled."""
    if name == "TYBE":
        ring, sides = TRIG, ybe._tybe_sides(rmat.build_trig_gauged())
    else:
        ring, sides = QUANTUM, ybe._qybe_sides(rmat.quantum_r(int(name[1])))
    for side in sides:
        _assert_columns_match(ring, 3, side)
    assert folded_calls == []


def test_folded_deletes_a_cancelled_term_in_the_dict_it_is_given():
    """With and without an i**2 or Y**2 fold to make, the dict returned is
    the one given, its zero terms deleted."""
    one, p, y = (QUANTUM.var(n, e)._t.popitem()[0]
                 for n, e in (("p", 0), ("p", 1), ("Y", 1)))
    for terms, want in (({one: 2, p: 0}, {one: 2}),
                        ({one + 2: 1, p: 0}, {one: -1}),
                        ({y + y - one: 1, one: 0},
                         dict(QUANTUM.y_square._t))):
        out = rmat._folded(QUANTUM, terms)
        assert out is terms and out == want


#: sha256 of the full represent() of a 5-strand word, one line
#: "input output coefficient" per image term in sorted order, with the
#: column and image counts, as computed with tuple states and one
#: polynomial sum per product.
REPRESENT_GOLDEN = {
    (2, "5 : 1 -2 3 -4 2 1"): (1024, 3232, "744ec63977dda8f2a9eed052fd655ae9"
                               "39edcb6c334d0234d22d7610da51ca29"),
    (1, "5 : 1 -2 3 -4"): (1024, 8414, "cd34ab7128048232aa69bce60d9e3d44"
                           "cbcf6ab456931fff0fa7e5b49f870db9"),
}


@pytest.mark.parametrize("case, word", list(REPRESENT_GOLDEN))
def test_represent_on_five_strands_matches_the_golden(case, word):
    """Case 2 ambient's images carry imaginary coefficients, case 1's Y."""
    rep = engine.represent(braid.parse(word), engine.model(case, "ambient"))
    text = "\n".join(f"{s} {t} {v}" for s in sorted(rep)
                     for t, v in sorted(rep[s].items()))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(rep), sum(map(len, rep.values())), digest) == \
        REPRESENT_GOLDEN[(case, word)]


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


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_eigen_check_rejects_wrong_claim(case):
    """Without its last value, each case's list leaves that value's roots
    in some sector's polynomial."""
    rep = rmat.eigen_check(rmat.quantum_r(case),
                           rmat.claimed_eigenvalues(case)[:-1])
    assert not rep.ok
    assert rep.message == "spectrum not exhausted by the claimed list"


def test_eigen_check_reads_every_sector():
    """The identity with p**2 at one diagonal entry, for each of the 16: a
    claim of 1 alone leaves p**2 in that entry's sector, and a claim of 1
    and p**2 finds multiplicities 15 and 1, summed over the sectors."""
    one, p2 = QUANTUM.one, QUANTUM.mono(1, p=2)
    for a, b in product((1, 2, 3, 4), repeat=2):
        entries = dict(rmat.identity_op(QUANTUM).entries)
        entries[(a, b, a, b)] = p2
        op = rmat.SparseROp(QUANTUM, entries)
        rep = rmat.eigen_check(op, [one])
        assert rep.message == "spectrum not exhausted by the claimed list"
        rep = rmat.eigen_check(op, [one, p2])
        assert rep.ok and rep.multiplicities == {str(one): 15, str(p2): 1}


@pytest.mark.parametrize("row, where", [
    (rmat.SAMPLE_POINTS[0], "p = 3/5, Q = 25/39, Y = 176/325"),
    (IMAGINARY_Y[0], "p = 1/4, Q = 33/4, Y = 238/33 * i"),
])
def test_eigen_check_names_an_absent_eigenvalue_and_its_point(
        row, where, monkeypatch):
    """p**6 is no eigenvalue of R1: the report names it and the point, with
    p, Q and Y as fractions."""
    monkeypatch.setattr(rmat, "SAMPLE_POINTS", [row])
    rep = rmat.eigen_check(rmat.quantum_r(1), [QUANTUM.mono(1, p=6)])
    assert not rep.ok and rep.points_used == 0
    assert rep.message == f"claimed eigenvalue 1 * p^6 absent at {where}"


def test_eigen_check_skips_a_point_where_claimed_values_collide(monkeypatch):
    """At p = 1 the claims 1 and p**2 coincide, so their multiplicities
    cannot be told apart there: that point is skipped, and the next one
    finds p**2 absent."""
    collide = (1, 2, Fraction(3, 2), -1)     # Y**2 = -(Q - 1/Q)**2
    monkeypatch.setattr(rmat, "SAMPLE_POINTS",
                        [collide, rmat.SAMPLE_POINTS[0]])
    rep = rmat.eigen_check(rmat.identity_op(QUANTUM),
                           [QUANTUM.one, QUANTUM.mono(1, p=2)])
    assert not rep.ok and rep.points_used == 0
    assert rep.message == ("claimed eigenvalue 1 * p^2 absent at p = 3/5, "
                           "Q = 25/39, Y = 176/325")


def test_eigenvector_deficiency():
    assert rmat.eigenvector_deficiency(rmat.identity_op(QUANTUM)) == 16
    for i in (1, 2, 3, 4):
        assert rmat.eigenvector_deficiency(rmat.quantum_r(i)) == 16


def test_eigen_check_at_the_imaginary_y_points(monkeypatch):
    assert len(IMAGINARY_Y) == 3
    monkeypatch.setattr(rmat, "SAMPLE_POINTS", IMAGINARY_Y)
    monkeypatch.setattr(rmat, "EIGEN_POINTS", 3)
    for i in (1, 2, 3, 4):
        rep = rmat.eigen_check(rmat.quantum_r(i), rmat.claimed_eigenvalues(i))
        assert rep.ok, rep.message
        assert rep.points_used == 3
        assert rmat.eigenvector_deficiency(rmat.quantum_r(i)) == 16


def jordan_op(value):
    """The identity with ``value`` at key (2, 3, 3, 2): a 2x2 Jordan block
    for the eigenvalue 1 on |2,3>, |3,2>, so one eigenvector is missing."""
    entries = dict(rmat.identity_op(QUANTUM).entries)
    entries[(2, 3, 3, 2)] = value
    return rmat.SparseROp(QUANTUM, entries)


@pytest.mark.parametrize("value", [QUANTUM.one, QUANTUM.var("p")])
def test_eigenvector_deficiency_of_a_jordan_block(value, monkeypatch):
    op = jordan_op(value)
    assert rmat.eigenvector_deficiency(op) == 15
    rep = rmat.eigen_check(op, [QUANTUM.one])
    assert rep.ok and rep.multiplicities == {str(QUANTUM.one): 16}
    monkeypatch.setattr(rmat, "SAMPLE_POINTS", IMAGINARY_Y)
    assert rmat.eigenvector_deficiency(op) == 15


def _gauss(rng, span=5):
    return (rng.randint(-span, span), rng.randint(-span, span))


def _ref_poly_mul(a, b):
    """The product of two GaussQ coefficient lists (highest degree first)."""
    out = [GaussQ(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _ref_poly_add(a, b):
    n = max(len(a), len(b))
    a = [GaussQ(0)] * (n - len(a)) + list(a)
    b = [GaussQ(0)] * (n - len(b)) + list(b)
    return [x + y for x, y in zip(a, b)]


def _ref(coeffs):
    """Gaussian-integer ``(re, im)`` coefficients as GaussQs."""
    return [GaussQ(*c) for c in coeffs]


def _from_roots(roots):
    """The monic Gaussian-integer coefficient list of prod (x - r) over
    ``roots``, (re, im) pairs with repeats for multiplicity."""
    f = [GaussQ(1)]
    for r in roots:
        f = _ref_poly_mul(f, [GaussQ(1), -GaussQ(*r)])
    return [(int(c.re), int(c.im)) for c in f]


def _random_roots(rng):
    """Distinct Gaussian-integer roots, at least one of them imaginary, with
    multiplicities 1..4: ``{root: multiplicity}``."""
    roots = {(rng.randint(-6, 6), rng.randint(1, 6)): rng.randint(1, 4)}
    while len(roots) < rng.randint(2, 5):
        roots.setdefault(_gauss(rng, 6), rng.randint(1, 4))
    return roots


def test_root_multiplicity_recovers_each_multiplicity(rng):
    for _ in range(30):
        roots = _random_roots(rng)
        f = _from_roots([r for r, m in roots.items() for _ in range(m)])
        assert rmat._root_multiplicity(f, (7, 7)) == (0, f)
        order = list(roots)
        rng.shuffle(order)
        for r in order:
            m, f = rmat._root_multiplicity(f, r)
            assert m == roots[r]
            assert rmat._root_multiplicity(f, r)[0] == 0
        assert f == [(1, 0)]


def test_pseudo_divide(rng):
    """lc(b)**k * a = q * b + r with k = max(0, deg a - deg b + 1) and
    deg r < deg b, checked in GaussQ; a monic divisor divides exactly."""
    for _ in range(60):
        a = [_gauss(rng, 9) for _ in range(rng.randint(1, 9))]
        b = [_gauss(rng) for _ in range(rng.randint(1, 5))]
        if b[0] == (0, 0):
            b[0] = (0, 1)
        q, r = rmat._pseudo_divide(a, b)
        assert len(r) < len(b) and (not r or r[0] != (0, 0))
        k = max(0, len(a) - len(b) + 1)
        lhs = [GaussQ(*b[0]) ** k * c for c in _ref(a)]
        rhs = _ref_poly_add(_ref_poly_mul(_ref(q) or [GaussQ(0)], _ref(b)),
                            _ref(r))
        assert _ref_poly_add(lhs, [-c for c in rhs]) == \
            [GaussQ(0)] * max(len(lhs), len(rhs))
        monic = [(1, 0)] + b[1:]
        prod = _ref_poly_mul(_ref(a), _ref(monic))
        prod = [(int(c.re), int(c.im)) for c in prod]
        assert rmat._pseudo_divide(prod, monic) == (a, [])


def test_squarefree_part_is_a_multiple_of_the_radical(rng):
    for _ in range(30):
        roots = _random_roots(rng)
        f = _from_roots([r for r, m in roots.items() for _ in range(m)])
        g = _ref(rmat._squarefree_part(f))
        radical = _ref(_from_roots(list(roots)))
        assert len(g) == len(radical)
        assert all(x * radical[0] == y * g[0] for x, y in zip(g, radical))
    assert rmat._squarefree_part(_from_roots([(0, 1)] * 16)) == [(1, 0),
                                                                 (0, -1)]


def _g(*rows):
    """A Gaussian-integer matrix from rows of Python complex numbers with
    integer parts."""
    return [[(int(z.real), int(z.imag)) for z in row] for row in rows]


def test_kernel_dim_over_the_gaussian_integers():
    i = 1j
    assert rmat._kernel_dim(_g([1, i], [i, -1])) == 1
    assert rmat._kernel_dim(_g([2, 1 + i], [1 - i, 1])) == 1
    assert rmat._kernel_dim(_g([1, i], [i, 1])) == 0
    assert rmat._kernel_dim(_g([0, 1], [1, 0])) == 0
    assert rmat._kernel_dim(_g([0, 0], [0, 0])) == 2
    # third row = (1 + i) * first row - i * second row: rank 2
    assert rmat._kernel_dim(_g([1, i, 2], [0, 3, 1 - i],
                               [1 + i, -1 - 2 * i, 1 + i])) == 1
    assert rmat._kernel_dim(_g([0, 0, 5], [0, 2 * i, 1], [3, 1, 1])) == 0


def reference_charpoly(M):
    """The Faddeev-LeVerrier recursion over GaussQ, kept as the reference the
    Gaussian-integer ``rmat.charpoly`` is checked against."""
    n = len(M)
    coeffs = [GaussQ(1)]
    Mk = [[GaussQ(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        Mk = _ref_mat_mul(M, Mk)
        tr = sum((Mk[i][i] for i in range(n)), GaussQ(0))
        c = tr / -k
        coeffs.append(c)
        for i in range(n):
            Mk[i][i] = Mk[i][i] + c
    return coeffs


def _ref_mat_mul(A, B):
    n = len(A)
    out = [[GaussQ(0)] * n for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(n):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(n):
                    if Bk[j]:
                        row[j] = row[j] + a * Bk[j]
    return out


def _index(a, b):
    return 4 * (a - 1) + (b - 1)


def _reference_matrix(R, point):
    """The 16x16 GaussQ matrix of an operator at a point, entry by entry."""
    M = [[GaussQ(0)] * 16 for _ in range(16)]
    for (a, b, c, d), v in R.entries.items():
        M[_index(a, b)][_index(c, d)] = reference_value(v, point)
    return M


def _model_sigmas():
    return [engine.model(*spec).sigma for spec in engine.MODELS]


def test_charpoly_matches_the_reference_on_every_operator():
    """At every sample point, for the quantum R-matrices, the identity, the
    Jordan operator and the five model sigmas (case 2 and case 4 ambient in
    QONLY and CONST): the reference matrix M is zero off the charge
    sectors; ``_eval_matrix`` gives the reference's least common
    denominator D, each sector's block of D * M, and D times each claimed
    value, or None when that is no Gaussian integer; ``charpoly`` of each
    block gives the reference's coefficients for M's block times powers of
    D, and the blocks' polynomials multiply to M's times powers of D."""
    ops = [rmat.quantum_r(i) for i in (1, 2, 3, 4)]
    ops += [rmat.identity_op(QUANTUM), jordan_op(QUANTUM.one)]
    ops += _model_sigmas()
    assert {op.ring for op in ops} == {QUANTUM, QONLY, CONST}
    complex_entries = non_integral = 0
    for op in ops:
        claimed = [op.ring.one, -op.ring.one]
        if op.ring is QUANTUM:
            claimed += [QUANTUM.mono(1, p=4), QUANTUM.mono(-1, p=2, Q=-2)]
        sectors = [[_index(*ab) for ab in block]
                   for block in rmat._blocks(op)]
        assert sorted(map(len, sectors)) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
        inside = {(i, j) for rows in sectors for i in rows for j in rows}
        for pt in rmat.SAMPLE_POINTS:
            point = sample_point(pt)
            M = _reference_matrix(op, point)
            assert all(M[i][j] == GaussQ(0) for i in range(16)
                       for j in range(16) if (i, j) not in inside)
            blocks, D, roots = rmat._eval_matrix(op, pt, claimed)
            parts = [x for row in M for v in row for x in (v.re, v.im)]
            assert D == math.lcm(*(x.denominator for x in parts))
            for c, r in zip(claimed, roots):
                v = D * reference_value(c, point)
                integral = v.re.denominator == v.im.denominator == 1
                assert r == ((int(v.re), int(v.im)) if integral else None)
                non_integral += not integral
            assert len(blocks) == len(sectors)
            product = [GaussQ(1)]
            for rows, B in zip(sectors, blocks):
                ref = [[M[i][j] for j in rows] for i in rows]
                assert [[GaussQ(*e) for e in row] for row in B] == \
                    [[D * x for x in row] for row in ref]
                got = rmat.charpoly(B)
                want = reference_charpoly(ref)
                assert len(got) == len(want) == len(rows) + 1
                for k, (a, c) in enumerate(zip(got, want)):
                    assert GaussQ(*a) == c * D ** k, (op, pt, k)
                product = _ref_poly_mul(product, _ref(got))
                complex_entries += sum(1 for row in B for e in row if e[1])
            whole = reference_charpoly(M)
            assert len(whole) == 17
            assert product == [c * D ** k for k, c in enumerate(whole)]
    assert complex_entries > 0   # the imaginary-Y points reach the im parts
    assert non_integral > 0


def test_charpoly_refuses_inexact_entries():
    """Each bad entry is the only fault of a 4x4 block charpoly accepts."""
    blocks, _, _ = rmat._eval_matrix(rmat.quantum_r(1), IMAGINARY_Y[0])
    A = next(B for B in blocks if len(B) == 4)
    assert len(rmat.charpoly(A)) == 5
    for bad in ((Fraction(1), 0), (0, Fraction(1, 2)), (True, 0), (1, False),
                Fraction(1), 1, (1, 0, 0), [1, 0], GaussQ(1)):
        B = [row[:] for row in A]
        B[0][0] = bad
        with pytest.raises(RingError):
            rmat.charpoly(B)
    with pytest.raises(RingError):
        rmat.charpoly([row[:3] for row in A])
