"""Laurent-ring arithmetic: canonical forms, the Y-rewrite, evaluation and
substitution."""

from fractions import Fraction

import pytest

from conftest import GaussQ, rand_poly, reference_value, sample_point
from gaugeknot import rmat
from gaugeknot.ring import (CONST, EXP_BIAS, QONLY, QUANTUM, TRIG, Ring,
                            RingError, canonical_str, cleared_values,
                            map_poly, sum_of_products)


def test_add_examples():
    Q = QUANTUM.var("Q")
    Qb = QUANTUM.var("Q", -1)
    assert (Q + (-Q)).is_zero()
    assert (Q - Qb) + Qb == Q
    p2 = QUANTUM.mono(1, p=2)
    pb2 = QUANTUM.mono(1, p=-2)
    assert p2 + pb2 == QUANTUM.poly({(2, 0, 0): 1, (-2, 0, 0): 1})


def test_mul_examples():
    Q = QUANTUM.var("Q")
    Qb = QUANTUM.var("Q", -1)
    assert (Q - Qb) * (Q + Qb) == QUANTUM.mono(1, Q=2) - QUANTUM.mono(1, Q=-2)
    i = QUANTUM.gauss(0, 1)
    assert i * i == -QUANTUM.one


def test_y_square_rewrite():
    Y = QUANTUM.var("Y")
    m = QUANTUM.mono
    expect = m(1, p=2) + m(1, p=-2) - m(1, Q=2) - m(1, Q=-2)
    assert Y * Y == expect
    assert QUANTUM.y_square == expect
    # odd powers keep a single Y factor
    assert Y * Y * Y == expect * Y


def test_y_degree_at_most_one():
    for bad in (2, -1):
        with pytest.raises(RingError):
            QUANTUM.mono(1, Y=bad)
    # Y**2 = p^2 + p^-2 - Q^2 - Q^-2 is no unit, so neither is Y
    with pytest.raises(RingError):
        QUANTUM.var("Y").invert_monomial()
    unset = Ring(("p", "Y"))
    with pytest.raises(RingError):
        unset.var("Y") * unset.var("Y")


def test_variables_follow_master_order():
    assert TRIG.names == ("Q", "Y", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv")
    for names in (("Q", "p"), ("Q", "Q"), ("Q", "Z")):
        with pytest.raises(RingError):
            Ring(names)


def test_coefficients_are_gaussian_integers():
    for bad in (1.5, Fraction(1, 2), GaussQ(1), True, (1, 0.5), (1, 2, 3)):
        with pytest.raises(RingError):
            QUANTUM.mono(bad, p=1)
    with pytest.raises(RingError):
        QUANTUM.gauss(1, Fraction(1))
    assert QUANTUM.mono((2, -1), p=1).terms == {(1, 0, 0): (2, -1)}


def test_exponents_are_ints():
    for bad in (0.5, 1.0, Fraction(1), True, False):
        with pytest.raises(RingError):
            QUANTUM.mono(1, p=bad)
        with pytest.raises(RingError):
            QUANTUM.poly({(0, bad, 0): 1})
    with pytest.raises(RingError):
        QUANTUM.mono(1, Y=True)
    with pytest.raises(RingError):
        QUANTUM.var("Q", 2.0)
    assert QUANTUM.mono(1, p=-2).terms == {(-2, 0, 0): (1, 0)}


def test_operands_outside_the_ring():
    poly = QUANTUM.var("Q")
    for op in (lambda a: a + 1.0, lambda a: 1.0 - a, lambda a: a * 0.5,
               lambda a: a * True):
        with pytest.raises(TypeError):
            op(poly)
    assert poly != True and poly == poly * 1


def test_y_rewrite_confluence(rng):
    Y = QUANTUM.var("Y")
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        assert (Y * a) * (Y * b) == QUANTUM.y_square * (a * b)


def test_trig_y_square_maps_to_quantum():
    """Aa -> p*Qbar carries the trigonometric Y-relation to the quantum one."""
    images = {"Q": QUANTUM.var("Q"), "Aa": QUANTUM.mono(1, p=1, Q=-1),
              "Y": QUANTUM.var("Y")}
    for n in ("X", "Xv", "Ru", "Rv", "Su", "Sv"):
        images[n] = QUANTUM.one
    assert map_poly(TRIG.y_square, QUANTUM, images) == QUANTUM.y_square


def test_variable_set_mismatch():
    with pytest.raises(RingError):
        QUANTUM.var("Q") + QONLY.var("Q")
    with pytest.raises(RingError):
        QUANTUM.var("Q") * TRIG.var("Q")


def test_no_zero_terms_stored(rng):
    for _ in range(100):
        a = rand_poly(rng)
        diff = a - a
        assert diff.is_zero() and not diff.terms
        for coeff in a.terms.values():
            assert coeff != (0, 0)


def value(poly, point):
    """``poly`` at ``point`` through ``cleared_values``, checked against the
    reference: F is a positive int and F * poly(point) a Gaussian integer
    equal to F times the term-by-term reference value."""
    F, (v,) = cleared_values([poly], point)
    assert type(F) is int and F > 0
    assert all(type(x) is int for x in v)
    assert GaussQ(*v) == F * reference_value(poly, point)
    return GaussQ(*v) / F


def test_evaluate_examples():
    m = QUANTUM.mono
    two = {"p": 1, "Q": 2, "Y": 0}
    assert value(m(1, Q=2) - m(1, Q=-2), two) == Fraction(15, 4)
    assert cleared_values([m(1, Q=2) - m(1, Q=-2)], two) == (4, [(15, 0)])
    assert cleared_values([QUANTUM.one], two) == (1, [(1, 0)])
    pt = {"p": 3, "Q": 2, "Y": 0}
    # 9 + 1/9 - 4 - 1/4
    assert value(QUANTUM.y_square, pt) == Fraction(175, 36)
    # one F for all: p**-2 and Q**2 at p = 3, Q = 2/5 clear 9 and 25
    assert cleared_values([m(1, p=-2), m((0, 2), Q=2), QUANTUM.zero],
                          {"p": 3, "Q": Fraction(2, 5), "Y": 0}) == \
        (225, [(25, 0), (0, 72), (0, 0)])
    assert cleared_values([], {}) == (1, [])


def test_evaluate_refuses_a_float():
    """A float, bool, str or complex value, a zero Laurent value and a
    missing variable are refused with RingError, at a Laurent variable
    and at Y."""
    p = QUANTUM.var("p")
    for bad in (0.5, 1.0, True, "1/2", 1j, None, (1, 2, 3), (1, 0.5)):
        with pytest.raises(RingError):
            cleared_values([p], {"p": bad, "Q": 1, "Y": 0})
        with pytest.raises(RingError):
            cleared_values([p], {"p": 1, "Q": 1, "Y": bad})
    for bad in ((0, 1), (Fraction(1, 2), 0)):  # no pair at a Laurent variable
        with pytest.raises(RingError):
            cleared_values([p], {"p": bad, "Q": 1, "Y": 0})
    for zero in (0, Fraction(0)):
        with pytest.raises(RingError, match="value 0"):
            cleared_values([p], {"p": zero, "Q": 1, "Y": 0})
    with pytest.raises(RingError, match="missing value for Y"):
        cleared_values([p], {"p": 1, "Q": 1})
    with pytest.raises(RingError, match="variable-set mismatch"):
        cleared_values([p, QONLY.var("Q")], {"p": 1, "Q": 1, "Y": 0})
    assert value(p, {"p": Fraction(1, 2), "Q": 1, "Y": 0}) == Fraction(1, 2)
    # only the ring's variables are read: Q alone for QONLY, none for CONST
    assert value(QONLY.var("Q", -3), {"Q": Fraction(-2, 3), "p": 0.5}) == \
        Fraction(-27, 8)
    assert cleared_values([CONST.gauss(2, -1)], {}) == (1, [(2, -1)])


def test_evaluate_y_consistency():
    # p = Q makes Y**2 = 0, so Y must evaluate to 0
    Y = QUANTUM.var("Y")
    assert value(Y, {"p": 2, "Q": 2, "Y": 0}) == 0
    with pytest.raises(RingError, match="inconsistent Y"):
        cleared_values([Y], {"p": 2, "Q": 2, "Y": 1})
    # Y**2 = p**2 + p**-2 - Q**2 - Q**-2 is (176/325)**2 at p = 3/5,
    # Q = 25/39, and -(238/33)**2 at p = 1/4, Q = 33/4, where Y is imaginary
    real = {"p": Fraction(3, 5), "Q": Fraction(25, 39),
            "Y": Fraction(176, 325)}
    assert value(Y + 1, real) == Fraction(501, 325)
    assert value(Y, dict(real, Y=-real["Y"])) == Fraction(-176, 325)
    imag = {"p": Fraction(1, 4), "Q": Fraction(33, 4),
            "Y": (0, Fraction(238, 33))}
    assert value(Y * QUANTUM.var("p"), imag) == GaussQ(0, Fraction(119, 66))
    r = real["Y"] ** 2
    # (1 + r)/2 + (r - 1)/2 * i squares to r + (r**2 - 1)/2 * i
    for bad in (Fraction(176, 326), (0, Fraction(176, 325)),
                (Fraction(176, 325), 1), ((1 + r) / 2, (r - 1) / 2)):
        with pytest.raises(RingError, match="inconsistent Y"):
            cleared_values([Y], dict(real, Y=bad))
    with pytest.raises(RingError, match="inconsistent Y"):
        cleared_values([Y], dict(imag, Y=Fraction(238, 33)))
    # with Y**2 = (5 + 12i) p**2, Y = (3 + 2i) p has parts over different
    # denominators at p = 1/6
    ring = Ring(("p", "Y"))
    ring.set_y_square(ring.mono((5, 12), p=2))
    pt = {"p": Fraction(1, 6), "Y": (Fraction(1, 2), Fraction(1, 3))}
    assert value(ring.var("Y") + ring.mono((0, 1), p=-1, Y=1), pt) == \
        GaussQ(Fraction(-3, 2), Fraction(10, 3))
    # a Y-free polynomial leaves Y unchecked, as its value does not use it
    assert value(QUANTUM.var("p"), {"p": 3, "Q": 2, "Y": 1}) == 3


def test_reference_gaussian_rational_is_exact():
    """The tests' reference type refuses a float, a bool or a string, as a
    part and as an operand, and computes exactly."""
    half = GaussQ(Fraction(1, 2))
    for bad in (0.5, 1.0, True, False, "1/2", 1j, None):
        with pytest.raises(TypeError):
            GaussQ(bad)
        with pytest.raises(TypeError):
            GaussQ(1, bad)
        for op in (lambda x: half + x, lambda x: x + half,
                   lambda x: half - x, lambda x: x - half,
                   lambda x: half * x, lambda x: x * half,
                   lambda x: half / x, lambda x: x / half,
                   lambda x: half == x):
            with pytest.raises(TypeError):
                op(bad)
    z = GaussQ(Fraction(-2, 7), 3)
    assert z * (1 / z) == 1 and z - z == 0 and z / z == GaussQ(1)
    assert z ** -2 * z ** 2 == 1 and GaussQ(0, 1) ** 2 == -1
    assert GaussQ(3) == 3 and half == Fraction(1, 2) and half == (half.re, 0)
    with pytest.raises(ZeroDivisionError):
        GaussQ(0) ** -1


def test_evaluate_is_homomorphism(rng):
    for _ in range(100):
        a = rand_poly(rng, QONLY)
        b = rand_poly(rng, QONLY)
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        den = rng.randint(1, 9)
        pt = {"Q": Fraction(num, den)}
        assert value(a * b, pt) == value(a, pt) * value(b, pt)
        assert value(a + b, pt) == value(a, pt) + value(b, pt)


def test_evaluate_matches_term_by_term(rng):
    """Every polynomial of one call, over one F, equals the sum of its
    terms, each coefficient times its own product of powers; with negative
    values, exponent ranges on one side of 0, and a real and an imaginary
    Y."""
    pts = [{"p": Fraction(3, 5), "Q": Fraction(-2, 7), "Y": 0},
           {"p": -3, "Q": Fraction(7, -4), "Y": 0},
           {"p": Fraction(-1, 9), "Q": 5, "Y": 0},
           sample_point(rmat.SAMPLE_POINTS[0]),
           sample_point(rmat.SAMPLE_POINTS[8])]
    for _ in range(30):
        polys = [rand_poly(rng, max_terms=8) for _ in range(3)]
        shift = QUANTUM.mono(1, p=rng.randint(-5, 5), Q=rng.randint(-5, 5))
        polys = [f * shift for f in polys]
        for pt in pts:
            # Y = 0 is no square root of Y**2 at these p, Q: drop Y terms
            fs = polys if pt["Y"] else [f.coeff_of("Y", 0) for f in polys]
            F, vals = cleared_values(fs, pt)
            assert type(F) is int and F > 0
            for f, v in zip(fs, vals):
                assert GaussQ(*v) == F * reference_value(f, pt)


def _trig_images(**changes):
    images = {n: TRIG.var(n) for n in TRIG.names}
    images.update(changes)
    return images


def test_substitute_examples():
    Ru = TRIG.var("Ru")
    assert map_poly(Ru, TRIG, _trig_images(Ru=TRIG.var("X"))) == TRIG.var("X")
    assert map_poly(Ru, TRIG, _trig_images(Ru=TRIG.one)) == TRIG.one
    Q = TRIG.var("Q")
    assert map_poly(Q, TRIG, _trig_images()) == Q
    # the replaced variable keeps its slot; others pass through
    poly = TRIG.mono(3, Ru=-2, X=1) - TRIG.mono(1, Q=2)
    assert map_poly(poly, TRIG, _trig_images(Ru=TRIG.var("X", 2))) == \
        TRIG.mono(3, X=-3) - TRIG.mono(1, Q=2)
    # a negative power needs a unit coefficient
    with pytest.raises(RingError):
        map_poly(TRIG.var("Ru", -1), TRIG, _trig_images(Ru=TRIG.mono(2, X=1)))


def test_map_poly_rejects_non_unit_images():
    """A Laurent variable's image is one Y-free unit term of the target."""
    for bad in (TRIG.var("Q") + 1, TRIG.mono(2, Q=1), TRIG.var("Y"), 0,
                QUANTUM.var("Q")):
        for power in (1, -1):
            with pytest.raises(RingError):
                map_poly(TRIG.var("Q", power), TRIG, _trig_images(Q=bad))


def _by_products(poly, target, images):
    """Sum over terms of c * prod image**e, multiplied out."""
    out = target.zero
    for e, c in poly.terms.items():
        t = target.gauss(*c)
        for name, x in zip(poly.ring.names, e):
            img = images[name]
            t = t * (img ** x if x >= 0 else img.invert_monomial() ** -x)
        out = out + t
    return out


def test_map_poly_single_term_images(rng):
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]

    def image(target):      # Y-free: Y is not invertible
        exps = {n: rng.randint(-2, 2) for n in target.names if n != "Y"}
        return target.mono(rng.choice(units), **exps)

    # Y-free sources and arbitrary unit monomial images, both directions
    for source, target in ((QUANTUM, TRIG), (TRIG, QUANTUM)):
        for _ in range(100):
            poly = rand_poly(rng, source).coeff_of("Y", 0)
            images = {n: image(target) for n in source.names}
            images["Y"] = target.one
            assert map_poly(poly, target, images) == \
                _by_products(poly, target, images)
    # sources with Y, under images that respect Y**2 = p^2 + p^-2 - Q^2 - Q^-2
    m = QUANTUM.mono
    for _ in range(100):
        poly = rand_poly(rng)
        sp, sq = rng.choice((1, -1)), rng.choice((1, -1))
        p_img = m(rng.choice((1, -1)), p=sp)
        q_img = m(rng.choice((1, -1)), Q=sq)
        images = {"p": p_img, "Q": q_img, "Y": m(rng.choice((1, -1)), Y=1)}
        if rng.random() < 0.5:      # swapping p and Q negates Y**2
            images = {"p": m(1, Q=sp), "Q": m(1, p=sq),
                      "Y": m(rng.choice(((0, 1), (0, -1))), Y=1)}
        assert map_poly(poly, QUANTUM, images) == \
            _by_products(poly, QUANTUM, images)
    # a two-term Y image: p = +-1, Q -> +-Q^+-1, Y -> +-i(Q - 1/Q)
    q = QONLY.mono
    for _ in range(100):
        poly = rand_poly(rng)
        images = {"p": QONLY.gauss(rng.choice((1, -1))),
                  "Q": q(rng.choice((1, -1)), Q=rng.choice((1, -1))),
                  "Y": QONLY.gauss(0, rng.choice((1, -1)))
                  * (q(1, Q=1) - q(1, Q=-1))}
        assert map_poly(poly, QONLY, images) == \
            _by_products(poly, QONLY, images)


def test_ring_axioms(rng):
    for _ in range(300):
        a = rand_poly(rng, max_terms=4)
        b = rand_poly(rng, max_terms=4)
        c = rand_poly(rng, max_terms=4)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_canonical_string_is_stable(rng):
    m = QUANTUM.mono
    s1 = str(m(1, Q=4) - m(1) + m(1, p=-2))
    s2 = str(m(1, p=-2) + m(-1) + m(1, Q=4))
    assert s1 == s2
    for _ in range(50):
        a = rand_poly(rng)
        b = QUANTUM.poly(dict(a.terms))
        assert str(a) == str(b)


def test_const_ring():
    assert CONST.one + CONST.one == CONST.mono(2)
    assert (CONST.mono(2) * CONST.mono(3)) == CONST.mono(6)


# ---------------------------------------------------------------------------
# Packed keys: one int per monomial, a biased field per variable.

LO, HI = -EXP_BIAS, EXP_BIAS - 1
RINGS = pytest.mark.parametrize("ring", [QUANTUM, TRIG, QONLY, CONST],
                                ids=["QUANTUM", "TRIG", "QONLY", "CONST"])


def _laurent_names(ring):
    return [n for n in ring.names if n != "Y"]


def test_exponent_range_is_checked_at_ring_poly():
    for ring in (QUANTUM, TRIG, QONLY):
        for name in _laurent_names(ring):
            for x in (LO, HI):
                assert ring.var(name, x).degree_in(name) == x
            for bad in (LO - 1, HI + 1):
                with pytest.raises(RingError):
                    ring.var(name, bad)
                exps = [0] * len(ring.names)
                exps[ring.index[name]] = bad
                with pytest.raises(RingError):
                    ring.poly({tuple(exps): 1})
    # -LO is one past the top
    with pytest.raises(RingError):
        QUANTUM.var("p", LO).invert_monomial()
    assert QUANTUM.var("p", -HI).invert_monomial() == QUANTUM.var("p", HI)


def test_exponent_range_is_checked_at_map_poly():
    m = QUANTUM.mono
    Y = QUANTUM.var("Y")
    double = {"p": m(1, p=2), "Q": m(1, Q=1), "Y": Y}
    assert map_poly(m(1, p=HI // 2), QUANTUM, double) == m(1, p=HI - 1)
    assert map_poly(m(1, p=LO // 2), QUANTUM, double) == m(1, p=LO)
    for x in (HI // 2 + 1, LO // 2 - 1):
        with pytest.raises(RingError):
            map_poly(m(1, p=x), QUANTUM, double)
    # p -> 1/p on the lowest exponent
    with pytest.raises(RingError):
        map_poly(m(1, p=LO), QUANTUM, {"p": m(1, p=-1), "Q": m(1, Q=1),
                                       "Y": Y})
    # Q -> p adds into p's field, which p -> p keeps
    swap = {"p": m(1, p=1), "Q": m(1, p=1), "Y": Y}
    assert map_poly(m(1, p=HI - 1, Q=1), QUANTUM, swap) == m(1, p=HI)
    with pytest.raises(RingError):
        map_poly(m(1, p=HI, Q=1), QUANTUM, swap)
    # into another ring, and on a poly whose other terms are in range
    to_q = {"p": QONLY.var("Q", 2), "Q": QONLY.var("Q"), "Y": QONLY.one}
    with pytest.raises(RingError):
        map_poly(m(1, Q=2) + m(1, p=HI // 2, Q=2), QONLY, to_q)
    assert map_poly(m(1, p=HI // 2, Q=1), QONLY, to_q) == QONLY.var("Q", HI)
    # image exponents lie in [-4096, 4095]
    for x, ok in ((4095, True), (-4096, True), (4096, False), (-4097, False)):
        images = {"p": m(1, p=x), "Q": m(1, Q=1), "Y": Y}
        if ok:
            assert map_poly(m(1, p=1), QUANTUM, images) == m(1, p=x)
        else:
            with pytest.raises(RingError):
                map_poly(m(1, p=1), QUANTUM, images)


def test_product_overflow_raises_instead_of_carrying():
    for ring in (QUANTUM, TRIG, QONLY):
        for name in _laurent_names(ring):
            up = ring.var(name, EXP_BIAS // 4)
            up = up * up
            assert up.degree_in(name) == EXP_BIAS // 2
            for bad in (lambda: up * up, lambda: up ** 2,
                        lambda: (up + ring.one) * (up - ring.one)):
                with pytest.raises(RingError):
                    bad()
            down = ring.var(name, -EXP_BIAS // 2)
            assert down * down == ring.var(name, LO)
            with pytest.raises(RingError):
                down * down * down


def test_y_fold_with_y_between_fields():
    """In TRIG, Y's field sits between Q's and Aa's; the Y**2 fold leaves
    every other field as it should."""
    Y = TRIG.var("Y")
    a = TRIG.mono(3, Q=-5, Aa=7, X=-2, Sv=4)
    b = TRIG.mono(-2, Q=1, Aa=-9, Ru=3)
    # a*b = -6 Q^-4 Aa^-2 X^-2 Ru^3 Sv^4 times Aa^2 Q^2 + Aa^-2 Q^-2 - Q^2 - Q^-2
    expect = TRIG.poly({(-2, 0, 0, -2, 0, 3, 0, 0, 4): -6,
                        (-6, 0, -4, -2, 0, 3, 0, 0, 4): -6,
                        (-2, 0, -2, -2, 0, 3, 0, 0, 4): 6,
                        (-6, 0, -2, -2, 0, 3, 0, 0, 4): 6})
    assert (a * Y) * (b * Y) == expect
    assert (Y * a) * Y * b * Y == expect * Y
    # the fold's own sums are range-checked
    with pytest.raises(RingError):
        TRIG.mono(1, Q=HI - 1, Y=1) * Y


def _tuple_str(poly):
    """The text form from the tuple view, terms sorted as exponent tuples."""
    if not poly.terms:
        return "0"
    parts = []
    for e, (a, b) in sorted(poly.terms.items(), reverse=True):
        factors = [str(a) if b == 0 else f"({a}{'+' if b >= 0 else '-'}{abs(b)}i)"]
        factors += [f"{n}^{x}" for n, x in zip(poly.ring.names, e) if x]
        parts.append(" * ".join(factors))
    return " + ".join(parts).replace(" + -", " - ")


@RINGS
def test_packed_keys_follow_tuple_order_and_round_trip(rng, ring):
    for _ in range(100):
        x = rand_poly(rng, ring, max_terms=6, span=40)
        for poly in (x, x * rand_poly(rng, ring)):
            assert canonical_str(poly) == _tuple_str(poly)
            assert ring.poly(dict(poly.terms)) == poly
            assert len(poly) == len(poly.terms)
            with pytest.raises(TypeError):
                poly.terms[(0,) * len(ring.names)] = (1, 0)


# ---------------------------------------------------------------------------
# Int coefficients: i is a 2-bit key field, folded like Y.

def _schoolbook(a, b):
    """a * b term by term over the (re, im) view, Y**2 rewritten by the
    ring's relation, also read through the view."""
    ring = a.ring
    yk = ring.y_index
    out = {}

    def add(e, re, im):
        x, y = out.get(e, (0, 0))
        out[e] = (x + re, y + im)

    for e1, (x1, y1) in a.terms.items():
        for e2, (x2, y2) in b.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            re, im = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
            if yk is None or e[yk] < 2:
                add(e, re, im)
                continue
            for f, (x3, y3) in ring.y_square.terms.items():
                g = tuple(u + v for u, v in zip(e, f))
                add(g[:yk] + (0,) + g[yk + 1:],
                    re * x3 - im * y3, re * y3 + im * x3)
    return {e: c for e, c in out.items() if c != (0, 0)}


def _i_y_poly(rng, ring):
    """A random polynomial with imaginary coefficients, and with Y in a
    Y-ring, so that a product of two folds both i**2 and Y**2."""
    exps = {n: rng.randint(-2, 2) for n in ring.names}
    if "Y" in exps:
        exps["Y"] = 1
    return ring.mono((0, rng.choice((1, -1))), **exps) + rand_poly(
        rng, ring, max_terms=3)


@RINGS
def test_products_match_the_schoolbook_reference(rng, ring):
    for _ in range(150):
        a = rand_poly(rng, ring, max_terms=6)
        b = rand_poly(rng, ring, max_terms=6)
        for x, y in ((a, b), (_i_y_poly(rng, ring), _i_y_poly(rng, ring)),
                     (ring.gauss(0, 1) * a, _i_y_poly(rng, ring))):
            assert dict((x * y).terms) == _schoolbook(x, y)
    i = ring.gauss(0, 1)
    assert i * i == -ring.one and (i * i * i).terms == {
        (0,) * len(ring.names): (0, -1)}


def test_i_and_y_fold_in_one_product():
    iy = QUANTUM.mono((0, 1), Y=1)
    # (iY)**2 = -Y**2 = -(p^2 + p^-2 - Q^2 - Q^-2)
    assert iy * iy == -QUANTUM.y_square
    assert (iy * iy * iy).terms == {
        e[:2] + (1,): (0, -x) for e, (x, _) in QUANTUM.y_square.terms.items()}
    it = TRIG.mono((0, -1), Y=1, Aa=3)
    assert dict((it * it).terms) == _schoolbook(it, it)
    # with a complex Y**2 the fold itself forms i**2 terms: here
    # iY * Y = i * Y**2 = i * ip = -p
    ring = Ring(("p", "Y"))
    ring.set_y_square(ring.mono((0, 1), p=1))
    iy, y = ring.mono((0, 1), Y=1), ring.var("Y")
    assert iy * y == -ring.var("p")
    assert iy * iy == ring.mono((0, -1), p=1)
    assert sum_of_products([(iy, y), (y, y)]) == ring.mono((-1, 1), p=1)


@RINGS
def test_sum_of_products_is_the_sum_of_the_products(rng, ring):
    for _ in range(60):
        pairs = [(rand_poly(rng, ring, max_terms=4),
                  rand_poly(rng, ring, max_terms=4))
                 for _ in range(rng.randint(1, 5))]
        want = ring.zero
        for a, b in pairs:
            want = want + a * b
        assert sum_of_products(pairs) == want
        assert sum_of_products(iter(pairs)) == want
    # products that cancel leave no zero term behind
    a = rand_poly(rng, ring)
    assert sum_of_products([(a, a), (-a, a)]).is_zero()


def test_sum_of_products_refuses_bad_operands():
    q = QUANTUM.var("Q")
    for pairs in ([(q, QONLY.var("Q"))], [(QONLY.var("Q"), q)],
                  [(q, q), (q, TRIG.var("Q"))], [(q, q), (TRIG.var("Q"), q)]):
        with pytest.raises(RingError):
            sum_of_products(pairs)
    with pytest.raises(RingError):
        sum_of_products([])
    up = QUANTUM.var("p", EXP_BIAS // 2)
    with pytest.raises(RingError):
        sum_of_products([(q, q), (up, up)])
    # an out-of-range term that cancels within the sum is no error
    assert sum_of_products([(up, up), (-up, up), (q, q)]) == \
        QUANTUM.var("Q", 2)


def test_invert_monomial_of_the_imaginary_units():
    for ring in (QUANTUM, TRIG, QONLY, CONST):
        i = ring.gauss(0, 1)
        assert i.invert_monomial() == ring.gauss(0, -1)
        assert (-i).invert_monomial() == i
        assert (-ring.one).invert_monomial() == -ring.one
    m = QUANTUM.mono((0, -1), p=3, Q=-2)
    assert m.invert_monomial() == QUANTUM.mono((0, 1), p=-3, Q=2)
    assert m * m.invert_monomial() == QUANTUM.one
    for bad in (QUANTUM.gauss(1, 1), QUANTUM.gauss(0, 2),
                QUANTUM.mono((0, 1), Y=1)):
        with pytest.raises(RingError):
            bad.invert_monomial()


def test_map_poly_with_an_imaginary_y_image():
    """Case 2 ambient: p = 1 and Y -> i(Q - 1/Q), which squares to the
    image of Y**2."""
    q = QONLY.mono
    images = {"p": QONLY.one, "Q": QONLY.var("Q"),
              "Y": QONLY.gauss(0, 1) * (q(1, Q=1) - q(1, Q=-1))}
    assert images["Y"].terms == {(1,): (0, 1), (-1,): (0, -1)}
    m = QUANTUM.mono
    assert map_poly(QUANTUM.var("Y"), QONLY, images) == images["Y"]
    assert map_poly(m((2, 3), p=5, Q=-1, Y=1), QONLY, images).terms == {
        (0,): (-3, 2), (-2,): (3, -2)}
    assert map_poly(QUANTUM.y_square, QONLY, images) == \
        images["Y"] * images["Y"]
    # a Laurent variable sent to i times a monomial: Q -> iQ turns Q**3
    # into -i Q**3
    turn = dict(images, Q=q((0, 1), Q=1))
    assert map_poly(m(1, Q=3), QONLY, turn) == q((0, -1), Q=3)
    assert map_poly(m((0, 1), Q=-2), QONLY, turn) == q((0, -1), Q=-2)


def test_len_terms_and_leading_with_an_imaginary_leading_term():
    m = QUANTUM.mono
    poly = m((0, 3), p=2) + m((5, -1), p=1) + m(2) + m((0, -4), Q=-1)
    assert len(poly) == 4 == len(poly.terms)
    assert poly.terms == {(2, 0, 0): (0, 3), (1, 0, 0): (5, -1),
                          (0, 0, 0): (2, 0), (0, -1, 0): (0, -4)}
    assert str(poly) == "(0+3i) * p^2 + (5-1i) * p^1 + 2 + (0-4i) * Q^-1"
    assert poly.is_monomial() is False and m((1, 1), p=1).is_monomial()
    assert cleared_values([poly], {"p": 2, "Q": 1, "Y": 0}) == (1, [(12, 6)])
