"""State models and the (1,1)-tangle evaluator."""

import pytest

from conftest import charge_mixing_op, rand_knot_word
from gaugeknot import braid, engine, rmat
from gaugeknot.harness import load_table
from gaugeknot.ring import CONST, QONLY, QUANTUM, map_poly

TREFOIL = braid.parse("2 : 1 1 1")
FIG8 = braid.parse("3 : 1 -2 1 -2")
UNKNOT = braid.parse("1 :")

ALL_MODELS = ((1, "ambient"), (2, "ambient"), (4, "ambient"),
              (2, "regular"), (3, "regular"))


def test_model_parameters():
    m = QUANTUM.mono
    amb1 = engine.model(1, "ambient")
    assert amb1.kappa == m(1, p=-2, Q=2)
    assert amb1.C == (m(1, p=-2, Q=2), m(-1, p=-2, Q=2),
                      m(-1, p=-2, Q=-2), m(1, p=-2, Q=-2))
    reg2 = engine.model(2, "regular")
    assert reg2.kappa == m(1, p=-2, Q=1)
    reg3 = engine.model(3, "regular")
    assert reg3.kappa == m(1, p=-2)
    assert reg3.C == (QUANTUM.one, m(1, Q=2), m(1, Q=-2), QUANTUM.one)


def test_case2_ambient_imaginary_entry():
    sig = engine.model(2, "ambient").sigma
    i = QONLY.gauss(0, 1)
    q = QONLY.var("Q")
    qb = QONLY.var("Q", -1)
    assert sig.get(4, 1, 2, 3) == -i * (q - qb)


def test_unsupported_models():
    with pytest.raises(engine.EngineError):
        engine.model(3, "ambient")
    with pytest.raises(engine.EngineError):
        engine.model(1, "regular")
    with pytest.raises(engine.EngineError):
        engine.model(2, "framed")


def test_suite_isotopy():
    assert [engine.suite_isotopy(c) for c in (1, 2, 3, 4)] == \
        ["ambient", "regular", "regular", "ambient"]
    for case in (0, 5):
        with pytest.raises(engine.EngineError):
            engine.suite_isotopy(case)


def test_sigma_inverse_pairs():
    for case, isotopy in ALL_MODELS:
        mod = engine.model(case, isotopy)
        ident = dict(rmat._columns(mod.ring, 2, ()))
        for pair in ((mod.sigma, mod.sigma_inv), (mod.sigma_inv, mod.sigma)):
            word = [(1, op) for op in pair]
            assert dict(rmat._columns(mod.ring, 2, word)) == ident


def test_verify_handle():
    for case, isotopy in ALL_MODELS:
        assert engine.verify_handle(engine.model(case, isotopy))


def test_handle_diagonal_case2():
    m = QUANTUM.mono
    assert engine.model(2, "regular").handle == \
        (m(1, p=-1), m(1, p=-1), m(1, p=1), m(1, p=1))
    assert engine.model(2, "ambient").handle is None


def test_kappa_doubled_handle_fails():
    mod = engine.model(2, "regular")
    two = QUANTUM.mono(2)
    broken = engine.StateModel(mod.case, mod.isotopy, mod.sigma.scale(two),
                               mod.sigma_inv, mod.C, mod.kappa, mod.handle)
    assert not engine.verify_handle(broken)
    # a regular model that states no handle has nothing to be checked against
    unstated = engine.StateModel(mod.case, mod.isotopy, mod.sigma,
                                 mod.sigma_inv, mod.C, mod.kappa)
    with pytest.raises(engine.EngineError, match="no handle diagonal"):
        engine.verify_handle(unstated)


def test_represent_single_letter():
    mod = engine.model(2, "regular")
    rep = engine.represent(braid.parse("2 : 1"), mod)
    expected = {}
    for (a, b, c, d), v in mod.sigma.entries.items():
        expected.setdefault((d, c), {})[(b, a)] = v
    assert rep == expected


def test_represent_inverse_pair_is_identity():
    mod = engine.model(2, "regular")
    rep = engine.represent(braid.parse("2 : 1 -1"), mod)
    for key, image in rep.items():
        assert image == {key: QUANTUM.one}
    assert len(rep) == 16


def test_represent_empty_word():
    mod = engine.model(2, "regular")
    rep = engine.represent(UNKNOT, mod)
    assert rep == {(a,): {(a,): QUANTUM.one} for a in (1, 2, 3, 4)}


def test_term_budget():
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError) as err:
        engine.represent(TREFOIL, mod, term_budget=3)
    for field in (r"\b8 stored terms", r"> budget 3 ",
                  r"input column \(1, 2\) ", r"braid '2 : 1 1 1'",
                  r"case 2 regular$"):
        err.match(field)


def test_term_budget_through_tangle_invariant():
    # the closure-only images of column (1, 2) hold 5 terms; all 8 of the
    # full column are never stored
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError) as err:
        engine.tangle_invariant(TREFOIL, mod, term_budget=3)
    for field in (r"\b5 stored terms", r"> budget 3 ",
                  r"input column \(1, 2\) ", r"braid '2 : 1 1 1'",
                  r"case 2 regular$"):
        err.match(field)


def test_closure_only_is_the_closure_read_part(rng):
    """The closure-only product keeps exactly the full images whose output
    agrees with the input on strands 2..n, so the closure of both is the
    same 4x4 matrix, off-diagonal entries included."""
    words = [rand_knot_word(rng, strands, length)
             for strands, length in ((2, 3), (3, 5), (4, 6), (4, 7))]
    cases = [(word, model) for model in ALL_MODELS for word in words]
    knot = next(r for r in load_table() if r.name == "8_12")
    assert knot.word.strands == 5
    cases.append((knot.word, (3, "regular")))
    for word, (case, isotopy) in cases:
        mod = engine.model(case, isotopy)
        full = engine.represent(word, mod)
        fast = engine.represent(word, mod, closure_only=True)
        read = {s: {t: v for t, v in image.items() if t[1:] == s[1:]}
                for s, image in full.items()}
        assert fast == {s: image for s, image in read.items() if image}
        assert engine._close(mod, fast.items()) == \
            engine._close(mod, full.items())


def test_state_model_refuses_a_charge_mixing_operator():
    mod = engine.model(3, "regular")
    bad = charge_mixing_op()
    for sigma, sigma_inv, name in ((bad, mod.sigma_inv, "sigma"),
                                   (mod.sigma, bad, "sigma_inv")):
        with pytest.raises(engine.EngineError,
                           match=f"{name} does not conserve the charge"):
            engine.StateModel(3, "regular", sigma, sigma_inv, mod.C,
                              mod.kappa)


def test_unknot_invariant_is_identity():
    for case, isotopy in ALL_MODELS:
        mod = engine.model(case, isotopy)
        inv = engine.tangle_invariant(UNKNOT, mod)
        assert inv.scalar().is_one()


def test_link_closure_rejected():
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError):
        engine.tangle_invariant(braid.parse("2 : 1 1"), mod)


def test_trefoil_case2_regular():
    m = QUANTUM.mono
    inv = engine.tangle_invariant(TREFOIL, engine.model(2, "regular"))
    minus = m(1, p=-5, Q=2) - m(1, p=-3) + m(1, p=-1, Q=-2)
    plus = m(1, p=5, Q=2) - m(1, p=3) + m(1, p=1, Q=-2)
    assert inv.diagonal() == [minus, minus, plus, plus]


def test_trefoil_case3_regular():
    m = QUANTUM.mono
    inv = engine.tangle_invariant(TREFOIL, engine.model(3, "regular"))
    mid = m(1, Q=4) - m(1) - m(1, Q=-8)
    assert inv.diagonal() == [m(1, p=-6), mid, mid, m(1, p=6)]


def test_case4_is_trivial():
    for word in (TREFOIL, FIG8, braid.parse("3 : 1 1 1 -2 -1 -1 -1 -2")):
        assert engine.ambient_invariant(word, 4).is_one()


def test_ambient_invariant_rejects_nonscalar():
    inv = engine.tangle_invariant(TREFOIL, engine.model(3, "regular"))
    with pytest.raises(engine.EngineError):
        inv.scalar()


def test_case2_regular_at_p_one_reduces_to_ambient():
    i = QONLY.gauss(0, 1)
    q = QONLY.var("Q")
    qb = QONLY.var("Q", -1)
    images = {"p": QONLY.one, "Q": q, "Y": i * (q - qb)}
    for word in (TREFOIL, FIG8):
        reg = engine.tangle_invariant(word, engine.model(2, "regular"))
        amb = engine.ambient_invariant(word, 2)
        for v in reg.diagonal():
            assert map_poly(v, QONLY, images) == amb


def test_minus_branch_agrees():
    """The other sign of the square root gives the same ambient invariant."""
    i = QONLY.gauss(0, 1)
    q = QONLY.var("Q")
    qb = QONLY.var("Q", -1)
    images = {"p": QONLY.one, "Q": q, "Y": -i * (q - qb)}
    R = rmat.quantum_r(2).map_entries(lambda v: map_poly(v, QONLY, images))
    kappa = QONLY.mono(1, Q=1)
    sig, sig_inv = engine._scaled(R, kappa)
    C = (QONLY.mono(1, Q=1), QONLY.mono(-1, Q=1),
         QONLY.mono(-1, Q=-1), QONLY.mono(1, Q=-1))
    minus = engine.StateModel(2, "ambient", sig, sig_inv, C, kappa)
    assert engine.verify_handle(minus)
    for word in (TREFOIL, FIG8):
        got = engine.tangle_invariant(word, minus).scalar()
        assert got == engine.ambient_invariant(word, 2)


def test_braid_relation_on_operators():
    for case, isotopy in ((2, "regular"), (4, "ambient")):
        mod = engine.model(case, isotopy)
        lhs = engine.represent(braid.parse("3 : 1 2 1"), mod)
        rhs = engine.represent(braid.parse("3 : 2 1 2"), mod)
        assert lhs == rhs
        far1 = engine.represent(braid.parse("4 : 1 3"), mod)
        far2 = engine.represent(braid.parse("4 : 3 1"), mod)
        assert far1 == far2


def test_conjugation_invariance(rng):
    mod = engine.model(2, "regular")
    for _ in range(5):
        word = rand_knot_word(rng, strands=3, length=5)
        g = rng.choice([1, -1, 2, -2])
        conj = braid.BraidWord(3, (g,) + word.letters + (-g,))
        assert engine.tangle_invariant(conj, mod).matrix == \
            engine.tangle_invariant(word, mod).matrix


def test_stabilization():
    # ambient: Reidemeister I leaves the invariant alone
    for sign in (1, -1):
        stab = braid.BraidWord(3, TREFOIL.letters + (2 * sign,))
        assert engine.ambient_invariant(stab, 2) == \
            engine.ambient_invariant(TREFOIL, 2)
    # regular: stabilization multiplies by the handle diagonal
    mod = engine.model(2, "regular")
    base = engine.tangle_invariant(TREFOIL, mod).diagonal()
    handle = mod.handle
    for sign in (1, -1):
        stab = braid.BraidWord(3, TREFOIL.letters + (2 * sign,))
        got = engine.tangle_invariant(stab, mod).diagonal()
        factor = handle if sign > 0 else tuple(h.invert_monomial()
                                               for h in handle)
        assert got == [f * b for f, b in zip(factor, base)]


def test_matveev():
    assert engine.matveev_test(engine.model(2, "regular")) is True
    assert engine.matveev_test(engine.model(3, "regular")) is True
    assert engine.matveev_test(engine.model(4, "ambient")) is False


def test_case4_matveev_pair_equal_symbolically():
    """With p and Q symbolic, quantum_r(4) and its inverse give equal full
    products on the Matveev pair, so no specialization of case 4 can
    separate it; the (4, ambient) model does not."""
    R = rmat.quantum_r(4)
    R_inv = rmat.invert(R)
    w1, w2 = braid.matveev_pair()
    sym1, sym2 = (dict(rmat._columns(QUANTUM, 3, engine._letters(w, R, R_inv)))
                  for w in (w1, w2))
    assert sym1 == sym2
    assert engine.matveev_test(engine.model(4, "ambient")) is False


def test_invariants_are_y_free():
    for word in (TREFOIL, FIG8):
        for case, isotopy in ((2, "regular"), (3, "regular")):
            inv = engine.tangle_invariant(word, engine.model(case, isotopy))
            for v in inv.diagonal():
                assert all(e[QUANTUM.y_index] == 0 for e in v.terms)


def test_case2_ambient_is_real():
    for word in (TREFOIL, FIG8):
        inv = engine.ambient_invariant(word, 2)
        assert all(c[1] == 0 for c in inv.terms.values())


def test_case1_symmetries():
    """Engine self-consistency, not an independent check: on the table
    knots through 6 crossings the case-1 invariant is unchanged by p -> 1/p,
    and the mirror word gives Q -> 1/Q (Y -> Y in both); the trefoil and its
    mirror differ."""
    m = QUANTUM.mono
    Y = QUANTUM.var("Y")
    p_inv = {"p": m(1, p=-1), "Q": m(1, Q=1), "Y": Y}
    q_inv = {"p": m(1, p=1), "Q": m(1, Q=-1), "Y": Y}
    knots = {r.name: r.word for r in load_table()
             if int(r.name.split("_")[0]) <= 6}
    assert len(knots) == 7
    for name, word in knots.items():
        inv = engine.ambient_invariant(word, 1)
        assert map_poly(inv, QUANTUM, p_inv) == inv, name
        assert engine.ambient_invariant(word.mirror(), 1) == \
            map_poly(inv, QUANTUM, q_inv), name
    trefoil = knots["3_1"]
    assert engine.ambient_invariant(trefoil, 1) != \
        engine.ambient_invariant(trefoil.mirror(), 1)
