"""State models and the (1,1)-tangle evaluator."""

import re
from math import prod

import pytest

from conftest import charge_mixing_op, rand_knot_word
from gaugeknot import braid, engine, rmat
from gaugeknot.harness import load_table
from gaugeknot.ring import CONST, QONLY, QUANTUM, map_poly

TREFOIL = braid.parse("2 : 1 1 1")
FIG8 = braid.parse("3 : 1 -2 1 -2")
UNKNOT = braid.parse("1 :")
HOPF = braid.parse("2 : 1 1")

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


def test_term_budget(monkeypatch):
    monkeypatch.setattr(engine, "TERM_BUDGET", 3)
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError) as err:
        engine.represent(TREFOIL, mod)
    for field in (r"\b8 stored terms", r"> budget 3 ",
                  r"input column \(1, 2\) ", r"braid '2 : 1 1 1'",
                  r"case 2 regular$"):
        err.match(field)


def test_term_budget_through_tangle_invariant(monkeypatch):
    # the closure-only images of column (1, 2) hold 5 terms; all 8 of the
    # full column are never stored
    monkeypatch.setattr(engine, "TERM_BUDGET", 3)
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError) as err:
        engine.tangle_invariant(TREFOIL, mod)
    for field in (r"\b5 stored terms", r"> budget 3 ",
                  r"input column \(1, 2\) ", r"braid '2 : 1 1 1'",
                  r"case 2 regular$"):
        err.match(field)


def test_represent_refuses_a_word_past_the_strand_limit():
    """Past MAX_ENGINE_STRANDS the product's per-state tables would take
    hundreds of MB before the term budget could fire, so the word is
    refused first, named with its strands, case and isotopy.  At the limit
    a word runs."""
    top = engine.MAX_ENGINE_STRANDS
    word = braid.BraidWord(top + 1, tuple(range(1, top + 1)))
    for case, isotopy in ALL_MODELS:
        mod = engine.model(case, isotopy)
        for closure_only in (False, True):
            with pytest.raises(engine.EngineError) as err:
                engine.represent(word, mod, closure_only=closure_only)
            for field in (re.escape(f"braid '{word}'"),
                          rf"\b{top + 1} strands",
                          rf"MAX_ENGINE_STRANDS = {top}\b",
                          rf"case {case} {isotopy}$"):
                err.match(field)
    at_limit = braid.BraidWord(top, tuple(range(1, top)))
    assert engine.represent(at_limit, engine.model(3, "regular"),
                            closure_only=True)


def test_the_strand_limit_reads_the_word_an_ambient_model_closes():
    """An ambient model closes the reduced word, so a stabilized unknot past
    the limit gives the unknot's invariant; a regular model closes the word
    as given and refuses it.  A knot word that reduces, but not below the
    limit, is refused with both words named."""
    top = engine.MAX_ENGINE_STRANDS
    unknot = braid.BraidWord(top + 1, tuple(range(1, top + 1)))
    for case in (1, 2, 4):
        mod = engine.model(case, "ambient")
        assert engine.tangle_invariant(unknot, mod) == \
            engine.tangle_invariant(UNKNOT, mod)
    with pytest.raises(engine.EngineError,
                       match=rf"\b{top + 1} strands.*case 2 regular$"):
        engine.tangle_invariant(unknot, engine.model(2, "regular"))
    knot = braid.BraidWord(top + 1, (2, -2) + tuple(
        k for k in range(1, top + 1) for _ in range(3)))
    assert braid.reduce_knot_word(knot) == \
        braid.BraidWord(top + 1, knot.letters[2:])
    with pytest.raises(engine.EngineError) as err:
        engine.tangle_invariant(knot, engine.model(1, "ambient"))
    for field in (rf"\b{top + 1} strands", r"case 1 ambient",
                  re.escape(f"given braid '{knot}'")):
        err.match(field)


def test_closure_only_is_the_closure_read_part(rng):
    """The closure-only product keeps exactly the full images whose output
    agrees with the input on strands 2..n, so the closure of both is the
    same four diagonal entries."""
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


@pytest.mark.parametrize("bad", [
    pytest.param(QUANTUM.mono(1, p=-2, Q=2) + QUANTUM.one, id="two terms"),
    pytest.param(QUANTUM.mono((0, 1), p=-2, Q=2), id="i coefficient"),
    pytest.param(QONLY.one, id="another ring"),
])
def test_state_model_refuses_a_handle_entry_that_is_not_one_real_term(bad):
    mod = engine.model(1, "ambient")
    for a in (1, 4):
        C = mod.C[:a - 1] + (bad,) + mod.C[a:]
        with pytest.raises(engine.EngineError,
                           match=rf"case 1 ambient: C\[{a}\] = .* is not one "
                                 r"term of Ring\('p', 'Q', 'Y'\) with a "
                                 r"real int coefficient"):
            engine.StateModel(1, "ambient", mod.sigma, mod.sigma_inv, C,
                              mod.kappa)


def _product_close(mod, columns):
    """The closure's four diagonal entries with ring products: each
    column's weight multiplied out of the C entries, then times the image
    at the column."""
    diag = [mod.ring.zero] * 4
    for s, images in columns:
        if s in images:
            diag[s[0] - 1] += _weight(mod, s) * images[s]
    return tuple(diag)


def _weight(mod, s):
    """C[s[1]] ... C[s[n-1]], a column's closure weight, as ring products."""
    return prod((mod.C[c - 1] for c in s[1:]), start=mod.ring.one)


def test_the_closed_matrix_is_zero_off_the_diagonal(rng):
    """The 4x4 closure of the full product, off-diagonal entries included,
    formed with ring products: the entries off the diagonal are zero and
    the diagonal is the invariant's four entries."""
    for key in ALL_MODELS:
        mod = engine.model(*key)
        for strands, length in ((2, 3), (3, 5), (4, 6)):
            word = rand_knot_word(rng, strands, length)
            M = [[mod.ring.zero] * 4 for _ in range(4)]
            for s, image in engine.represent(word, mod).items():
                for t, v in image.items():
                    if t[1:] == s[1:]:
                        M[t[0] - 1][s[0] - 1] += _weight(mod, s) * v
            inv = engine.closure(word, mod)
            assert len(inv.entries) == 4
            assert M == [[inv.entries[a] if a == b else mod.ring.zero
                          for b in range(4)] for a in range(4)]


@pytest.mark.parametrize("key", ALL_MODELS)
def test_close_matches_the_ring_product_closure(rng, key):
    """On the unknot, the Hopf link and seeded knot words of 2-5 strands,
    full and closure-only images; ``closure`` closes each, the link too."""
    mod = engine.model(*key)
    words = [UNKNOT, HOPF] + [rand_knot_word(rng, strands, length) for
                              strands, length in ((2, 3), (3, 5), (4, 6),
                                                  (5, 5))]
    for word in words:
        want = _product_close(mod, engine.represent(word, mod).items())
        rep = engine.represent(word, mod, closure_only=True)
        assert engine._close(mod, rep.items()) == want
        assert engine.closure(word, mod).entries == want, word


@pytest.mark.parametrize("key", ALL_MODELS)
def test_closure_is_the_invariant_of_the_word_as_given(key):
    """A regular model's invariant is the closure on every table word.  An
    ambient model's closes a reduced rotation of the word, with the same
    scalar: compared through 6 crossings."""
    mod = engine.model(*key)
    for r in load_table():
        if mod.isotopy == "regular":
            assert engine.closure(r.word, mod) == \
                engine.tangle_invariant(r.word, mod), r.name
        elif r.crossings <= 6:
            assert engine.closure(r.word, mod).scalar() == \
                engine.ambient_invariant(r.word, mod.case), r.name


@pytest.mark.parametrize("key", ALL_MODELS)
def test_the_handle_squared_commutes_with_sigma(rng, key):
    """C_a C_b = C_c C_d on every nonzero entry (a, b, c, d) of sigma and
    sigma^-1, so C (x) C commutes with both.  Only the entries between the
    pairs (1, 4) and (2, 3), in cases 1 and 2, make this more than a swap
    of a and b.  The closure is the trace over strands 2..n weighted by C
    on each, so conjugation by a letter on strands 2..n leaves it alone,
    for a regular model's non-scalar diagonal too: checked on seeded
    4-strand words."""
    mod = engine.model(*key)
    C = mod.C
    for a, b, c, d in (*mod.sigma.entries, *mod.sigma_inv.entries):
        assert C[a - 1] * C[b - 1] == C[c - 1] * C[d - 1], (a, b, c, d)
    for g in (2, -2, 3, -3):
        word = rand_knot_word(rng, strands=4, length=5)
        conj = braid.BraidWord(4, (g,) + word.letters + (-g,))
        assert engine.closure(conj, mod) == engine.closure(word, mod)


def test_unknot_invariant_is_identity():
    for case, isotopy in ALL_MODELS:
        mod = engine.model(case, isotopy)
        inv = engine.tangle_invariant(UNKNOT, mod)
        assert inv.scalar().is_one()


def test_link_closure_rejected():
    mod = engine.model(2, "regular")
    with pytest.raises(engine.EngineError, match="is not a knot"):
        engine.tangle_invariant(HOPF, mod)


def test_trefoil_case2_regular():
    m = QUANTUM.mono
    inv = engine.tangle_invariant(TREFOIL, engine.model(2, "regular"))
    minus = m(1, p=-5, Q=2) - m(1, p=-3) + m(1, p=-1, Q=-2)
    plus = m(1, p=5, Q=2) - m(1, p=3) + m(1, p=1, Q=-2)
    assert inv.entries == (minus, minus, plus, plus)


def test_trefoil_case3_regular():
    m = QUANTUM.mono
    inv = engine.tangle_invariant(TREFOIL, engine.model(3, "regular"))
    mid = m(1, Q=4) - m(1) - m(1, Q=-8)
    assert inv.entries == (m(1, p=-6), mid, mid, m(1, p=6))


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
        for v in reg.entries:
            assert map_poly(v, QONLY, images) == amb


def test_minus_branch_agrees():
    """The other sign of the square root gives the same ambient invariant."""
    i = QONLY.gauss(0, 1)
    q = QONLY.var("Q")
    qb = QONLY.var("Q", -1)
    images = {"p": QONLY.one, "Q": q, "Y": -i * (q - qb)}
    R = rmat.quantum_r(2).mapped(QONLY, images)
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
        assert engine.tangle_invariant(conj, mod) == \
            engine.tangle_invariant(word, mod)


def test_stabilization():
    """A regular model's stabilization multiplies by the handle diagonal
    (ambient models: ``test_ambient_stabilization_and_braid_relation``)."""
    mod = engine.model(2, "regular")
    base = engine.tangle_invariant(TREFOIL, mod).entries
    for sign in (1, -1):
        stab = braid.BraidWord(3, TREFOIL.letters + (2 * sign,))
        got = engine.tangle_invariant(stab, mod).entries
        factor = mod.handle if sign > 0 else tuple(
            h.invert_monomial() for h in mod.handle)
        assert got == tuple(f * b for f, b in zip(factor, base))


def _rotation(word, r):
    return braid.BraidWord(word.strands, word.letters[r:] + word.letters[:r])


def _flip(word):
    """sigma_i -> sigma_(n-i): conjugation by the half twist."""
    n = word.strands
    return braid.BraidWord(n, tuple(n - k if k > 0 else -n - k
                                    for k in word.letters))


@pytest.mark.parametrize("case", [1, 2])
def test_ambient_closure_is_the_same_on_every_rotation_and_flip(rng, case):
    """Rotations and the flip are conjugations, so each closes to the
    scalar of the word as given: what the rotation choice rests on."""
    mod = engine.model(case, "ambient")
    words = [rand_knot_word(rng, strands=3, length=6) for _ in range(6)]
    words += [r.word for r in load_table() if r.word.strands <= 3]
    for word in words:
        want = engine.closure(word, mod).scalar()
        assert engine.tangle_invariant(word, mod).scalar() == want
        variants = [_rotation(word, r) for r in range(1, len(word.letters))]
        for variant in variants + [_flip(word)]:
            assert engine.closure(variant, mod).scalar() == want, \
                (word, variant)


@pytest.mark.parametrize("case", [1, 2])
def test_ambient_stabilization_and_braid_relation(rng, case):
    mod = engine.model(case, "ambient")
    for _ in range(3):
        word = rand_knot_word(rng, strands=3, length=5)
        want = engine.ambient_invariant(word, case)
        assert want == engine.closure(word, mod).scalar()
        for sign in (1, -1):
            stab = braid.BraidWord(4, word.letters + (3 * sign,))
            assert engine.ambient_invariant(stab, case) == want
            assert engine.closure(stab, mod).scalar() == want
    for _ in range(3):
        # s1 s2 s1 = s2 s1 s2 at a cut of a word whose closure is a knot
        while True:
            letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(5))
            cut = rng.randrange(len(letters) + 1)
            sides = [braid.BraidWord(3, letters[:cut] + side + letters[cut:])
                     for side in ((1, 2, 1), (2, 1, 2))]
            if braid.closure_components(sides[0]) == 1:
                break
        got = [engine.ambient_invariant(w, case) for w in sides]
        assert got[0] == got[1]
        assert [engine.closure(w, mod).scalar() for w in sides] == got


def _shifted_up(word):
    """The word on one more strand, every letter one generator higher."""
    return braid.BraidWord(word.strands + 1,
                           tuple(k + 1 if k > 0 else k - 1
                                 for k in word.letters))


@pytest.mark.parametrize("case", [1, 2, 4])
def test_ambient_stabilization_at_either_end(rng, case):
    """A Markov stabilization at the top strand, and at the bottom one
    (the word shifted up, plus sigma_1^+-1), closes to the word's scalar:
    what destabilization in ``reduce_knot_word`` rests on."""
    mod = engine.model(case, "ambient")
    words = []
    while len(words) < 3:
        # words that do not reduce, so that each stabilization is undone
        # by exactly one destabilization
        word = rand_knot_word(rng, strands=3, length=6)
        if braid.reduce_knot_word(word) is word:
            words.append(word)
    for word in words:
        want = engine.closure(word, mod).scalar()
        n = len(word.letters)
        for sign in (1, -1):
            cut = rng.randrange(n + 1)
            top = braid.BraidWord(4, word.letters[:cut] + (3 * sign,)
                                  + word.letters[cut:])
            up = _shifted_up(word).letters
            bottom = braid.BraidWord(4, up[:cut] + (sign,) + up[cut:])
            for stab in (top, bottom):
                assert braid.reduce_knot_word(stab) == word, stab
                assert engine.closure(stab, mod).scalar() == want, \
                    (word, stab)
                assert engine.tangle_invariant(stab, mod).scalar() == want


@pytest.mark.parametrize("case", [1, 2, 4])
def test_ambient_pair_across_far_letters(rng, case):
    """k and -k with letters between that all commute with k close to the
    scalar of the word without the pair: what cancellation in
    ``reduce_knot_word`` rests on."""
    mod = engine.model(case, "ambient")
    for k in (1, -1, 4, -4):
        far = (3, -4) if abs(k) == 1 else (-1, 2)
        while True:
            word = rand_knot_word(rng, strands=5, length=6)
            cut = rng.randrange(len(word.letters) + 1)
            head, tail = word.letters[:cut], word.letters[cut:]
            without = braid.BraidWord(5, head + far + tail)
            if braid.closure_components(without) == 1:
                break
        paired = braid.BraidWord(5, head + (k,) + far + (-k,) + tail)
        want = engine.closure(without, mod).scalar()
        assert engine.closure(paired, mod).scalar() == want, \
            (paired, without)
        assert engine.tangle_invariant(paired, mod).scalar() == want


def _rotation_costs(word):
    """The cost ``cheapest_rotation`` predicts for each rotation, by its
    docstring: over the cuts of the rotation, 4 ** (the number of strands
    that the letters on both sides of the cut touch)."""
    costs = []
    for r in range(len(word.letters)):
        rot = _rotation(word, r).letters
        cost = 0
        for j in range(1, len(rot)):
            sides = [{s for k in side for s in (abs(k), abs(k) + 1)}
                     for side in (rot[:j], rot[j:])]
            cost += 4 ** len(sides[0] & sides[1])
        costs.append(cost)
    return costs


def test_cheapest_rotation_is_the_first_of_least_predicted_cost(rng):
    words = [rand_knot_word(rng, strands, length)
             for strands, length in ((3, 6), (4, 9), (5, 10)) for _ in range(4)]
    words += [r.word for r in load_table()]
    moved = 0
    for word in words:
        costs = _rotation_costs(word)
        r = costs.index(min(costs))
        got = engine.cheapest_rotation(word)
        assert got == _rotation(word, r), word
        assert engine.cheapest_rotation(word) == got
        if r == 0:
            assert got is word
        moved += r != 0
    assert 0 < moved < len(words)


@pytest.mark.parametrize("name, pick", [("5_2", 0), ("8_6", 9)])
def test_a_tie_keeps_the_earliest_rotation(name, pick):
    # 5_2 ties rotations 0 and 3, 8_6 rotations 9 and 10
    word = next(r.word for r in load_table() if r.name == name)
    costs = _rotation_costs(word)
    assert costs.count(min(costs)) == 2
    assert engine.cheapest_rotation(word) == _rotation(word, pick)


@pytest.fixture
def ran(monkeypatch):
    """The words ``engine.represent`` is called with, in order."""
    words = []
    represent = engine.represent

    def recording(word, *args, **kwargs):
        words.append(word)
        return represent(word, *args, **kwargs)

    monkeypatch.setattr(engine, "represent", recording)
    return words


@pytest.mark.parametrize("text", ["1 :", "2 : 1", "2 : -1", "3 : 1 2",
                                  "3 : -2 1"])
def test_words_under_three_letters_are_closed_as_given(text, ran):
    """``cheapest_rotation`` returns a word of under three letters as given.
    Each of these unknot words reduces to "1 :" first ("1 :" to itself), so
    the word an ambient model closes is "1 :", the given object only for
    "1 :"."""
    word = braid.parse(text)
    assert engine.cheapest_rotation(word) is word
    for case in (1, 2, 4):
        mod = engine.model(case, "ambient")
        assert engine.tangle_invariant(word, mod).scalar() == mod.ring.one
    assert ran == [UNKNOT] * 3
    assert (ran[0] is word) == (word == UNKNOT)


def test_ambient_models_close_the_predicted_rotation(ran):
    """``tangle_invariant`` runs the word it picks for the model, and
    ``closure`` the word itself, whatever the model."""
    words = [r.word for r in load_table() if r.name in
             ("5_2", "7_3", "7_4", "7_6", "7_7", "8_6", "8_7", "8_16", "8_17",
              "8_21")]
    for key in ALL_MODELS:
        mod = engine.model(*key)
        for word in words:
            del ran[:]
            engine.tangle_invariant(word, mod)
            engine.closure(word, mod)
            want = (engine.cheapest_rotation(braid.reduce_knot_word(word))
                    if mod.isotopy == "ambient" else word)
            assert ran == [want, word] and ran[1] is word, (key, word)
            if mod.isotopy == "regular":
                assert ran[0] is word
    assert any(engine.cheapest_rotation(w) != w for w in words)
    assert any(braid.reduce_knot_word(w).strands < w.strands for w in words)


def test_represent_runs_the_word_as_given():
    word = next(r.word for r in load_table() if r.name == "8_17")
    run = engine.cheapest_rotation(word)
    assert run != word
    for key in ALL_MODELS:
        mod = engine.model(*key)
        letters = engine._letters(word, mod.sigma, mod.sigma_inv)
        for closure_only, keep in ((False, None),
                                   (True, rmat._sector_bits(word.strands))):
            assert engine.represent(word, mod, closure_only=closure_only) \
                == dict(rmat._columns(mod.ring, word.strands, letters, keep))


def test_ambient_budget_error_names_the_word_and_its_rotation(monkeypatch):
    """The error names the given word and the word closed for it: the
    cheapest rotation of the reduced word, here on 3 strands for 8_16's 4."""
    word = next(r.word for r in load_table() if r.name == "8_16")
    run = engine.cheapest_rotation(braid.reduce_knot_word(word))
    assert (word.strands, run.strands) == (4, 3)
    monkeypatch.setattr(engine, "TERM_BUDGET", 3)
    for case in (1, 2, 4):
        with pytest.raises(engine.EngineError) as err:
            engine.tangle_invariant(word, engine.model(case, "ambient"))
        msg = str(err.value)
        assert msg.startswith("term budget exceeded: ")
        assert f" of braid '{run}', case {case} ambient; " in msg
        assert msg.endswith(f"; braid '{run}' is the word closed for the "
                            f"given braid '{word}'")


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


def test_every_operator_equals_its_transpose():
    """Entry (a, b, c, d) = entry (c, d, a, b) for sigma and sigma^-1 of
    every MODELS row, the four quantum R-matrices and both trigonometric
    operators: each is a symmetric matrix on two sites, and so is each
    letter it gives on n strands.  The reversal theorem below and the
    orbit domain of ``ybe`` rest on this."""
    ops = {f"{case} {isotopy} {name}": getattr(engine.model(case, isotopy),
                                               name)
           for case, isotopy in ALL_MODELS for name in ("sigma", "sigma_inv")}
    ops.update({f"R{i}": rmat.quantum_r(i) for i in (1, 2, 3, 4)})
    ops["trig gauged"] = rmat.build_trig_gauged()
    ops["trig gauge-free"] = rmat.build_trig_gauge_free()
    assert len(ops) == 16
    for name, op in ops.items():
        assert op.transpose() == op, name
    entries = dict(rmat.quantum_r(1).entries)
    entries[(2, 3, 3, 2)] = entries[(2, 3, 3, 2)] * 2
    skewed = rmat.SparseROp(QUANTUM, entries)
    assert skewed.transpose() != skewed
    assert skewed.transpose().transpose() == skewed


@pytest.mark.parametrize("key", [(2, "regular"), (3, "regular"),
                                 (2, "ambient"), (4, "ambient")])
def test_the_reversed_word_has_the_same_closure(key):
    """Theorem: a word read backwards has the same closed 4x4 matrix, for
    every word and every model whose sigma and sigma^-1 equal their
    transposes (all of MODELS).  Proof: the product of a word applied
    first to last is M = L_k ... L_1, and its reverse's is
    L_1 ... L_k = (L_k^T ... L_1^T)^T = M^T, each letter being symmetric.
    The closure reads the diagonal entries M[s, s] only, which M^T shares.
    Checked on the 37 table words as given, past the engine's reduction
    and rotation."""
    mod = engine.model(*key)
    table = load_table()
    assert len(table) == 37
    for r in table:
        backwards = braid.BraidWord(r.word.strands, r.word.letters[::-1])
        assert engine.closure(backwards, mod) == \
            engine.closure(r.word, mod), r.name


def _q_inverted(op):
    """The operator with Q -> 1/Q in every entry; p and Y fixed."""
    ring = op.ring
    images = {n: ring.var(n, -1 if n == "Q" else 1) for n in ring.names}
    return op.mapped(ring, images)


def _j_conjugated(op):
    """J op J, J the index map 1 <-> 4, 2 <-> 3 on each site."""
    return rmat.SparseROp(op.ring, {tuple(5 - x for x in k): v
                                    for k, v in op.entries.items()})


def test_the_mirror_identity_of_the_models():
    """sigma(Q -> 1/Q) = J sigma^-1 J holds for case 1, case 4 ambient and
    cases 2 and 3 regular, and not for case 2 ambient, whose Y is
    i (Q - 1/Q): Q -> 1/Q turns it into -Y.

    Theorem, case 1: closing the mirror word (every letter inverted) gives
    the invariant under Q -> 1/Q, for every word.  Proof: let phi be
    Q -> 1/Q.  Then phi(sigma^-1) = phi(sigma)^-1 = J sigma J, so phi of
    the word's product M is J M* J, M* the mirror word's product and J
    acting on every strand.  The handle satisfies phi(C) = C o J, so phi
    of the closed entry b is the sum over u of C(J u) M*[(J b, J u),
    (J b, J u)], the mirror's closed entry J b; the ambient invariant is a
    scalar.  ``test_case1_symmetries`` measures this relation on knots."""
    holds = {key for key in ALL_MODELS
             if _q_inverted(engine.model(*key).sigma)
             == _j_conjugated(engine.model(*key).sigma_inv)}
    assert holds == {(1, "ambient"), (4, "ambient"), (2, "regular"),
                     (3, "regular")}
    C = engine.model(1, "ambient").C
    q_inv = {"p": QUANTUM.var("p"), "Q": QUANTUM.var("Q", -1),
             "Y": QUANTUM.var("Y")}
    assert tuple(map_poly(c, QUANTUM, q_inv) for c in C) == C[::-1]


def _pj(op):
    """PJ(op): the operator whose entry (a, b, c, d) is op's (Jb, Ja, Jd,
    Jc), J the index map 1 <-> 4, 2 <-> 3."""
    return rmat.SparseROp(op.ring, {(5 - b, 5 - a, 5 - d, 5 - c): v
                                    for (a, b, c, d), v in op.entries.items()})


def _reflected(op):
    """phi'(op), alpha -> -1 - alpha in every entry: p -> 1/p in QUANTUM,
    Aa -> Q**-2 / Aa in TRIG, every other variable fixed."""
    ring = op.ring
    images = {n: ring.var(n) for n in ring.names}
    if "p" in ring.index:
        images["p"] = ring.var("p", -1)
    if "Aa" in ring.index:
        images["Aa"] = ring.mono(1, Q=-2, Aa=-1)
    return op.mapped(ring, images)


def test_the_reflection_identity_of_the_operators():
    """PJ(op) = c phi'(op): with c = p**4 for quantum_r(1..4), and c = 1
    for both trigonometric operators and for sigma and sigma^-1 of every
    MODELS row.  phi' fixes both Y**2 relations, so it is a ring
    automorphism.  ``ybe`` decides each Yang-Baxter equation on one pair
    per orbit of the transpose and of the reflection this identity gives
    on three strands.

    Theorem, case 1 (p -> 1/p): let K map a state (s1, ..., sn) of n
    strands to (Jsn, ..., Js1), and let the flip of a word send sigma_i to
    sigma_(n-i).  For every word w, M_w[s, t] = phi'(M_flip(w)[Ks, Kt]),
    M the product of a word at input column s and output t.  Proof:
    conjugated by K, the letter (pos, op) is the letter (n - pos, PJ(op))
    (it sets strand n + 1 - pos from Jd to Jb and strand n - pos from Jc
    to Ja with op's coefficient at (a, b, c, d)), and PJ(op) = phi'(op)
    for sigma and sigma^-1, so K M_w K^-1 = phi'(M_flip(w)), and
    (K M K^-1)[Ks, Kt] = M[s, t].  The handle satisfies phi'(C) o J =
    C^-1, checked here, so phi' of the closed entry b of w is the closure
    of the flip on strands 1..n-1 with the weights C^-1, strand n left
    open at Jb.  That this equals the closure of the flip with C, which
    would make the invariant unchanged by p -> 1/p (what
    ``test_case1_symmetries`` measures on knots), is not proved here."""
    p4 = QUANTUM.mono(1, p=4)
    ops = {f"R{i}": (rmat.quantum_r(i), p4) for i in (1, 2, 3, 4)}
    ops["trig gauged"] = (rmat.build_trig_gauged(), None)
    ops["trig gauge-free"] = (rmat.build_trig_gauge_free(), None)
    for case, isotopy in ALL_MODELS:
        mod = engine.model(case, isotopy)
        for name in ("sigma", "sigma_inv"):
            ops[f"{case} {isotopy} {name}"] = (getattr(mod, name), None)
    assert len(ops) == 16
    for name, (op, c) in ops.items():
        image = _reflected(op)
        assert _pj(op) == (image if c is None else image.scale(c)), name
    for ring in (QUANTUM, rmat.TRIG):
        y_square = ring.y_square
        images = {n: ring.var(n) for n in ring.names}
        images.update({"p": ring.var("p", -1)} if "p" in ring.index else
                      {"Aa": ring.mono(1, Q=-2, Aa=-1)})
        assert map_poly(y_square, ring, images) == y_square
    C = engine.model(1, "ambient").C
    assert tuple(map_poly(c, QUANTUM, {"p": QUANTUM.var("p", -1),
                                       "Q": QUANTUM.var("Q"),
                                       "Y": QUANTUM.var("Y")})
                 for c in C[::-1]) == tuple(c.invert_monomial() for c in C)
