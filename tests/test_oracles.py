"""Classical Alexander and Jones oracles and the engine comparisons."""

import pytest

from conftest import rand_knot_word
from gaugeknot import braid, harness, oracles

TREFOIL = braid.parse("2 : 1 1 1")
FIG8 = braid.parse("3 : 1 -2 1 -2")
UNKNOT = braid.parse("1 :")


def onepoly(d):
    """Build a OnePoly from {integer t-exponent: coeff}."""
    return oracles.OnePoly({2 * e: c for e, c in d.items()})


def test_alexander_examples():
    assert oracles.alexander(UNKNOT) == onepoly({0: 1})
    assert oracles.alexander(TREFOIL) == onepoly({1: 1, 0: -1, -1: 1})
    assert oracles.alexander(FIG8) == onepoly({1: -1, 0: 3, -1: -1})


def test_alexander_normalization(rng):
    for _ in range(30):
        word = rand_knot_word(rng, strands=3, length=7)
        d = oracles.alexander(word)
        assert d == d.bar()          # symmetric
        assert d.at_one() == 1       # normalized at t = 1


def test_alexander_rejects_links():
    with pytest.raises(oracles.OracleError):
        oracles.alexander(braid.parse("2 : 1 1"))


def test_burau_generator_inverse_pairs():
    """Each reduced Burau generator and its inverse multiply to the
    identity in both orders."""
    for n in (2, 3, 4, 5):
        ident = [[oracles.OnePoly.const(int(r == c)) for c in range(n - 1)]
                 for r in range(n - 1)]
        for i in range(1, n):
            g = oracles._burau_generator(i, n)
            g_inv = oracles._burau_generator(i, n, inverse=True)
            assert oracles._mat_mul(g, g_inv) == ident
            assert oracles._mat_mul(g_inv, g) == ident


def test_jones_examples():
    assert oracles.jones(UNKNOT) == onepoly({0: 1})
    assert oracles.jones(TREFOIL) == onepoly({4: -1, 3: 1, 1: 1})
    assert oracles.jones(FIG8) == onepoly({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})


def test_jones_mirror(rng):
    assert oracles.jones(TREFOIL.mirror()) == onepoly({-4: -1, -3: 1, -1: 1})
    for _ in range(15):
        word = rand_knot_word(rng, strands=3, length=7)
        assert oracles.jones(word.mirror()) == oracles.jones(word).bar()


def state_sum_bracket(word):
    """Reference bracket: the sum over all 2^L Kauffman states of
    A^(#A - #A^-1) * delta^(loops - 1), the loops found by union-find over
    the (level, strand) nodes of the closed diagram."""
    n, L = word.strands, len(word.letters)
    levels = max(L, 1)
    delta = oracles.OnePoly({4: -1, -4: -1})
    total = oracles.OnePoly()
    for state in range(1 << L):
        parent = list(range(n * levels))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        def join(a, b):
            parent[find(a)] = find(b)

        node = lambda lev, j: (lev % levels) * n + j
        exp = 0
        for lev, k in enumerate(word.letters):
            i = abs(k) - 1
            a_smoothing = bool(state >> lev & 1)
            exp += 1 if a_smoothing else -1
            for j in range(n):
                if j not in (i, i + 1):
                    join(node(lev, j), node(lev + 1, j))
            if a_smoothing == (k > 0):      # the identity smoothing
                join(node(lev, i), node(lev + 1, i))
                join(node(lev, i + 1), node(lev + 1, i + 1))
            else:
                join(node(lev, i), node(lev, i + 1))
                join(node(lev + 1, i), node(lev + 1, i + 1))
        term = oracles.OnePoly({2 * exp: 1})
        for _ in range(len({find(x) for x in range(n * levels)}) - 1):
            term = term * delta
        total = total + term
    return total


def test_bracket_equals_state_sum_on_the_table():
    for rec in harness.load_table():
        assert oracles._bracket(rec.word) == state_sum_bracket(rec.word), \
            rec.name


def test_bracket_equals_state_sum_on_seeded_words(rng):
    components = []
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [k for g in range(1, n) for k in (g, -g)]
        length = rng.randint(0, 10) if gens else 0
        word = braid.BraidWord(n, tuple(rng.choice(gens)
                                        for _ in range(length)))
        assert oracles._bracket(word) == state_sum_bracket(word), str(word)
        components.append(braid.closure_components(word))
    assert components.count(1) >= 50
    assert sum(c > 1 for c in components) >= 50


def test_jones_torus_knots():
    """T(2, q) for odd q against t^((q-1)/2) (1 - t^3 - t^(q+1) + t^(q+2))
    / (1 - t^2), well past the length the 2^L state sum could reach."""
    for q in (3, 25, 27):
        num = onepoly({0: 1, 3: -1, q + 1: -1, q + 2: 1}).shift(q - 1)
        want = num.divexact(onepoly({0: 1, 2: -1}))
        assert oracles.jones(braid.BraidWord(2, (1,) * q)) == want
    assert want.span() == (2 * 13, 2 * 40)


def test_jones_strand_limit(monkeypatch):
    """More than MAX_BRACKET_STRANDS strands are refused before any
    matching is built; the limit itself is accepted."""
    top = oracles.MAX_BRACKET_STRANDS
    unknot = lambda n: braid.BraidWord(n, tuple(range(1, n)))
    assert oracles.jones(unknot(top)) == onepoly({0: 1})
    monkeypatch.setattr(oracles, "_bracket",
                        lambda word: pytest.fail("bracket was built"))
    with pytest.raises(oracles.OracleError, match="Catalan"):
        oracles.jones(unknot(top + 1))


def test_markov_moves(rng):
    """Both oracles are invariant under conjugation and stabilization."""
    for _ in range(20):
        word = rand_knot_word(rng, strands=3, length=6)
        a = oracles.alexander(word)
        j = oracles.jones(word)
        g = rng.choice([1, -1, 2, -2])
        conj = braid.BraidWord(3, (g,) + word.letters + (-g,))
        assert oracles.alexander(conj) == a
        assert oracles.jones(conj) == j
        for sign in (1, -1):
            stab = braid.BraidWord(4, word.letters + (3 * sign,))
            assert oracles.alexander(stab) == a
            assert oracles.jones(stab) == j


def test_compare_case2():
    for word in (UNKNOT, TREFOIL, FIG8):
        rep = oracles.compare_case2(word)
        assert rep.ok, rep.detail
        assert rep.unit == "1"
    assert oracles.compare_case2(FIG8).word.writhe == 0


def test_compare_case3():
    for word in (UNKNOT, TREFOIL, FIG8):
        rep = oracles.compare_case3(word)
        assert rep.ok, rep.detail
        assert rep.unit == "1"


def test_matveev_pair_closures_are_links():
    """The distinguishing pair closes to 2-component links (three
    transpositions make an odd permutation), so the knot oracles reject
    both words; untangling them instead closes single strands, which the
    engine's operator-level comparison covers."""
    a, b = braid.matveev_pair()
    for word in (a, b):
        assert braid.closure_components(word) == 2
        with pytest.raises(oracles.OracleError):
            oracles.alexander(word)
        with pytest.raises(oracles.OracleError):
            oracles.jones(word)


def test_onepoly_arithmetic():
    a = onepoly({1: 1, 0: -1})
    b = onepoly({0: 1, -1: 1})
    assert a * b == onepoly({1: 1, -1: -1})
    assert (a - a).is_zero()
    assert a.bar() == onepoly({-1: 1, 0: -1})
    assert onepoly({2: 1, 0: -2}).at_one() == -1
    assert (a * b).divexact(b) == a
