import random

import pytest

from gaugeknot import braid, rmat
from gaugeknot.ring import QUANTUM


def rand_poly(rng, ring=QUANTUM, max_terms=5, span=3):
    """Random small Laurent polynomial with Gaussian-integer coefficients."""
    out = ring.zero
    for _ in range(rng.randint(1, max_terms)):
        exps = {n: rng.randint(-span, span) for n in ring.names}
        if "Y" in exps:
            exps["Y"] = rng.randint(0, 1)
        out = out + ring.mono((rng.randint(-4, 4), rng.randint(-2, 2)),
                              **exps)
    return out


def rand_knot_word(rng, strands=4, length=8):
    """Random braid word whose closure is a knot (single component)."""
    gens = [k for g in range(1, strands) for k in (g, -g)]
    while True:
        # the closure is a knot only when the word's permutation is an
        # n-cycle, whose parity is fixed; try both word lengths
        n = length + rng.randint(0, 1)
        letters = tuple(rng.choice(gens) for _ in range(n))
        word = braid.BraidWord(strands, letters)
        if braid.closure_components(word) == 1:
            return word


def charge_mixing_op(ring=QUANTUM):
    """The identity plus two entries that conserve the weight but not
    n(2) - n(3): index 3 turns into 2 on the lower strand (key (1, 2, 1, 3))
    and on the higher one (key (2, 1, 3, 1))."""
    entries = dict(rmat.identity_op(ring).entries)
    entries[(1, 2, 1, 3)] = entries[(2, 1, 3, 1)] = ring.one
    return rmat.SparseROp(ring, entries)


@pytest.fixture
def rng():
    return random.Random(20260826)
