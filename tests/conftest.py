import random
from fractions import Fraction

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


def _fraction(x):
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"GaussQ parts are ints or Fractions, not {x!r}")


class GaussQ:
    """Exact Gaussian rational re + im*i with Fraction parts: the tests'
    reference arithmetic, kept apart from the package's evaluator.  A part
    is an int (not a bool) or a Fraction; an operand may also be a GaussQ or
    an ``(re, im)`` pair.  Anything else, a float, bool or str among them,
    raises TypeError."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = _fraction(re), _fraction(im)

    @staticmethod
    def of(x):
        if isinstance(x, GaussQ):
            return x
        return GaussQ(*x) if isinstance(x, tuple) else GaussQ(x)

    def __add__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussQ.of(other)

    def __rsub__(self, other):
        return GaussQ.of(other) - self

    def __mul__(self, other):
        other = GaussQ.of(other)
        return GaussQ(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussQ.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussQ")
        return GaussQ((self.re * other.re + self.im * other.im) / n,
                      (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return GaussQ.of(other) / self

    def __pow__(self, k):
        out = GaussQ(1)
        for _ in range(abs(k)):
            out = out * self
        return out if k >= 0 else 1 / out

    def __eq__(self, other):
        other = GaussQ.of(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"GaussQ({self.re}, {self.im})"


def reference_value(poly, point):
    """``poly`` at ``point``, {name: value} with values as ``GaussQ.of``
    takes them, summed term by term over ``poly.terms`` in GaussQ."""
    total = GaussQ(0)
    for exps, c in poly.terms.items():
        t = GaussQ(*c)
        for name, x in zip(poly.ring.names, exps):
            t = t * GaussQ.of(point[name]) ** x
        total = total + t
    return total


def sample_point(row):
    """The {name: value} point of a ``rmat.SAMPLE_POINTS`` row."""
    p, q, y, sign = row
    return {"p": p, "Q": q, "Y": (y, 0) if sign > 0 else (0, y)}


@pytest.fixture
def rng():
    return random.Random(20260826)
