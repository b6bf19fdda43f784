"""Independent classical oracles: Alexander-Conway via the reduced Burau
representation and Jones via the Kauffman bracket.

The bracket pushes the braid through the Temperley-Lieb algebra one letter
at a time, on the basis of noncrossing matchings, and closes it with the
Markov trace (Kauffman, Topology 26, 1987; Jones, Ann. Math. 126, 1987): a
word of L letters on n strands costs at most L * Catalan(n) matching
updates, with no limit on L.

The oracle polynomials share no code with the state-model engine: OnePoly
is their own arithmetic.  ``compare_case2`` and ``compare_case3`` then call
the engine and check its Case 2 / Case 3 diagonals against them entry for
entry, for exact equality: no unit, global or per entry, is divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidError, BraidWord, closure_components
from .engine import model, tangle_invariant
from .ring import QUANTUM


class OracleError(ValueError):
    pass


class OnePoly:
    """Univariate integer Laurent polynomial in t, on the half-integer
    exponent grid: ``terms`` maps doubled exponents to coefficients, so
    terms = {1: 2} means 2*t^(1/2)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @staticmethod
    def t(double_exp=2, coeff=1):
        return OnePoly({double_exp: coeff})

    @staticmethod
    def const(c):
        return OnePoly({0: c})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return OnePoly(out)

    def __neg__(self):
        return OnePoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return OnePoly(out)

    def __eq__(self, other):
        return isinstance(other, OnePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def bar(self):
        """t -> 1/t."""
        return OnePoly({-e: c for e, c in self.terms.items()})

    def shift(self, double_exp):
        return OnePoly({e + double_exp: c for e, c in self.terms.items()})

    def at_one(self):
        return sum(self.terms.values())

    def span(self):
        if not self.terms:
            return (0, 0)
        return (min(self.terms), max(self.terms))

    def divexact(self, den):
        """Exact Laurent division (raises OracleError on a remainder)."""
        if den.is_zero():
            raise OracleError("division by zero")
        num = dict(self.terms)
        dmax = max(den.terms)
        dc = den.terms[dmax]
        quo = {}
        while num:
            e = max(num)
            q, r = divmod(num[e], dc)
            if r:
                raise OracleError("inexact coefficient division")
            quo[e - dmax] = q
            for de, c in den.terms.items():
                k = e - dmax + de
                v = num.get(k, 0) - q * c
                if v:
                    num[k] = v
                else:
                    num.pop(k, None)
        return OnePoly(quo)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                var = ""
            elif e % 2 == 0:
                var = f"t^{e // 2}"
            else:
                var = f"t^{e}/2"
            mag = "" if abs(c) == 1 and var else str(abs(c))
            body = (mag + ("*" if mag and var else "") + var) or "1"
            bits.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    __repr__ = __str__


def _require_knot(word):
    if closure_components(word) != 1:
        raise OracleError(f"closure of {word} is not a knot")


# ---------------------------------------------------------------------------
# Alexander-Conway via reduced Burau.

def _burau_generator(i, n, inverse=False):
    """(n-1)x(n-1) reduced Burau matrix of generator i (1-based)."""
    t = OnePoly.t(2)
    tbar = OnePoly.t(-2)
    one = OnePoly.const(1)
    M = [[one if r == c else OnePoly() for c in range(n - 1)]
         for r in range(n - 1)]
    r = i - 1
    if not inverse:
        M[r][r] = -t
        if r - 1 >= 0:
            M[r][r - 1] = t
        if r + 1 < n - 1:
            M[r][r + 1] = one
    else:
        M[r][r] = -tbar
        if r - 1 >= 0:
            M[r][r - 1] = one
        if r + 1 < n - 1:
            M[r][r + 1] = tbar
    return M


def _mat_mul(A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), OnePoly())
             for j in range(n)] for i in range(n)]


def _det(M):
    n = len(M)
    if n == 0:
        return OnePoly.const(1)
    if n == 1:
        return M[0][0]
    out = OnePoly()
    sign = 1
    for j in range(n):
        if not M[0][j].is_zero():
            minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
            term = M[0][j] * _det(minor)
            out = out + (term if sign > 0 else -term)
        sign = -sign
    return out


def alexander(word):
    """Symmetric Alexander-Conway polynomial of the closure, normalized so
    that Delta(t) = Delta(1/t) and Delta(1) = 1."""
    _require_knot(word)
    n = word.strands
    if n == 1:
        return OnePoly.const(1)
    rho = [[OnePoly.const(1 if r == c else 0) for c in range(n - 1)]
           for r in range(n - 1)]
    for k in word.letters:
        rho = _mat_mul(rho, _burau_generator(abs(k), n, inverse=k < 0))
    IM = [[OnePoly.const(1 if r == c else 0) - rho[r][c] for c in range(n - 1)]
          for r in range(n - 1)]
    det = _det(IM)
    cyc = OnePoly({2 * k: 1 for k in range(n)})  # 1 + t + ... + t^(n-1)
    delta = det.divexact(cyc)
    if delta.is_zero():
        raise OracleError("vanishing Burau determinant for a knot closure")
    lo, hi = delta.span()
    if (lo + hi) % 2:
        raise OracleError("asymmetric exponent span")
    delta = delta.shift(-(lo + hi) // 2)
    if delta != delta.bar():
        raise OracleError("Alexander normalization failed: not palindromic")
    v = delta.at_one()
    if abs(v) != 1:
        raise OracleError(f"Delta(1) = {v}, closure is not a knot?")
    return delta if v == 1 else -delta


# ---------------------------------------------------------------------------
# Jones via the Kauffman bracket.

_DELTA = OnePoly({4: -1, -4: -1})           # -A^2 - A^-2, one closed loop

#: Words on more strands are refused before any state is built.  A word on
#: n strands holds at most Catalan(n) matchings at once, 208,012 at 12.  A
#: held matching took at most 4 KB (both dicts and the coefficients, by
#: tracemalloc on random 8- and 10-strand words of 60-120 letters), about
#: 0.8 GiB at 12 strands.  Every table word has at most 5 strands.
MAX_BRACKET_STRANDS = 12


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _times_e(m, b, c):
    """(matching, coefficient) of m * e_i, where b is bottom point i."""
    x, y = m[b], m[b + 1]
    if x == b + 1:                          # a cap meets its cup: a loop
        return m, c * _DELTA
    m = list(m)
    m[x], m[y] = y, x
    m[b], m[b + 1] = b + 1, b
    return tuple(m), c


def _loops(m):
    """Loops of the Markov closure of m, which joins top j to bottom j."""
    n = len(m) // 2
    seen = [False] * len(m)
    loops = 0
    for start in range(len(m)):
        if seen[start]:
            continue
        loops += 1
        p = start
        while not seen[p]:
            q = m[p]
            seen[p] = seen[q] = True
            p = q + n if q < n else q - n
    return loops


def _bracket(word):
    """Kauffman bracket of the closed braid as a polynomial in A, by the
    Temperley-Lieb transfer matrix.

    A state maps each noncrossing matching of the 2n boundary points (top
    j is point j, bottom j is point n + j; the tuple holds each point's
    partner) to its coefficient.  Letters act at the bottom: sigma_i is
    A*1 + A^-1*e_i and its inverse A^-1*1 + A*e_i, so a positive letter's
    A-smoothing is the identity one.  The closure sums coeff *
    delta^(loops - 1).  The cost is at most Catalan(n) matching updates
    per letter."""
    n = word.strands
    state = {tuple(range(n, 2 * n)) + tuple(range(n)): OnePoly.const(1)}
    for k in word.letters:
        b = n + abs(k) - 1
        a = 2 if k > 0 else -2              # doubled A-exponent of the 1 term
        nxt = {}
        for m, c in state.items():
            for m2, c2 in ((m, c.shift(a)), _times_e(m, b, c.shift(-a))):
                nxt[m2] = nxt[m2] + c2 if m2 in nxt else c2
        state = {m: c for m, c in nxt.items() if c.terms}
    powers = [OnePoly.const(1)]
    for _ in range(n - 1):
        powers.append(powers[-1] * _DELTA)
    total = OnePoly()
    for m, c in state.items():
        total = total + c * powers[_loops(m) - 1]
    return total


def jones(word):
    """Jones polynomial of the closure, V(unknot) = 1, in the convention
    where the right trefoil "2 : 1 1 1" gives -t^4 + t^3 + t.

    The bracket is the Temperley-Lieb transfer matrix: L letters on n
    strands cost at most L * Catalan(n) matching updates, so the word may
    be of any length; words on more than ``MAX_BRACKET_STRANDS`` strands
    are refused."""
    _require_knot(word)
    if word.strands > MAX_BRACKET_STRANDS:
        raise OracleError(
            f"bracket of a braid on {word.strands} strands refused: it may "
            f"hold Catalan({word.strands}) = {_catalan(word.strands)} "
            f"matchings, more than Catalan({MAX_BRACKET_STRANDS}) = "
            f"{_catalan(MAX_BRACKET_STRANDS)}")
    w = word.writhe
    bracket = _bracket(word)
    # multiply by (-A^3)^(-w)
    norm = bracket.shift(-6 * w)
    if w % 2:
        norm = -norm
    # substitute t = A^-4
    out = {}
    for e, c in norm.terms.items():
        if e % 4:
            raise OracleError("bracket exponent off the t-grid")
        out[-e // 4] = c
    return OnePoly(out)


# ---------------------------------------------------------------------------
# Comparisons against the engine's regular-isotopy formulas.

@dataclass
class CompareReport:
    ok: bool
    case: int
    word: BraidWord
    detail: str = ""
    diag: list = None

    def __bool__(self):
        return self.ok


def _subst_quantum(poly, q_exp, p_exp):
    """t^(e/2) -> Q^(e*q_exp/2) * p^(e*p_exp/2) for a OnePoly."""
    terms = {}
    for e, c in poly.terms.items():
        if (e * q_exp) % 2 or (e * p_exp) % 2:
            raise OracleError("substitution leaves the integer grid")
        key = (e * p_exp // 2, e * q_exp // 2, 0)    # (p, Q, Y)
        terms[key] = terms.get(key, 0) + c
    return QUANTUM.poly(terms)


def compare_case2(word):
    """Engine Case 2 regular vs diag{pbar^w D(Q^2 pbar^2) (x2),
    p^w D(Q^2 p^2) (x2)} built from the Burau oracle; the report fails at
    the first entry that differs."""
    delta = alexander(word)
    w = word.writhe
    diag = tangle_invariant(word, model(2, "regular")).diagonal()
    m = QUANTUM.mono
    minus = m(1, p=-w) * _subst_quantum(delta, 2, -2)
    plus = m(1, p=w) * _subst_quantum(delta, 2, 2)
    expected = [minus, minus, plus, plus]
    return _compare(2, word, diag, expected)


def compare_case3(word):
    """Engine Case 3 regular vs diag{pbar^2w, (-Qbar^4)^w V(Q^4) (x2),
    p^2w} built from the bracket oracle; V(Q^4) is our Jones convention
    under t -> Q^4 directly (not t -> Q^-4), fixed empirically once.  The
    report fails at the first entry that differs."""
    v = jones(word)
    w = word.writhe
    diag = tangle_invariant(word, model(3, "regular")).diagonal()
    m = QUANTUM.mono
    mid = m(1 if w % 2 == 0 else -1, Q=-4 * w) * _subst_quantum(v, 4, 0)
    expected = [m(1, p=-2 * w), mid, mid, m(1, p=2 * w)]
    return _compare(3, word, diag, expected)


def _compare(case, word, diag, expected):
    for i, (got, want) in enumerate(zip(diag, expected), start=1):
        if got != want:
            return CompareReport(False, case, word,
                                 f"entry{i}{i}: got {got}, expected {want}",
                                 diag)
    return CompareReport(True, case, word, diag=diag)
