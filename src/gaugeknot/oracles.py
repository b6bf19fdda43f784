"""Independent classical oracles: Alexander-Conway via the reduced Burau
representation and Jones via the Kauffman bracket.

The bracket pushes the braid through the Temperley-Lieb algebra one letter
at a time, on the basis of noncrossing matchings, and closes it with the
Markov trace (Kauffman, Topology 26, 1987; Jones, Ann. Math. 126, 1987): a
word of L letters on n strands costs at most L * Catalan(n) matching
updates, with no limit on L.

The oracle polynomials share no code with the state-model engine.  Both
oracles compute in exact ints: each polynomial is its value at a power of
two wide enough for a proved bound on its coefficients (Kronecker
substitution), and each result is decoded once into a OnePoly, the
oracles' own polynomial type, on which their normalization checks run.  No
modulus, float or probabilistic step is used.  ``compare_case2`` and
``compare_case3`` then call
the engine and check its Case 2 / Case 3 diagonals against them entry for
entry, for exact equality: no unit, global or per entry, is divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braid import BraidError, closure_components
from .engine import model, tangle_invariant
from .ring import QUANTUM


class OracleError(ValueError):
    pass


class OnePoly:
    """Univariate integer Laurent polynomial in t, on the half-integer
    exponent grid: ``terms`` maps doubled exponents to coefficients, so
    terms = {1: 2} means 2*t^(1/2).  Zero coefficients are filtered out."""

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
        return min(self.terms, default=0), max(self.terms, default=0)

    def divexact(self, den):
        """Exact Laurent division (raises OracleError on a remainder).  An
        exact quotient's lowest exponent is the dividend's less the
        divisor's, so the division stops there."""
        if den.is_zero():
            raise OracleError("division by zero")
        num = dict(self.terms)
        dmax = max(den.terms)
        dc = den.terms[dmax]
        lowest = min(num, default=0) - min(den.terms)
        quo = {}
        while num:
            e = max(num)
            q, r = divmod(num[e], dc)
            if r or e - dmax < lowest:
                raise OracleError("inexact division")
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
# Exact integer arithmetic at a power of two (Kronecker substitution).

def _digits(v, w):
    """Balanced base-2**w digits of the int v, lowest first, the top one
    nonzero: v = sum(d_i * 2**(w*i)) with -2**(w-1) <= d_i < 2**(w-1).  When
    a polynomial's coefficients all lie in that range, these are its
    coefficients and v is its value at 2**w."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    while v:
        v += half
        out.append((v & mask) - half)
        v >>= w
    return out


def _pack(coeffs, w):
    """sum(coeffs[i] * 2**(w*i)): the value at 2**w of the polynomial with
    these coefficients, lowest first."""
    v = 0
    for c in reversed(coeffs):
        v = (v << w) + c
    return v


# ---------------------------------------------------------------------------
# Alexander-Conway via reduced Burau.

def _det(M):
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination: step k replaces each entry below and right of the pivot
    by the 2x2 minor it forms with the pivot, divided exactly by the
    previous pivot, so the last entry is the determinant.  A zero pivot is
    swapped with a row below it, which flips the sign; with none the
    determinant is 0.  O(n**3) int operations; the input is left as it
    was."""
    M = [list(row) for row in M]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        pivot, top = M[k][k], M[k]
        for row in M[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - x * top[j], prev)
                if r:
                    raise OracleError("inexact division")
                row[j] = q
        prev = pivot
    return sign * M[-1][-1] if M else 1


def alexander(word):
    """Symmetric Alexander-Conway polynomial of the closure, normalized so
    that Delta(t) = Delta(1/t) and Delta(1) = 1, from det(I - rho) of the
    word's reduced Burau matrix rho.

    Every polynomial is an int, its value at a power of two; no modulus
    or float is used, and each result is decoded once, into a OnePoly that
    the normalization checks below still guard.

    - The product runs at t = 2**B with B = 2L + 2 for L letters.  A
      generator on row r changes only columns r - 1, r and r + 1 of the
      product, so a letter costs O(n) int operations.  An inverse letter
      first multiplies the whole matrix by t, O(n**2) shifts, so no
      negative power of t forms; its m inverse letters are taken off when
      I - rho is decoded.  Width: a letter at most triples a row's L1 norm,
      so every coefficient of I - rho is at most 3**L + 1 < 2**(2L + 1) =
      2**(B - 1) (L >= 1; a knot word with no letter has one strand and an
      empty matrix).
    - Each entry of I - rho is decoded once; each row is shifted so that
      it starts at t**0 and repacked at W = bit_length(prod_r |row_r|_1) +
      1.  Width: the Leibniz expansion gives |det|_1 <= prod_r |row_r|_1 <
      2**(W - 1).
    - The int determinant is taken by fraction-free elimination, whose
      divisions are exact, and decoded once."""
    _require_knot(word)
    n, letters = word.strands, word.letters
    b = 2 * len(letters) + 2
    rho = [[int(r == c) for c in range(n - 1)] for r in range(n - 1)]
    for k in letters:
        # rho times the generator, whose row r is (t, -t, 1) in columns
        # r - 1, r and r + 1, or times t times the inverse, which is t
        # times the identity with row r (t, -1, 1): column r times t is
        # added to column r - 1 and times 1 to column r + 1, and column r
        # becomes -t or -1 times itself
        r = abs(k) - 1
        for row in rho:
            x = row[r]
            if k < 0:
                row[:] = [y << b for y in row]
            if not x:
                continue
            if r > 0:
                row[r - 1] += x << b
            row[r] = -(x << b) if k > 0 else -x
            if r + 1 < n - 1:
                row[r + 1] += x
    m = sum(k < 0 for k in letters)
    rows, lows, norm = [], -m * (n - 1), 1
    for r, row in enumerate(rho):
        # row r of I - rho, times t**m.  Its lowest slot s is that of the
        # lowest set bit of its entries, as a nonzero digit has fewer than
        # B - 1 trailing zero bits; shifted down by t**s, the row starts
        # at t**0
        row = [-x for x in row]
        row[r] += 1 << (b * m)
        s = min((((x & -x).bit_length() - 1) // b for x in row if x),
                default=0)
        row = [_digits(x >> (b * s), b) for x in row]
        rows.append(row)
        lows += s
        norm *= sum(sum(map(abs, e)) for e in row)
    w = norm.bit_length() + 1
    det = _det([[_pack(e, w) for e in row] for row in rows])
    det = OnePoly({2 * (lows + i): c for i, c in enumerate(_digits(det, w))})
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

#: Words on more strands are refused before any state is built.  A word on
#: n strands holds at most Catalan(n) matchings at once, 208,012 at 12.  A
#: held matching took at most 3.1 KB (both dicts and the coefficients: the
#: tracemalloc peak over the most matchings one dict held, on seeded 8- and
#: 10-strand words of 61-121 letters), about 0.6 GiB at 12 strands.  Every
#: table word has at most 5 strands.
MAX_BRACKET_STRANDS = 12


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


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


def _add(acc, key, v, lo, s):
    """acc[key] += (v, lo), each coefficient a pair of an int v, with one
    slot of s bits per power of A**2, and the A-exponent lo of its lowest
    slot: the operand with the higher lo is shifted up to the other's, so
    no zero slot is carried below a polynomial."""
    v0, lo0 = acc.get(key, (0, lo))
    if lo0 > lo:
        v0, lo0, v, lo = v, lo, v0, lo0
    acc[key] = v0 + (v << s * ((lo - lo0) // 2)), lo0


def _bracket(word):
    """Kauffman bracket of the closed braid as a polynomial in A, by the
    Temperley-Lieb transfer matrix.

    A state maps each noncrossing matching of the 2n boundary points (top
    j is point j, bottom j is point n + j; the tuple holds each point's
    partner) to its coefficient.  Letters act at the bottom: sigma_i is
    A*1 + A^-1*e_i and its inverse A^-1*1 + A*e_i, so a positive letter's
    A-smoothing is the identity one.  The closure sums coeff *
    delta^(loops - 1).  The cost is at most Catalan(n) matching updates
    per letter.

    A coefficient is a pair: an int v = sum(c_e * 2**(S*(e - lo)/2)) and
    lo, its lowest A-exponent.  Every letter moves every exponent by an
    odd amount, so all exponents of a state share one parity and v is the
    value at A**2 = 2**S of the coefficient over A**lo.  A letter's
    identity term only moves lo.  Where the letter's e_i closes a loop,
    its two terms sum to A^a + A^-a * delta = -A^(-3a) (a kink), so v only
    changes sign.  A sum shifts the operand with the higher lo up to the
    other's.  The closure multiplies v by -(2**(2S) + 1), which is delta *
    A**2, once per loop but one, and its sum is decoded once, into a
    OnePoly whose exponents ``jones`` still checks.  No modulus or float is
    used.

    Width: S = L + n + 1.  A letter at most doubles the state's total L1
    norm (the identity and the e_i term, or the kink alone), and the
    closure multiplies by delta**j with |delta**j|_1 = 2**j, j <= n - 1, so
    every coefficient of the sum is at most 2**(L + n - 1) < 2**(S - 1) in
    absolute value."""
    n, letters = word.strands, word.letters
    s = len(letters) + n + 1
    state = {tuple(range(n, 2 * n)) + tuple(range(n)): (1, 0)}
    for k in letters:
        b = n + abs(k) - 1
        a = 1 if k > 0 else -1              # A-exponent of the 1 term
        nxt = {}
        for m, (v, lo) in state.items():
            x, y = m[b], m[b + 1]
            if x == b + 1:                  # a cap meets its cup: a kink
                _add(nxt, m, -v, lo - 3 * a, s)
                continue
            _add(nxt, m, v, lo + a, s)
            m2 = list(m)
            m2[x], m2[y] = y, x
            m2[b], m2[b + 1] = b + 1, b
            _add(nxt, tuple(m2), v, lo - a, s)
        state = {m: c for m, c in nxt.items() if c[0]}
    loop = -((1 << 2 * s) + 1)
    closed = []
    for m, (v, lo) in state.items():
        j = _loops(m) - 1
        closed.append((v * loop ** j, lo - 2 * j))
    low = min((lo for _, lo in closed), default=0)
    total = sum(v << s * ((lo - low) // 2) for v, lo in closed)
    return OnePoly({2 * low + 4 * i: c
                    for i, c in enumerate(_digits(total, s))})


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
    detail: str = ""
    diag: tuple = None

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
    diag = tangle_invariant(word, model(2, "regular")).entries
    m = QUANTUM.mono
    minus = m(1, p=-w) * _subst_quantum(delta, 2, -2)
    plus = m(1, p=w) * _subst_quantum(delta, 2, 2)
    expected = [minus, minus, plus, plus]
    return _compare(diag, expected)


def compare_case3(word):
    """Engine Case 3 regular vs diag{pbar^2w, (-Qbar^4)^w V(Q^4) (x2),
    p^2w} built from the bracket oracle; V(Q^4) is our Jones convention
    under t -> Q^4 directly (not t -> Q^-4), fixed empirically once.  The
    report fails at the first entry that differs."""
    v = jones(word)
    w = word.writhe
    diag = tangle_invariant(word, model(3, "regular")).entries
    m = QUANTUM.mono
    mid = m(1 if w % 2 == 0 else -1, Q=-4 * w) * _subst_quantum(v, 4, 0)
    expected = [m(1, p=-2 * w), mid, mid, m(1, p=2 * w)]
    return _compare(diag, expected)


def _compare(diag, expected):
    for i, (got, want) in enumerate(zip(diag, expected), start=1):
        if got != want:
            return CompareReport(
                False, f"entry{i}{i}: got {got}, expected {want}", diag)
    return CompareReport(True, diag=diag)
