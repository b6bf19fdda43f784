"""Exact multivariate Laurent-polynomial arithmetic over Gaussian integers.

A polynomial's ``terms`` map exponent tuples, in the ring's variable order
(which follows ``MASTER_ORDER`` and is the display order), to Gaussian-integer
coefficients ``(a, b)`` = a + b*i of Python ints.  A ring may adjoin the
square-root symbol ``Y`` with ``Y**2 = r`` for a Y-free ``r``; every
polynomial has Y-degree 0 or 1, because products fold Y**2 into ``r``.  Y is
not a unit; the other variables are Laurent variables.  Quotients are
``RationalLaurent``s and evaluation values ``CRat``s.  Half-integer powers of
``q`` live in ``Q`` (``q = Q**2``) and ``p`` (``p = q**(alpha + 1/2)``).
"""

from __future__ import annotations

import heapq
from fractions import Fraction


# Display / sort order of every variable that can occur in any ring.
MASTER_ORDER = ("p", "Q", "Y", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv")

#: The Gaussian units, as i**0 .. i**3.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class RingError(ValueError):
    pass


class CRat:
    """Exact complex rational a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _crat(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_crat(other))

    def __rsub__(self, other):
        return _crat(other) + (-self)

    def __mul__(self, other):
        other = _crat(other)
        return CRat(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _crat(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat((self.re * other.re + self.im * other.im) / n,
                    (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return _crat(other) / self

    def __pow__(self, k):
        if k < 0:
            return CRat(1) / self ** (-k)
        out = CRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _crat(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def _crat(x):
    if isinstance(x, CRat):
        return x
    return CRat(x)


class Ring:
    """A Laurent-polynomial ring whose variable tuple, and so every stored
    exponent tuple, follows MASTER_ORDER.

    If ``"Y"`` is among the names, its polynomials have Y-degree 0 or 1, and
    ``set_y_square`` must be called with the Y-free polynomial that Y**2
    folds into before any multiplication touching Y is performed.
    """

    def __init__(self, names):
        self.names = tuple(names)
        if self.names != tuple(n for n in MASTER_ORDER if n in self.names):
            raise RingError(f"variables {self.names} are not distinct names "
                            f"in the order {MASTER_ORDER}")
        self.index = {n: k for k, n in enumerate(self.names)}
        self.y_index = self.index.get("Y")
        self.y_square = None
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {(0,) * len(self.names): (1, 0)})

    def set_y_square(self, poly):
        yk = self.y_index
        if yk is None:
            raise RingError("ring has no Y symbol")
        if any(e[yk] for e in poly.terms):
            raise RingError("Y**2 rewrite must be Y-free")
        self.y_square = poly
        # Y**-2 * r: a product's Y**2 terms times this land at Y-degree 0
        self._y_fold = {e[:yk] + (-2,) + e[yk + 1:]: c
                        for e, c in poly.terms.items()}

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: (re, im) or int} items;
        the parts and exponents must be ints (not bools) and a Y exponent 0
        or 1."""
        clean = {}
        yk = self.y_index
        for exps, c in terms.items():
            if not isinstance(c, tuple):
                c = (c, 0)
            if len(c) != 2 or type(c[0]) is not int or type(c[1]) is not int:
                raise RingError(f"coefficient {c!r} is not a Gaussian integer")
            if len(exps) != len(self.names):
                raise RingError("exponent tuple has wrong length")
            if not {int}.issuperset(map(type, exps)):
                raise RingError(f"exponents {exps!r} are not all ints")
            if yk is not None and exps[yk] not in (0, 1):
                raise RingError(f"Y exponent {exps[yk]} is not 0 or 1")
            if c != (0, 0):
                clean[tuple(exps)] = c
        return LaurentPoly(self, clean)

    def mono(self, coeff=1, **exps):
        """Single-term polynomial, e.g. ring.mono(-1, Q=2, p=-2)."""
        vec = [0] * len(self.names)
        for name, e in exps.items():
            if name not in self.index:
                raise RingError(f"variable {name!r} not in ring {self.names}")
            vec[self.index[name]] = e
        return self.poly({tuple(vec): coeff})

    def gauss(self, re, im=0):
        return self.poly({(0,) * len(self.names): (re, im)})

    def var(self, name, power=1):
        return self.mono(1, **{name: power})

    def __repr__(self):
        return f"Ring{self.names}"


def _mul_into(terms, a, b):
    """Add the product of the term dicts ``a`` and ``b`` into ``terms``."""
    if len(a) > len(b):
        a, b = b, a
    for e1, (x1, y1) in a.items():
        for e2, (x2, y2) in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            re = x1 * x2 - y1 * y2
            im = x1 * y2 + y1 * x2
            c = terms.get(e)
            if c is None:
                if re or im:
                    terms[e] = (re, im)
            else:
                s = (c[0] + re, c[1] + im)
                if s == (0, 0):
                    del terms[e]
                else:
                    terms[e] = s
    return terms


class LaurentPoly:
    """Immutable sparse Laurent polynomial; do not mutate ``terms``."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == self.ring.one.terms

    def _check(self, other):
        """``other`` in this ring; NotImplemented for a non-ring operand."""
        if not isinstance(other, LaurentPoly):
            if type(other) is not int:
                return NotImplemented
            other = self.ring.gauss(other)
        if other.ring is not self.ring:
            raise RingError(f"variable-set mismatch: {self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for e, (a, b) in other.terms.items():
            c = terms.get(e)
            if c is None:
                terms[e] = (a, b)
            else:
                s = (c[0] + a, c[1] + b)
                if s == (0, 0):
                    del terms[e]
                else:
                    terms[e] = s
        return LaurentPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: (-a, -b) for e, (a, b) in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        ring = self.ring
        terms = _mul_into({}, self.terms, other.terms)
        yk = ring.y_index
        if yk is not None:
            high = {e: terms.pop(e) for e in [e for e in terms if e[yk] == 2]}
            if high:
                if ring.y_square is None:
                    raise RingError("Y**2 rewrite relation not set for this ring")
                _mul_into(terms, high, ring._y_fold)
        return LaurentPoly(ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise RingError("negative power of a polynomial; invert monomials explicitly")
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if type(other) is int:
            other = self.ring.gauss(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def leading(self):
        """(exponents, coeff) of the canonically-largest term."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def is_monomial(self):
        return len(self.terms) == 1

    def invert_monomial(self):
        """Exact inverse of a Y-free single term with unit coefficient."""
        if len(self.terms) != 1:
            raise RingError("not a monomial")
        (e, c), = self.terms.items()
        yk = self.ring.y_index
        if c not in _I_POWERS or (yk is not None and e[yk]):
            raise RingError(f"monomial {self} is not a unit")
        return LaurentPoly(self.ring, {tuple(-x for x in e):
                                       _I_POWERS[-_I_POWERS.index(c)]})

    def coeff_of(self, name, power):
        """Polynomial coefficient of name**power (the variable is projected out)."""
        k = self.ring.index[name]
        terms = {}
        for e, c in self.terms.items():
            if e[k] == power:
                terms[e[:k] + (0,) + e[k + 1:]] = c
        return LaurentPoly(self.ring, terms)

    def degree_in(self, name):
        """Max exponent of a variable, or None for the zero polynomial."""
        if not self.terms:
            return None
        k = self.ring.index[name]
        return max(e[k] for e in self.terms)

    def __str__(self):
        return canonical_str(self)

    __repr__ = __str__


def _coeff_str(c):
    a, b = c
    if b == 0:
        return str(a)
    sign = "+" if b >= 0 else "-"
    return f"({a}{sign}{abs(b)}i)"


def canonical_str(poly):
    """Deterministic text form: terms in descending exponent order."""
    if not poly.terms:
        return "0"
    parts = []
    for e, c in sorted(poly.terms.items(), reverse=True):
        factors = [_coeff_str(c)]
        for name, x in zip(poly.ring.names, e):
            if x:
                factors.append(f"{name}^{x}")
        parts.append(" * ".join(factors))
    return " + ".join(parts).replace(" + -", " - ")


class RationalLaurent:
    """Quotient num/den of Laurent polynomials, normalized only by clearing
    common monomial factors (no polynomial GCD)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, normalize=True):
        if den is None:
            den = num.ring.one
        if den.is_zero():
            raise RingError("zero denominator")
        if num.ring is not den.ring:
            raise RingError("num/den ring mismatch")
        self.num = num
        self.den = den
        if normalize:
            self._normalize()

    def _normalize(self):
        num, den = self.num, self.den
        if num.is_zero():
            self.num, self.den = num.ring.zero, num.ring.one
            return
        shift = [min(col) for col in zip(*num.terms, *den.terms)]
        if any(shift):
            fix = lambda e: tuple(x - s for x, s in zip(e, shift))
            num = LaurentPoly(num.ring, {fix(e): c for e, c in num.terms.items()})
            den = LaurentPoly(den.ring, {fix(e): c for e, c in den.terms.items()})
        if len(den.terms) == 1:
            # fold a monomial denominator that divides the numerator exactly
            try:
                num, den = divexact(num, den), num.ring.one
            except RingError:
                pass
        _, (a, b) = den.leading()
        if a < 0 or (a == 0 and b < 0):
            num, den = -num, -den
        self.num, self.den = num, den

    @property
    def ring(self):
        return self.num.ring

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_one()

    def as_poly(self):
        if not self.den.is_one():
            raise RingError(f"not a polynomial: den = {self.den}")
        return self.num

    def _coerce(self, other):
        """``other`` as a quotient; NotImplemented for a non-ring operand."""
        if isinstance(other, RationalLaurent):
            return other
        if type(other) is int:
            other = self.ring.gauss(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return RationalLaurent(other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.den is other.den or self.den == other.den:
            return RationalLaurent(self.num + other.num, self.den)
        return RationalLaurent(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalLaurent(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return RationalLaurent(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational")
        return RationalLaurent(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RationalLaurent is unhashable (no canonical form)")

    def __str__(self):
        if self.den.is_one():
            return canonical_str(self.num)
        return f"({canonical_str(self.num)}) / ({canonical_str(self.den)})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# The two standard rings.

#: Quantum regime: p = q**(alpha+1/2), Q = q**(1/2), Y**2 = (p/Q - Q/p)(pQ - 1/(pQ)).
QUANTUM = Ring(("p", "Q", "Y"))
QUANTUM.set_y_square(
    QUANTUM.mono(1, p=2) + QUANTUM.mono(1, p=-2)
    - QUANTUM.mono(1, Q=2) - QUANTUM.mono(1, Q=-2))

#: Trigonometric regime: Aa = q**alpha, X = q**u, Xv = q**v, Ru = r**u, etc.
#: Y here squares to (q**alpha - q**-alpha)(q**(1+alpha) - q**-(1+alpha)),
#: i.e. the bracket product [alpha][1+alpha] times (q - 1/q)**2.
TRIG = Ring(("Q", "Y", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv"))
TRIG.set_y_square(
    TRIG.mono(1, Aa=2, Q=2) + TRIG.mono(1, Aa=-2, Q=-2)
    - TRIG.mono(1, Q=2) - TRIG.mono(1, Q=-2))

#: One-variable reduction used by the gauge-2 ambient model (p set to 1).
QONLY = Ring(("Q",))

#: Constant ring for the gauge-4 ambient model (p = Q = 1).
CONST = Ring(())


def qbracket(ring, const=0, alpha=0, u=0):
    """The q-number [x] = (q**x - q**-x)/(q - 1/q) for x = const + alpha + u.

    Integer x >= 0 expands to the polynomial q**(x-1) + q**(x-3) + ...;
    anything involving alpha/u is returned as an unreduced ratio.
    Coefficients of the exponent descriptor must be integers.
    """
    for c in (const, alpha, u):
        if not isinstance(c, int):
            raise RingError("q-bracket exponents must be integer combinations")
    if alpha == 0 and u == 0:
        if const < 0:
            return -qbracket(ring, -const)
        num = ring.zero
        for j in range(const):
            num = num + ring.mono(1, Q=2 * (const - 1 - 2 * j))
        return RationalLaurent(num)
    top = _q_power(ring, const, alpha, u)
    num = top - top.invert_monomial()
    den = ring.mono(1, Q=2) - ring.mono(1, Q=-2)
    return RationalLaurent(num, den)


def _q_power(ring, const=0, alpha=0, u=0):
    """q**(const + alpha*a + u*u) as a monomial of the trig ring."""
    exps = {"Q": 2 * const}
    if alpha:
        exps["Aa"] = alpha
    if u:
        exps["X"] = u
    return ring.mono(1, **exps)


def evaluate(poly, assignment):
    """Exact evaluation of a polynomial at {name: CRat/Fraction/int} points.

    A Y-ring requires a "Y" value whose square equals the evaluated rewrite
    relation.
    """
    ring = poly.ring
    vals = {}
    for name in ring.names:
        if name not in assignment:
            raise RingError(f"missing assignment for {name}")
        vals[name] = _crat(assignment[name])
    if ring.y_index is not None and any(e[ring.y_index] for e in poly.terms):
        y = vals["Y"]
        rel = evaluate(ring.y_square, dict(assignment, Y=0))
        if y * y != rel:
            raise RingError(f"inconsistent Y assignment: Y**2 = {y * y} != {rel}")
    out = CRat(0)
    for e, (a, b) in poly.terms.items():
        t = CRat(a, b)
        for k, name in enumerate(ring.names):
            if e[k]:
                t = t * vals[name] ** e[k]
        out = out + t
    return out


def map_poly(poly, target_ring, images):
    """Ring morphism: send each source variable to a target polynomial.

    ``images`` maps every source variable name to a LaurentPoly of
    ``target_ring`` (or an int).  A Laurent variable's image must be a unit
    monomial, one Y-free term with coefficient 1, -1, i or -i, so exponents
    are mapped directly.  Y's image may be any polynomial whose square is the
    image of the rewrite relation: P0 + P1*Y goes to
    map(P0) + map(P1) * image(Y).
    """
    ring = poly.ring
    yk, tk = ring.y_index, target_ring.y_index
    parts = []         # per source variable: [(target slot, exponent)], i-turns
    for k, name in enumerate(ring.names):
        if name not in images:
            raise RingError(f"missing image for {name}")
        img = images[name]
        if isinstance(img, int):
            img = target_ring.gauss(img)
        if k == yk:
            y_img = img
            parts.append(([], 0))
            continue
        v, c = next(iter(img.terms.items()), ((), None))
        if (len(img.terms) != 1 or c not in _I_POWERS
                or img.ring is not target_ring or (tk is not None and v[tk])):
            raise RingError(f"image of {name} is not a unit monomial of "
                            f"{target_ring}: {img}")
        parts.append(([(j, y) for j, y in enumerate(v) if y],
                      _I_POWERS.index(c)))
    width = len(target_ring.names)
    outs = ({}, {})    # images of the terms without and with Y, Y dropped
    for e, (re, im) in poly.terms.items():
        vec = [0] * width
        turns = 0
        for x, (shift, m) in zip(e, parts):
            if x:
                for j, y in shift:
                    vec[j] += x * y
                turns += x * m
        a, b = _I_POWERS[turns % 4]
        out = outs[0 if yk is None else e[yk]]
        key = tuple(vec)
        cur = out.get(key, (0, 0))
        out[key] = (cur[0] + re * a - im * b, cur[1] + re * b + im * a)
    even, odd = (LaurentPoly(target_ring,
                             {k: c for k, c in out.items() if c != (0, 0)})
                 for out in outs)
    if not outs[1]:
        return even
    if y_img * y_img != map_poly(ring.y_square, target_ring, images):
        raise RingError("Y image inconsistent with the rewrite relation")
    return even + odd * y_img


def divexact(num, den):
    """Exact division by a Y-free divisor (RingError if it does not divide).

    The numerator's two Y-components are divided separately.  This is the
    ring's one exact division; ``RationalLaurent`` folds monomial
    denominators with it.
    """
    ring = num.ring
    yk = ring.y_index
    if yk is not None and any(e[yk] for e in den.terms):
        raise RingError("divisor must be Y-free")
    if yk is not None and any(e[yk] for e in num.terms):
        part0 = num.coeff_of("Y", 0)
        part1 = num.coeff_of("Y", 1)
        return divexact(part0, den) + divexact(part1, den) * ring.var("Y")
    if num.is_zero():
        return ring.zero
    # Shift both operands into the ordinary-polynomial cone so the greedy
    # division below terminates (lex order on N^k is a well-order).  Terms
    # are keyed by their negated shifted exponents, so a min-heap of the
    # remainder's keys yields its terms largest first.  Each step only
    # creates terms below its leading term, so the heap stays in order; a
    # key popped after its term cancelled is skipped.
    nshift = [min(col) for col in zip(*num.terms)]
    dshift = [min(col) for col in zip(*den.terms)]
    neg = lambda e, s: tuple(y - x for x, y in zip(e, s))
    rem = {neg(e, nshift): c for e, c in num.terms.items()}
    dterms = {neg(e, dshift): c for e, c in den.terms.items()}
    back = tuple(a - d for a, d in zip(nshift, dshift))
    dk, (da, db) = min(dterms.items())
    n = da * da + db * db
    quo = {}
    heap = list(rem)
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)
        if k not in rem:
            continue
        a, b = rem[k]
        if any(x > y for x, y in zip(k, dk)):
            raise RingError("exact division failed (remainder)")
        # coefficient division (a+bi)/(da+dbi) over Gaussian integers
        qa, qb = (a * da + b * db), (b * da - a * db)
        if qa % n or qb % n:
            raise RingError("exact division failed (leading coefficient)")
        qa, qb = qa // n, qb // n
        qk = tuple(x - y for x, y in zip(k, dk))
        quo[qk] = (qa, qb)
        for kk, (ca, cb) in dterms.items():
            t = tuple(x + y for x, y in zip(qk, kk))
            re = qa * ca - qb * cb
            im = qa * cb + qb * ca
            c = rem.get(t)
            if c is None:
                rem[t] = (-re, -im)
                heapq.heappush(heap, t)
            elif c == (re, im):
                del rem[t]
            else:
                rem[t] = (c[0] - re, c[1] - im)
    return LaurentPoly(ring, {neg(k, back): c for k, c in quo.items()})
