"""Exact multivariate Laurent-polynomial arithmetic over Gaussian integers.

Polynomials live in a ring with a declared variable tuple and, optionally, an
adjoined square-root symbol ``Y`` subject to a quadratic rewrite ``Y**2 = r``
with ``r`` a Y-free polynomial of the same ring.  Coefficients are Gaussian
integers ``a + b*i`` stored as ``(a, b)`` pairs of Python ints, so every
operation is exact.  Exponent vectors are tuples of ints; the half-integer
powers of ``q`` are absorbed by working in the half-step variable
``Q`` (``q = Q**2``) and in ``p`` (``p = q**(alpha + 1/2)``).
"""

from __future__ import annotations

from fractions import Fraction


# Display / sort order of every variable that can occur in any ring.
MASTER_ORDER = ("p", "Q", "Y", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv")


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
    """A Laurent-polynomial ring with a fixed variable tuple.

    If ``"Y"`` is among the names, ``set_y_square`` must be called with the
    Y-free polynomial that Y**2 rewrites to before any multiplication
    touching Y is performed.
    """

    def __init__(self, names):
        unknown = [n for n in names if n not in MASTER_ORDER]
        if unknown:
            raise RingError(f"unknown variable names {unknown}")
        self.names = tuple(names)
        self.index = {n: k for k, n in enumerate(self.names)}
        self.y_index = self.index.get("Y")
        self.y_square = None
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {(0,) * len(self.names): (1, 0)})
        # Column order used for canonical term sorting.
        self._sort_cols = sorted(range(len(self.names)),
                                 key=lambda k: MASTER_ORDER.index(self.names[k]))

    def set_y_square(self, poly):
        if self.y_index is None:
            raise RingError("ring has no Y symbol")
        if any(e[self.y_index] for e in poly.terms):
            raise RingError("Y**2 rewrite must be Y-free")
        self.y_square = poly

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: (re, im) or int} items."""
        clean = {}
        for exps, c in terms.items():
            if not isinstance(c, tuple):
                c = (c, 0)
            if len(exps) != len(self.names):
                raise RingError("exponent tuple has wrong length")
            if c != (0, 0):
                clean[tuple(exps)] = c
        return _reduce_y(LaurentPoly(self, clean))

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
        if isinstance(other, int):
            other = self.ring.gauss(other)
        if other.ring is not self.ring:
            raise RingError(f"variable-set mismatch: {self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._check(other)
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
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        other = self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms = {}
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
        return _reduce_y(LaurentPoly(self.ring, terms))

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
        if isinstance(other, int):
            other = self.ring.gauss(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def key(self):
        """Hashable canonical key (used to pool shared denominators)."""
        return tuple(sorted(self.terms.items()))

    def leading(self):
        """(exponents, coeff) of the canonically-largest term."""
        if not self.terms:
            raise RingError("zero polynomial has no leading term")
        cols = self.ring._sort_cols
        e = max(self.terms, key=lambda t: tuple(t[k] for k in cols))
        return e, self.terms[e]

    def is_monomial(self):
        return len(self.terms) == 1

    def invert_monomial(self):
        """Exact inverse, defined for single terms with unit coefficient."""
        if len(self.terms) != 1:
            raise RingError("not a monomial")
        (e, (a, b)), = self.terms.items()
        inv = {(1, 0): (1, 0), (-1, 0): (-1, 0), (0, 1): (0, -1), (0, -1): (0, 1)}.get((a, b))
        if inv is None:
            raise RingError(f"monomial coefficient {a}+{b}i is not a unit")
        return LaurentPoly(self.ring, {tuple(-x for x in e): inv})

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


def _reduce_y(poly):
    """Rewrite every Y-exponent >= 2 using the ring's Y**2 relation."""
    ring = poly.ring
    yk = ring.y_index
    if yk is None or all(e[yk] < 2 for e in poly.terms):
        return poly
    if ring.y_square is None:
        raise RingError("Y**2 rewrite relation not set for this ring")
    out = ring.zero
    plain = {}
    for e, c in poly.terms.items():
        k = e[yk]
        if k < 2:
            plain[e] = c
        else:
            base = e[:yk] + (k % 2,) + e[yk + 1:]
            out = out + LaurentPoly(ring, {base: c}) * ring.y_square ** (k // 2)
    return out + LaurentPoly(ring, plain)


def _coeff_str(c):
    a, b = c
    if b == 0:
        return str(a)
    sign = "+" if b >= 0 else "-"
    return f"({a}{sign}{abs(b)}i)"


def canonical_str(poly):
    """Deterministic text form: terms sorted by the master variable order."""
    if not poly.terms:
        return "0"
    ring = poly.ring
    cols = ring._sort_cols
    items = sorted(poly.terms.items(),
                   key=lambda t: tuple(t[0][k] for k in cols), reverse=True)
    parts = []
    for e, c in items:
        factors = [_coeff_str(c)]
        for k in cols:
            if e[k]:
                factors.append(f"{ring.names[k]}^{e[k]}")
        parts.append(" * ".join(factors))
    s = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            s += " - " + t[1:]
        else:
            s += " + " + t
    return s


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
        n = len(num.ring.names)
        shift = [min(min(e[k] for e in num.terms), min(e[k] for e in den.terms))
                 for k in range(n)]
        if any(shift):
            fix = lambda e: tuple(x - s for x, s in zip(e, shift))
            num = LaurentPoly(num.ring, {fix(e): c for e, c in num.terms.items()})
            den = LaurentPoly(den.ring, {fix(e): c for e, c in den.terms.items()})
        if len(den.terms) == 1:
            # fold a monomial denominator into the numerator when its
            # coefficient divides every numerator coefficient in Z[i]
            (de, (c, d)), = den.terms.items()
            norm = c * c + d * d
            folded = {}
            for ne, (x, y) in num.terms.items():
                re, im = x * c + y * d, y * c - x * d
                if re % norm or im % norm:
                    break
                folded[tuple(a - b for a, b in zip(ne, de))] = (re // norm,
                                                                im // norm)
            else:
                num = LaurentPoly(num.ring, folded)
                den = num.ring.one
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
        if isinstance(other, RationalLaurent):
            return other
        if isinstance(other, int):
            other = self.ring.gauss(other)
        return RationalLaurent(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.den is other.den or self.den == other.den:
            return RationalLaurent(self.num + other.num, self.den)
        return RationalLaurent(self.num * other.den + other.num * self.den,
                               self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalLaurent(-self.num, self.den, normalize=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalLaurent(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational")
        return RationalLaurent(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = self._coerce(other)
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
TRIG = Ring(("Q", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv", "Y"))
TRIG.set_y_square(
    TRIG.mono(1, Aa=2, Q=2) + TRIG.mono(1, Aa=-2, Q=-2)
    - TRIG.mono(1, Q=2) - TRIG.mono(1, Q=-2))

#: One-variable reduction used by the gauge-2 ambient model (p set to 1).
QONLY = Ring(("Q",))

#: Constant ring for the gauge-4 ambient model (p = Q = 1).
CONST = Ring(())


def qbracket(ring, const=0, alpha=0, u=0, v=0):
    """The q-number [x] = (q**x - q**-x)/(q - 1/q) for x = const + alpha + u + v.

    Integer x >= 0 expands to the polynomial q**(x-1) + q**(x-3) + ...;
    anything involving alpha/u/v is returned as an unreduced ratio.
    Coefficients of the exponent descriptor must be integers.
    """
    for c in (const, alpha, u, v):
        if not isinstance(c, int):
            raise RingError("q-bracket exponents must be integer combinations")
    if alpha == 0 and u == 0 and v == 0:
        if const < 0:
            return -qbracket(ring, -const)
        num = ring.zero
        for j in range(const):
            num = num + ring.mono(1, Q=2 * (const - 1 - 2 * j))
        return RationalLaurent(num)
    top = _q_power(ring, const, alpha, u, v)
    num = top - top.invert_monomial()
    den = ring.mono(1, Q=2) - ring.mono(1, Q=-2)
    return RationalLaurent(num, den)


def _q_power(ring, const=0, alpha=0, u=0, v=0):
    """q**(const + alpha*a + u*u + v*v) as a monomial of the trig ring."""
    exps = {"Q": 2 * const}
    if alpha:
        exps["Aa"] = alpha
    if u:
        exps["X"] = u
    if v:
        exps["Xv"] = v
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


#: The Gaussian units, as i**0 .. i**3.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def map_poly(poly, target_ring, images):
    """Ring morphism: send each source variable to a target polynomial.

    ``images`` maps every source variable name to a LaurentPoly of
    ``target_ring`` (or an int).  A Y variable's image is checked for
    consistency with the rewrite relation.  When every image is a single
    term with a unit coefficient, exponents are mapped directly instead of
    multiplying images out.
    """
    ring = poly.ring
    imgs = {}
    for name in ring.names:
        if name not in images:
            raise RingError(f"missing image for {name}")
        img = images[name]
        if isinstance(img, int):
            img = target_ring.gauss(img)
        imgs[name] = img
    if ring.y_index is not None and any(e[ring.y_index] for e in poly.terms):
        rel = map_poly(ring.y_square, target_ring, images)
        if imgs["Y"] * imgs["Y"] != rel:
            raise RingError("Y image inconsistent with the rewrite relation")
    if all(len(img.terms) == 1 and next(iter(img.terms.values())) in _I_POWERS
           for img in imgs.values()):
        return _map_exponents(poly, target_ring,
                              [imgs[name] for name in ring.names])
    out = target_ring.zero
    inv_cache = {}
    for e, c in poly.terms.items():
        t = target_ring.gauss(*c)
        for k, name in enumerate(ring.names):
            x = e[k]
            if x > 0:
                t = t * imgs[name] ** x
            elif x < 0:
                if name not in inv_cache:
                    inv_cache[name] = imgs[name].invert_monomial()
                t = t * inv_cache[name] ** (-x)
        out = out + t
    return out


def _map_exponents(poly, target_ring, imgs):
    """map_poly for images i**m_k * x**v_k (in source variable order): the
    term c * x**e goes to c * i**(sum e_k m_k) * x**(sum e_k v_k)."""
    parts = []
    for img in imgs:
        (v, c), = img.terms.items()
        parts.append(([(j, y) for j, y in enumerate(v) if y],
                      _I_POWERS.index(c)))
    width = len(target_ring.names)
    out = {}
    for e, (re, im) in poly.terms.items():
        vec = [0] * width
        turns = 0
        for x, (shift, m) in zip(e, parts):
            if x:
                for j, y in shift:
                    vec[j] += x * y
                turns += x * m
        a, b = _I_POWERS[turns % 4]
        key = tuple(vec)
        cur = out.get(key, (0, 0))
        out[key] = (cur[0] + re * a - im * b, cur[1] + re * b + im * a)
    out = {k: c for k, c in out.items() if c != (0, 0)}
    return _reduce_y(LaurentPoly(target_ring, out))


def divexact(num, den):
    """Exact division in a Y-free Laurent ring (raises if it does not divide).

    A numerator with Y-degree <= 1 is allowed when the divisor is Y-free;
    the two Y-components are divided separately.
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
    # division below terminates (lex order on N^k is a well-order).
    nvars = len(ring.names)
    nshift = [min(e[k] for e in num.terms) for k in range(nvars)]
    dshift = [min(e[k] for e in den.terms) for k in range(nvars)]
    mv = lambda t, s: tuple(x - y for x, y in zip(t, s))
    num = LaurentPoly(ring, {mv(e, nshift): c for e, c in num.terms.items()})
    den = LaurentPoly(ring, {mv(e, dshift): c for e, c in den.terms.items()})
    back = tuple(a - d for a, d in zip(nshift, dshift))
    cols = ring._sort_cols
    key = lambda e: tuple(e[k] for k in cols)
    de, (da, db) = den.leading()
    quo = {}
    rem = dict(num.terms)
    while rem:
        e = max(rem, key=key)
        a, b = rem[e]
        if any(x < y for x, y in zip(e, de)):
            raise RingError("exact division failed (remainder)")
        # coefficient division (a+bi)/(da+dbi) over Gaussian integers
        n = da * da + db * db
        qa, qb = (a * da + b * db), (b * da - a * db)
        if qa % n or qb % n:
            raise RingError("exact division failed (leading coefficient)")
        qa, qb = qa // n, qb // n
        qe = tuple(x - y for x, y in zip(e, de))
        quo[qe] = (qa, qb)
        for ee, (ca, cb) in den.terms.items():
            t = tuple(x + y for x, y in zip(qe, ee))
            re = qa * ca - qb * cb
            im = qa * cb + qb * ca
            c = rem.get(t, (0, 0))
            s = (c[0] - re, c[1] - im)
            if s == (0, 0):
                rem.pop(t, None)
            else:
                rem[t] = s
    return LaurentPoly(ring, {tuple(x + y for x, y in zip(e, back)): c
                              for e, c in quo.items()})
