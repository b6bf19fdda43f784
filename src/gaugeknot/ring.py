"""Exact multivariate Laurent-polynomial arithmetic over Gaussian integers.

A polynomial maps monomials to Gaussian-integer coefficients ``(a, b)`` =
a + b*i of Python ints.  Each monomial is stored as one packed int key: the
ring gives every variable a bit field, in its variable order (which follows
``MASTER_ORDER`` and is the display order) with the first variable in the
highest bits, so integer order is the order of exponent tuples.  A Laurent
exponent lies in [-2**16, 2**16) and is stored biased by 2**16 in a 32-bit
field whose top 15 bits are guard bits: a sum that leaves the range sets
them, and is refused with ``RingError`` instead of carrying into the next
field.  ``LaurentPoly.terms`` is a read-only view keyed by exponent tuples,
built on first read.

A ring may adjoin the square-root symbol ``Y`` with ``Y**2 = r`` for a
Y-free ``r``; every polynomial has Y-degree 0 or 1, because products fold
Y**2 into ``r``.  Y has a 2-bit field of its own.  Y is not a unit; the other
variables are Laurent variables.  The ring has no quotients: a
trigonometric R-matrix entry is kept as a numerator over one denominator
(``rmat.TRIG_DENOMINATOR``).  Evaluation values are ``CRat``s.
Half-integer powers of ``q`` live in ``Q`` (``q = Q**2``) and ``p``
(``p = q**(alpha + 1/2)``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType


# Display / sort order of every variable that can occur in any ring.
MASTER_ORDER = ("p", "Q", "Y", "Aa", "X", "Xv", "Ru", "Rv", "Su", "Sv")

#: Laurent exponents lie in [-EXP_BIAS, EXP_BIAS).
EXP_BIAS = 1 << 16
_FIELD_BITS = 32
_VALUE_MASK = 2 * EXP_BIAS - 1
_GUARD_BITS = ((1 << _FIELD_BITS) - 1) ^ _VALUE_MASK

#: ``map_poly`` image exponents lie in [-_IMAGE_LIMIT, _IMAGE_LIMIT).  A
#: target exponent then sums at most 9 source exponents times image
#: exponents, at most 9 * 2**28 in size, so one out of range sets its
#: field's guard bits and never wraps past them.
_IMAGE_LIMIT = 1 << 12

#: The Gaussian units, as i**0 .. i**3.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class RingError(ValueError):
    pass


class CRat:
    """Exact complex rational a + b*i with Fraction components.  Each part
    must be an int (not a bool) or a Fraction; anything else, a float or a
    string among them, raises RingError."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    def __add__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __sub__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        return CRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        return CRat(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        return CRat(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat((self.re * other.re + self.im * other.im) / n,
                    (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        other = _crat(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, k):
        if not self.im:
            # a real value: one Fraction power, exact for negative k too
            return CRat(self.re ** k)
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
        if other is NotImplemented:
            return other
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


def _part(x):
    """A CRat part as a Fraction; RingError unless an int or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise RingError(f"CRat parts are ints or Fractions, not {x!r}")


def _crat(x):
    """An arithmetic operand as a CRat, or NotImplemented unless it is a
    CRat, an int (not a bool) or a Fraction."""
    if isinstance(x, CRat):
        return x
    if type(x) is int or isinstance(x, Fraction):
        return CRat(x)
    return NotImplemented


class Ring:
    """A Laurent-polynomial ring whose variable tuple, and so every packed
    key's field order, follows MASTER_ORDER.

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
        # (shift, value mask, bias) per variable, the first one highest
        layout = []
        shift = 0
        for name in reversed(self.names):
            if name == "Y":
                layout.append((shift, 3, 0))
                shift += 2
            else:
                layout.append((shift, _VALUE_MASK, EXP_BIAS))
                shift += _FIELD_BITS
        self._layout = tuple(reversed(layout))
        self._bias = sum(b << s for s, _, b in self._layout)
        self._guard = sum(_GUARD_BITS << s for s, _, b in self._layout if b)
        # an image offset plus _image_bias sets _image_guard iff one of its
        # exponents lies outside [-_IMAGE_LIMIT, _IMAGE_LIMIT)
        self._image_bias = sum(_IMAGE_LIMIT << s for s, _, b in self._layout if b)
        self._image_guard = sum(((1 << _FIELD_BITS) - 2 * _IMAGE_LIMIT) << s
                                for s, _, b in self._layout if b)
        self._ys = None if self.y_index is None else self._layout[self.y_index][0]
        self.y_square = None
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {self._bias: (1, 0)})

    def set_y_square(self, poly):
        ys = self._ys
        if ys is None:
            raise RingError("ring has no Y symbol")
        if any((k >> ys) & 3 for k in poly._t):
            raise RingError("Y**2 rewrite must be Y-free")
        self.y_square = poly
        # Y**-2 * r as key offsets: a product's Y**2 terms times this land
        # at Y-degree 0
        self._y_fold = {k - self._bias - (2 << ys): c
                        for k, c in poly._t.items()}

    def _pack(self, exps):
        if exps and not -EXP_BIAS <= min(exps) <= max(exps) < EXP_BIAS:
            raise RingError(f"exponents {exps} leave "
                            f"[{-EXP_BIAS}, {EXP_BIAS - 1}]")
        key = self._bias
        for x, (s, _, _) in zip(exps, self._layout):
            if x:
                key += x << s
        return key

    def _unpack(self, key):
        return tuple(((key >> s) & m) - b for s, m, b in self._layout)

    def _check_keys(self, keys):
        """The OR of the keys; RingError if one's exponent left its range."""
        acc = reduce(or_, keys, 0)
        if acc & self._guard:
            raise RingError(f"exponent outside [{-EXP_BIAS}, {EXP_BIAS - 1}] "
                            f"in {self}")
        return acc

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: (re, im) or int} items;
        the parts and exponents must be ints (not bools), a Y exponent 0 or
        1 and a Laurent exponent in [-EXP_BIAS, EXP_BIAS)."""
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
                clean[self._pack(exps)] = c
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


def _mul_into(terms, a, b, bias):
    """Add the product of the packed term dicts ``a`` and ``b`` into
    ``terms``; ``bias`` is taken once off each key of the smaller one, so
    a product key is one int add."""
    if len(a) > len(b):
        a, b = b, a
    for e1, (x1, y1) in a.items():
        e1 -= bias
        for e2, (x2, y2) in b.items():
            e = e1 + e2
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
    """Immutable sparse Laurent polynomial over packed keys."""

    __slots__ = ("ring", "_t", "_view")

    def __init__(self, ring, terms):
        self.ring = ring
        self._t = terms
        self._view = None

    @property
    def terms(self):
        """Read-only {exponent tuple: coefficient} view, built on first
        read."""
        if self._view is None:
            unpack = self.ring._unpack
            self._view = MappingProxyType(
                {unpack(k): c for k, c in self._t.items()})
        return self._view

    def __len__(self):
        return len(self._t)

    def is_zero(self):
        return not self._t

    def is_one(self):
        return self._t == self.ring.one._t

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
        terms = dict(self._t)
        for e, (a, b) in other._t.items():
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
        return LaurentPoly(self.ring, {e: (-a, -b) for e, (a, b) in self._t.items()})

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
        terms = _mul_into({}, self._t, other._t, ring._bias)
        # one OR over the keys checks the guard bits and tells whether any
        # Y**2 term (Y field 2) needs folding
        acc = ring._check_keys(terms)
        ys = ring._ys
        if ys is not None and (acc >> ys) & 2:
            high = {k: terms.pop(k) for k in [k for k in terms
                                               if (k >> ys) & 3 == 2]}
            if ring.y_square is None:
                raise RingError("Y**2 rewrite relation not set for this ring")
            _mul_into(terms, high, ring._y_fold, 0)
            ring._check_keys(terms)
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
        return self.ring is other.ring and self._t == other._t

    def __hash__(self):
        return hash((id(self.ring), frozenset(self._t.items())))

    def leading(self):
        """(exponents, coeff) of the canonically-largest term."""
        if not self._t:
            raise RingError("zero polynomial has no leading term")
        k = max(self._t)
        return self.ring._unpack(k), self._t[k]

    def is_monomial(self):
        return len(self._t) == 1

    def invert_monomial(self):
        """Exact inverse of a Y-free single term with unit coefficient."""
        if len(self._t) != 1:
            raise RingError("not a monomial")
        (k, c), = self._t.items()
        ring = self.ring
        if c not in _I_POWERS or (ring._ys is not None and (k >> ring._ys) & 3):
            raise RingError(f"monomial {self} is not a unit")
        # each biased field v becomes 2*bias - v: no field borrows
        inv = {2 * ring._bias - k: _I_POWERS[-_I_POWERS.index(c)]}
        ring._check_keys(inv)
        return LaurentPoly(ring, inv)

    def coeff_of(self, name, power):
        """Polynomial coefficient of name**power (the variable is projected out)."""
        s, m, b = self.ring._layout[self.ring.index[name]]
        want = power + b
        drop = power << s
        return LaurentPoly(self.ring, {k - drop: c for k, c in self._t.items()
                                       if (k >> s) & m == want})

    def degree_in(self, name):
        """Max exponent of a variable, or None for the zero polynomial."""
        if not self._t:
            return None
        s, m, b = self.ring._layout[self.ring.index[name]]
        return max([(k >> s) & m for k in self._t]) - b

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
    if not poly._t:
        return "0"
    ring = poly.ring
    parts = []
    for k in sorted(poly._t, reverse=True):
        factors = [_coeff_str(poly._t[k])]
        for name, x in zip(ring.names, ring._unpack(k)):
            if x:
                factors.append(f"{name}^{x}")
        parts.append(" * ".join(factors))
    return " + ".join(parts).replace(" + -", " - ")


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


def evaluate(poly, assignment):
    """Exact evaluation of a polynomial at {name: CRat/Fraction/int} points;
    RingError for any other value, a float among them.

    A Y-ring requires a "Y" value whose square equals the evaluated rewrite
    relation.
    """
    ring = poly.ring
    vals = {}
    for name in ring.names:
        if name not in assignment:
            raise RingError(f"missing assignment for {name}")
        x = assignment[name]
        vals[name] = x if isinstance(x, CRat) else CRat(x)
    ys = ring._ys
    if ys is not None and any((k >> ys) & 3 for k in poly._t):
        y = vals["Y"]
        rel = evaluate(ring.y_square, dict(assignment, Y=0))
        if y * y != rel:
            raise RingError(f"inconsistent Y assignment: Y**2 = {y * y} != {rel}")
    # each variable's powers, computed once per call
    powers = [(vals[name], {}) for name in ring.names]
    out = CRat(0)
    for k, (a, b) in poly._t.items():
        t = CRat(a, b)
        for (v, seen), x in zip(powers, ring._unpack(k)):
            if x:
                pw = seen.get(x)
                if pw is None:
                    pw = seen[x] = v ** x
                t = t * pw
        out = out + t
    return out


def map_poly(poly, target_ring, images):
    """Ring morphism: send each source variable to a target polynomial.

    ``images`` maps every source variable name to a LaurentPoly of
    ``target_ring`` (or an int).  A Laurent variable's image must be a unit
    monomial, one Y-free term with coefficient 1, -1, i or -i, so exponents
    are mapped directly, as signed key offsets.  Y's image may be any
    polynomial whose square is the image of the rewrite relation: P0 + P1*Y
    goes to map(P0) + map(P1) * image(Y).  RingError if an image has an
    exponent outside [-4096, 4095] or a mapped exponent leaves
    [-EXP_BIAS, EXP_BIAS).
    """
    ring = poly.ring
    yk, tys = ring.y_index, target_ring._ys
    base = target_ring._bias    # a term's key before its moved variables
    keep = 0           # fields of the variables a same-ring map fixes
    parts = []         # per other source variable: (shift, key offset, i-turns)
    for k, name in enumerate(ring.names):
        if name not in images:
            raise RingError(f"missing image for {name}")
        img = images[name]
        if isinstance(img, int):
            img = target_ring.gauss(img)
        if k == yk:
            y_img = img
            continue
        v, c = next(iter(img._t.items()), (0, None))
        if (len(img._t) != 1 or c not in _I_POWERS
                or img.ring is not target_ring
                or (tys is not None and (v >> tys) & 3)):
            raise RingError(f"image of {name} is not a unit monomial of "
                            f"{target_ring}: {img}")
        s = ring._layout[k][0]
        v -= target_ring._bias
        if (v + target_ring._image_bias) & target_ring._image_guard:
            raise RingError(f"image of {name} has an exponent outside "
                            f"[{-_IMAGE_LIMIT}, {_IMAGE_LIMIT - 1}]: {img}")
        if target_ring is ring and v == 1 << s and c == (1, 0):
            keep |= _VALUE_MASK << s
            base -= EXP_BIAS << s
        elif v or c != (1, 0):
            parts.append((s, v, _I_POWERS.index(c)))
    ys = ring._ys
    mask, bias = _VALUE_MASK, EXP_BIAS
    outs = ({}, {})    # images of the terms without and with Y, Y dropped
    for k, (re, im) in poly._t.items():
        key = (k & keep) + base
        turns = 0
        for s, delta, m in parts:
            x = ((k >> s) & mask) - bias
            if x:
                key += x * delta
                turns += x * m
        a, b = _I_POWERS[turns % 4]
        out = outs[0 if ys is None else (k >> ys) & 1]
        cur = out.get(key, (0, 0))
        out[key] = (cur[0] + re * a - im * b, cur[1] + re * b + im * a)
    for out in outs:
        target_ring._check_keys(out)
    even, odd = (LaurentPoly(target_ring,
                             {k: c for k, c in out.items() if c != (0, 0)})
                 for out in outs)
    if not outs[1]:
        return even
    if y_img * y_img != map_poly(ring.y_square, target_ring, images):
        raise RingError("Y image inconsistent with the rewrite relation")
    return even + odd * y_img
