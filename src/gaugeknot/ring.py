"""Exact multivariate Laurent-polynomial arithmetic over Gaussian integers.

A polynomial maps monomials to Gaussian-integer coefficients a + b*i.  Each
term is stored under one packed int key with one int coefficient: the key's
lowest 2 bits are the field of i, so a + b*i is two terms, a under i**0 and
b under i**1, and a real polynomial stores one key per monomial.  Above it
the ring gives every variable a bit field, in its variable order (which
follows ``MASTER_ORDER`` and is the display order) with the first variable
in the highest bits, so integer order is the order of exponent tuples.  A
Laurent exponent lies in [-2**16, 2**16) and is stored biased by 2**16 in a
32-bit field whose top 15 bits are guard bits: a sum that leaves the range
sets them, and is refused with ``RingError`` instead of carrying into the
next field.  ``LaurentPoly.terms`` is a read-only view keyed by exponent
tuples, with ``(re, im)`` coefficients, built on first read.

A ring may adjoin the square-root symbol ``Y`` with ``Y**2 = r`` for a
Y-free ``r``, which it is built with; every polynomial has Y-degree 0 or
1, because products fold Y**2 into ``r``.  Y has a 2-bit field of its
own.  Products fold i**2 into -1 the same way, so the i field holds 0 or
1.  Y is not a unit; the other
variables are Laurent variables.  The ring has no quotients: a
trigonometric R-matrix entry is kept as a numerator over one denominator
(``rmat.TRIG_DENOMINATOR``).  ``cleared_values`` evaluates polynomials at
an exact point, rational but for Y, into Gaussian integers over one int
denominator.  Half-integer powers of ``q`` live in ``Q`` (``q = Q**2``)
and ``p`` (``p = q**(alpha + 1/2)``), so ``q**alpha = p/Q``: the quantum
and the trigonometric ring spell alpha alike, in ``p``, ``Q`` and ``Y``,
and share one Y**2 relation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType


# Display / sort order of every variable that can occur in any ring.
MASTER_ORDER = ("p", "Q", "Y", "X", "Xv", "Ru", "Rv", "Su", "Sv")

#: Laurent exponents lie in [-EXP_BIAS, EXP_BIAS).
EXP_BIAS = 1 << 16
_FIELD_BITS = 32
_VALUE_MASK = 2 * EXP_BIAS - 1
_GUARD_BITS = ((1 << _FIELD_BITS) - 1) ^ _VALUE_MASK

#: ``map_poly`` image exponents lie in [-_IMAGE_LIMIT, _IMAGE_LIMIT), read
#: off each image's unpacked exponents once per compiled map.  A target
#: exponent then sums at most 9 source exponents times image
#: exponents, at most 9 * 2**28 in size, so one out of range sets its
#: field's guard bits and never wraps past them.
_IMAGE_LIMIT = 1 << 12

#: Bits of the i field, the lowest of every key.
_I_BITS = 2


class RingError(ValueError):
    pass


class Ring:
    """A Laurent-polynomial ring whose variable tuple, and so every packed
    key's field order, follows MASTER_ORDER.

    A ring has ``"Y"`` among its names exactly when it is given
    ``y_square``, a function of the new ring that returns the Y-free
    polynomial Y**2 folds into; its polynomials then have Y-degree 0 or 1.
    The function is called before the ring folds Y**2, so a relation that
    has Y, a Y * Y among them, is refused with ``RingError``, as is Y
    without a relation or a relation without Y.
    """

    def __init__(self, names, y_square=None):
        self.names = tuple(names)
        if self.names != tuple(n for n in MASTER_ORDER if n in self.names):
            raise RingError(f"variables {self.names} are not distinct names "
                            f"in the order {MASTER_ORDER}")
        self.index = {n: k for k, n in enumerate(self.names)}
        self.y_index = self.index.get("Y")
        # (shift, value mask, bias) per variable, the first one highest,
        # above the i field
        layout = []
        shift = _I_BITS
        for name in reversed(self.names):
            if name == "Y":
                layout.append((shift, 3, 0))
                shift += 2
            else:
                layout.append((shift, _VALUE_MASK, EXP_BIAS))
                shift += _FIELD_BITS
        self._layout = tuple(reversed(layout))
        #: the key width: every key is below 1 << _width, so bits above it
        #: are free for ``rmat._columns`` to carry a braid state
        self._width = shift
        self._bias = sum(b << s for s, _, b in self._layout)
        self._guard = sum(_GUARD_BITS << s for s, _, b in self._layout if b)
        # the key bits of an out-of-range exponent or i**2; Y**2's join
        # them once the relation is set
        self._fold_bits = self._guard | 2
        self._ys = self.y_square = None
        self.zero = LaurentPoly(self, {})
        self.one = LaurentPoly(self, {self._bias: 1})
        if (y_square is None) != (self.y_index is None):
            raise RingError(f"a ring with variables {self.names} needs a Y**2 "
                            f"relation exactly when it has Y")
        if y_square is not None:
            ys = self._layout[self.y_index][0]
            r = y_square(self)
            if (not isinstance(r, LaurentPoly) or r.ring is not self
                    or any((k >> ys) & 3 for k in r._t)):
                raise RingError(f"Y**2 relation {r} is not a Y-free "
                                f"polynomial of {self}")
            self._ys, self.y_square = ys, r
            self._fold_bits |= 2 << ys
            # Y**-2 * r as key offsets: a product's Y**2 terms times this
            # land at Y-degree 0, and so do the Y-carrying deltas of the
            # operator product's tables
            self._y_fold = {k - self._bias - (2 << ys): c
                            for k, c in r._t.items()}

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
            raise self._range_error()
        return acc

    def _range_error(self):
        return RingError(f"exponent outside [{-EXP_BIAS}, {EXP_BIAS - 1}] "
                         f"in {self}")

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
            key = self._pack(exps)
            for part, x in enumerate(c):       # i field 0, then 1
                if x:
                    clean[key + part] = x
        return LaurentPoly(self, clean)

    def mono(self, coeff=1, **exps):
        """Single-term polynomial, e.g. ring.mono(-1, Q=2, p=-2)."""
        vec = [0] * len(self.names)
        for name, e in exps.items():
            vec[self._slot(name)] = e
        return self.poly({tuple(vec): coeff})

    def _slot(self, name):
        """The index of variable ``name``; RingError if the ring lacks it."""
        if name not in self.index:
            raise RingError(f"variable {name!r} not in ring {self.names}")
        return self.index[name]

    def gauss(self, re, im=0):
        return self.poly({(0,) * len(self.names): (re, im)})

    def var(self, name, power=1):
        return self.mono(1, **{name: power})

    def __repr__(self):
        return f"Ring{self.names}"


def _mul_into(terms, a, b, bias):
    """Add the product of the packed term dicts ``a`` and ``b`` into
    ``terms``, zero coefficients kept; ``bias`` is taken once off each key
    of the smaller one, so a product key is one int add."""
    if len(a) > len(b):
        a, b = b, a
    get = terms.get
    for e1, c1 in a.items():
        e1 -= bias
        for e2, c2 in b.items():
            e = e1 + e2
            terms[e] = get(e, 0) + c1 * c2


def _fold_i(terms):
    """Fold i**2 = -1: every term with i field 2 moves to i field 0,
    negated."""
    get = terms.get
    for k in [k for k in terms if k & 3 == 2]:
        c = terms.pop(k)
        terms[k - 2] = get(k - 2, 0) - c


def _nonzero(terms):
    """``terms`` with its zero coefficients deleted in place; every caller
    hands it a dict of its own."""
    if 0 in terms.values():
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
    return terms


def _folded(ring, terms):
    """A product's or a sum's term dict settled in place, and returned:
    zero coefficients deleted, RingError if an exponent left its range,
    else i**2 and Y**2 folded.  Every caller hands it a dict it has just
    built.  One OR over the keys finds guard bits, i**2 and Y**2 terms at
    once; it reads only the ring's ``_width`` low bits of a key, so keys
    may carry other data above them.  i**2 is folded before the Y**2 fold,
    whose offsets may carry i, and again after it, so that no field ever
    holds 4.  Of the package's callers only ``LaurentPoly.__mul__`` forms
    Y**2 terms: in an operator's one transition table a key that carries
    Y takes deltas with Y**2 already folded in
    (``rmat.SparseROp._transitions``), and the closure adds Y-free
    weights.  The operator product calls it after each letter only when
    the product needs it, a rule decided once per product
    (``rmat._columns``): when its letters' exponent bounds sum to
    ``EXP_BIAS`` or more, or a delta carries i."""
    _nonzero(terms)
    acc = reduce(or_, terms, 0)
    if not acc & ring._fold_bits:
        return terms
    if acc & ring._guard:
        raise ring._range_error()
    if acc & 2:
        _fold_i(terms)
    ys = ring._ys
    if ys is not None and (acc >> ys) & 2:
        high = {k: terms.pop(k) for k in [k for k in terms
                                           if (k >> ys) & 3 == 2]}
        _mul_into(terms, high, ring._y_fold, 0)
        _nonzero(terms)
        if ring._check_keys(terms) & 2:
            _fold_i(terms)
    return _nonzero(terms)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over packed keys."""

    __slots__ = ("ring", "_t", "_view")

    def __init__(self, ring, terms):
        self.ring = ring
        self._t = terms
        self._view = None

    @property
    def terms(self):
        """Read-only {exponent tuple: (re, im)} view, built on first
        read."""
        if self._view is None:
            unpack = self.ring._unpack
            view = {}
            for k, c in self._t.items():
                e = unpack(k)
                re, im = view.get(e, (0, 0))
                view[e] = (re, im + c) if k & 1 else (re + c, im)
            self._view = MappingProxyType(view)
        return self._view

    def __len__(self):
        """The number of monomials; a complex one is two keys."""
        t = self._t
        return len(t) - len([k for k in t if k & 1 and k ^ 1 in t])

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
        get = terms.get
        for e, c in other._t.items():
            terms[e] = get(e, 0) + c
        return LaurentPoly(self.ring, _nonzero(terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.ring, {e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        other = self._check(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        terms = {}
        _mul_into(terms, self._t, other._t, self.ring._bias)
        return LaurentPoly(self.ring, _folded(self.ring, terms))

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

    def is_monomial(self):
        return len(self) == 1

    def invert_monomial(self):
        """Exact inverse of a Y-free single term with unit coefficient:
        1, -1, i or -i."""
        if len(self._t) != 1:
            raise RingError("not a monomial")
        (k, c), = self._t.items()
        ring = self.ring
        if c not in (1, -1) or (ring._ys is not None and (k >> ring._ys) & 3):
            raise RingError(f"monomial {self} is not a unit")
        # each biased field v becomes 2*bias - v: no field borrows; the
        # i field stays, and 1/i = -i
        f = k & 3
        inv = {2 * ring._bias - k + 2 * f: -c if f else c}
        ring._check_keys(inv)
        return LaurentPoly(ring, inv)

    def coeff_of(self, name, power):
        """Polynomial coefficient of name**power (the variable is projected
        out); RingError if the ring has no variable ``name``."""
        s, m, b = self.ring._layout[self.ring._slot(name)]
        want = power + b
        drop = power << s
        return LaurentPoly(self.ring, {k - drop: c for k, c in self._t.items()
                                       if (k >> s) & m == want})

    def degree_in(self, name):
        """Max exponent of a variable, or None for the zero polynomial;
        RingError if the ring has no variable ``name``."""
        s, m, b = self.ring._layout[self.ring._slot(name)]
        if not self._t:
            return None
        return max([(k >> s) & m for k in self._t]) - b

    def __str__(self):
        return canonical_str(self)

    __repr__ = __str__


def _coeff_str(a, b):
    if b == 0:
        return str(a)
    sign = "+" if b >= 0 else "-"
    return f"({a}{sign}{abs(b)}i)"


def canonical_str(poly):
    """Deterministic text form: terms in descending exponent order, each
    monomial's i**0 and i**1 keys merged into one coefficient."""
    t = poly._t
    if not t:
        return "0"
    ring = poly.ring
    parts = []
    for k in sorted(t, reverse=True):
        if k & 1:
            factors = [_coeff_str(t.get(k ^ 1, 0), t[k])]
        elif k | 1 in t:
            continue        # merged into its i**1 key, met just before
        else:
            factors = [_coeff_str(t[k], 0)]
        for name, x in zip(ring.names, ring._unpack(k)):
            if x:
                factors.append(f"{name}^{x}")
        parts.append(" * ".join(factors))
    return " + ".join(parts).replace(" + -", " - ")


# ---------------------------------------------------------------------------
# The two standard rings.

def _y_square(r):
    """Y**2 = p**2 + p**-2 - Q**2 - Q**-2 = (p/Q - Q/p)(pQ - 1/(pQ)), with
    p = q**(alpha + 1/2) and Q = q**(1/2): the bracket product
    [alpha][1 + alpha] times (q - 1/q)**2."""
    return (r.mono(1, p=2) + r.mono(1, p=-2)
            - r.mono(1, Q=2) - r.mono(1, Q=-2))


#: Quantum regime: p = q**(alpha+1/2), Q = q**(1/2).
QUANTUM = Ring(("p", "Q", "Y"), _y_square)

#: Trigonometric regime: the quantum ring's p, Q and Y, and X = q**u,
#: Xv = q**v, Ru = r**u, etc.
TRIG = Ring(("p", "Q", "Y", "X", "Xv", "Ru", "Rv", "Su", "Sv"), _y_square)

#: One-variable reduction used by the gauge-2 ambient model (p set to 1).
QONLY = Ring(("Q",))

#: Constant ring for the gauge-4 ambient model (p = Q = 1).
CONST = Ring(())


def _rational(name, x):
    """``x`` as (numerator, denominator > 0); RingError unless x is an int
    (not a bool) or a Fraction."""
    if type(x) is int or isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise RingError(f"value {x!r} of {name} is not an int or a Fraction")


def cleared_values(polys, point):
    """The values of polynomials of one ring at an exact point, over one
    denominator: ``(F, values)``, F a positive int and ``values`` the
    Gaussian integers F * f(point) as ``(re, im)`` int pairs, one per f.

    ``point`` maps each variable of the ring to its value (other names are
    ignored): a Laurent variable to a nonzero int or Fraction, Y to an int
    or Fraction, zero included, or a Gaussian rational ``(re, im)`` of them,
    whose square must be ``y_square`` at the point when some term has Y.
    RingError for a missing variable, a zero Laurent value, any other value
    (a float, bool, str or complex among them) or an inconsistent Y.

    No Fraction is formed per term.  A Laurent value a/b (b > 0) whose
    exponents lie in [lo, hi], the range the polynomials use widened to hold
    0, puts b**hi * |a|**-lo into F and gives exponent e the int
    +-a**(e - lo) * b**(hi - e), which is F's factor times (a/b)**e; a Y
    value (c + d*i)/g puts g into F and gives Y**0 the int g and Y**1
    c + d*i.  A term is its coefficient times one entry of each table.
    """
    polys = list(polys)
    if not polys:
        return 1, []
    ring = polys[0].ring
    for f in polys:
        if f.ring is not ring:
            raise RingError(f"variable-set mismatch: {ring} vs {f.ring}")
    keys = {k for f in polys for k in f._t}
    F = 1
    tables = []        # (shift, mask, {field value: int}) per Laurent variable
    y = None           # (g, c, d) when some term has Y
    for name, (s, m, bias) in zip(ring.names, ring._layout):
        if name not in point:
            raise RingError(f"missing value for {name}")
        x = point[name]
        fields = {(k >> s) & m for k in keys}
        if name == "Y":
            re, im = x if isinstance(x, tuple) and len(x) == 2 else (x, 0)
            (c, cg), (d, dg) = _rational(name, re), _rational(name, im)
            g = math.lcm(cg, dg)
            if 1 in fields:
                y = (g, c * (g // cg), d * (g // dg))
                F *= g
            continue
        a, b = _rational(name, x)
        if a == 0:
            raise RingError(f"value 0 of the Laurent variable {name}")
        lo = min(min(fields, default=bias) - bias, 0)
        hi = max(max(fields, default=bias) - bias, 0)
        if lo == hi:
            continue
        sign = -1 if a < 0 and lo % 2 else 1
        F *= b ** hi * abs(a) ** -lo
        tables.append((s, m, {v: sign * a ** (v - bias - lo)
                              * b ** (hi + bias - v) for v in fields}))
    if y is not None:
        _check_y(ring, point, y)
    ys = ring._ys
    out = []
    for f in polys:
        re = im = 0
        for k, c in f._t.items():
            for s, m, table in tables:
                c *= table[(k >> s) & m]
            if y is None:
                u, w = c, 0
            elif (k >> ys) & 1:
                u, w = c * y[1], c * y[2]
            else:
                u, w = c * y[0], 0
            if k & 1:          # times i
                re, im = re - w, im + u
            else:
                re, im = re + u, im + w
        out.append((re, im))
    return F, out


def _check_y(ring, point, y):
    """RingError unless Y = (c + d*i)/g, ``y = (g, c, d)``, squares to the
    ring's ``y_square`` at the point."""
    g, c, d = y
    f, ((r, s),) = cleared_values([ring.y_square], point)
    # (c + d*i)**2 / g**2 == (r + s*i) / f
    if ((c * c - d * d) * f, 2 * c * d * f) != (r * g * g, s * g * g):
        raise RingError(
            f"inconsistent Y value: Y**2 = {Fraction(c * c - d * d, g * g)} "
            f"+ {Fraction(2 * c * d, g * g)}*i, but the rewrite relation "
            f"gives {Fraction(r, f)} + {Fraction(s, f)}*i")


def map_poly(poly, target_ring, images):
    """Ring morphism: send each source variable to a target polynomial.

    ``images`` maps every source variable name to a LaurentPoly of
    ``target_ring`` (or an int).  A Laurent variable's image must be a unit
    monomial, one Y-free term with coefficient 1, -1, i or -i, so exponents
    are mapped directly, as signed key offsets, and the unit as a count of
    quarter turns.  Y's image may be any polynomial whose square is the
    image of the rewrite relation: P0 + P1*Y goes to map(P0) + map(P1) *
    image(Y).  RingError if an image has an exponent outside
    [-_IMAGE_LIMIT, _IMAGE_LIMIT - 1] = [-4096, 4095] or a mapped exponent
    leaves [-EXP_BIAS, EXP_BIAS).  The morphism is compiled for this one
    call; ``_morphism`` compiles one for many polynomials, as
    ``rmat.SparseROp.mapped`` does for every entry of an operator.
    """
    return _morphism(poly.ring, target_ring, images)(poly)


def _morphism(source, target, images):
    """The ring morphism of ``map_poly`` from ``source`` to ``target``,
    compiled: the images are checked and turned into key offsets here,
    once, and the function returned maps one polynomial of ``source``.
    It checks Y's image against the rewrite relation at the first
    polynomial with a Y term and remembers the check only once it passed,
    so a failed check is made again at the next such polynomial."""
    yk, ys, tys = source.y_index, source._ys, target._ys
    base = target._bias    # a term's key before its moved variables
    keep = 0           # fields of the variables a same-ring map fixes
    parts = []         # per other source variable: (shift, offset, i-turns)
    for k, name in enumerate(source.names):
        if name not in images:
            raise RingError(f"missing image for {name}")
        img = images[name]
        if isinstance(img, int):
            img = target.gauss(img)
        if k == yk:
            y_img = img
            continue
        v, c = next(iter(img._t.items()), (0, None))
        if (len(img._t) != 1 or c not in (1, -1)
                or img.ring is not target
                or (tys is not None and (v >> tys) & 3)):
            raise RingError(f"image of {name} is not a unit monomial of "
                            f"{target}: {img}")
        if not all(-_IMAGE_LIMIT <= x < _IMAGE_LIMIT
                   for x in target._unpack(v)):
            raise RingError(f"image of {name} has an exponent outside "
                            f"[{-_IMAGE_LIMIT}, {_IMAGE_LIMIT - 1}]: {img}")
        s = source._layout[k][0]
        turns = (v & 3) + 1 - c     # the image's unit is i**turns
        v -= (v & 3) + target._bias
        if target is source and v == 1 << s and not turns:
            keep |= _VALUE_MASK << s
            base -= EXP_BIAS << s
        elif v or turns:
            parts.append((s, v, turns))
    y_checked = False

    def apply(poly):
        nonlocal y_checked
        poly = source.zero._check(poly)     # RingError from another ring
        outs = ({}, {})    # images of the terms without and with Y, Y dropped
        for k, c in poly._t.items():
            key = (k & keep) + base
            turns = k & 3
            for s, delta, m in parts:
                x = ((k >> s) & _VALUE_MASK) - EXP_BIAS
                if x:
                    key += x * delta
                    turns += x * m
            # i**turns: the i field takes turns mod 2, the sign turns
            # mod 4 // 2
            key += turns & 1
            out = outs[0 if ys is None else (k >> ys) & 1]
            out[key] = out.get(key, 0) + (-c if turns & 2 else c)
        target._check_keys([*outs[0], *outs[1]])
        even, odd = (LaurentPoly(target, _nonzero(out)) for out in outs)
        if not outs[1]:
            return even
        if not y_checked and y_img * y_img != apply(source.y_square):
            raise RingError("Y image inconsistent with the rewrite relation")
        y_checked = True
        return even + odd * y_img

    return apply
