"""Symbolic verification of the braid-form Yang-Baxter equations and the
gauge-transformation properties.

Each side is a word on three strands for rmat's one operator product, which
puts the first tensor slot on the higher strand: R12 is the letter at
position 2, R23 the letter at position 1.  A trigonometric operator's
entries are numerators over one polynomial N(u) that depends on u alone
(``rmat.TRIG_DENOMINATOR``), and the additive equation is verified on the
numerators: clearing N rescales both sides of

    R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u)

by the same factor N(u) N(u+v) N(v), so the cleared identity is equivalent
and purely polynomial.

Each equation is decided on one pair per orbit of two symmetries of its
64x64 matrices when its letters allow it, and in full otherwise.  Let
E = LHS - RHS, and write E[s, t] for its entry at input column s and
output t.

* T, the transpose.  Call an operator symmetric when entry (a, b, c, d)
  equals entry (c, d, a, b): as a matrix on two sites it equals its
  transpose, and so does each letter it gives on three strands.  A
  product's transpose is the product of the transposes in reverse order.
  QYBE: each side is a palindrome of one letter, so if R is symmetric each
  side equals its transpose, and so does E.  TYBE: the left side applies
  R(v) on R12, R(u+v) on R23 and R(u) on R12.  Let phi be the ring
  automorphism of TRIG that swaps X with Xv, Ru with Rv and Su with Sv and
  fixes p, Q and Y, so the Y**2 relation too.  If R has no Xv, Rv or Sv,
  then phi(R(u)) = R(v), phi(R(v)) = R(u) and phi(R(u+v)) = R(u+v).  The
  left side reversed is R(u), R(u+v), R(v) on the same positions, which
  is phi of the left side; with symmetric letters its transpose is
  therefore phi of it.  The same holds for the right side, so E's
  transpose is phi(E), and E[t, s] = 0 exactly when E[s, t] = 0.

* K, the reflection alpha -> -1 - alpha.  J swaps the indices 1 <-> 4
  and 2 <-> 3; PJ(op) is the operator whose entry (a, b, c, d) is op's
  (Jb, Ja, Jd, Jc); and phi' is the ring automorphism that sends p to 1/p
  (p = q**(alpha + 1/2) in QUANTUM and TRIG alike) and fixes every other
  variable.  The Y**2 relation is phi'-invariant, so phi' fixes Y
  (``SparseROp.mapped`` checks it once per map).  Say R reflects when
  PJ(R) = c phi'(R), c a unit monomial: +-1 times one without Y.  On
  three strands let K map the state (s1, s2, s3) to (Js3, Js2, Js1).  A
  letter at position pos sets strand pos from d to b and strand pos + 1
  from c to a with coefficient op[a, b, c, d]; conjugated by K it sets
  strand 3 - pos from Jc to Ja and strand 4 - pos from Jd to Jb with that
  coefficient, which is the letter (3 - pos, PJ(op)).  QYBE: with PJ(R) =
  c phi'(R), K LHS K^-1 = c**3 phi'(RHS) and K RHS K^-1 = c**3
  phi'(LHS), so K E K^-1 = -c**3 phi'(E).  TYBE: a shift S (u -> v or
  u -> u + v) is a ring morphism that maps X, Ru, Su into the u- and
  v-variables and fixes p, Q and Y, while phi' fixes every u- and
  v-variable, so S phi' and phi' S agree on every variable and are equal;
  both act on entries and PJ and the transpose move keys, so they commute
  too.  So if R reflects with c, each shifted letter S(R) reflects with
  S(c), a unit monomial, and it is symmetric and conserves the charge
  when R does: the premise needs checking on R alone.  A unit factor of
  a letter factors out of a product, so K LHS K^-1 is C times the word
  R(v), R(u+v), R(u) on positions 1, 2, 1 with phi' applied, C the
  product of the three letters' units, and that word is phi'(phi(RHS));
  likewise K RHS K^-1 = C phi'(phi(LHS)), so K E K^-1 = -C
  phi'(phi(E)).  Since (K M K^-1)[Ks, Kt] = M[s, t], in both cases
  E[Ks, Kt] = 0 exactly when E[s, t] = 0.

T and K are commuting involutions, so the orbit of (s, t) is {(s, t),
(t, s), (Ks, Kt), (Kt, Ks)}, and E vanishes on all of it or on none.
When R is symmetric, conserves the charge and reflects, ``_compare``
keeps, for each column s, the outputs t of its charge sector for which
(s, t) comes first of its orbit in (s, t) order (``_masks``): the orbit
domain.  It decides the equation, as it meets every orbit and E is zero
off the charge sectors.  Its report is the full comparison's too: the
first difference in (s, t) order of the full matrices comes first of its
orbit, which holds only differences, so it is kept, and the kept pairs
before it are zero in full.  Every kept pair has t >= s, (t, s) being in
its orbit.  The kept outputs need charge-conserving letters
(``rmat._columns``); any other operator, one that does not reflect, and
for the TYBE an R with Xv, Rv or Sv, is compared in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .ring import TRIG, RingError, _morphism
from .rmat import CHARGE, SparseROp, _columns, _sector_bits


@dataclass
class YBEReport:
    ok: bool
    witness: tuple = None
    lhs: object = None
    rhs: object = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "YBE verified"
        return (f"YBE failed at {self.witness}: "
                f"lhs = {self.lhs}, rhs = {self.rhs}")


def _compare(ring, lhs, rhs, keep):
    """Compare two words on three strands column by column, on the outputs
    ``keep`` of ``_columns`` that ``_outputs`` chose for them; a failure
    witness is (input column, output), the first difference in input and
    then output order."""
    L, R = (dict(_columns(ring, 3, word, keep)) for word in (lhs, rhs))
    for s in sorted(L.keys() | R.keys()):
        left, right = L.get(s, {}), R.get(s, {})
        for t in sorted(left.keys() | right.keys()):
            lv, rv = left.get(t), right.get(t)
            if lv is None or rv is None or lv != rv:
                return YBEReport(False, (s, t), lv, rv)
    return YBEReport(True)


def _outputs(R, mirrored):
    """The ``_columns`` masks ``_compare`` reads for the equation of R,
    whose sides the caller says are ``mirrored``: the orbit domain of T
    and K when R is symmetric, conserves the charge and reflects, and
    None, every output, otherwise (module docstring)."""
    if (mirrored and R.conserves_charge() and R.transpose() == R
            and _reflects(R)):
        return _masks(3)
    return None


def _reflects(R):
    """Whether PJ(R) = c phi'(R) for a unit monomial c (module docstring).
    c is read off the least terms of one entry, as multiplying by a unit
    monomial shifts every exponent tuple alike, and then every entry is
    compared."""
    ring = R.ring
    images = {n: ring.var(n) for n in ring.names}
    try:
        if "p" in ring.index:
            images["p"] = ring.var("p", -1)
        image = R.mapped(ring, images)
    except RingError:       # no such automorphism, or an exponent overflows
        return False
    pj = SparseROp(ring, {(5 - b, 5 - a, 5 - d, 5 - c): v
                          for (a, b, c, d), v in R.entries.items()})
    if pj == image:
        return True
    if pj.entries.keys() != image.entries.keys():
        return False
    k = min(pj.entries)
    (ea, ca), (eb, cb) = (min(op.entries[k].terms.items())
                          for op in (pj, image))
    exps = tuple(x - y for x, y in zip(ea, eb))
    if ca == cb:
        sign = 1
    elif ca == (-cb[0], -cb[1]):
        sign = -1
    else:
        return False
    if ring.y_index is not None and exps[ring.y_index]:
        return False
    return pj == image.scale(ring.poly({exps: sign}))


def _reflected(s):
    """K on a state: the strands in reverse order, each index by J."""
    return tuple(5 - x for x in reversed(s))


@lru_cache(maxsize=None)
def _masks(strands):
    """``_columns`` masks, bits numbered by ``rmat._sector_bits``: for
    each column s, the outputs t of its charge sector for which (s, t)
    comes first of its orbit of T and K in (s, t) order (module
    docstring)."""
    cols = list(product((1, 2, 3, 4), repeat=strands))
    sectors = {}
    for s, bit in zip(cols, _sector_bits(strands)):
        charge = tuple(map(sum, zip(*(CHARGE[x] for x in s))))
        sectors.setdefault(charge, []).append((s, bit))
    masks = {}
    for sector in sectors.values():
        for s, _ in sector:
            ks = _reflected(s)
            masks[s] = 0
            for t, bit in sector:
                kt = _reflected(t)
                if (s, t) <= min((t, s), (ks, kt), (kt, ks)):
                    masks[s] |= bit
    return tuple(masks[s] for s in cols)


def _qybe_sides(R):
    """Both sides as words, first letter applied first."""
    return [(2, R), (1, R), (2, R)], [(1, R), (2, R), (1, R)]


def verify_qybe(R):
    """Constant braid-form equation R12 R23 R12 = R23 R12 R23 (R with
    polynomial entries)."""
    return _compare(R.ring, *_qybe_sides(R), _outputs(R, mirrored=True))


#: Ring-morphism images over TRIG (``ring.map_poly``): u -> v sends X, Ru,
#: Su to Xv, Rv, Sv, u -> u + v sends them to X Xv, Ru Rv, Su Sv, and
#: u = v = 0 sends all six to 1; every other variable is fixed.
_V_IMAGES = {n: TRIG.var(n) for n in TRIG.names}
_V_IMAGES.update(X=TRIG.var("Xv"), Ru=TRIG.var("Rv"), Su=TRIG.var("Sv"))
_UV_IMAGES = {**_V_IMAGES, **{n: TRIG.var(n) * _V_IMAGES[n]
                              for n in ("X", "Ru", "Su")}}
_ZERO_IMAGES = {n: TRIG.one if n in ("X", "Ru", "Su", "Xv", "Rv", "Sv")
                else TRIG.var(n) for n in TRIG.names}


def verify_tybe_additive(R):
    """Additive braid-form equation for a trigonometric operator in the
    u-variables X = q**u, Ru = r**u, Su = s**u, checked on its entries:
    numerators over a denominator that depends on u alone.

    R(v) is the substitution X -> Xv (etc.); R(u+v) multiplies the grids.
    """
    v_free = all(p.coeff_of(n, 0) == p for p in R.entries.values()
                 for n in ("Xv", "Rv", "Sv"))
    return _compare(R.ring, *_tybe_sides(R), _outputs(R, v_free))


def _tybe_sides(R):
    """Both sides of the cleared equation as words, first letter first."""
    Rv = R.mapped(R.ring, _V_IMAGES)
    Ruv = R.mapped(R.ring, _UV_IMAGES)
    return [(2, Rv), (1, Ruv), (2, R)], [(1, R), (2, Ruv), (1, Rv)]


def verify_gauge_properties(A, R):
    """Check the one-parameter gauge family A against an operator R:

    * multiplicativity A(u) A(v) = A(u+v), including the diagonal pattern
      diag = {1, a, b, a*b},
    * A(0) = I and A(u) A(-u) = I,
    * the two-site diagonal A_1(v) A_2(v) commutes with R.
    """
    to_v, to_uv, at_zero = (_morphism(TRIG, TRIG, images) for images
                            in (_V_IMAGES, _UV_IMAGES, _ZERO_IMAGES))
    one = TRIG.one
    if A.diag[0] != one:
        return YBEReport(False, ("diag", 1), A.diag[0], one)
    want4 = A.diag[1] * A.diag[2]
    if A.diag[3] != want4:
        return YBEReport(False, ("diag", 4), A.diag[3], want4)
    for i, d in enumerate(A.diag, start=1):
        if d * to_v(d) != to_uv(d):
            return YBEReport(False, ("additive", i), d * to_v(d), to_uv(d))
        if at_zero(d) != one:
            return YBEReport(False, ("zero", i), at_zero(d), one)
        if d * d.invert_monomial() != one:
            return YBEReport(False, ("inverse", i), d * d.invert_monomial(),
                             one)
    av = tuple(to_v(d) for d in A.diag)
    for (a, b, c, d), v in R.entries.items():
        left = av[a - 1] * av[b - 1]
        right = av[c - 1] * av[d - 1]
        if left != right:
            return YBEReport(False, ("commutator", (a, b, c, d)), left, right)
    return YBEReport(True)
