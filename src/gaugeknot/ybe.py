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

Each equation is decided on one triangle of its 64x64 matrices, when its
letters allow it.  Let E = LHS - RHS, and call an operator symmetric when
entry (a, b, c, d) equals entry (c, d, a, b): as a matrix on two sites it
equals its transpose, and so does each letter it gives on three strands.
A product's transpose is the product of the transposes in reverse order.

* QYBE: each side is a palindrome of one letter, so if R is symmetric
  each side equals its transpose, and so does E.
* TYBE: the left side applies R(v) on R12, R(u+v) on R23 and R(u) on R12.
  Let phi be the ring automorphism of TRIG that swaps X with Xv, Ru with
  Rv and Su with Sv and fixes Q, Y and Aa, so the Y**2 relation too.  If
  R has no Xv, Rv or Sv, then phi(R(u)) = R(v), phi(R(v)) = R(u) and
  phi(R(u+v)) = R(u+v).  The left side reversed is R(u), R(u+v), R(v) on
  the same positions, which is phi of the left side; with symmetric
  letters its transpose is therefore phi of it.  The same holds for the
  right side, so E's transpose is phi(E).

In both cases E[t, s] = 0 exactly when E[s, t] = 0 (phi is a ring
automorphism, the identity for the QYBE).  So the outputs t >= s of each input column s decide the
equation, and ``_compare`` reads only those (``rmat._columns``'s
``"triangle"``) when every letter also conserves the charge, which that
product needs.  Its report is the full comparison's too: the first
difference in the order (s, t) of the full matrices has t >= s, since a
difference at (s, t) with t < s would mirror one at (t, s), which comes
first.  Any other operator is compared in full.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import TRIG, map_poly
from .rmat import _columns


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


def _compare(ring, lhs, rhs, mirrored):
    """Compare two words on three strands column by column; a failure
    witness is (input column, output), the first difference in input and
    then output order.  Only the triangle is read when the caller's words
    are ``mirrored`` (each side reversed is its image under a ring
    automorphism once its letters are symmetric; see the module docstring)
    and every letter is symmetric and conserves the charge."""
    ops = {id(op): op for _, op in lhs + rhs}.values()
    triangle = mirrored and all(op.conserves_charge() and op == op.transpose()
                                for op in ops)
    outputs = "triangle" if triangle else "all"
    L, R = (dict(_columns(ring, 3, word, outputs)) for word in (lhs, rhs))
    for s in sorted(L.keys() | R.keys()):
        left, right = L.get(s, {}), R.get(s, {})
        for t in sorted(left.keys() | right.keys()):
            lv, rv = left.get(t), right.get(t)
            if lv is None or rv is None or lv != rv:
                return YBEReport(False, (s, t), lv, rv)
    return YBEReport(True)


def _qybe_sides(R):
    """Both sides as words, first letter applied first."""
    return [(2, R), (1, R), (2, R)], [(1, R), (2, R), (1, R)]


def verify_qybe(R):
    """Constant braid-form equation R12 R23 R12 = R23 R12 R23 (R with
    polynomial entries)."""
    return _compare(R.ring, *_qybe_sides(R), mirrored=True)


#: ``map_poly`` images over TRIG: u -> v sends X, Ru, Su to Xv, Rv, Sv,
#: u -> u + v sends them to X Xv, Ru Rv, Su Sv, and u = v = 0 sends all six
#: to 1; every other variable is fixed.
_V_IMAGES = {n: TRIG.var(n) for n in TRIG.names}
_V_IMAGES.update(X=TRIG.var("Xv"), Ru=TRIG.var("Rv"), Su=TRIG.var("Sv"))
_UV_IMAGES = {**_V_IMAGES, **{n: TRIG.var(n) * _V_IMAGES[n]
                              for n in ("X", "Ru", "Su")}}
_ZERO_IMAGES = {n: TRIG.one if n in ("X", "Ru", "Su", "Xv", "Rv", "Sv")
                else TRIG.var(n) for n in TRIG.names}


def _shift(op, images):
    return op.map_entries(lambda p: map_poly(p, op.ring, images))


def verify_tybe_additive(R):
    """Additive braid-form equation for a trigonometric operator in the
    u-variables X = q**u, Ru = r**u, Su = s**u, checked on its entries:
    numerators over a denominator that depends on u alone.

    R(v) is the substitution X -> Xv (etc.); R(u+v) multiplies the grids.
    """
    v_free = all(p.coeff_of(n, 0) == p for p in R.entries.values()
                 for n in ("Xv", "Rv", "Sv"))
    return _compare(R.ring, *_tybe_sides(R), mirrored=v_free)


def _tybe_sides(R):
    """Both sides of the cleared equation as words, first letter first."""
    Rv = _shift(R, _V_IMAGES)
    Ruv = _shift(R, _UV_IMAGES)
    return [(2, Rv), (1, Ruv), (2, R)], [(1, R), (2, Ruv), (1, Rv)]


def verify_gauge_properties(A, R):
    """Check the one-parameter gauge family A against an operator R:

    * multiplicativity A(u) A(v) = A(u+v), including the diagonal pattern
      diag = {1, a, b, a*b},
    * A(0) = I and A(u) A(-u) = I,
    * the two-site diagonal A_1(v) A_2(v) commutes with R.
    """
    def to_v(p):
        return map_poly(p, TRIG, _V_IMAGES)

    def to_uv(p):
        return map_poly(p, TRIG, _UV_IMAGES)

    def at_zero(p):
        return map_poly(p, TRIG, _ZERO_IMAGES)

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
