"""Symbolic verification of the braid-form Yang-Baxter equations and the
gauge-transformation properties.

Three-site operators live on (C^4)^{x3}; keys are (row_triple, col_triple).
The additive (trigonometric) equation is verified after clearing every
denominator: multiplying all entries of R(u) by one common polynomial D(u)
rescales both sides of

    R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u)

by the same factor D(u) D(u+v) D(v), so the cleared identity is equivalent
and purely polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import RingError, divexact, map_poly
from .rmat import SparseROp


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


def embed(R, slot):
    """Embed a two-site operator into three sites, returned as
    {(rows, cols): value}.  slot is 12, 23 or 13 (13 is the 12-embedding
    conjugated by the flip of sites 2 and 3)."""
    if slot not in (12, 23, 13):
        raise RingError(f"slot must be 12, 23 or 13, not {slot}")
    out = {}
    for x in (1, 2, 3, 4):
        for (a, b, c, d), v in R.entries.items():
            if slot == 12:
                key = ((a, b, x), (c, d, x))
            elif slot == 23:
                key = ((x, a, b), (x, c, d))
            else:
                key = ((a, x, b), (c, x, d))
            out[key] = v
    return out


def _three_mul(A, B):
    bycol = {}
    for (r, c), v in A.items():
        bycol.setdefault(c, []).append((r, v))
    out = {}
    for (m, c), v in B.items():
        for (r, w) in bycol.get(m, ()):
            k = (r, c)
            prod = w * v
            cur = out.get(k)
            if cur is None:
                out[k] = prod
            else:
                s = cur + prod
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
    return out


def _compare(L, R):
    keys = set(L) | set(R)
    for k in sorted(keys):
        lv = L.get(k)
        rv = R.get(k)
        if lv is None or rv is None or lv != rv:
            return YBEReport(False, k, lv, rv)
    return YBEReport(True)


def verify_qybe(R):
    """Constant braid-form equation R12 R23 R12 = R23 R12 R23."""
    R12 = embed(R, 12)
    R23 = embed(R, 23)
    lhs = _three_mul(_three_mul(R12, R23), R12)
    rhs = _three_mul(_three_mul(R23, R12), R23)
    return _compare(lhs, rhs)


def _cleared(R):
    """Multiply every entry by one common multiple of the denominators,
    giving a purely polynomial operator proportional to R."""
    dens = {}
    for v in R.entries.values():
        dens[v.den.key()] = v.den
    ordered = sorted(dens.values(), key=lambda d: len(d.terms), reverse=True)
    D = ordered[0]
    for d in ordered[1:]:
        try:
            divexact(D, d)
        except RingError:
            D = D * d
    out = {k: divexact(v.num * D, v.den) for k, v in R.entries.items()}
    return SparseROp(R.ring, out)


def _v_images(ring):
    """u -> v: X, Ru, Su to Xv, Rv, Sv; every other variable fixed."""
    images = {n: ring.var(n) for n in ring.names}
    images.update(X=ring.var("Xv"), Ru=ring.var("Rv"), Su=ring.var("Sv"))
    return images


def _uv_images(ring):
    """u -> u + v: X, Ru, Su to X Xv, Ru Rv, Su Sv."""
    images = _v_images(ring)
    for n in ("X", "Ru", "Su"):
        images[n] = ring.var(n) * images[n]
    return images


def _shift(op, images):
    return op.map_entries(lambda p: map_poly(p, op.ring, images))


def verify_tybe_additive(R):
    """Additive braid-form equation for a trigonometric operator in the
    u-variables X = q**u, Ru = r**u, Su = s**u.

    R(v) is the substitution X -> Xv (etc.); R(u+v) multiplies the grids.
    """
    ring = R.ring
    P = _cleared(R)
    Pv = _shift(P, _v_images(ring))
    Puv = _shift(P, _uv_images(ring))
    A_u = embed(P, 12)
    A_v = embed(Pv, 12)
    A_uv = embed(Puv, 12)
    B_u = embed(P, 23)
    B_v = embed(Pv, 23)
    B_uv = embed(Puv, 23)
    lhs = _three_mul(_three_mul(A_u, B_uv), A_v)
    rhs = _three_mul(_three_mul(B_v, A_uv), B_u)
    return _compare(lhs, rhs)


def verify_gauge_properties(A, R):
    """Check the one-parameter gauge family A against an operator R:

    * multiplicativity A(u) A(v) = A(u+v), including the diagonal pattern
      diag = {1, a, b, a*b},
    * A(0) = I and A(u) A(-u) = I,
    * the two-site diagonal A_1(v) A_2(v) commutes with R.
    """
    ring = A.diag[0].ring
    v_images = _v_images(ring)
    uv_images = _uv_images(ring)

    def to_v(p):
        return map_poly(p, ring, v_images)

    def to_uv(p):
        return map_poly(p, ring, uv_images)

    def at_zero(p):
        images = {n: ring.var(n) for n in ring.names}
        images.update({n: ring.one for n in ("X", "Ru", "Su",
                                             "Xv", "Rv", "Sv")})
        return map_poly(p, ring, images)

    one = ring.one
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
