"""State-model evaluator for (1,1)-tangle invariants.

A model is a braid generator sigma = kappa * Rhat together with a diagonal
left handle C.  Letter k of a word on n strands is sigma (k > 0) or its
inverse on strands |k| and |k| + 1 of (C^4)^{x n}; rmat's one operator
product multiplies the letters with the first tensor slot on the higher
strand, so that closing every strand but the first with C turns the
single-loop identity (that closure of one letter on two strands)

    sum_c C[c] * sigma^{c a}_{c b} = delta^a_b

into invariance of the closure under Markov stabilization.

The closure reads, for input column s, the outputs that agree with s on
strands 2..n.  ``StateModel`` refuses a sigma or sigma^-1 that does not
conserve rmat's ``CHARGE``, the one check the closure rests on: the four
indices have four different charges, so such an output agrees with s on
strand 1 too, and the closed 4x4 matrix is diagonal by construction.
``tangle_invariant`` and ``verify_handle`` run the product closure-only: a
term is formed only if its state can still return to s through the nonzero
entries of the remaining letters, and a column that cannot return to s is
skipped.  ``represent`` gives the full product unless asked for
``closure_only``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .braid import closure_components, matveev_pair
from .ring import (CONST, LaurentPoly, QONLY, QUANTUM, RingError, map_poly,
                   sum_of_products)
from .rmat import SparseROp, _columns, invert, quantum_r


class EngineError(RingError):
    pass


#: Term budget for represent(): 8 GiB at 256 bytes per stored term, a term
#: being one monomial of an image (``len``).  Peak tracemalloc bytes of a
#: full represent() over its stored terms, each column's intermediate
#: terms held in one flat dict: 95-136 at 5,300-26,000 terms for case 1
#: ambient on a 14-letter 3-strand word, case 2 regular on 7_4 and on a
#: 12-letter 5-strand word, and case 2 ambient on 8_12, whose imaginary
#: monomials are one key each.  Smaller products read more, as one
#: column's passing states weigh more against few stored terms: 188-309 at
#: 1,500-10,300 terms (4-strand case 1 words of 5-9 letters, 5-strand
#: case 2 words of 6-10 letters), 336 at 244 and 544 at 26.  With one
#: polynomial per passing state the same inputs read 92-138 and 197-312.
#: At 136 bytes a term the budget is reached at about 4.6 GB, before 8 GiB.
DEFAULT_TERM_BUDGET = (8 * 2**30) // 256


@dataclass(frozen=True)
class StateModel:
    case: int
    isotopy: str
    sigma: SparseROp
    sigma_inv: SparseROp
    C: tuple          # 4 diagonal handle entries (LaurentPoly)
    kappa: LaurentPoly
    handle: tuple = None         # regular: the one-loop contraction diag
    scalar: LaurentPoly = None   # ambient: the scalar every knot gives

    def __post_init__(self):
        for name in ("sigma", "sigma_inv"):
            if not getattr(self, name).conserves_charge():
                raise EngineError(f"case {self.case} {self.isotopy}: {name} "
                                  f"does not conserve the charge")

    @property
    def ring(self):
        return self.sigma.ring


@dataclass
class TangleInvariant:
    matrix: list      # 4x4 of LaurentPoly, zero off the diagonal

    def diagonal(self):
        return [self.matrix[a][a] for a in range(4)]

    def scalar(self):
        """The scalar when the matrix is that multiple of the identity."""
        d = self.matrix[0][0]
        if any(x != d for x in self.diagonal()):
            raise EngineError("tangle invariant is not scalar")
        return d


def _scaled(R, kappa):
    kinv = kappa.invert_monomial()
    return R.scale(kappa), invert(R).scale(kinv)


@dataclass(frozen=True)
class ModelRow:
    """The data of one state model, built from the quantum R-matrix of its
    case.  ``images`` specializes p, Q and Y into the ring of ``kappa``
    (None keeps the quantum ring).  Regular rows state the one-loop
    contraction ``handle``; ambient rows may state the ``scalar`` every
    knot must give."""
    images: dict
    kappa: LaurentPoly
    C: tuple
    handle: tuple = None
    scalar: LaurentPoly = None


_m = QUANTUM.mono
_q = QONLY.mono

#: Every supported state model, keyed by (case, isotopy).
MODELS = {
    # The single-loop identity forces C = 1/p**2 * A for this kappa.
    (1, "ambient"): ModelRow(
        None, _m(1, p=-2, Q=2),
        (_m(1, p=-2, Q=2), _m(-1, p=-2, Q=2),
         _m(-1, p=-2, Q=-2), _m(1, p=-2, Q=-2))),
    # p = +1 branch; Y specializes to i(Q - 1/Q).
    (2, "ambient"): ModelRow(
        {"p": QONLY.one, "Q": QONLY.var("Q"),
         "Y": QONLY.gauss(0, 1) * (_q(1, Q=1) - _q(1, Q=-1))},
        _q(1, Q=1),
        (_q(1, Q=1), _q(-1, Q=1), _q(-1, Q=-1), _q(1, Q=-1))),
    # p = Q = +1 branch; everything is integer and every knot gives 1.
    (4, "ambient"): ModelRow(
        {"p": CONST.one, "Q": CONST.one, "Y": CONST.zero},
        CONST.one, (CONST.one, -CONST.one, -CONST.one, CONST.one),
        scalar=CONST.one),
    (2, "regular"): ModelRow(
        None, _m(1, p=-2, Q=1),
        (_m(1, p=-1, Q=1), _m(-1, p=-1, Q=1),
         _m(-1, p=-1, Q=-1), _m(1, p=-1, Q=-1)),
        handle=(_m(1, p=-1), _m(1, p=-1), _m(1, p=1), _m(1, p=1))),
    (3, "regular"): ModelRow(
        None, _m(1, p=-2),
        (QUANTUM.one, _m(1, Q=2), _m(1, Q=-2), QUANTUM.one),
        handle=(_m(1, p=-2), _m(-1, Q=-4), _m(-1, Q=-4), _m(1, p=2))),
}


def suite_isotopy(case):
    """The isotopy a case runs in the suite and the Matveev test: regular
    when the case has a regular row, else ambient."""
    for isotopy in ("regular", "ambient"):
        if (case, isotopy) in MODELS:
            return isotopy
    raise EngineError(f"unknown case {case}")


@lru_cache(maxsize=None)
def model(case, isotopy):
    """The state model of a MODELS row, with the row's handle and scalar,
    built on first use."""
    row = MODELS.get((case, isotopy))
    if row is None:
        raise EngineError(f"no {isotopy} model for case {case}")
    R = quantum_r(case)
    if row.images is not None:
        ring = row.kappa.ring
        R = R.map_entries(lambda v: map_poly(v, ring, row.images))
    sig, sig_inv = _scaled(R, row.kappa)
    return StateModel(case, isotopy, sig, sig_inv, row.C, row.kappa,
                      row.handle, row.scalar)


def _letters(word, sigma, sigma_inv):
    """The (pos, op) letters of a braid word for the operator product."""
    return [(abs(k), sigma if k > 0 else sigma_inv) for k in word.letters]


def _close(mod, columns):
    """Close every strand but the first with C: M[b][b] sums C[s[1]] ...
    C[s[n-1]] * image(s)[s] over input columns s with s[0] = b.  The
    entries off the diagonal are zero, as the model conserves the charge."""
    zero = mod.ring.zero
    pairs = [[] for _ in range(4)]
    for s, images in columns:
        v = images.get(s)
        if v is None:
            continue
        weight = mod.ring.one
        for c in s[1:]:
            weight = weight * mod.C[c - 1]
        pairs[s[0] - 1].append((weight, v))
    M = [[zero] * 4 for _ in range(4)]
    for b in range(4):
        if pairs[b]:
            M[b][b] = sum_of_products(pairs[b])
    return M


def verify_handle(mod):
    """Single-loop identity: ambient models contract to the identity for
    both crossing signs; regular models to their ``handle`` diagonal and
    its inverse (EngineError when a regular model states none)."""
    ring = mod.ring
    if mod.isotopy == "ambient":
        exp_plus = (ring.one,) * 4
    elif mod.handle is None:
        raise EngineError(f"no handle diagonal for {mod.case} {mod.isotopy}")
    else:
        exp_plus = mod.handle
    exp_minus = tuple(d.invert_monomial() for d in exp_plus)
    for op, expected in ((mod.sigma, exp_plus), (mod.sigma_inv, exp_minus)):
        T = _close(mod, _columns(ring, 2, [(1, op)], closure_only=True))
        if [T[a][a] for a in range(4)] != list(expected):
            return False
    return True


def represent(word, mod, term_budget=DEFAULT_TERM_BUDGET, closure_only=False):
    """Sparse representation of a braid word: a map from each input basis
    multi-index to its sparse image {output multi-index: coefficient}.

    With ``closure_only`` each image keeps only its output at the input
    column itself, the one output the (1,1)-closure reads, and columns
    without it are left out; the rest of the product is never computed.
    The term budget counts the terms of the images stored here, so in that
    mode only of the closure-read ones."""
    out = {}
    stored = 0
    letters = _letters(word, mod.sigma, mod.sigma_inv)
    for s, vec in _columns(mod.ring, word.strands, letters, closure_only):
        stored += sum(map(len, vec.values()))
        if stored > term_budget:
            raise EngineError(
                f"term budget exceeded: {stored} stored terms > budget "
                f"{term_budget} after input column {s} of braid '{word}', "
                f"case {mod.case} {mod.isotopy}")
        out[s] = vec
    return out


def tangle_invariant(word, mod, term_budget=DEFAULT_TERM_BUDGET):
    """Close all strands but the first with C and return the 4x4 matrix,
    from the closure-only images of the word."""
    if closure_components(word) != 1:
        raise EngineError(f"closure of {word} is not a knot")
    rep = represent(word, mod, term_budget, closure_only=True)
    return TangleInvariant(_close(mod, rep.items()))


def ambient_invariant(word, case, term_budget=DEFAULT_TERM_BUDGET):
    """The scalar of the (necessarily scalar) ambient 4x4 invariant."""
    return tangle_invariant(word, model(case, "ambient"), term_budget).scalar()


def matveev_test(mod):
    """Whether the model's representation separates the two 3-braids
    s1 s2^-1 s1 and s2 s1^-1 s2; a model failing this separates nothing."""
    w1, w2 = matveev_pair()
    return represent(w1, mod) != represent(w2, mod)
