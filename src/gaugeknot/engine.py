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
strand 1 too, and the closed 4x4 matrix is diagonal.  The invariant is
therefore its four diagonal entries.  ``closure`` and ``verify_handle``
run the product closure-only, keeping each column's own output (the
masks ``rmat._sector_bits``), which takes charge-conserving letters
only: a term is formed only if its state can still return to s through
the nonzero entries of the remaining letters, and a column that cannot
return to s is skipped.  ``represent`` gives the full product unless
asked for ``closure_only``.  Every product stops at ``TERM_BUDGET``
stored terms; no call takes a budget of its own.

The work of that product depends on the word, not only on the knot.  An
ambient model's invariant is one of the knot: the single-loop identity
makes it unchanged by Markov stabilization, and all (1,1)-closures of
conjugate knot braids are the same long knot.  So for an ambient model
``tangle_invariant`` first closes fewer letters and strands.
``braid.reduce_knot_word`` cancels k against a later -k when every letter
between them commutes with k (sigma_i sigma_j = sigma_j sigma_i for
|i - j| >= 2, a braid relation); it does the same across the end of the
word, which is a conjugation; and it drops a generator of the top or the
bottom strand that occurs once, which is a conjugation (at the bottom, by
the half twist) followed by a Markov destabilization.  The pruning is
strongest near the ends of the word, so a rotation of the same word can
form far fewer terms; of the reduced word it closes the rotation that
``cheapest_rotation`` picks from the letters alone.  A regular model
closes the word it is given: its closed matrix is a non-scalar diagonal
that stabilization multiplies by the handle, and nothing proves it
unchanged by conjugation.  ``represent`` is the product, and ``closure``
the closed tangle, of the word it is given, whatever the model; ``closure``
takes a link too, which ``tangle_invariant`` refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import and_, or_

from .braid import (BraidWord, closure_components, matveev_pair,
                    reduce_knot_word)
from .ring import CONST, LaurentPoly, QONLY, QUANTUM, RingError, _folded
from .rmat import SparseROp, _columns, _sector_bits, invert, quantum_r


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
TERM_BUDGET = (8 * 2**30) // 256

#: The most strands represent() runs.  The product builds per-state tables
#: of 4**n entries before the term budget can fire, and the closure's
#: backward pass holds one bitset per state whose size grows with its
#: charge sector, so memory grows faster than 4**n.  Peak RSS of case 2
#: regular on s1 s2 ... s(n-1), in a fresh process (2-vCPU machine, Python
#: 3.11): 23 MB at 7 strands, 67 MB at 8, 551 MB at 9, 1.7 s.  Every table
#: word has at most 5 strands.
MAX_ENGINE_STRANDS = 8


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
        for a, c in enumerate(self.C, start=1):
            if c.ring is not self.ring or len(c._t) != 1 or min(c._t) & 3:
                raise EngineError(f"case {self.case} {self.isotopy}: C[{a}] "
                                  f"= {c} is not one term of {self.ring} "
                                  f"with a real int coefficient")

    @property
    def ring(self):
        return self.sigma.ring


@dataclass(frozen=True)
class TangleInvariant:
    """The closed (1,1)-tangle: the four diagonal entries of a 4x4 matrix
    that is zero off the diagonal (see the module docstring)."""
    entries: tuple    # 4 LaurentPoly

    def scalar(self):
        """The scalar when the matrix is that multiple of the identity."""
        d = self.entries[0]
        if any(x != d for x in self.entries):
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
        R = R.mapped(row.kappa.ring, row.images)
    sig, sig_inv = _scaled(R, row.kappa)
    return StateModel(case, isotopy, sig, sig_inv, row.C, row.kappa,
                      row.handle, row.scalar)


def _letters(word, sigma, sigma_inv):
    """The (pos, op) letters of a braid word for the operator product."""
    return [(abs(k), sigma if k > 0 else sigma_inv) for k in word.letters]


def _close(mod, columns):
    """Close every strand but the first with C: the four diagonal entries
    M[b][b], each the sum of C[s[1]] ... C[s[n-1]] * image(s)[s] over input
    columns s with s[0] = b.  Each C entry is one real term
    (``StateModel``), so a column's weight is one key offset and one int:
    it is added to the keys of the image, into one term dict per entry,
    which ``ring._folded`` settles and range-checks once.  The entries off
    the diagonal are zero, as the model conserves the charge."""
    ring = mod.ring
    weights = [(k - ring._bias, x) for c in mod.C for k, x in c._t.items()]
    sums = [{} for _ in range(4)]
    for s, images in columns:
        v = images.get(s)
        if v is None:
            continue
        offset, w = 0, 1
        for c in s[1:]:
            k, x = weights[c - 1]
            offset += k
            w *= x
        terms = sums[s[0] - 1]
        get = terms.get
        for k, x in v._t.items():
            k += offset
            terms[k] = get(k, 0) + x * w
    return tuple(LaurentPoly(ring, _folded(ring, t)) for t in sums)


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
    return all(_close(mod, _columns(ring, 2, [(1, op)], _sector_bits(2)))
               == expected
               for op, expected in ((mod.sigma, exp_plus),
                                    (mod.sigma_inv, exp_minus)))


def represent(word, mod, closure_only=False):
    """Sparse representation of a braid word: a map from each input basis
    multi-index to its sparse image {output multi-index: coefficient}.

    With ``closure_only`` each image keeps only its output at the input
    column itself, the one output the (1,1)-closure reads, and columns
    without it are left out; the rest of the product is never computed.
    ``TERM_BUDGET`` counts the terms of the images stored here, so in that
    mode only of the closure-read ones.  A word on more than
    ``MAX_ENGINE_STRANDS`` strands is refused before any work."""
    if word.strands > MAX_ENGINE_STRANDS:
        raise EngineError(
            f"braid '{word}' has {word.strands} strands, more than "
            f"MAX_ENGINE_STRANDS = {MAX_ENGINE_STRANDS}, case {mod.case} "
            f"{mod.isotopy}")
    out = {}
    stored = 0
    letters = _letters(word, mod.sigma, mod.sigma_inv)
    keep = _sector_bits(word.strands) if closure_only else None
    for s, vec in _columns(mod.ring, word.strands, letters, keep):
        stored += sum(map(len, vec.values()))
        if stored > TERM_BUDGET:
            raise EngineError(
                f"term budget exceeded: {stored} stored terms > budget "
                f"{TERM_BUDGET} after input column {s} of braid '{word}', "
                f"case {mod.case} {mod.isotopy}")
        out[s] = vec
    return out


def cheapest_rotation(word):
    """The rotation of ``word`` that the closure-only product is predicted
    to form the fewest terms for; ``word`` itself on a tie.  The prediction
    reads the letters only: a cut after j letters of a rotation costs
    4**c, c the number of strands that both its first j letters and the
    rest touch (the strands whose states may still differ from the input
    column there), and a rotation costs the sum over its cuts.  Words of
    fewer than 3 letters are returned as they are."""
    letters = word.letters
    n = len(letters)
    if n < 3:
        return word
    masks = [3 << abs(k) for k in letters]
    costs = []
    for r in range(n):
        rot = masks[r:] + masks[:r]
        before = accumulate(rot[:-1], or_)
        after = list(accumulate(reversed(rot[1:]), or_))[::-1]
        costs.append(sum(map(pow, repeat(4), map(int.bit_count,
                                                 map(and_, before, after)))))
    r = costs.index(min(costs))
    if r == 0:
        return word
    return BraidWord(word.strands, letters[r:] + letters[:r])


def _closure(word, mod):
    """The closed (1,1)-tangle of ``word`` as given: the closure-only
    product, then the closure sum."""
    rep = represent(word, mod, closure_only=True)
    return TangleInvariant(_close(mod, rep.items()))


def closure(word, mod):
    """The closed (1,1)-tangle of ``word`` exactly as given, whatever the
    model and however many components its closure has: no reduction or
    rotation and no knot check, within ``TERM_BUDGET`` as every product.
    ``tangle_invariant`` closes a knot word the same way, once it has
    picked the word an ambient model closes."""
    return _closure(word, mod)


def tangle_invariant(word, mod):
    """The closed (1,1)-tangle of a knot word: ``closure`` of the word
    itself for a regular model.  An ambient model closes
    ``cheapest_rotation(reduce_knot_word(word))`` instead, which has the
    same knot as closure, and an error raised while that word runs names
    both words (see the module docstring)."""
    if closure_components(word) != 1:
        raise EngineError(f"closure of {word} is not a knot")
    if mod.isotopy == "ambient":
        run = cheapest_rotation(reduce_knot_word(word))
    else:
        run = word
    try:
        return _closure(run, mod)
    except RingError as exc:
        if run is word:
            raise
        raise type(exc)(f"{exc}; braid '{run}' is the word closed for the "
                        f"given braid '{word}'") from exc


def ambient_invariant(word, case):
    """The scalar of the (necessarily scalar) ambient invariant."""
    return tangle_invariant(word, model(case, "ambient")).scalar()


def matveev_test(mod):
    """Whether the model's representation separates the two 3-braids
    s1 s2^-1 s1 and s2 s1^-1 s2; a model failing this separates nothing."""
    w1, w2 = matveev_pair()
    return represent(w1, mod) != represent(w2, mod)
