"""Construction of the gauge-parametrized trigonometric R-matrix, its spectral
limits, and the four constant quantum R-matrices.

Operators act on a two-site space (C^4 tensor C^4).  An entry stored under the
key ``(a, b, c, d)`` is the coefficient of the matrix unit ``e^{ab}_{cd}``
sending ``|c,d>`` to ``|a,b>``.  Every entry is a polynomial: a trigonometric
operator stores numerators over one denominator, ``TRIG_DENOMINATOR``, which
depends on u alone.  All entries conserve ``CHARGE``, the pair
(grading weight, n(2) - n(3)) summed over both sites, so each operator is
block-diagonal in the 9 charge sectors; ``invert`` and the eigen checks
work one sector at a time.  The eigen checks evaluate the operator's
matrix M and the claimed eigenvalues at exact sample points straight into
Gaussian integers (``ring.cleared_values``) and run on the sector blocks
of D*M, D the least common denominator of M, stored as ``(re, im)`` int
pairs, from end to end: characteristic polynomials by the
Faddeev-LeVerrier recursion, root multiplicities and squarefree parts by
one fraction-free pseudo-division, and kernel dimensions by fraction-free
elimination.  The four indices have four different charges, so in a
product of such operators a state that agrees with its input on
all strands but one agrees on all.

Products of operators on many strands run through one kernel,
``_columns``.  It keeps a column's vector as one flat term dict whose keys
carry the braid state above the ring's monomial key (``state << S |
monomial``, S = ``Ring._width``), so that each term of an operator entry
acts as one additive key delta that sets two strands and multiplies the
monomials at once.  Every letter looks a key's deltas up in one
transition table of its operator, by the key's input bits and, when the
operator has a Y-carrying term, its Y bit: a key that carries Y takes
deltas in which each Y-carrying term is already multiplied out by the
ring's Y**2 relation, so no letter forms a Y**2 term.  The exponent range
is proven once per product: each operator bounds how far one letter moves
an exponent, and when its letters' bounds sum below ``ring.EXP_BIAS`` and
no delta carries i, a letter only drops a column's cancelled terms.
Otherwise every column folds i**2 and is range-checked after every
letter.  Its caller may keep only some outputs, one mask of them per
input column: each column's own output for the (1,1)-closure, one pair
per orbit of two symmetries for a Yang-Baxter comparison.  It then forms
only the terms whose state can still reach a kept output through the
nonzero entries of the remaining letters, found by one backward pass of
bitsets over the letters, numbered within charge sectors, so a pruned
product takes charge-conserving operators only.
The transition tables, the bounds and the backward pass's slice plans are
built once per operator and kept on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from operator import or_
from types import MappingProxyType

from .ring import (EXP_BIAS, LaurentPoly, QUANTUM, RingError, TRIG, _folded,
                   _morphism, _nonzero, cleared_values, map_poly)

#: (weight, n(2) - n(3)) of each index: the charge every operator conserves.
CHARGE = {1: (0, 0), 2: (1, 1), 3: (1, -1), 4: (2, 0)}

#: Exact rational sample points (p, Q, y, sign) with
#: p**2 + p**-2 - Q**2 - Q**-2 equal to +y**2 (sign +1, Y = y) or
#: -y**2 (sign -1, Y = i*y).
SAMPLE_POINTS = [
    (Fraction(3, 5), Fraction(25, 39), Fraction(176, 325), 1),
    (Fraction(3, 14), Fraction(7, 26), Fraction(110, 39), 1),
    (Fraction(1, 9), Fraction(9, 17), Fraction(448, 51), 1),
    (Fraction(3, 14), Fraction(6, 17), Fraction(440, 119), 1),
    (Fraction(1, 18), Fraction(6, 13), Fraction(2090, 117), 1),
    (Fraction(3, 5), Fraction(29, 37), Fraction(15232, 16095), 1),
    (Fraction(1, 13), Fraction(5, 37), Fraction(25704, 2405), 1),
    (Fraction(3, 14), Fraction(15, 29), Fraction(8569, 2030), 1),
    (Fraction(1, 4), Fraction(33, 4), Fraction(238, 33), -1),
    (Fraction(1, 4), Fraction(32, 7), Fraction(495, 224), -1),
    (Fraction(3, 11), Fraction(33, 4), Fraction(325, 44), -1),
    (Fraction(1, 9), Fraction(5, 37), Fraction(8528, 1665), 1),
]

#: The usable ``SAMPLE_POINTS`` rows ``eigen_check`` needs, and how many of
#: the first rows ``eigenvector_deficiency`` reads.  Both checks read these
#: and ``SAMPLE_POINTS`` at each call.
EIGEN_POINTS = 5
DEFICIENCY_POINTS = 3


#: The charge of each two-site basis state |a,b>, keyed by (a, b).
_PAIR_CHARGE = {(a, b): tuple(x + y for x, y in zip(CHARGE[a], CHARGE[b]))
                for a in CHARGE for b in CHARGE}


class SparseROp:
    """Sparse two-site operator over a Laurent ring.  Its ``entries`` are a
    read-only view: ``_columns`` keeps transition tables, the bound of a
    letter's moves and ``_reach`` slice plans on it, ``quantum_r`` keeps
    one operator per index, and every operation returns a new operator.
    ``mapped`` sends every entry through one ring morphism, compiled once
    for the operator; ``scale`` multiplies every entry by one factor."""

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = MappingProxyType(
            {k: v for k, v in entries.items() if not v.is_zero()})
        self._tables = {}
        self._plans = {}

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SparseROp):
            return NotImplemented
        return self.entries == other.entries

    def get(self, a, b, c, d):
        return self.entries.get((a, b, c, d), self.ring.zero)

    def mapped(self, target, images):
        """The operator over ``target`` whose entries are this one's under
        the ring morphism ``images`` defines (``ring.map_poly``), compiled
        once for every entry."""
        fn = _morphism(self.ring, target, images)
        return SparseROp(target, {k: fn(v) for k, v in self.entries.items()})

    def scale(self, s):
        return SparseROp(self.ring, {k: v * s
                                     for k, v in self.entries.items()})

    def conserves_charge(self):
        return all(_PAIR_CHARGE[a, b] == _PAIR_CHARGE[c, d]
                   for (a, b, c, d) in self.entries)

    def transpose(self):
        """The operator with entry (a, b, c, d) = this one's (c, d, a, b)."""
        return SparseROp(self.ring, {(c, d, a, b): v for (a, b, c, d), v
                                     in self.entries.items()})

    def sorted_items(self):
        return sorted(self.entries.items())

    def _transitions(self, shift):
        """The operator on the two strands whose state bits start at
        ``shift``, as additive deltas of packed column keys (see
        ``_columns``): ``(table, mask)``.  ``table`` maps ``key & mask`` to
        the ``(delta, coeff)`` pairs of every term of every entry from that
        key's input bits (d, c), grouped by output as ``(xor, pairs)``,
        ``xor`` turning the input state into the output one.

        ``mask`` is ``15 << shift + S``, S the ring's key width, and holds
        the Y bit too when the operator folds Y: some entry term carries Y.
        Then a key with Y has its own lists, in which each Y-carrying term
        is multiplied out by ``ring._y_fold`` (Y**-2 * r as key offsets),
        so through it the key lands at Y-degree 0 and no Y**2 key is
        formed.  Every list has i**2 folded, its pairs merged by delta and
        its zeros dropped.  Built on the first call for a ``shift`` and
        kept on the operator.

        The first build also keeps two facts on the operator, the same at
        every shift.  ``_bound`` is the largest |exponent| of a Laurent
        variable that one of its letters adds to a key: its entries', plus
        the Y**2 relation's when a Y-carrying term is folded.  ``_settle``
        says whether its letters need ``ring._folded`` after each letter
        anyway: some delta carries i, so i**2 can form."""
        table = self._tables.get(shift)
        if table is not None:
            return table
        ring = self.ring
        up = shift + ring._width
        ybit = 0 if ring._ys is None else 1 << ring._ys
        keys = [k for v in self.entries.values() for k in v._t]
        fold = any(k & ybit for k in keys)
        ybits = (0, ybit) if fold else (0,)
        by_key = {g << up | yk: {} for g in range(16) for yk in ybits}
        for (a, b, c, d), v in self.entries.items():
            if v.ring is not ring:
                raise RingError(f"variable-set mismatch: {ring} vs {v.ring}")
            bits_in = (d - 1) << 2 | (c - 1)
            bits_out = (b - 1) << 2 | (a - 1)
            move = ((bits_out - bits_in) << up) - ring._bias
            xor = (bits_in ^ bits_out) << shift
            for yk in ybits:     # the Y bit of a key
                pairs = by_key[bits_in << up | yk].setdefault(xor, {})
                for k, x in v._t.items():
                    for f, y in ring._y_fold.items() if k & yk else ((0, 1),):
                        e = move + k + f
                        if e & 2:       # i**2 = -1
                            e, y = e - 2, -y
                        pairs[e] = pairs.get(e, 0) + x * y
        table = {key: [(xor, [(e, x) for e, x in pairs.items() if x])
                       for xor, pairs in by_out.items()]
                 for key, by_out in by_key.items()}
        if not self._tables:
            self._bound = _largest_exponent(ring, keys) + (
                _largest_exponent(ring, ring.y_square._t) if fold else 0)
            self._settle = any(d & 1 for by_out in table.values()
                               for _, pairs in by_out for d, _ in pairs)
        table = self._tables[shift] = (table, 15 << up | (ybit if fold else 0))
        return table

    def _plan(self, strands, shift):
        """The plan of ``_reach``'s pass through the operator on
        ``strands`` strands, acting on the two whose state bits start at
        ``shift``: for each input group of ``_groups`` that has a nonzero
        entry, ``(target, first, rest)`` slices of the list of states:
        states of the group, and the states their first and other outputs
        turn them into, so that a target's set is the OR of its outputs'
        sets.  A group's outputs are read from the transition table under
        its key without Y, ``g << shift + S``.  RingError unless the
        operator conserves the charge, which ``_reach``'s numbering of
        bits within charge sectors needs.  Built on the first call for a
        ``(strands, shift)`` and kept on the operator."""
        plan = self._plans.get((strands, shift))
        if plan is not None:
            return plan
        if not self.conserves_charge():
            raise RingError("a pruned product (one mask of kept outputs "
                            "per column) needs operators that conserve the "
                            "charge (weight, n(2) - n(3))")
        table = self._transitions(shift)[0]
        up = shift + self.ring._width
        groups = _groups(strands, shift)
        slices = []
        for g in range(16):
            by_out = table[g << up]
            if by_out:
                outs = [groups[g ^ (xor >> shift)] for xor, _ in by_out]
                slices.extend((target, first, tuple(rest))
                              for target, first, *rest
                              in zip(groups[g], *outs))
        self._plans[strands, shift] = slices
        return slices

    def __repr__(self):
        return f"SparseROp({len(self.entries)} entries over {self.ring})"


@lru_cache(maxsize=None)
def _sector_bits(strands):
    """``1 << i`` for each state of ``strands`` strands, in lexicographic
    order, i its index among the states of its charge.  The charges are
    built strand by strand: a state's is that of its first indices plus the
    ``CHARGE`` of its last."""
    qs = [(0, 0)]
    for _ in range(strands):
        qs = [(w + x, m + y) for w, m in qs for x, y in CHARGE.values()]
    seen = {}       # a counter of the states met so far, per charge
    return tuple(1 << next(seen.setdefault(q, count())) for q in qs)


@lru_cache(maxsize=None)
def _groups(strands, shift):
    """The states of ``strands`` strands split by their 4 bits at
    ``shift``: for each value of those bits, a tuple of slices of the
    lexicographic list of states, of equal lengths and in the same order
    of the other bits for all 16 values.  The slices are strided runs when
    that makes fewer of them, else contiguous ones."""
    n = 4 ** strands
    size = 1 << shift
    stride = size << 4
    if size * stride <= n:
        return tuple(tuple(slice(g * size + lo, n, stride)
                           for lo in range(size)) for g in range(16))
    return tuple(tuple(slice(h + g * size, h + g * size + size)
                       for h in range(0, n, stride)) for g in range(16))


def _reach(strands, letters):
    """The backward pass of a pruned product over ``(pos, op)``
    letters: ``reach[j][t]`` is the set of the states that state t after
    letter j can still reach through the nonzero entries of the later
    letters, as an int with one bit per state; ``reach[-1][t]`` is the bit
    of t.  The bits are numbered within the charge sector of each state
    (``_sector_bits``), which no letter leaves.  A letter's sets are ORs
    of the next letter's, taken slice by slice as its operator's plan
    lists them (``SparseROp._plan``, RingError for an operator that does
    not conserve the charge); equal sets are one int."""
    plans = [op._plan(strands, _shift(strands, pos)) for pos, op in letters]
    nxt = _sector_bits(strands)
    reach = [nxt]
    seen = {}
    for slices in reversed(plans):
        cur = [0] * len(nxt)
        for target, first, rest in slices:
            acc = nxt[first]
            if rest:
                for sl in rest:
                    acc = list(map(or_, acc, nxt[sl]))
                acc = list(map(seen.setdefault, acc, acc))
            cur[target] = acc
        reach.append(cur)
        nxt = cur
    reach.reverse()
    return reach


def _shift(strands, pos):
    """The shift of the state bits of strands ``pos`` and ``pos + 1``."""
    return 2 * (strands - 1 - pos)


def _largest_exponent(ring, keys):
    """The largest |exponent| of a Laurent variable among packed keys."""
    fields = [(s, m, b) for s, m, b in ring._layout if b]
    return max((abs(((k >> s) & m) - b) for k in keys for s, m, b in fields),
               default=0)


def _columns(ring, strands, letters, keep=None):
    """The one operator product: push every basis column of
    (C^4)^{x strands} through ``letters``, ``(pos, op)`` pairs applied first
    to last, ``op`` (polynomial entries of ``ring``; RingError for another
    ring) acting on strands ``pos`` and ``pos + 1`` with its first tensor
    slot on the higher strand.  Yields ``(input, {output: coeff})`` for
    each nonzero column in lexicographic order, outputs in lexicographic
    order too.

    Inside, a column's vector is one flat dict ``{key: int}``.  A key is
    ``state << S | monomial key``, S the ring's key width (``Ring._width``)
    and the state 2 bits per strand, index - 1, strand 1 in the highest
    bits: so column s is its own index in the lexicographic list of
    columns, which turns it back into a tuple.  One term of an entry
    moves a key by one additive delta, ``((bits_out - bits_in) << (shift +
    S)) + (entry key - bias)``, which sets the letter's two strands and
    multiplies the monomials at once.  A letter is therefore one loop over
    the column's terms, each looking up its deltas in the operator's one
    transition table (``SparseROp._transitions``, kept on the operator) by
    ``key & mask``: its 4-bit strand group, and its Y bit when the
    operator folds Y.  For a key with Y, each Y-carrying term's delta is
    then already multiplied out by the Y**2 relation, so the product lands
    at Y-degree 0 and no Y**2 key is formed.  Then the column's cancelled
    terms are deleted.  Whether each letter is also range-checked,
    with the fold of i**2 (``ring._folded``), is decided once per product:
    it is not when the operators' bounds sum below ``EXP_BIAS`` and no
    delta carries i, since no key can then leave its range or form i**2.
    At the end of a column its keys are split by state into polynomials.

    ``keep`` says which outputs t of each input column s are kept: None
    for every output, the full product, or a tuple of one int mask per
    column, in the lexicographic order of the columns, of bits numbered as
    ``_sector_bits`` numbers states: the outputs t of s's charge sector
    whose bits are set in s's mask (ValueError for a tuple of another
    length).  The (1,1)-closure passes ``_sector_bits(strands)``, each
    column's own bit, and a Yang-Baxter comparison (``ybe``) one pair per
    orbit of two symmetries.

    Masks prune.  One backward pass over the letters (``_reach``) gives,
    after each letter, the set of states each state can still reach
    through nonzero entries of the later letters, as bits numbered
    lexicographically within each charge sector (``_sector_bits``).  A
    column whose reach after no letter meets its mask is skipped, and a
    term is formed only if its output state's reach does:
    a term's deltas are taken one output at a time, and an output's only
    if that holds.  A term left out would reach a kept output only through
    a zero entry, so the images kept are exactly those of the full
    product.  Masks take operators that conserve the charge only,
    RingError otherwise, since a state never leaves its sector there; the
    full product takes any operator and runs the same loop, every state
    reaching the one bit of every column.
    """
    if keep is not None and len(keep) != 4 ** strands:
        raise ValueError(f"{len(keep)} output masks for "
                         f"{4 ** strands} columns")
    # Per letter, its transition table and mask.
    width = ring._width
    steps = []
    for pos, op in letters:
        if op.ring is not ring:
            raise RingError(f"variable-set mismatch: {ring} vs {op.ring}")
        steps.append(op._transitions(_shift(strands, pos)))
    # whether each letter is settled: the rule of the docstring
    settle = (sum(op._bound for _, op in letters) >= EXP_BIAS
              or any(op._settle for _, op in letters))
    cols = list(product((1, 2, 3, 4), repeat=strands))
    if keep is None:
        # every state reaches every column, whose bit is 1: the full
        # product passes every output
        reach = [[1] * len(cols)] * (len(steps) + 1)
        keep = reach[-1]
    else:
        reach = _reach(strands, letters)
    after = reach[1:]       # per letter, the sets after it
    low = (1 << width) - 1
    for s, (start, want) in enumerate(zip(reach[0], keep)):
        if not start & want:
            continue
        vec = {s << width | ring._bias: 1}
        for nxt, (table, mask) in zip(after, steps):
            new = {}
            get = new.get
            for k, c in vec.items():
                t = k >> width
                for xor, pairs in table[k & mask]:
                    if nxt[t ^ xor] & want:
                        for d, x in pairs:
                            e = k + d
                            new[e] = get(e, 0) + c * x
            # Unless the bounds prove the product's range (see the
            # docstring), the range check runs once per letter, before the
            # state bits are read again: an entry's exponents and those of
            # the Y**2 relation folded into a delta are in range, so one
            # letter moves a field by less than 2**18.  A field pushed up
            # sets its 15 guard bits and stays within its 32 bits; one
            # pushed down borrows through them, setting them all, and may
            # decrement the field above it, or the state bits above the top
            # field.  Either way its guard bits are set, and the RingError
            # comes before any state is read or yielded.
            vec = _folded(ring, new) if settle else _nonzero(new)
            if not vec:
                break
        if not vec:
            continue
        images = {}
        for k, c in vec.items():
            t = k >> width
            terms = images.get(t)
            if terms is None:
                images[t] = {k & low: c}
            else:
                terms[k & low] = c
        yield cols[s], {cols[t]: LaurentPoly(ring, images[t])
                        for t in sorted(images)}


def identity_op(ring):
    one = ring.one
    return SparseROp(ring, {(a, b, a, b): one
                            for a in range(1, 5) for b in range(1, 5)})


# ---------------------------------------------------------------------------
# Trigonometric operators.

def _n(const, alpha, u):
    """n(x) = q**x - q**-x for x = const + alpha*a + u*u, in TRIG (q = Q**2,
    q**a = p/Q, X = q**u)."""
    top = TRIG.mono(1, p=alpha, Q=2 * const - alpha, X=u)
    return top - top.invert_monomial()


#: N(u) = n(alpha - u) n(1 + alpha - u): every trigonometric entry is a
#: numerator over this one denominator, which depends on u alone.
TRIG_DENOMINATOR = _n(0, 1, -1) * _n(1, 1, -1)


def _trig_table(gauged):
    """The 36 numerators over TRIG_DENOMINATOR; gauge monomials dropped when
    gauged=False.  With [x] = n(x)/n(1), each is the paper's entry times N,
    so the brackets' factors 1/n(1) cancel."""
    R = TRIG
    m = R.mono
    g = lambda **kw: m(1, **kw) if gauged else R.one
    nA, n1A = _n(0, 1, 0), _n(1, 1, 0)         # n(alpha), n(1 + alpha)
    nAp, n1Ap = _n(0, 1, 1), _n(1, 1, 1)       # n(alpha + u), n(1 + alpha + u)
    n1Am = _n(1, 1, -1)                        # n(1 + alpha - u)
    nu, n1mu = _n(0, 0, 1), _n(1, 0, -1)       # n(u), n(1 - u)
    delta = _n(1, 0, 0)                        # q - 1/q

    ent = {}
    ent[(1, 1, 1, 1)] = TRIG_DENOMINATOR
    ent[(2, 2, 2, 2)] = nAp * n1Am             # [alpha+u] / [alpha-u]
    ent[(3, 3, 3, 3)] = nAp * n1Am
    ent[(4, 4, 4, 4)] = nAp * n1Ap

    gA = nA * n1Am                             # [alpha] / [alpha-u]
    ent[(1, 2, 1, 2)] = gA * (g(Ru=1) * m(1, X=-1))
    ent[(1, 3, 1, 3)] = gA * (g(Su=1) * m(1, X=-1))
    ent[(2, 1, 2, 1)] = gA * (g(Ru=-1) * m(1, X=1))
    ent[(3, 1, 3, 1)] = gA * (g(Su=-1) * m(1, X=1))

    gAA = nA * n1A
    ent[(1, 4, 1, 4)] = gAA * (g(Ru=1) * g(Su=1) * m(1, X=-2))
    ent[(4, 1, 4, 1)] = gAA * (g(Ru=-1) * g(Su=-1) * m(1, X=2))

    # f(q) / N and f(1/q) / N, with f(q) = q**(1+2a) + q**-(1+2a) - 2q
    # + q**(2u) (q - 1/q) and q**(1+2a) = p**2
    fq = -2 * m(1, Q=2) + m(1, X=2) * delta + m(1, p=2) + m(1, p=-2)
    fqb = -2 * m(1, Q=-2) - m(1, X=-2) * delta + m(1, p=2) + m(1, p=-2)
    ent[(2, 3, 2, 3)] = fqb * (g(Ru=-1) * g(Su=1))
    ent[(3, 2, 3, 2)] = fq * (g(Ru=1) * g(Su=-1))

    g1A = n1A * nAp
    ent[(2, 4, 2, 4)] = g1A * (g(Su=1) * m(1, X=-1))
    ent[(3, 4, 3, 4)] = g1A * (g(Ru=1) * m(1, X=-1))
    ent[(4, 2, 4, 2)] = g1A * (g(Su=-1) * m(1, X=1))
    ent[(4, 3, 4, 3)] = g1A * (g(Ru=-1) * m(1, X=1))

    swap1 = -(nu * n1Am)                       # -[u] / [alpha-u]
    for k in ((1, 2, 2, 1), (1, 3, 3, 1), (2, 1, 1, 2), (3, 1, 1, 3)):
        ent[k] = swap1

    far = -(n1mu * nu)
    ent[(1, 4, 4, 1)] = far
    ent[(4, 1, 1, 4)] = far

    mid = -(nu * nu)
    ent[(2, 3, 3, 2)] = mid
    ent[(3, 2, 2, 3)] = mid

    swap2 = nu * nAp
    for k in ((2, 4, 4, 2), (3, 4, 4, 3), (4, 2, 2, 4), (4, 3, 3, 4)):
        ent[k] = swap2

    # [alpha]^(1/2) [1+alpha]^(1/2) = Y / n(1)
    gy = R.var("Y") * nu
    t1 = gy * (g(Ru=1) * m(1, X=-1, Q=1))
    t2 = -(gy * (g(Ru=-1) * m(1, X=1, Q=-1)))
    t3 = gy * (g(Su=-1) * m(1, X=1, Q=1))
    t4 = -(gy * (g(Su=1) * m(1, X=-1, Q=-1)))
    ent[(1, 4, 3, 2)] = t1
    ent[(3, 2, 1, 4)] = t1
    ent[(4, 1, 2, 3)] = t2
    ent[(2, 3, 4, 1)] = t2
    ent[(3, 2, 4, 1)] = t3
    ent[(4, 1, 3, 2)] = t3
    ent[(2, 3, 1, 4)] = t4
    ent[(1, 4, 2, 3)] = t4
    return ent


def build_trig_gauged():
    """The 36-component trigonometric braid operator with gauge monomials
    Ru = r**u and Su = s**u, as numerators over TRIG_DENOMINATOR."""
    return SparseROp(TRIG, _trig_table(gauged=True))


def build_trig_gauge_free():
    """The r = s = 1 trigonometric braid operator, as numerators over
    TRIG_DENOMINATOR."""
    return SparseROp(TRIG, _trig_table(gauged=False))


# ---------------------------------------------------------------------------
# Gauge matrices and cases.

@dataclass(frozen=True)
class GaugeMatrix:
    """Diagonal one-site gauge A(u) = diag of four monomials of TRIG."""

    diag: tuple

    def __post_init__(self):
        if len(self.diag) != 4:
            raise RingError("gauge diagonal must have 4 entries")
        for d in self.diag:
            if not d.is_monomial():
                raise RingError("gauge entries must be monomials")

    @staticmethod
    def standard():
        """diag{1, r**u, s**u, r**u s**u}."""
        m = TRIG.mono
        return GaugeMatrix((TRIG.one, m(1, Ru=1), m(1, Su=1), m(1, Ru=1, Su=1)))

    @staticmethod
    def identity():
        return GaugeMatrix((TRIG.one,) * 4)

    def inverse(self):
        """A(-u): every exponent negated."""
        return GaugeMatrix(tuple(d.invert_monomial() for d in self.diag))


@dataclass(frozen=True)
class GaugeCase:
    """Gauge choice i with r**u = X**ru_exp and s**u = X**su_exp (X = q**u)."""

    index: int
    ru_exp: Fraction
    su_exp: Fraction

    @staticmethod
    def standard(index, gamma=Fraction(1, 2)):
        """Case ``index`` (an int, not a bool); case 4 takes ``gamma``, an
        int or a Fraction, with 0 < gamma < 1.  RingError otherwise."""
        if type(index) is not int:
            raise RingError(f"gauge case index {index!r} is not an int")
        if type(gamma) is not int and not isinstance(gamma, Fraction):
            raise RingError(f"gamma {gamma!r} is not an int or a Fraction")
        table = {
            1: (Fraction(0), Fraction(0)),
            2: (Fraction(0), Fraction(1)),
            3: (Fraction(1), Fraction(1)),
            4: (Fraction(gamma), 2 - Fraction(gamma)),
        }
        if index not in table:
            raise RingError(f"no gauge case {index}")
        if index == 4 and not (0 < gamma < 1):
            raise RingError(f"case 4 requires 0 < gamma < 1, not {gamma}")
        return GaugeCase(index, *table[index])


def apply_gauge(R, A):
    """Conjugate a trigonometric braid operator by the diagonal gauge.

    The component at e^{ij}_{kl} picks up A(u)[j] * A(-u)[k].
    """
    Ainv = A.inverse()
    out = {}
    for (i, j, k, l), v in R.entries.items():
        out[(i, j, k, l)] = v * (A.diag[j - 1] * Ainv.diag[k - 1])
    return SparseROp(R.ring, out)


# ---------------------------------------------------------------------------
# Spectral limit and the hand-transcribed quantum operators.

def spectral_limit(R, case):
    """The formal X -> infinity limit of a trigonometric operator whose
    entries are numerators over TRIG_DENOMINATOR, under a case's (Ru, Su)
    substitution, expressed over the quantum ring {p, Q, Y}.

    An entry's limit is its numerator's X-leading coefficient over N's.
    N's maps to a unit monomial, so the limit is a product with its
    inverse; an entry of lower X-degree than N tends to 0, and one of
    higher X-degree raises RingError."""
    op, den, _ = substitute_case(R, case)
    dd = den.degree_in("X")
    inv = _to_quantum(den.coeff_of("X", dd)).invert_monomial()
    out = {}
    for key, num in op.entries.items():
        dn = num.degree_in("X")
        if dn < dd:
            continue
        if dn > dd:
            raise RingError(f"divergent spectral limit at {key} "
                            f"(X-degree {dn} > {dd})")
        out[key] = _to_quantum(num.coeff_of("X", dn)) * inv
    return SparseROp(QUANTUM, out)


def substitute_case(R, case):
    """A trigonometric operator's numerators and TRIG_DENOMINATOR under a
    case's substitution, as ``(numerators, denominator, scale)``: the X
    grid is refined by ``scale``, the least int that makes the case's
    exponents integers, so X -> X**scale, Ru -> X**(ru_exp * scale) and
    Su -> X**(su_exp * scale)."""
    scale = math.lcm(Fraction(case.ru_exp).denominator,
                     Fraction(case.su_exp).denominator)
    images = _case_images(R.ring, case, scale)
    return (R.mapped(R.ring, images),
            map_poly(TRIG_DENOMINATOR, R.ring, images), scale)


def _case_images(ring, case, scale):
    """``map_poly`` images that refine the X grid by ``scale`` and fold Ru,
    Su into X powers."""
    images = {name: ring.var(name) for name in ring.names}
    for name, exp in (("X", 1), ("Ru", case.ru_exp), ("Su", case.su_exp)):
        x = Fraction(exp) * scale
        if x.denominator != 1:
            raise RingError(f"{name} -> X^{x} leaves the integer grid")
        images[name] = ring.var("X", int(x))
    return images


#: Map an X-free trigonometric polynomial into {p, Q, Y}, each u- and
#: v-variable set to 1: the ring morphism compiled once.
_to_quantum = _morphism(TRIG, QUANTUM, {
    n: QUANTUM.var(n) if n in QUANTUM.index else QUANTUM.one
    for n in TRIG.names})


@lru_cache(maxsize=None)
def quantum_r(index):
    """The constant quantum R-matrices, transcribed component by component;
    one operator per index, built on first use, so its tables are built
    once."""
    m = QUANTUM.mono
    one = QUANTUM.one
    # shared building blocks
    neg_p2Qb2 = m(-1, p=2, Q=-2)
    lower = one - m(1, p=2, Q=-2)            # -pQ^-1 (pQ^-1 - Q/p)
    raiser = m(1, p=4) - m(1, p=2, Q=-2)     # p^3 Q^-1 (pQ - 1/(pQ))
    ent = {
        (1, 1, 1, 1): one,
        (2, 2, 2, 2): neg_p2Qb2,
        (3, 3, 3, 3): neg_p2Qb2,
        (4, 4, 4, 4): m(1, p=4),
        (1, 2, 2, 1): m(1, p=1, Q=-1), (1, 3, 3, 1): m(1, p=1, Q=-1),
        (2, 1, 1, 2): m(1, p=1, Q=-1), (3, 1, 1, 3): m(1, p=1, Q=-1),
        (2, 4, 4, 2): m(1, p=3, Q=-1), (3, 4, 4, 3): m(1, p=3, Q=-1),
        (4, 2, 2, 4): m(1, p=3, Q=-1), (4, 3, 3, 4): m(1, p=3, Q=-1),
        (1, 4, 4, 1): m(1, p=2, Q=-2), (4, 1, 1, 4): m(1, p=2, Q=-2),
        (2, 3, 3, 2): m(-1, p=2), (3, 2, 2, 3): m(-1, p=2),
    }
    if index == 4:
        return SparseROp(QUANTUM, ent)
    if index == 3:
        ent[(3, 2, 3, 2)] = m(1, p=2, Q=2) - m(1, p=2, Q=-2)
        return SparseROp(QUANTUM, ent)
    if index == 2:
        ent[(2, 1, 2, 1)] = lower
        ent[(4, 3, 4, 3)] = raiser
        yterm = m(-1, p=2, Q=-1, Y=1)
        ent[(4, 1, 2, 3)] = yterm
        ent[(2, 3, 4, 1)] = yterm
        return SparseROp(QUANTUM, ent)
    if index == 1:
        ent[(3, 2, 3, 2)] = m(1, p=2, Q=2) - m(1, p=2, Q=-2)
        ent[(2, 1, 2, 1)] = lower
        ent[(3, 1, 3, 1)] = lower
        ent[(4, 2, 4, 2)] = raiser
        ent[(4, 3, 4, 3)] = raiser
        # p^2 (pQ^-1 - Q/p)(pQ - 1/(pQ)) = p^2 * Y^2
        ent[(4, 1, 4, 1)] = m(1, p=2) * QUANTUM.y_square
        ymin = m(-1, p=2, Q=-1, Y=1)
        yplu = m(1, p=2, Q=1, Y=1)
        ent[(4, 1, 2, 3)] = ymin
        ent[(2, 3, 4, 1)] = ymin
        ent[(3, 2, 4, 1)] = yplu
        ent[(4, 1, 3, 2)] = yplu
        return SparseROp(QUANTUM, ent)
    raise RingError(f"no quantum R-matrix {index}")


#: Table of claimed eigenvalue lists per gauge case (distinct values).
def claimed_eigenvalues(index):
    m = QUANTUM.mono
    base = [QUANTUM.one, m(-1, p=2, Q=-2), m(1, p=4)]
    plus = [m(1, p=1, Q=-1), m(-1, p=1, Q=-1),
            m(1, p=3, Q=-1), m(-1, p=3, Q=-1)]
    if index == 1:
        return base
    if index == 2:
        return base + plus
    if index == 3:
        return base + plus + [m(1, p=2, Q=-2), m(1, p=2, Q=2)]
    if index == 4:
        return base + plus + [m(1, p=2, Q=-2), m(1, p=2), m(-1, p=2)]
    raise RingError(f"no gauge case {index}")


# ---------------------------------------------------------------------------
# Exact linear algebra on two-site operators.

def _blocks(op):
    """The 16 pair-indices grouped into the 9 charge sectors (sizes 1, 2 and
    4); RingError when the operator does not conserve the charge."""
    if not op.conserves_charge():
        raise RingError("operator does not conserve the charge "
                        "(weight, n(2) - n(3))")
    sectors = {}
    for a in range(1, 5):
        for b in range(1, 5):
            sectors.setdefault(_PAIR_CHARGE[a, b], []).append((a, b))
    return list(sectors.values())


def _det(M, ring):
    """Determinant of a square matrix of polynomials by cofactor expansion
    along the first row, skipping zero entries."""
    if not M:
        return ring.one
    out = ring.zero
    for j, x in enumerate(M[0]):
        if not x.is_zero():
            term = x * _det([row[:j] + row[j + 1:] for row in M[1:]], ring)
            out = out + term if j % 2 == 0 else out - term
    return out


def invert(R):
    """Exact inverse of a charge-conserving two-site operator with polynomial
    entries, sector by sector as adj(B) / det(B).  Each sector determinant
    must be a unit monomial (RingError otherwise), so the inverse's entries
    are polynomials; the result is checked to be a right inverse."""
    ring = R.ring
    entries = {}
    for block in _blocks(R):
        B = [[R.get(*ab, *cd) for cd in block] for ab in block]
        det = _det(B, ring)
        try:
            dinv = det.invert_monomial()
        except RingError:
            raise RingError(f"sector {block} has determinant {det}, "
                            f"not a unit") from None
        n = len(block)
        for i in range(n):
            for j in range(n):
                # (B^-1)[i][j] = (-1)^(i+j) det(B without row j, column i) / det
                minor = [row[:i] + row[i + 1:] for r, row in enumerate(B)
                         if r != j]
                cof = _det(minor, ring) * dinv
                entries[block[i] + block[j]] = -cof if (i + j) % 2 else cof
    inv = SparseROp(ring, entries)
    identity = dict(_columns(ring, 2, ()))
    if dict(_columns(ring, 2, [(1, inv), (1, R)])) != identity:
        raise RingError("inverse verification failed")
    return inv


# ---------------------------------------------------------------------------
# Eigen-data checks at exact sample points, over the Gaussian integers.

def _eval_matrix(R, point, claimed=()):
    """The charge-sector blocks of the matrix M of a polynomial operator at
    a ``SAMPLE_POINTS`` row, in ``_blocks`` order, and the values v of the
    ``claimed`` polynomials of its ring there, as ``(blocks, D, roots)``:
    ``D`` is the least positive int that clears every denominator of M's
    real and imaginary parts, each block of ``D * M`` is a list of rows of
    Gaussian integers ``(re, im)``, and ``roots`` holds each D * v as a
    Gaussian integer ``(re, im)``, or None when it is not one.  RingError
    when the operator does not conserve the charge.

    One ``cleared_values`` call gives F, a multiple of D, with F * M and
    F * v.  Then h = gcd(F, every part of F * M) is F / D, since no prime
    divides both D and every part of D * M; so D = F / h and D * M is
    F * M / h, with no Fraction."""
    blocks = _blocks(R)
    p, q, y, sign = point
    F, vals = cleared_values([*R.entries.values(), *claimed],
                             {"p": p, "Q": q, "Y": (y, 0) if sign > 0
                              else (0, y)})
    n = len(R.entries)
    h = math.gcd(F, *(x for v in vals[:n] for x in v))
    DM = {k: (re // h, im // h) for k, (re, im) in zip(R.entries, vals)}
    roots = [None if re % h or im % h else (re // h, im // h)
             for re, im in vals[n:]]
    return ([[[DM.get(ab + cd, (0, 0)) for cd in block] for ab in block]
             for block in blocks], F // h, roots)


def _gauss_mul(A, B):
    """The product of two square Gaussian-integer matrices; A's zero
    entries are skipped."""
    n = len(B)
    out = []
    for row in A:
        res = [0] * n
        ims = [0] * n
        for (a, b), Bk in zip(row, B):
            if a or b:
                for j, (c, d) in enumerate(Bk):
                    res[j] += a * c - b * d
                    ims[j] += a * d + b * c
        out.append(list(zip(res, ims)))
    return out


def charpoly(A):
    """Coefficients [a0..an] (a0 = 1, the x^n term) of det(xI - A) for a
    square matrix of Gaussian integers ``(re, im)``, by the Faddeev-LeVerrier
    recursion in integers: N1 = I, a_k = -tr(A N_k) / k and
    N_{k+1} = A N_k + a_k I.  Each division by k must be exact; RingError if
    one leaves a remainder or an entry is not a pair of ints.  For
    ``A = D * M`` the coefficients of M's polynomial are a_k / D**k."""
    n = len(A)
    for row in A:
        if len(row) != n or not all(
                isinstance(e, tuple) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int for e in row):
            raise RingError("charpoly needs a square matrix of Gaussian "
                            "integers (re, im)")
    coeffs = [(1, 0)]
    N = [[(1, 0) if i == j else (0, 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        N = _gauss_mul(A, N)
        tr_re = sum(N[i][i][0] for i in range(n))
        tr_im = sum(N[i][i][1] for i in range(n))
        c_re, r_re = divmod(-tr_re, k)
        c_im, r_im = divmod(-tr_im, k)
        if r_re or r_im:
            raise RingError(f"trace {tr_re} + {tr_im}i of step {k} "
                            f"is not divisible by {k}")
        coeffs.append((c_re, c_im))
        _add_to_diagonal(N, c_re, c_im)
    return coeffs


def _add_to_diagonal(N, c_re, c_im):
    """N + c I, in place, for a Gaussian-integer matrix N."""
    for i in range(len(N)):
        re, im = N[i][i]
        N[i][i] = (re + c_re, im + c_im)


def _primitive(a):
    """A list of Gaussian integers ``(re, im)`` divided by the gcd of all
    its integer parts (unchanged when that gcd is 0 or 1)."""
    g = math.gcd(*(x for e in a for x in e))
    return [(re // g, im // g) for re, im in a] if g > 1 else a


def _pseudo_divide(a, b):
    """Pseudo-division of Gaussian-integer coefficient lists (highest degree
    first, ``b[0]`` nonzero): ``(q, r)`` with lc(b)**k * a = q * b + r,
    k = max(0, deg a - deg b + 1) and deg r < deg b.  Leading zeros of r are
    stripped, so the zero remainder is ``[]``.  For a monic b, lc(b)**k = 1
    and the division is exact."""
    lc_re, lc_im = b[0]
    q, r = [], list(a)
    while len(r) >= len(b):
        lead, r = r[0], r[1:]
        if b[0] != (1, 0):   # q, r <- lc(b) * q, lc(b) * r
            q, r = ([(lc_re * x - lc_im * y, lc_re * y + lc_im * x)
                     for x, y in part] for part in (q, r))
        q.append(lead)
        l_re, l_im = lead
        for i, (x, y) in enumerate(b[1:]):   # r <- r - lead * b
            re, im = r[i]
            r[i] = (re - l_re * x + l_im * y, im - l_re * y - l_im * x)
    while r and r[0] == (0, 0):
        r.pop(0)
    return q, r


def _root_multiplicity(coeffs, r):
    """How often x - r divides a monic Gaussian-integer coefficient list
    (highest degree first), with the quotient left: ``(m, quotient)``.
    ``r`` is a Gaussian integer ``(re, im)``; each division by the monic
    x - r is an exact ``_pseudo_divide`` with no scaling."""
    b = [(1, 0), (-r[0], -r[1])]
    m = 0
    while len(coeffs) > 1:
        q, rem = _pseudo_divide(coeffs, b)
        if rem:
            break
        m, coeffs = m + 1, q
    return m, coeffs


@dataclass
class EigenReport:
    ok: bool
    distinct: int
    multiplicities: dict
    points_used: int
    message: str = ""


def eigen_check(R, claimed):
    """Confirm at exact sample points that the spectrum of a
    charge-conserving operator (RingError otherwise) equals the claimed
    list of polynomials, with multiplicities found from the characteristic
    polynomials.  It reads ``SAMPLE_POINTS`` in order, skipping a point
    where two claimed values collide, until ``EIGEN_POINTS`` points were
    usable; with fewer the report is not ok.  At each point these are the
    polynomials of the sector blocks of ``D * M`` over the Gaussian
    integers, whose product is that of
    ``D * M``, with roots D times the eigenvalues of M: a claimed value's
    multiplicity is its sum over the blocks, and the spectrum is exhausted
    when every block's polynomial is divided down to 1.  A root in Q(i) of
    a monic polynomial over Z[i] is a Gaussian integer, since Z[i] is
    integrally closed, so a claimed v with D * v outside Z[i] is absent."""
    used = 0
    mults = None
    for point in SAMPLE_POINTS:
        blocks, _, roots = _eval_matrix(R, point, claimed)
        known = [r for r in roots if r is not None]
        if len(set(known)) != len(known):
            continue  # eigenvalue collision at this point; skip it
        # a claimed value with no root here (None) is absent below
        polys = [charpoly(B) for B in blocks]
        got = {}
        for c, r in zip(claimed, roots):
            m = 0
            if r is not None:
                for k, f in enumerate(polys):
                    mk, polys[k] = _root_multiplicity(f, r)
                    m += mk
            if m == 0:
                p, q, y, sign = point
                return EigenReport(
                    False, len(claimed), {}, used,
                    f"claimed eigenvalue {c} absent at p = {p}, Q = {q}, "
                    f"Y = {y}{'' if sign > 0 else ' * i'}")
            got[str(c)] = m
        if any(len(f) != 1 for f in polys):
            return EigenReport(False, len(claimed), got, used,
                               "spectrum not exhausted by the claimed list")
        if mults is None:
            mults = got
        elif mults != got:
            return EigenReport(False, len(claimed), got, used,
                               "multiplicities differ between sample points")
        used += 1
        if used >= EIGEN_POINTS:
            break
    if used < EIGEN_POINTS:
        return EigenReport(False, len(claimed), mults or {}, used,
                           f"only {used} usable sample points")
    return EigenReport(True, len(claimed), mults, used)


def _kernel_dim(M):
    """dim ker of a square matrix of Gaussian integers ``(re, im)`` by
    fraction-free elimination: below each pivot p, a row x with x[col] = f
    becomes p * x - f * (pivot row), divided by the gcd of its integer
    parts."""
    n = len(M)
    M = [list(row) for row in M]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if M[r][col] != (0, 0)), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        prow = M[rank]
        p_re, p_im = prow[col]
        for r in range(rank + 1, n):
            f_re, f_im = M[r][col]
            if not (f_re or f_im):
                continue
            M[r] = _primitive([(p_re * a - p_im * b - f_re * c + f_im * d,
                                p_re * b + p_im * a - f_re * d - f_im * c)
                               for (a, b), (c, d) in zip(M[r], prow)])
        rank += 1
    return n - rank


def _squarefree_part(coeffs):
    """A Gaussian-integer multiple of the radical of a monic Gaussian-integer
    coefficient list f (highest degree first): gcd(f, f') from a primitive
    pseudo-remainder sequence, then the pseudo-quotient of f by that gcd,
    made primitive."""
    n = len(coeffs) - 1
    a = coeffs
    b = _primitive([(re * (n - i), im * (n - i))
                    for i, (re, im) in enumerate(coeffs[:-1])])
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    return _primitive(_pseudo_divide(coeffs, a)[0])


def eigenvector_deficiency(R):
    """Total eigenvector count of a charge-conserving operator (RingError
    otherwise): the sum over distinct eigenvalues of dim ker(R - lambda I),
    16 meaning diagonalizable.  It is the sum over the sector blocks B of
    ``D * M`` of dim ker g(B), g a Gaussian-integer multiple of the
    squarefree part of B's characteristic polynomial, whose kernel is
    spanned by B's eigenvectors.  It is evaluated at each of the first
    ``DEFICIENCY_POINTS`` rows of ``SAMPLE_POINTS``, and the maximum is
    returned."""
    totals = set()
    for point in SAMPLE_POINTS[:DEFICIENCY_POINTS]:
        total = 0
        for B in _eval_matrix(R, point)[0]:
            G = _squarefree_part(charpoly(B))
            acc = [[(0, 0)] * len(B) for _ in B]
            for c in G:     # Horner: acc = B acc + c I
                acc = _gauss_mul(B, acc)
                _add_to_diagonal(acc, *c)
            total += _kernel_dim(acc)
        totals.add(total)
    return max(totals)
