"""Braid words and their textual format.

A word on n strands is a sequence of nonzero integers k with |k| < n;
positive k is the standard generator crossing strands k and k+1, negative
its inverse.  The text format is "n : k1 k2 ... km" (commas optional),
each number an integer of ``parse_int``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: The one integer grammar of braid text, knot-table rows and
#: ``suite --cases``: ASCII decimal digits after an optional sign.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class BraidError(ValueError):
    pass


def parse_int(token, what):
    """``token`` as an int if it is ``[+-]?[0-9]+``, else a BraidError that
    names it as the ``what``: ``int`` alone would also take ``1_0`` and
    non-ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise BraidError(f"bad {what} {token!r}: need ASCII decimal digits "
                         f"after an optional sign")
    return int(token)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple

    def __post_init__(self):
        # a tuple whatever sequence was given, so that equal words compare
        # and hash equal
        object.__setattr__(self, "letters", tuple(self.letters))
        # type, not isinstance: bool is an int subclass
        if type(self.strands) is not int or self.strands < 1:
            raise BraidError(f"need at least one strand, got {self.strands!r}")
        for k in self.letters:
            if type(k) is not int or k == 0 or abs(k) >= self.strands:
                raise BraidError(
                    f"letter {k!r} invalid on {self.strands} strands")

    @property
    def writhe(self):
        return sum(1 if k > 0 else -1 for k in self.letters)

    def inverse(self):
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def mirror(self):
        return BraidWord(self.strands, tuple(-k for k in self.letters))

    def __str__(self):
        return f"{self.strands} : " + " ".join(str(k) for k in self.letters)


def parse(text):
    """Parse "n : k1 k2 ..." into a BraidWord."""
    if ":" not in text:
        raise BraidError(f"missing ':' in braid word {text!r}")
    head, _, tail = text.partition(":")
    strands = parse_int(head.strip(), "strand count")
    letters = tuple(parse_int(t, "letter")
                    for t in tail.replace(",", " ").split())
    return BraidWord(strands, letters)


def closure_components(word):
    """Number of components of the braid closure (cycles of the underlying
    permutation)."""
    perm = list(range(word.strands))
    for k in word.letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * word.strands
    cycles = 0
    for i in range(word.strands):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def _free_reduced(letters):
    """``letters`` with each k cancelled against a later -k when every
    letter left between them commutes with k, that is, lies on a generator
    at least 2 away.  Each letter looks back to the first kept letter it
    does not commute with and cancels it if that is its inverse, else is
    kept.  One pass suffices: the kept letters never hold such a pair, as
    every kept letter after a cancelled one commutes with it, so the
    cancelled letter blocked no pair."""
    out = []
    for k in letters:
        g = abs(k)
        for i in range(len(out) - 1, -1, -1):
            x = out[i]
            if x == -k:
                del out[i]
                break
            if -2 < abs(x) - g < 2:
                out.append(k)
                break
        else:
            out.append(k)
    return out


def _ends(letters):
    """{letter: index} of the letters that commute with every letter
    before them, so that they can be moved to the front."""
    ends = {}
    seen = 0        # bit g: a letter on generator g came before
    for i, k in enumerate(letters):
        g = abs(k)
        if not seen & (7 << (g - 1)):
            ends[k] = i
        seen |= 1 << g
    return ends


def reduce_knot_word(word):
    """A word with the same closure as ``word`` and no more strands or
    letters, from these steps, applied until none applies:

    * free cancellation of k against a later -k when every letter between
      them commutes with k;
    * the same across the end of the word: a k that commutes with every
      letter before it against a -k that commutes with every letter after
      it.  Moving k to the front and -k to the end makes the word a
      conjugate of the word without them;
    * Markov destabilization: a generator sigma_(n-1)^+-1 that occurs once
      is dropped with the top strand (a conjugation moves it to the end).
      A sigma_1^+-1 that occurs once is dropped and every other letter
      shifted down by one: conjugation by the half twist (sigma_i ->
      sigma_(n-i)) makes it sigma_(n-1)^+-1, and the same move is undone
      on n - 1 strands.

    Returns ``word`` itself when no step applies."""
    strands, letters = word.strands, word.letters
    while True:
        letters = _free_reduced(letters)
        front = _ends(letters)
        back = _ends(letters[::-1])
        pair = next((k for k in front if -k in back), None)
        if pair is not None:
            del letters[len(letters) - 1 - back[-pair]]
            del letters[front[pair]]
            continue
        gens = [abs(k) for k in letters]
        if gens.count(strands - 1) == 1:
            del letters[gens.index(strands - 1)]
            strands -= 1
        elif gens.count(1) == 1:
            del letters[gens.index(1)]
            letters = [k - 1 if k > 0 else k + 1 for k in letters]
            strands -= 1
        else:
            break
    if len(letters) == len(word.letters):
        return word
    return BraidWord(strands, letters)


def matveev_pair():
    """The distinguishing pair s1 s2^-1 s1 and s2 s1^-1 s2: an invariant
    whose state model represents both words identically cannot tell any
    knot from the unknot."""
    return parse("3 : 1 -2 1"), parse("3 : 2 -1 2")
