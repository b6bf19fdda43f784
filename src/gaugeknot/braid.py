"""Braid words and their textual format.

A word on n strands is a sequence of nonzero integers k with |k| < n;
positive k is the standard generator crossing strands k and k+1, negative
its inverse.  The text format is "n : k1 k2 ... km" (commas optional).
"""

from __future__ import annotations

from dataclasses import dataclass


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple

    def __post_init__(self):
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
    try:
        strands = int(head.strip())
    except ValueError:
        raise BraidError(f"bad strand count {head.strip()!r}") from None
    body = tail.replace(",", " ").split()
    try:
        letters = tuple(int(t) for t in body)
    except ValueError as exc:
        raise BraidError(f"bad letter in {text!r}: {exc}") from None
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


def matveev_pair():
    """The distinguishing pair s1 s2^-1 s1 and s2 s1^-1 s2: an invariant
    whose state model represents both words identically cannot tell any
    knot from the unknot."""
    return parse("3 : 1 -2 1"), parse("3 : 2 -1 2")
