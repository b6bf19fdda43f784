"""Braid-word parsing and basic combinatorics."""

import re

import pytest

from conftest import rand_knot_word
from gaugeknot import braid
from gaugeknot.harness import load_table


def test_parse_examples():
    w = braid.parse("2 : 1 1 1")
    assert w.strands == 2 and w.letters == (1, 1, 1)
    assert w.writhe == 3
    fig8 = braid.parse("3 : 1 -2 1 -2")
    assert fig8.writhe == 0
    empty = braid.parse("1 :")
    assert empty.letters == () and empty.writhe == 0


def test_parse_roundtrip():
    for text in ("2 : 1 1 1", "3 : 1 -2 1 -2", "4 : 1 -2 3 -2 1"):
        assert str(braid.parse(text)) == text
        assert braid.parse(str(braid.parse(text))) == braid.parse(text)
    # canonical form normalizes whitespace
    assert str(braid.parse("3 :  1   -2  1")) == "3 : 1 -2 1"


def test_parse_errors():
    for bad in ("2 : 5", "0 : 1", "2 : 0", "2 : x", "2 ; 1", "", "3 1 2"):
        with pytest.raises(braid.BraidError):
            braid.parse(bad)


@pytest.mark.parametrize("text, token", [
    ("1_0 : 1 2 3 4 5 6 7 8 9", "1_0"),
    ("\u0663 : 1 -2 1", "\u0663"),
    ("3 : 1 -\u0662 1", "-\u0662"),
    ("3 : 1 -2 1_0", "1_0"),
    ("3 : \uff11 -2", "\uff11"),
    ("3 : 1 +-2", "+-2"),
    ("3 : 1.0 -2", "1.0"),
    ("0x3 : 1 -2", "0x3"),
])
def test_parse_takes_ascii_decimal_integers_only(text, token):
    """Strand count and letters are ``[+-]?[0-9]+``: ``int`` alone would
    read ``1_0`` as 10 and the Arabic-Indic digit three as 3."""
    with pytest.raises(braid.BraidError, match=re.escape(repr(token))):
        braid.parse(text)


def test_parse_takes_a_sign():
    assert braid.parse("+3 : +1 -2, 1") == braid.BraidWord(3, (1, -2, 1))
    assert braid.parse_int("-07", "letter") == -7


def test_word_validation():
    with pytest.raises(braid.BraidError):
        braid.BraidWord(2, (2,))
    with pytest.raises(braid.BraidError):
        braid.BraidWord(0, ())
    with pytest.raises(braid.BraidError):
        braid.BraidWord(2, (True,))
    for strands, letters in ((2.0, (1,)), ("3", ()), (True, ()), (None, ())):
        with pytest.raises(braid.BraidError):
            braid.BraidWord(strands, letters)


def test_letters_are_kept_as_a_tuple():
    listed = braid.BraidWord(3, [1, -2, 1, -2])
    assert listed.letters == (1, -2, 1, -2)
    assert listed == braid.BraidWord(3, (1, -2, 1, -2))
    assert hash(listed) == hash(braid.parse("3 : 1 -2 1 -2"))
    assert {listed: 1}[braid.parse("3 : 1 -2 1 -2")] == 1


def test_inverse_and_mirror():
    w = braid.parse("3 : 1 -2 1")
    assert w.inverse().letters == (-1, 2, -1)
    assert w.mirror().letters == (-1, 2, -1)
    assert w.inverse().writhe == -w.writhe


def test_closure_components():
    assert braid.closure_components(braid.parse("2 : 1 1 1")) == 1
    assert braid.closure_components(braid.parse("3 : 1 -2 1 -2")) == 1
    # empty 2-strand word closes to two circles
    assert braid.closure_components(braid.BraidWord(2, ())) == 2
    assert braid.closure_components(braid.parse("2 : 1 1")) == 2


def test_matveev_pair():
    a, b = braid.matveev_pair()
    assert str(a) == "3 : 1 -2 1"
    assert str(b) == "3 : 2 -1 2"
    assert a.writhe == 1 and b.writhe == 1
    assert a.letters != b.letters


def _commute(a, b):
    return abs(abs(a) - abs(b)) >= 2


def _steps_left(word):
    """Which step of ``reduce_knot_word`` still applies to ``word``, by
    trying every pair and every end: None when no step does."""
    letters, n = word.letters, word.strands
    for i, k in enumerate(letters):
        for j in range(i + 1, len(letters)):
            if letters[j] != -k:
                continue
            if all(_commute(x, k) for x in letters[i + 1:j]):
                return f"pair {i}, {j}"
            if all(_commute(x, k) for x in letters[:i] + letters[j + 1:]):
                return f"pair {i}, {j} across the end"
    gens = [abs(k) for k in letters]
    for g in (1, n - 1):
        if gens.count(g) == 1:
            return f"destabilization at {g}"
    return None


def _reducer_words(rng):
    words = [rand_knot_word(rng, strands, length)
             for strands, length in ((3, 6), (4, 9), (5, 10), (6, 14))
             for _ in range(25)]
    return words + [r.word for r in load_table()]


def test_reduced_words_admit_no_step(rng):
    """No step applies to a reduced word, so reducing it again gives it
    back itself; a word is never given more strands or letters."""
    moved = 0
    for word in _reducer_words(rng):
        red = braid.reduce_knot_word(word)
        assert _steps_left(red) is None, (word, red)
        assert braid.reduce_knot_word(red) is red
        assert red.strands <= word.strands
        assert len(red.letters) <= len(word.letters)
        assert braid.closure_components(red) == 1
        assert red.letters == () or max(map(abs, red.letters)) == \
            red.strands - 1
        if red == word:
            assert red is word
        moved += red != word
    assert 0 < moved


@pytest.mark.parametrize("text, want", [
    # -3 1 3 and 3 -1 -3 cancel, then 1 -1, then each generator in turn
    # occurs once at the top
    ("4 : -3 1 3 3 -1 -3 -2 -1 -3", "1 :"),
    ("2 : 1", "1 :"),
    ("3 : -2 1", "1 :"),
    # a k ... -k pair across the end: 3 commutes with the 1 before it
    ("4 : 1 3 -2 3 -2 1 -2 3 -2 -2 -3", "4 : 1 -2 3 -2 1 -2 3 -2 -2"),
    # sigma_1 once: dropped, the rest shifted down
    ("4 : 2 -3 2 1 -3", "3 : 1 -2 1 -2"),
    # sigma_3 once: dropped with the top strand
    ("4 : 1 -2 1 -2 3", "3 : 1 -2 1 -2"),
    # 8_16 of the table: 3 1 1 -3 cancels to 1 1, then sigma_3 occurs once
    ("4 : -2 1 3 -2 3 1 1 -3 -2 1 1", "3 : -2 1 -2 1 1 -2 1 1"),
    # words that do not reduce come back as the same object
    ("1 :", "1 :"),
    ("2 : 1 1 1", "2 : 1 1 1"),
    ("3 : 1 -2 1 -2", "3 : 1 -2 1 -2"),
    ("4 : 1 -2 3 -2 1 -2 3 -2 -2", "4 : 1 -2 3 -2 1 -2 3 -2 -2"),
])
def test_reduction_examples(text, want):
    word = braid.parse(text)
    assert braid.closure_components(word) == 1
    red = braid.reduce_knot_word(word)
    assert red == braid.parse(want)
    if want == text:
        assert red is word
