"""Braid-word parsing and basic combinatorics."""

import pytest

from gaugeknot import braid


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
