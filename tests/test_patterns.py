from __future__ import annotations

import random

import pytest

from usigns import Polygon, SignPattern, shortest_negative, stats

from conftest import DECAGON_NEGATIVES


def test_parse_and_format_roundtrip():
    s = SignPattern.from_string(5, "-++-+")
    assert str(s) == "-++-+"
    assert s.negatives() == ((1, 3), (2, 5))
    assert s.sign((1, 3)) == -1
    assert s.sign((1, 4)) == 1
    assert len(s) == 5
    rng = random.Random(5)
    for n in range(4, 13):
        poly = Polygon(n)
        patterns = [SignPattern.all_plus(n), SignPattern.all_minus(n)]
        patterns += [SignPattern(n, rng.getrandbits(poly.chord_count)) for _ in range(20)]
        for p in patterns:
            text = str(p)
            assert text == "".join("-" if p.is_negative(c) else "+" for c in poly.chords)
            assert str(SignPattern.from_string(n, text)) == text
            assert SignPattern.from_string(n, text) == p


def test_parse_errors():
    with pytest.raises(ValueError):
        SignPattern.from_string(5, "-+++")
    with pytest.raises(ValueError):
        SignPattern.from_string(5, "-+++0")
    with pytest.raises(ValueError):
        SignPattern.from_string(5, "01101")
    with pytest.raises(ValueError):
        SignPattern(5, 1 << 5)


def test_from_negative_chords():
    s = SignPattern.from_negative_chords(6, [(4, 6), (1, 3)])
    assert str(s) == "-+++++++-"


def test_vertices_outside_polygon_rejected():
    with pytest.raises(ValueError):
        SignPattern.from_negative_chords(6, [(7, 9)])
    with pytest.raises(ValueError):
        SignPattern.all_plus(6).is_negative((0, 3))


def test_stats_examples():
    assert stats(SignPattern.all_plus(6)) == (0, None)
    assert stats(SignPattern.all_minus(5)) == (5, 2)
    decagon = SignPattern.from_negative_chords(10, DECAGON_NEGATIVES)
    assert stats(decagon) == (5, 2)


def test_shortest_negative_examples():
    assert shortest_negative(SignPattern.all_minus(5)) == (1, 3)
    decagon = SignPattern.from_negative_chords(10, DECAGON_NEGATIVES)
    assert shortest_negative(decagon) == (6, 8)
    for n in (6, 8):
        only_n2 = SignPattern.from_negative_chords(n, [(2, n)])
        assert shortest_negative(only_n2) == (n, 2)
    with pytest.raises(ValueError):
        shortest_negative(SignPattern.all_plus(5))


def test_shortest_negative_orientation():
    # short arc determines the orientation
    s = SignPattern.from_negative_chords(7, [(2, 6)])  # length 3 via 6,7,1,2
    assert shortest_negative(s) == (6, 2)
    # diameter ties pick the smaller first endpoint
    s = SignPattern.from_negative_chords(6, [(2, 5)])
    assert shortest_negative(s) == (2, 5)
