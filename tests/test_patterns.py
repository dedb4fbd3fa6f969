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


def _brute_force_pick(pattern: SignPattern) -> tuple[int, int]:
    # every orientation of every negative chord that runs along a shortest arc
    poly, n = Polygon(pattern.n), pattern.n
    lengths = {c: poly.chord_length(c) for c in pattern.negatives()}
    shortest = min(lengths.values())
    return min(
        (a, b)
        for (i, j), d in lengths.items()
        if d == shortest
        for a, b in ((i, j), (j, i))
        if (b - a) % n == d
    )


def _picker_inputs():
    for n in range(4, 8):
        for bits in range(1 << Polygon(n).chord_count):
            yield SignPattern(n, bits)
    rng = random.Random(1814)
    for n in range(8, 15):
        m = Polygon(n).chord_count
        for _ in range(300):
            # sparse draws too, so that the shortest negative is often long
            density = rng.choice((1, 2, 4))
            bits = rng.getrandbits(m)
            for _ in range(density - 1):
                bits &= rng.getrandbits(m)
            yield SignPattern(n, bits)


def test_one_picker_matches_brute_force():
    checked = 0
    for pattern in _picker_inputs():
        negatives = pattern.negatives()
        if not negatives:
            assert stats(pattern) == (0, None)
            continue
        poly = Polygon(pattern.n)
        shortest = min(poly.chord_length(c) for c in negatives)
        assert stats(pattern) == (len(negatives), shortest)
        assert shortest_negative(pattern) == _brute_force_pick(pattern)
        checked += 1
    assert checked > 16384
