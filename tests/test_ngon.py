from __future__ import annotations

import copy
import doctest
import itertools
import json
import pickle
import random

import numpy as np
import pytest

import usigns.ngon
from usigns import (
    Polygon,
    all_orderings,
    canonicalize,
    ordering_count,
)

from conftest import crosses, crossing_chords, cyclic_intervals, dihedral_class


def test_polygon_validation():
    with pytest.raises(ValueError):
        Polygon(3)
    assert Polygon(4).chord_count == 2


def test_polygon_interned():
    assert Polygon(8) is Polygon(8)
    assert Polygon(8) is not Polygon(9)
    assert Polygon(8).chords is Polygon(8).chords


def test_polygon_pickle_and_deepcopy_return_interned_instance():
    poly = Polygon(8)
    assert pickle.loads(pickle.dumps(poly)) is poly
    assert copy.deepcopy(poly) is poly
    assert copy.copy(poly) is poly


def test_polygon_numpy_integer_keeps_plain_int():
    assert Polygon(np.int64(8)) is Polygon(8)
    assert type(Polygon(8).n) is int
    json.dumps({"n": Polygon(8).n})


@pytest.mark.parametrize(
    "bad,error", [(3, ValueError), (-1, ValueError), (8.0, TypeError), ("8", TypeError)]
)
def test_polygon_rejects_bad_n(bad, error):
    with pytest.raises(error):
        Polygon(bad)
    with pytest.raises(error):
        Polygon(bad)  # still raises: nothing was cached


@pytest.mark.parametrize("n", range(4, 11))
def test_mask_and_lengths_tables(n):
    poly = Polygon(n)
    assert len(poly.lengths) == len(poly.chords)
    for k, (i, j) in enumerate(poly.chords):
        assert poly.lengths[k] == poly.chord_length((i, j)) == min(j - i, n - j + i)
        assert poly.mask([(i, j)]) == poly.mask([(j, i)]) == poly.mask([[i, j]]) == 1 << k
    assert poly.mask(poly.chords) == (1 << poly.chord_count) - 1
    assert poly.mask([]) == 0
    with pytest.raises(ValueError):
        poly.mask([(1, 2)])


@pytest.mark.parametrize("n", range(4, 41))
def test_corners_table_matches_wrap(n):
    # the 0-based indices of positions i, i + 1, j, j + 1, position n + 1 as 1
    poly = Polygon(n)
    assert poly.corners is poly.corners
    assert poly.corners == tuple(
        tuple(poly.wrap(v) - 1 for v in (i, i + 1, j, j + 1)) for i, j in poly.chords
    )


def test_chord_rejects_labels_outside_polygon():
    # labels are not wrapped: 0 and 7..9 are not vertices of the hexagon
    poly = Polygon(6)
    with pytest.raises(ValueError):
        poly.chord(0, 3)
    with pytest.raises(ValueError):
        poly.chord(7, 9)
    assert (7, 9) not in poly.chord_index
    assert (0, 3) not in poly.chord_index
    assert (1, 3) in poly.chord_index and poly.chord(3, 6) == (3, 6)
    with pytest.raises(ValueError):
        poly.chord_length((7, 9))
    with pytest.raises(ValueError):
        poly.mask([(7, 9)])


@pytest.mark.parametrize(
    "n,expected",
    [
        (4, [(1, 3), (2, 4)]),
        (5, [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]),
        (
            6,
            [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 6)],
        ),
    ],
)
def test_chords_canonical_order(n, expected):
    assert list(Polygon(n).chords) == expected


@pytest.mark.parametrize("n", range(4, 13))
def test_chord_count_formula(n):
    assert len(Polygon(n).chords) == n * (n - 3) // 2


def test_crosses_examples():
    p6 = Polygon(6)
    assert crosses(p6, (1, 3), (2, 4))
    assert not crosses(p6, (1, 3), (4, 6))
    assert crosses(p6, (1, 4), (2, 6))
    # sharing an endpoint never crosses
    assert not crosses(p6, (1, 4), (2, 4))
    with pytest.raises(ValueError):
        crosses(p6, (1, 3), (1, 3))
    with pytest.raises(ValueError):
        crosses(p6, (1, 2), (2, 4))


def _interleaved(n: int, c1, c2) -> bool:
    # independent check: walk the circle from one endpoint of c1 and record
    # the order the other three endpoints appear in
    i, j = c1
    seq = []
    v = i
    for _ in range(n - 1):
        v = v % n + 1
        if v in (j, *c2):
            seq.append(v)
    return seq[0] in c2 and seq[1] == j and seq[2] in c2


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_crosses_against_interleaving(n):
    poly = Polygon(n)
    for c1, c2 in itertools.combinations(poly.chords, 2):
        expected = not set(c1) & set(c2) and _interleaved(n, c1, c2)
        assert crosses(poly, c1, c2) == expected
        assert crosses(poly, c2, c1) == expected


@pytest.mark.parametrize("n", range(4, 13))
def test_crossing_set_size(n):
    # a chord with p and q interior vertices on its two arcs crosses p*q chords
    poly = Polygon(n)
    for c in poly.chords:
        d = poly.chord_length(c)
        assert len(crossing_chords(poly, c)) == (d - 1) * (n - d - 1)


@pytest.mark.parametrize("n", [*range(4, 16), 60, 201])
def test_pick_order_is_every_chord_by_length(n):
    # the picker's order: each chord once, shortest first
    poly = Polygon(n)
    order = poly._pick_order
    assert sorted(order) == list(range(poly.chord_count))
    lengths = [poly.lengths[k] for k in order]
    assert lengths == sorted(lengths)


def test_canonicalize_examples():
    assert canonicalize([2, 3, 4, 5, 1]) == (1, 2, 3, 4, 5)
    assert canonicalize([1, 5, 4, 3, 2]) == (1, 2, 3, 4, 5)
    # brute force: the canonical form is the lexicographic orbit minimum
    assert canonicalize([3, 1, 4, 2, 5]) == min(dihedral_class([3, 1, 4, 2, 5]))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_canonicalize_orbit_constant(n):
    rng = random.Random(7)
    for _ in range(25):
        word = list(range(1, n + 1))
        rng.shuffle(word)
        rep = canonicalize(word)
        assert rep == min(dihedral_class(word))
        for other in dihedral_class(word):
            assert canonicalize(other) == rep
        assert canonicalize(rep) == rep


def test_canonicalize_rejects_non_permutation():
    with pytest.raises(ValueError):
        canonicalize([1, 2, 2, 4])


@pytest.mark.parametrize("n,count", [(4, 3), (5, 12), (6, 60), (8, 2520)])
def test_all_orderings_count(n, count):
    words = list(all_orderings(Polygon(n)))
    assert len(words) == count == ordering_count(Polygon(n))
    assert len(set(words)) == count
    assert all(canonicalize(w) == w for w in words)


def test_ngon_doctests():
    results = doctest.testmod(usigns.ngon)
    assert results.failed == 0 and results.attempted > 0


def test_cyclic_intervals():
    poly = Polygon(7)
    parts = cyclic_intervals(poly, (1, 2, 3, 6, 7))
    assert parts == ((1,), (2,), (3, 4, 5), (6,), (7,))
    # wrap-around last interval
    parts = cyclic_intervals(poly, (2, 3, 6, 7))
    assert parts == ((2,), (3, 4, 5), (6,), (7, 1))
    covered = sorted(v for part in parts for v in part)
    assert covered == list(range(1, 8))
    with pytest.raises(ValueError):
        cyclic_intervals(poly, (1, 2, 3))
    with pytest.raises(ValueError):
        cyclic_intervals(poly, (1, 2, 2, 5))
