from __future__ import annotations

import itertools
import random

import pytest

from usigns import (
    Polygon,
    SignPattern,
    all_orderings,
    invert,
    is_consistent,
    map_for_ordering,
    realize,
    sign_of_ordering,
    signs_from_points,
    transport,
)
from usigns.signs import _interlacing

from conftest import (
    PENTAGON_TABLE,
    dihedral_class,
    elementary_tables,
    sort_positions,
    transport_by_table,
)


def reference_sign_of_ordering(poly, word):
    """All-plus pushed forward through the word's sorting sequence one
    adjacent swap at a time (elementary chart changes are involutive)."""
    tables = elementary_tables(poly.n)
    bits = 0
    for k in sort_positions(word):
        bits = transport_by_table(bits, tables[k - 1])
    return SignPattern(poly.n, bits)


def test_sign_of_ordering_identity_all_plus():
    for n in (4, 5, 6, 7):
        assert sign_of_ordering(Polygon(n), Polygon(n).identity_word).is_all_plus()


def test_sign_of_ordering_pentagon_table():
    poly = Polygon(5)
    for word, signs in PENTAGON_TABLE.items():
        assert str(sign_of_ordering(poly, word)) == signs


def test_sign_of_ordering_class_invariant():
    poly = Polygon(6)
    rng = random.Random(3)
    for _ in range(10):
        word = list(poly.identity_word)
        rng.shuffle(word)
        base = sign_of_ordering(poly, word)
        for other in dihedral_class(word):
            assert sign_of_ordering(poly, other) == base


@pytest.mark.parametrize("n", range(4, 9))
def test_sign_of_ordering_matches_adjacent_swap_push(n):
    # every word, not only canonical ones
    poly = Polygon(n)
    for word in itertools.permutations(poly.identity_word):
        assert sign_of_ordering(poly, word) == reference_sign_of_ordering(poly, word)


def reference_interlacing(poly, at):
    """Chord (i, j) is negative when exactly one of the places of positions j
    and j + 1 lies strictly between the places of positions i and i + 1."""
    bits = 0
    for k, (i, j) in enumerate(poly.chords):
        lo, hi = sorted((at[i - 1], at[poly.wrap(i + 1) - 1]))
        c, e = at[j - 1], at[poly.wrap(j + 1) - 1]
        bits |= ((lo < c < hi) != (lo < e < hi)) << k
    return SignPattern(poly.n, bits)


@pytest.mark.parametrize("n", range(4, 31))
def test_interlacing_matches_interval_reference(n):
    poly = Polygon(n)
    rng = random.Random(3100 + n)
    places = [list(poly.identity_word)] + [rng.sample(range(1, n + 1), n) for _ in range(12)]
    for at in places:
        assert _interlacing(poly, at) == reference_interlacing(poly, at)


def test_sign_of_ordering_class_invariant_n30():
    poly = Polygon(30)
    word = tuple(random.Random(30).sample(range(1, 31), 30))
    members = dihedral_class(word)
    assert len(members) == 60
    base = sign_of_ordering(poly, word)
    assert all(sign_of_ordering(poly, other) == base for other in members)


@pytest.mark.parametrize("n", [8, 10, 12, 30, 100, 200])
def test_sign_of_ordering_oracle_agreement_any_representative(n):
    # words drawn from every rotation and reflection, not only canonical ones
    poly = Polygon(n)
    rng = random.Random(4400 + n)
    for _ in range(25):
        word = tuple(rng.sample(range(1, n + 1), n))
        assert sign_of_ordering(poly, word) == signs_from_points(realize(poly, word))


def test_sign_of_ordering_matches_invert_route():
    poly = Polygon(6)
    for word in itertools.islice(all_orderings(poly), 25):
        via_invert = transport(
            SignPattern.all_plus(6), invert(map_for_ordering(poly, word))
        )
        assert sign_of_ordering(poly, word) == via_invert


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_sign_of_ordering_injective_and_consistent(n):
    poly = Polygon(n)
    seen = set()
    for word in all_orderings(poly):
        s = sign_of_ordering(poly, word)
        assert is_consistent(poly, s)
        seen.add(s.bits)
    assert len(seen) == sum(1 for _ in all_orderings(poly))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sign_of_ordering_oracle_agreement(n):
    poly = Polygon(n)
    for word in all_orderings(poly):
        assert sign_of_ordering(poly, word) == signs_from_points(realize(poly, word))


def test_sign_of_ordering_oracle_agreement_sampled_n8():
    poly = Polygon(8)
    rng = random.Random(2024)
    words = rng.sample(list(all_orderings(poly)), 500)
    for word in words:
        assert sign_of_ordering(poly, word) == signs_from_points(realize(poly, word))
