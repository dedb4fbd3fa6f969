from __future__ import annotations

import functools
import itertools
import random

import pytest

from usigns import (
    MonomialMap,
    Polygon,
    SignPattern,
    all_orderings,
    invert,
    is_consistent,
    map_for_ordering,
    map_for_transposition,
    realize,
    shortest_negative,
    sign_of_ordering,
    signs_from_points,
    transport,
)
from usigns import monomial
from usigns.signs import _interlacing

from conftest import (
    PENTAGON_TABLE,
    consistent_bits,
    dihedral_class,
    reference_elementary_images,
    rotate_pattern,
    table_from_images,
    transport_by_table,
)


@functools.lru_cache(maxsize=None)
def elementary_tables(n):
    """Transport tables of the n adjacent-swap chart changes, read off the
    five-case formula; k at index k - 1."""
    poly = Polygon(n)
    return tuple(
        table_from_images(poly, reference_elementary_images(poly, k)) for k in range(1, n + 1)
    )


def sort_positions(word):
    """First-descent bubble sort; yields each swapped position pair's k."""
    w = list(word)
    while True:
        for k in range(len(w) - 1):
            if w[k] > w[k + 1]:
                w[k], w[k + 1] = w[k + 1], w[k]
                yield k + 1
                break
        else:
            return


def reference_sign_of_ordering(poly, word):
    """All-plus pushed forward through the word's sorting sequence one
    adjacent swap at a time (elementary chart changes are involutive)."""
    tables = elementary_tables(poly.n)
    bits = 0
    for k in sort_positions(word):
        bits = transport_by_table(bits, tables[k - 1])
    return SignPattern(poly.n, bits)


def chain(first, then):
    """Table of transport through ``first`` followed by ``then``.

    Transport is affine over GF(2): row r of the chain XORs the ``first``
    rows that ``then``'s mask_r selects, and the parity of their constants.
    """
    shift = transport_by_table(0, first)
    out = []
    for neg, mask in then:
        row = 0
        for k, (_, first_mask) in enumerate(first):
            if mask >> k & 1:
                row ^= first_mask
        out.append((neg ^ ((mask & shift).bit_count() & 1), row))
    return tuple(out)


def reference_transposition_table(n, p, q):
    """The swap of positions p and q as adjacent swaps along the cyclic arc
    upward from p to q (p, p+1, ..., q-1, ..., p), step 1 innermost, so a
    pattern passes through the last step's table first."""
    up = [(p - 1 + t) % n + 1 for t in range((q - p) % n)]
    steps = [elementary_tables(n)[k - 1] for k in up + up[-2::-1]]
    table = steps.pop()
    while steps:
        table = chain(table, steps.pop())
    return table


def test_transport_identity():
    poly = Polygon(6)
    s = SignPattern.from_string(6, "-+-++-+--")
    assert transport(s, MonomialMap(6, poly.identity_word, poly.identity_word)) == s


def test_transport_size_mismatch():
    with pytest.raises(ValueError):
        transport(SignPattern.all_plus(5), MonomialMap(6, (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6)))


def test_transport_all_minus_pentagon():
    # positive values on the 14253 chart force all-negative standard values
    poly = Polygon(5)
    m = map_for_ordering(poly, (1, 4, 2, 5, 3))
    assert transport(SignPattern.all_minus(5), m).is_all_plus()


@pytest.mark.parametrize("n", [5, 6, 8])
def test_transport_spanning_chord_turns_positive(n):
    # only the {n,2} chord negative: after swapping the first two labels the
    # new chart's {n,1}-chord (positionally {n,2}) is positive
    poly = Polygon(n)
    s = SignPattern.from_negative_chords(n, [(2, n)])
    t = transport(s, map_for_transposition(poly, 1, 2))
    assert t.sign((2, n)) == 1


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


def test_transport_functorial_stepwise():
    # transporting through the composed map equals stepwise elementary hops
    poly = Polygon(6)
    rng = random.Random(8)
    for _ in range(12):
        word = list(poly.identity_word)
        rng.shuffle(word)
        word = tuple(word)
        s = SignPattern(6, rng.randrange(1 << poly.chord_count))
        full = transport(s, map_for_ordering(poly, word))
        bits = s.bits
        for k in reversed(list(sort_positions(word))):
            bits = transport_by_table(bits, elementary_tables(6)[k - 1])
        assert full.bits == bits


def assert_transports_by(m, table, patterns):
    """``transport`` through ``m`` agrees with the reference ``table`` on
    all-plus, all-minus and every given pattern."""
    n = m.n
    for bits in (0, SignPattern.all_minus(n).bits, *patterns):
        assert transport(SignPattern(n, bits), m).bits == transport_by_table(bits, table)


@pytest.mark.parametrize("n", range(4, 10))
def test_transposition_table_matches_laurent_route(n):
    # transport through the closed-form corners agrees with the GF(2) chain
    # of elementary tables; transport is affine over GF(2), so all-plus and
    # the single-chord patterns pin the whole table
    m_chords = Polygon(n).chord_count
    rng = random.Random(4100 + n)
    singles = [1 << k for k in range(m_chords)]
    for p, q in itertools.permutations(range(1, n + 1), 2):
        randoms = [rng.getrandbits(m_chords) for _ in range(3)]
        assert_transports_by(
            map_for_transposition(Polygon(n), p, q),
            reference_transposition_table(n, p, q),
            singles + randoms,
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 12, 20, 40])
def test_transport_table_matches_images(n):
    # transport through the rectangle corners equals transport through the
    # table read off the full images: every word to and from the standard
    # chart, and seeded pairs
    poly = Polygon(n)
    rng = random.Random(5150 + n)
    if n <= 7:
        pairs = [(w, poly.identity_word) for w in itertools.permutations(poly.identity_word)]
        pairs += [(target, source) for source, target in pairs]
    else:
        pairs = [(rng.sample(range(1, n + 1), n), rng.sample(range(1, n + 1), n)) for _ in range(4)]
    for source, target in pairs:
        m = MonomialMap(n, source, target)
        randoms = [rng.getrandbits(poly.chord_count) for _ in range(3)]
        assert_transports_by(m, table_from_images(poly, m.images), randoms)


@pytest.mark.parametrize("n", [8, 12, 30, 60, 120])
def test_transport_builds_no_monomials(n, monkeypatch):
    # transport reads each image's sign off the rectangle corners: it builds
    # no monomial and lists no chord run
    def refuse(*args):
        raise AssertionError("built a SignedMonomial")

    def refuse_runs(*args):
        raise AssertionError("listed chord runs")

    poly = Polygon(n)
    rng = random.Random(1800 + n)
    monkeypatch.setattr(monomial, "SignedMonomial", refuse)
    monkeypatch.setattr(monomial, "_cut_runs", refuse_runs)
    for _ in range(3):
        word = tuple(rng.sample(range(1, n + 1), n))
        assert transport(sign_of_ordering(poly, word), map_for_ordering(poly, word)).is_all_plus()


@pytest.mark.parametrize("n", [7, 8])
def test_transported_signs_after_spanning_swap(n):
    # with the shortest negative chord rotated onto {n, l}, l >= 3, the swap
    # of labels 1 and l leaves the pinned chords of the new chart positive
    # except the shortened one
    poly = Polygon(n)
    checked = 0
    for bits in consistent_bits(n):
        s = SignPattern(n, bits)
        if s.is_all_plus():
            continue
        a, b = shortest_negative(s)
        d = poly.chord_length(poly.chord(a, b))
        if d < 3:
            continue
        for c in s.negatives():
            if poly.chord_length(c) != d:
                continue
            i, j = c
            for first in (i, j):
                rotated = rotate_pattern(s, n - first)
                l = poly.wrap((i + j - first) + (n - first))
                if l != d:  # keep only the orientation with the short arc through n
                    continue
                assert rotated.is_negative(poly.chord(n, l))
                t = transport(rotated, map_for_transposition(poly, 1, l))
                assert t.sign(poly.chord(n, l)) == 1
                assert t.sign(poly.chord(l - 1, n)) == 1
                assert t.sign(poly.chord(1, l)) == 1
                if (1, l - 1) in poly.chord_index:
                    assert t.sign(poly.chord(1, l - 1)) == -1
                for j2 in range(2, l - 1):
                    assert t.sign(poly.chord(j2, n)) == 1
                    assert t.sign(poly.chord(j2, l)) == 1
                    if (1, j2) in poly.chord_index:
                        assert t.sign(poly.chord(1, j2)) == 1
                    if (j2, l - 1) in poly.chord_index:
                        assert t.sign(poly.chord(j2, l - 1)) == 1
                checked += 1
    assert checked > 20
