"""Acceptance gate: one test per criterion, exact expectations throughout.

Each test prints a single PASS line (visible with -rA or -s) after its
assertions; pytest -v therefore shows one verdict line per criterion.
"""
from __future__ import annotations

import random
import time

import pytest

from usigns import (
    Polygon,
    SignedMonomial,
    SignPattern,
    all_orderings,
    canonicalize,
    count_consistent,
    cross_ratio,
    map_for_ordering,
    map_for_transposition,
    ordering_count,
    ordering_from_sign_matrix,
    points_from_u,
    realize,
    reconstruct_sign_matrix,
    sign_of_ordering,
    solve,
    u_values,
)
from usigns.points import standard_gauge

from conftest import PENTAGON_TABLE, consistent_bits, crossing_chords, label_chord, random_config

N6_EXCLUDED_14 = [
    "--+-+--++",
    "--++--+++",
    "-+--+--+-",
    "-+--+-+-+",
    "-+-+--++-",
    "-++--+-+-",
    "-++--++-+",
    "+--++--+-",
    "+--++-+-+",
    "+-+-++--+",
    "+-++-+-+-",
    "+-++-++-+",
    "++--++---",
    "++-+-++--",
]


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_c01_table_of_consistent_counts():
    t0 = time.time()
    primitive = {n: count_consistent(Polygon(n), primitive_only=True) for n in range(5, 9)}
    extended = {n: count_consistent(Polygon(n)) for n in range(5, 9)}
    assert primitive == {5: 12, 6: 74, 7: 697, 8: 10180}
    assert extended == {5: 12, 6: 60, 7: 360, 8: 2520}
    report("01 count table", f"primitive 12/74/697/10180, extended 12/60/360/2520 in {time.time()-t0:.1f}s")


def test_c02_consistent_equals_realizable():
    t0 = time.time()
    for n in range(4, 9):
        poly = Polygon(n)
        realizable = {sign_of_ordering(poly, w).bits for w in all_orderings(poly)}
        assert realizable == consistent_bits(n)
        assert len(realizable) == ordering_count(poly)
    report("02 bijection n=4..8", f"set equality, {time.time()-t0:.1f}s")


def test_c03_pentagon_golden():
    poly = Polygon(5)
    for word, signs in PENTAGON_TABLE.items():
        assert str(sign_of_ordering(poly, word)) == signs
        solved, _ = solve(poly, SignPattern.from_string(5, signs))
        assert solved == canonicalize(word)
    word = (1, 4, 2, 5, 3)
    m = map_for_ordering(poly, word)
    expected = {
        (1, 2): SignedMonomial.make(-1, {(1, 4): 1, (2, 5): -1, (3, 5): -1}),
        (1, 5): SignedMonomial.make(-1, {(3, 5): 1, (1, 4): -1, (2, 4): -1}),
        (2, 3): SignedMonomial.make(-1, {(2, 5): 1, (1, 3): -1, (1, 4): -1}),
        (3, 4): SignedMonomial.make(-1, {(1, 3): 1, (2, 4): -1, (2, 5): -1}),
        (4, 5): SignedMonomial.make(-1, {(2, 4): 1, (1, 3): -1, (3, 5): -1}),
    }
    for (a, b), mono in expected.items():
        assert m.image(label_chord(word, a, b)) == mono
    report("03 pentagon example", "12 ordering/pattern pairs and 5 map formulas")


def test_c04_hexagon_excluded_patterns():
    extras = consistent_bits(6, primitive_only=True) - consistent_bits(6)
    expected = {SignPattern.from_string(6, s).bits for s in N6_EXCLUDED_14}
    assert extras == expected and len(expected) == 14
    report("04 hexagon exclusions", "exactly the 14 primitive-only patterns")


def _expected_first_swap_image(poly: Polygon, src_chord) -> SignedMonomial:
    """Image of a chart chord under the swap of the first two labels,
    classified by the label pair as in the worked example."""
    n = poly.n
    swap = {1: 2, 2: 1}
    labels = {swap.get(src_chord[0], src_chord[0]), swap.get(src_chord[1], src_chord[1])}
    if labels == {n, 1}:
        exps = {(2, n): 1}
        exps.update({(1, i): -1 for i in range(3, n)})
        return SignedMonomial.make(-1, exps)
    if n in labels:
        (i,) = labels - {n}
        return SignedMonomial.make(1, {poly.chord(i, n): 1, poly.chord(1, i): 1})
    if 1 in labels:
        (i,) = labels - {1}
        return SignedMonomial.make(1, {poly.chord(1, i): 1, poly.chord(2, i): 1})
    if 2 in labels:
        (i,) = labels - {2}
        return SignedMonomial.make(1, {poly.chord(1, i): -1})
    return SignedMonomial.make(1, {poly.chord(*labels): 1})


def test_c05_first_swap_map_golden():
    for n in (6, 7, 8):
        poly = Polygon(n)
        m = map_for_transposition(poly, 1, 2)
        for c in poly.chords:
            assert m.image(c) == _expected_first_swap_image(poly, c), (n, c)
    report("05 label-swap map", "all images match for n=6,7,8")


def _expected_spanning_swap_image(poly: Polygon, l: int, src_chord) -> SignedMonomial:
    """Image of a chart chord under the swap of labels 1 and l, from the
    closed-form table, classified by the label pair."""
    n = poly.n
    swap = {1: l, l: 1}
    labels = {swap.get(src_chord[0], src_chord[0]), swap.get(src_chord[1], src_chord[1])}
    mid = set(range(2, l - 1))
    upper = set(range(l + 1, n))
    exps: dict = {}

    def mul(i, j, e=1):
        c = poly.chord(i, j)
        exps[c] = exps.get(c, 0) + e

    if n in labels:
        (other,) = labels - {n}
        if other == 1:
            mul(l, n)
            for c in crossing_chords(poly, poly.chord(l, n)):
                mul(*c, -1)
            return SignedMonomial.make(-1, exps)
        if other == l - 1:
            for c in crossing_chords(poly, poly.chord(l - 1, n)):
                mul(*c)
            return SignedMonomial.make(1, exps)
        if other in mid:
            for k in range(l, n):
                mul(k, other, -1)
            return SignedMonomial.make(1, exps)
        assert other in upper
        mul(other, n)
        for j in range(1, l):
            mul(other, j)
        return SignedMonomial.make(1, exps)
    if 1 in labels:
        (other,) = labels - {1}
        if other == l:
            for c in crossing_chords(poly, poly.chord(1, l)):
                mul(*c)
            return SignedMonomial.make(1, exps)
        if other in mid:
            for k in range(l + 1, n + 1):
                mul(k, other, -1)
            return SignedMonomial.make(1, exps)
        assert other in upper
        for j in range(1, l + 1):
            mul(other, j)
        return SignedMonomial.make(1, exps)
    if l in labels:
        (other,) = labels - {l}
        if other == l - 1:
            mul(1, l - 1)
            for c in crossing_chords(poly, poly.chord(1, l - 1)):
                mul(*c, -1)
            return SignedMonomial.make(-1, exps)
        if other in mid:
            mul(1, other)
            for k in range(l, n + 1):
                mul(k, other)
            return SignedMonomial.make(1, exps)
        assert other in upper
        for j in range(2, l):
            mul(other, j, -1)
        return SignedMonomial.make(1, exps)
    if l - 1 in labels:
        (other,) = labels - {l - 1}
        if other in mid:
            for k in range(l - 1, n + 1):
                mul(k, other)
            return SignedMonomial.make(1, exps)
        assert other in upper
        # printed without the inversion in the source; the cross-ratio
        # relations (and the exact oracle) force the reciprocal here
        for j in range(1, l - 1):
            mul(other, j, -1)
        return SignedMonomial.make(1, exps)
    mul(*sorted(labels))
    return SignedMonomial.make(1, exps)


def test_c06_spanning_swap_table():
    checked = 0
    for n in (8, 9):
        poly = Polygon(n)
        for l in range(3, n - 1):
            m = map_for_transposition(poly, 1, l)
            for c in poly.chords:
                assert m.image(c) == _expected_spanning_swap_image(poly, l, c), (n, l, c)
                checked += 1
    report("06 spanning-swap table", f"{checked} images match for n=8,9, all l")


def _lex_key(state):
    negatives, length = state
    return (negatives, length or 0)


def test_c07_solver_total_correctness():
    t0 = time.time()
    total = 0
    for n in range(4, 9):
        poly = Polygon(n)
        for bits in sorted(consistent_bits(n)):
            pattern = SignPattern(n, bits)
            word, trace = solve(poly, pattern)
            assert sign_of_ordering(poly, word) == pattern
            seq = trace.state_stats()
            for idx, state in enumerate(seq[:-1]):
                if state[1] in (2, 3):
                    assert seq[idx + 1][0] < state[0]
                window = seq[idx + 1 : idx + 1 + 2 * n]
                assert any(_lex_key(s) < _lex_key(state) for s in window)
            total += 1
    assert total == 3 + 12 + 60 + 360 + 2520
    report("07 solver correctness", f"{total} patterns solved in {time.time()-t0:.1f}s")


def test_c08_solver_cross_validation():
    for n in range(4, 8):
        poly = Polygon(n)
        for bits in sorted(consistent_bits(n)):
            pattern = SignPattern(n, bits)
            word, _ = solve(poly, pattern)
            other = ordering_from_sign_matrix(poly, reconstruct_sign_matrix(poly, pattern))
            assert word == other
    report("08 solver cross-validation", "matrix route agrees for n=4..7")


def test_c09_oracle_identities():
    t0 = time.time()
    for n in range(4, 9):
        rng = random.Random(1000 + n)
        for trial in range(1000):
            config = random_config(rng, n, with_infinity=trial % 3 == 0)
            i, j, k, l = rng.sample(range(1, n + 1), 4)
            w = cross_ratio(config, i, j, k, l)
            assert w == cross_ratio(config, j, i, l, k) == cross_ratio(config, k, l, i, j)
            assert cross_ratio(config, i, j, l, k) == 1 / w
            assert cross_ratio(config, i, k, j, l) == 1 - w
            if n >= 5:
                m = rng.choice([v for v in range(1, n + 1) if v not in (i, j, k, l)])
                assert w == cross_ratio(config, i, j, k, m) * cross_ratio(config, i, j, m, l)
    for n in range(4, 8):
        poly = Polygon(n)
        for word in all_orderings(poly):
            gauged = standard_gauge(realize(poly, word), 1, 2, n)
            vals = u_values(gauged)
            assert points_from_u(poly, vals).points == gauged.points
    report("09 oracle identities", f"5000 random configs + exact roundtrips in {time.time()-t0:.1f}s")


def _none_matches(n: int, pins: dict) -> bool:
    poly = Polygon(n)
    for bits in consistent_bits(n):
        pattern = SignPattern(n, bits)
        if all(pattern.sign(c) == s for c, s in pins.items()):
            return False
    return True


def test_c10_pentagon_hexagon_exclusions():
    # pentagon blocks (n | 1 | 2 | 3..n-2 | n-1): {n,2} and {1,n-1} negative
    # cannot combine with {2,n-1} positive
    assert _none_matches(5, {(1, 3): -1, (2, 5): -1, (3, 5): 1})
    # pentagon blocks (n | 1 | 2 | 3 | 4..n-1): mirrored configuration
    assert _none_matches(5, {(1, 3): -1, (1, 4): 1, (2, 4): -1})
    # hexagon blocks (n | 1 | 2 | S | i | T)
    assert _none_matches(6, {(1, 3): -1, (1, 5): 1, (2, 5): -1, (3, 5): 1})
    report("10 pentagon/hexagon exclusions", "no consistent pattern matches")


def test_c11_octagon_heptagon_exclusions():
    # octagon blocks (n | 1 | 2..l-2 | l-1 | l | l+1..i-1 | i | i+1..n-1);
    # the lemma's standing hypotheses pin {1,5} negative and the five
    # short-lift chords positive
    setup = {(1, 5): -1, (1, 3): 1, (1, 4): 1, (2, 4): 1, (2, 5): 1, (3, 5): 1}
    rows = [
        {(3, 7): -1, (1, 7): 1, (2, 7): 1, (4, 7): 1, (5, 7): 1},
        {(3, 7): 1, (1, 7): 1, (2, 7): -1, (4, 7): 1, (5, 7): 1},
        {(3, 7): 1, (1, 7): 1, (2, 7): 1, (4, 7): -1, (5, 7): 1},
    ]
    for pins in rows:
        assert _none_matches(8, {**setup, **pins})
    # heptagon degenerations: the next-to-l and next-to-n vertices
    assert _none_matches(7, {**setup, (3, 6): 1, (1, 6): 1, (2, 6): -1, (4, 6): 1})
    assert _none_matches(7, {**setup, (3, 7): 1, (2, 7): 1, (4, 7): -1, (5, 7): 1})
    report("11 octagon/heptagon exclusions", "rows 1-3 and both degenerations excluded")


@pytest.mark.stretch
def test_c12_stretch_nine_gon_count():
    t0 = time.time()
    count = count_consistent(Polygon(9))
    assert count == 20160 == ordering_count(Polygon(9))
    report("12 stretch n=9", f"20160 = 8!/2 in {time.time()-t0:.1f}s")


def test_c13_ten_gon_count():
    t0 = time.time()
    count = count_consistent(Polygon(10))
    assert count == 181440 == ordering_count(Polygon(10))
    report("13 n=10", f"181440 = 9!/2 in {time.time()-t0:.1f}s")


@pytest.mark.stretch
def test_c14_stretch_eleven_gon_count():
    t0 = time.time()
    count = count_consistent(Polygon(11))
    assert count == 1814400 == ordering_count(Polygon(11))
    report("14 stretch n=11", f"1814400 = 10!/2 in {time.time()-t0:.1f}s")
