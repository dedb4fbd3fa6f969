from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from usigns import (
    ChartMismatchError,
    MonomialMap,
    PointConfig,
    Polygon,
    SignedMonomial,
    SignPattern,
    all_orderings,
    compose,
    evaluate,
    invert,
    map_for_ordering,
    map_for_transposition,
    points_from_u,
    realize,
    shortest_negative,
    sign_of_ordering,
    transport,
    u_values,
)
from usigns import monomial, signs
from usigns.points import standard_gauge

from conftest import (
    consistent_bits,
    elementary_tables,
    label_chord,
    random_config,
    reference_elementary_images,
    rotate_pattern,
    sort_positions,
    table_from_images,
    transport_by_table,
)


def u(sign, *factors):
    """Shorthand monomial: u(-1, ((1,3), 1), ((2,4), -1))."""
    return SignedMonomial.make(sign, dict(factors))


def test_signed_monomial_basics():
    m = SignedMonomial.make(-1, {(2, 4): -1, (1, 3): 1, (3, 5): 0})
    assert m.powers == (((1, 3), 1), ((2, 4), -1))
    assert m.render() == "-u[1,3]*u[2,4]^-1"
    assert SignedMonomial.make(1, {}).render() == "1"
    with pytest.raises(ValueError):
        SignedMonomial(2, ())


def test_odd_is_the_parity_of_four_corner_compares():
    # the sign bit of a chord image is the parity of four compares; it is
    # written with XOR, and agrees with the sum form on all 24 orders of four
    # values, as ints and as numpy int8 columns, where adding bools is a
    # logical OR and the sum form breaks
    import numpy as np

    orders = list(itertools.permutations(range(4)))
    want = [((a > e) + (b > c) + (a > c) + (b > e)) & 1 for a, b, c, e in orders]
    assert [signs._odd(*order) for order in orders] == want
    columns = np.array(orders, dtype=np.int8).T
    assert signs._odd(*columns).tolist() == want


def test_identity_map():
    poly = Polygon(5)
    ident = MonomialMap(5, poly.identity_word, poly.identity_word)
    assert ident.is_identity()
    assert ident.render().splitlines()[0] == "u[1,3] -> u[1,3]"


def test_elementary_map_k1_formulas():
    # the swap of the first two labels, written out chord by chord
    for n in (6, 7, 8):
        poly = Polygon(n)
        m = map_for_transposition(poly, 1, 2)
        assert m.source == (2, 1) + tuple(range(3, n + 1))
        for i in range(3, n):
            assert m.image((1, i)) == u(1, ((1, i), -1))
        for i in range(4, n):
            assert m.image((2, i)) == u(1, ((1, i), 1), ((2, i), 1))
        for i in range(3, n - 1):
            assert m.image((i, n)) == u(1, ((i, n), 1), ((1, i), 1))
        special = {(2, n): 1}
        special.update({(1, i): -1 for i in range(3, n)})
        assert m.image((2, n)) == SignedMonomial.make(-1, special)
        # chords not touching n, 1, 2 are fixed
        assert m.image((3, 5)) == u(1, ((3, 5), 1))


def test_elementary_map_wraparound():
    poly = Polygon(6)
    m = map_for_transposition(poly, 6, 1)
    assert m.source == (6, 2, 3, 4, 5, 1)
    # {5,1} spans position 6, so it is the sign-flipping case
    assert m.image((1, 5)) == u(
        -1, ((1, 5), 1), ((2, 6), -1), ((3, 6), -1), ((4, 6), -1)
    )
    assert m.image((4, 6)) == u(1, ((4, 6), -1))
    assert m.image((2, 5)) == u(1, ((2, 5), 1), ((2, 6), 1))
    assert m.image((1, 3)) == u(1, ((1, 3), 1), ((3, 6), 1))
    assert m.image((2, 4)) == u(1, ((2, 4), 1))


def test_elementary_map_is_involutive():
    for n in (4, 5, 6, 7, 8):
        poly = Polygon(n)
        for k in range(1, n + 1):
            e = map_for_transposition(poly, k, k % n + 1)
            assert invert(e).images == e.images


def test_compose_chart_checks():
    poly = Polygon(5)
    e1 = map_for_transposition(poly, 1, 2)
    e2 = map_for_transposition(poly, 2, 3)
    with pytest.raises(ChartMismatchError):
        compose(e1, e2)
    with pytest.raises(ChartMismatchError):
        compose(e1, map_for_transposition(Polygon(6), 1, 2))
    ident = MonomialMap(5, poly.identity_word, poly.identity_word)
    assert compose(ident, e1).images == e1.images


def test_map_for_ordering_identity():
    poly = Polygon(6)
    assert map_for_ordering(poly, poly.identity_word).is_identity()


def test_map_for_ordering_pentagon_example():
    # the five pentagon images for the ordering 1 4 2 5 3
    poly = Polygon(5)
    word = (1, 4, 2, 5, 3)
    m = map_for_ordering(poly, word)
    assert m.source == word and m.target == (1, 2, 3, 4, 5)
    expected = {
        (1, 2): u(-1, ((1, 4), 1), ((2, 5), -1), ((3, 5), -1)),
        (1, 5): u(-1, ((3, 5), 1), ((1, 4), -1), ((2, 4), -1)),
        (2, 3): u(-1, ((2, 5), 1), ((1, 3), -1), ((1, 4), -1)),
        (3, 4): u(-1, ((1, 3), 1), ((2, 4), -1), ((2, 5), -1)),
        (4, 5): u(-1, ((2, 4), 1), ((1, 3), -1), ((3, 5), -1)),
    }
    for (a, b), mono in expected.items():
        assert m.image(label_chord(word, a, b)) == mono


def test_map_for_transposition_adjacent_is_elementary():
    for n in (5, 6):
        poly = Polygon(n)
        m = map_for_transposition(poly, 1, 2)
        assert m.images == reference_elementary_images(poly, 1)
        assert map_for_transposition(poly, 2, 1) == m
        with pytest.raises(ValueError):
            map_for_transposition(poly, 2, 2)


@pytest.mark.parametrize("n", [5, 6])
def test_map_for_transposition_rejects_positions_outside_1_to_n(n):
    # 0, -1 and n + 1 are not wrapped onto a position, on either side
    poly = Polygon(n)
    for bad in (0, -1, n + 1):
        for p, q in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError) as exc:
                map_for_transposition(poly, p, q)
            assert str(exc.value) == f"position {bad} is not in 1..{n}"


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_transposition_path_independence(n):
    # arc decomposition in either direction equals the bubble-sorted map
    poly = Polygon(n)
    for p, q in itertools.combinations(range(1, n + 1), 2):
        m1 = map_for_transposition(poly, p, q)
        m2 = map_for_transposition(poly, q, p)
        word = list(poly.identity_word)
        word[p - 1], word[q - 1] = word[q - 1], word[p - 1]
        m3 = map_for_ordering(poly, tuple(word))
        assert m1.images == m2.images == m3.images


def test_lemma_closed_form_for_short_chord_under_1l():
    # image of the chord between positions l-1 and l (labels l-1, l swapped in)
    for n in (8, 9):
        poly = Polygon(n)
        for l in range(4, n - 1):
            m = map_for_transposition(poly, 1, l)
            exps = {poly.chord(1, l - 1): 1}
            for k in range(l, n + 1):
                for j in range(2, l - 1):
                    c = poly.chord(k, j)
                    exps[c] = exps.get(c, 0) - 1
            assert m.image((1, l - 1)) == SignedMonomial.make(-1, exps)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_invert_roundtrip(n):
    # both composites are the identity chart change, whose closed-form
    # images is_identity reads
    poly = Polygon(n)
    rng = random.Random(31337 + n)
    words = list(all_orderings(poly))
    sample = rng.sample(words, min(25, len(words)))
    ordering_maps = [map_for_ordering(poly, word) for word in sample]
    between_maps = [  # from the chart of w1 to the chart of w2, neither standard
        compose(invert(map_for_ordering(poly, w2)), map_for_ordering(poly, w1))
        for w1, w2 in zip(sample[:10], sample[10:20])
    ]
    for m in ordering_maps + between_maps:
        mi = invert(m)
        assert mi.source == m.target and mi.target == m.source
        assert compose(m, mi).is_identity()
        assert compose(mi, m).is_identity()


def test_invert_identity():
    poly = Polygon(6)
    assert invert(MonomialMap(6, poly.identity_word, poly.identity_word)).is_identity()


def test_invert_golden():
    m = invert(map_for_ordering(Polygon(5), (1, 4, 2, 5, 3)))
    assert m.source == (1, 2, 3, 4, 5) and m.target == (1, 4, 2, 5, 3)
    assert m.render() == "\n".join(
        [
            "u[1,3] -> -u[1,3]^-1*u[1,4]^-1*u[2,5]",
            "u[1,4] -> -u[1,3]*u[2,4]^-1*u[2,5]^-1",
            "u[2,4] -> -u[1,3]^-1*u[2,4]*u[3,5]^-1",
            "u[2,5] -> -u[1,4]^-1*u[2,4]^-1*u[3,5]",
            "u[3,5] -> -u[1,4]*u[2,5]^-1*u[3,5]^-1",
        ]
    )


def test_maps_are_named_by_their_words():
    poly = Polygon(6)
    w1, w2 = (3, 1, 6, 2, 5, 4), (2, 6, 4, 1, 3, 5)
    m1, m2 = map_for_ordering(poly, w1), map_for_ordering(poly, w2)
    assert invert(m1) == MonomialMap(6, poly.identity_word, w1)
    assert compose(invert(m2), m1) == MonomialMap(6, w1, w2)
    assert compose(m1, compose(invert(m1), m2)) == m2
    with pytest.raises(ValueError):
        MonomialMap(6, w1, (1, 2, 3, 4, 5))  # wrong length
    with pytest.raises(ValueError):
        MonomialMap(6, (1, 2, 3, 3, 5, 6), w2)  # repeated label
    with pytest.raises(ValueError):
        map_for_ordering(poly, (1, 2, 3, 4, 5, 6, 7))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_evaluate_matches_relabeled_configuration(n):
    # the map expresses the relabeled chart coordinates in standard ones
    poly = Polygon(n)
    base = realize(poly, poly.identity_word)
    vals = u_values(base)
    for word in all_orderings(poly):
        m = map_for_ordering(poly, word)
        assert evaluate(m, vals) == u_values(base.permuted(word))


def test_evaluate_preserves_relations():
    poly = Polygon(6)
    vals = u_values(realize(poly, poly.identity_word))
    out = evaluate(map_for_ordering(poly, (1, 3, 5, 2, 4, 6)), vals)
    points_from_u(poly, out)  # raises RelationViolationError unless every relation holds


def test_evaluate_identity_and_zero_rejection():
    poly = Polygon(5)
    vals = u_values(realize(poly, poly.identity_word))
    ident = MonomialMap(5, poly.identity_word, poly.identity_word)
    assert evaluate(ident, vals) == vals
    vals[(1, 3)] = vals[(1, 3)] * 0
    with pytest.raises(ValueError):
        evaluate(ident, vals)


def test_render_golden():
    poly = Polygon(5)
    m = map_for_ordering(poly, (1, 4, 2, 5, 3))
    assert m.render() == "\n".join(
        [
            "u[1,3] -> -u[1,4]*u[2,5]^-1*u[3,5]^-1",
            "u[1,4] -> -u[1,4]^-1*u[2,4]^-1*u[3,5]",
            "u[2,4] -> -u[1,3]^-1*u[2,4]*u[3,5]^-1",
            "u[2,5] -> -u[1,3]*u[2,4]^-1*u[2,5]^-1",
            "u[3,5] -> -u[1,3]^-1*u[1,4]^-1*u[2,5]",
        ]
    )


@pytest.mark.parametrize("n", range(4, 13))
def test_elementary_map_matches_five_case_formula(n):
    poly = Polygon(n)
    for k in range(1, n + 1):
        m = map_for_transposition(poly, k, k % n + 1)
        swapped = list(poly.identity_word)
        swapped[k - 1], swapped[k % n] = swapped[k % n], swapped[k - 1]
        assert (m.source, m.target) == (tuple(swapped), poly.identity_word)
        assert m.images == reference_elementary_images(poly, k)


def reference_compose(poly, outer, inner):
    """Compose two (source, target, images) maps by substituting outer's
    images into inner's monomials and adding up the exponents."""
    assert outer[0] == inner[1]
    index = poly.chord_index
    images = []
    for mono in inner[2]:
        sign = mono.sign
        exps = {}
        for c, e in mono.powers:
            img = outer[2][index[c]]
            if e & 1 and img.sign < 0:
                sign = -sign
            for d, f in img.powers:
                exps[d] = exps.get(d, 0) + e * f
        images.append(SignedMonomial.make(sign, exps))
    return inner[0], outer[1], tuple(images)


def render_images(poly, images):
    return "\n".join(f"u[{i},{j}] -> {mono.render()}" for (i, j), mono in zip(poly.chords, images))


def reference_fold(poly, source, ks):
    """(source, target, images) of the chart change along the adjacent
    position swaps ``ks``, composed one case-by-case elementary map at a
    time."""
    n = poly.n
    chart = tuple(source)
    total = (chart, chart, tuple(SignedMonomial.make(1, {c: 1}) for c in poly.chords))
    for k in ks:
        swapped = list(chart)
        swapped[k - 1], swapped[k % n] = swapped[k % n], swapped[k - 1]
        step = (chart, tuple(swapped), reference_elementary_images(poly, k))
        total = reference_compose(poly, step, total)
        chart = tuple(swapped)
    return total


def reference_chart_change(poly, source, target):
    """Fold along a pass-by-pass bubble sort (a different route from the
    library's, which must not matter)."""
    position = {label: p for p, label in enumerate(target, 1)}
    w = [position[v] for v in source]
    ks = []
    for end in range(len(w) - 1, 0, -1):
        for k in range(1, end + 1):
            if w[k - 1] > w[k]:
                w[k - 1], w[k] = w[k], w[k - 1]
                ks.append(k)
    m = reference_fold(poly, source, ks)
    assert m[1] == tuple(target)
    return m


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10])
def test_fold_matches_public_compose_reference(n):
    poly = Polygon(n)
    rng = random.Random(2718 + n)
    for _ in range(4):
        w1 = tuple(rng.sample(range(1, n + 1), n))
        w2 = tuple(rng.sample(range(1, n + 1), n))
        for m in (map_for_ordering(poly, w1), invert(map_for_ordering(poly, w1))):
            ref = reference_chart_change(poly, m.source, m.target)
            assert (m.source, m.target, m.render()) == ref[:2] + (render_images(poly, ref[2]),)
        between = compose(invert(map_for_ordering(poly, w1)), map_for_ordering(poly, w2))
        bi = invert(between)  # chart of w1 to chart of w2
        ref = reference_chart_change(poly, w1, w2)
        assert (bi.source, bi.target, bi.render()) == ref[:2] + (render_images(poly, ref[2]),)
        p, q = rng.sample(range(1, n + 1), 2)
        word = list(poly.identity_word)
        word[p - 1], word[q - 1] = word[q - 1], word[p - 1]
        d = (q - p) % n
        up = [(p - 1 + t) % n + 1 for t in range(d)]  # arc from p up to q, wrapping
        ref = reference_fold(poly, tuple(word), up + up[-2::-1])
        assert ref[1] == poly.identity_word
        assert map_for_transposition(poly, p, q).render() == render_images(poly, ref[2])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_chart_change_matches_reference_on_every_word(n):
    poly = Polygon(n)
    ident = poly.identity_word
    for word in itertools.permutations(ident):
        to_standard = map_for_ordering(poly, word)
        from_standard = invert(to_standard)
        for m, (source, target) in ((to_standard, (word, ident)), (from_standard, (ident, word))):
            assert (m.source, m.target, m.images) == reference_chart_change(poly, source, target)


def reference_rows(poly, source, target):
    """``monomial._rows`` from its docstring: A, B, C, E are the target
    positions of the labels at source positions i, i+1, j, j+1, the chord's
    u is d_AE*d_BC / (d_AC*d_BE), and each product is one of the pairings
    X, Y, Z of the sorted p < q < r < s."""
    place = {label: k for k, label in enumerate(target, 1)}
    out = []
    for i, j in poly.chords:
        A, B, C, E = (place[source[poly.wrap(v) - 1]] for v in (i, i + 1, j, j + 1))
        p, q, r, s = sorted((A, B, C, E))

        def pairing(x, y, z, w):
            return frozenset((frozenset((x, y)), frozenset((z, w))))

        num, den = pairing(A, E, B, C), pairing(A, C, B, E)
        X, Z = pairing(p, q, r, s), pairing(p, s, q, r)
        odd = ((A > E) + (B > C) + (A > C) + (B > E)) % 2 == 1
        out.append((odd, p, q, r, s, (num == Z) - (den == Z), (num == X) - (den == X)))
    return out


@pytest.mark.parametrize("n", range(4, 31))
def test_rows_match_docstring_reference(n):
    poly = Polygon(n)
    rng = random.Random(2900 + n)
    ident = poly.identity_word
    for _ in range(6):
        word = tuple(rng.sample(ident, n))
        other = tuple(rng.sample(ident, n))
        for source, target in ((word, ident), (ident, word), (word, other)):
            assert list(monomial._rows(poly, source, target)) == reference_rows(poly, source, target)


@pytest.mark.parametrize("n", [20, 30])
def test_map_for_ordering_matches_oracle_at_large_n(n):
    # no fold at this size: the relabeled configuration is the reference
    poly = Polygon(n)
    rng = random.Random(4242 + n)
    base = realize(poly, tuple(rng.sample(range(1, n + 1), n)))
    vals = u_values(base)
    for _ in range(2):
        word = tuple(rng.sample(range(1, n + 1), n))
        assert evaluate(map_for_ordering(poly, word), vals) == u_values(base.permuted(word))


def test_evaluate_negative_rationals_and_ints():
    pool = [Fraction(-2, 3), Fraction(3, -7), -5, -1, 1, 4, Fraction(7, 2), Fraction(-9, 4)]
    for n in (5, 6, 7, 8):
        poly = Polygon(n)
        rng = random.Random(161 + n)
        for _ in range(5):
            w1 = tuple(rng.sample(range(1, n + 1), n))
            w2 = tuple(rng.sample(range(1, n + 1), n))
            m1 = map_for_ordering(poly, w1)
            for m in (m1, invert(m1), compose(invert(map_for_ordering(poly, w2)), m1)):
                vals = {c: rng.choice(pool) for c in poly.chords}
                out = evaluate(m, vals)
                for c, mono in zip(poly.chords, m.images):
                    ref = Fraction(mono.sign)
                    for d, e in mono.powers:
                        ref *= Fraction(vals[d]) ** e
                    assert type(out[c]) is Fraction and out[c] == ref
    golden = map_for_ordering(Polygon(5), (1, 4, 2, 5, 3))  # see test_render_golden
    vals = {c: -2 for c in Polygon(5).chords}
    assert evaluate(golden, vals)[(1, 3)] == Fraction(1, 2)  # -(-2) * (-2)^-1 * (-2)^-1


@pytest.mark.parametrize("n", [8, 10, 12, 30, 60])
def test_evaluate_builds_no_monomials(n, monkeypatch):
    # evaluate reads each rectangle row off its corners; only images,
    # image, render and is_identity build monomials or list chord runs
    def refuse(*args):
        raise AssertionError("built a SignedMonomial")

    def refuse_runs(*args):
        raise AssertionError("listed chord runs")

    poly = Polygon(n)
    rng = random.Random(1700 + n)
    base = random_config(rng, n, with_infinity=True)
    vals = u_values(base)
    monkeypatch.setattr(monomial, "SignedMonomial", refuse)
    monkeypatch.setattr(monomial, "_cut_runs", refuse_runs)
    for _ in range(3):
        word = tuple(rng.sample(range(1, n + 1), n))
        out = evaluate(map_for_ordering(poly, word), vals)
        assert out == u_values(base.permuted(word))
        assert all(type(v) is Fraction for v in out.values())


def test_values_read_alike_as_ints_and_fractions():
    # evaluate and points_from_u share one reader of nonzero chord values
    square = {(1, 3): -1, (2, 4): 2}  # z = 0, 1, 1/2, infinity
    expected = PointConfig.from_values([0, 1, Fraction(1, 2), "inf"])
    for vals in (square, {c: Fraction(v) for c, v in square.items()}):
        assert points_from_u(Polygon(4), vals) == expected
    for n in (5, 8):
        poly = Polygon(n)
        rng = random.Random(1710 + n)
        m = map_for_ordering(poly, tuple(rng.sample(range(1, n + 1), n)))
        ints = {c: rng.choice([-3, -2, -1, 1, 2, 5]) for c in poly.chords}
        fractions = {c: Fraction(v) for c, v in ints.items()}
        assert evaluate(m, ints) == evaluate(m, fractions)
        mixed = {
            c: int(v) if v.denominator == 1 else v
            for c, v in u_values(random_config(rng, n, with_infinity=True)).items()
        }
        exact = {c: Fraction(v) for c, v in mixed.items()}
        assert evaluate(m, mixed) == evaluate(m, exact)
        assert points_from_u(poly, mixed) == points_from_u(poly, exact)
        for zero in (0, Fraction(0)):
            bad = dict(fractions)
            bad[(2, 4)] = bad[(3, 5)] = zero  # the first in chord order is named
            with pytest.raises(ValueError, match=r"^value of chord \(2, 4\) is zero$"):
                evaluate(m, bad)
            with pytest.raises(ValueError, match=r"^value of chord \(2, 4\) is zero$"):
                points_from_u(poly, bad)


@pytest.mark.parametrize("n", [5, 8])
def test_missing_chord_value_is_named(n):
    # the first chord in chord order without a value is named, not a KeyError
    poly = Polygon(n)
    m = map_for_ordering(poly, tuple(reversed(poly.identity_word)))
    vals = {c: Fraction(k + 2) for k, c in enumerate(poly.chords)}
    del vals[(2, 4)], vals[(1, 3)]
    for call in (lambda: evaluate(m, vals), lambda: points_from_u(poly, vals)):
        with pytest.raises(ValueError, match=r"^no value for chord \(1, 3\)$"):
            call()


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_chart_change_round_trip_past_property_range(n):
    # seeded placements with negative rationals and one infinite point, at
    # sizes past the hypothesis strategy below
    poly = Polygon(n)
    rng = random.Random(1300 + n)
    for _ in range(2):
        word = tuple(rng.sample(range(1, n + 1), n))
        base = random_config(rng, n, with_infinity=True)
        moved = base.permuted(word)
        m = map_for_ordering(poly, word)
        assert compose(m, invert(m)).is_identity()
        assert transport(sign_of_ordering(poly, word), m).is_all_plus()
        values = evaluate(m, u_values(base))
        assert values == u_values(moved)
        assert points_from_u(poly, values) == standard_gauge(moved, 1, 2, n)


_chart_settings = settings(max_examples=25, derandomize=True, deadline=None, database=None)


@st.composite
def charted_words(draw):
    n = draw(st.integers(min_value=5, max_value=12))
    word = tuple(draw(st.permutations(range(1, n + 1))))
    placement = tuple(draw(st.permutations(range(1, n + 1))))
    return n, word, placement


@_chart_settings
@given(charted_words())
def test_chart_change_properties(case):
    n, word, placement = case
    poly = Polygon(n)
    m = map_for_ordering(poly, word)
    assert compose(m, invert(m)).is_identity()
    assert transport(sign_of_ordering(poly, word), m).is_all_plus()
    base = realize(poly, placement)
    moved = base.permuted(word)
    values = evaluate(m, u_values(base))
    assert values == u_values(moved)
    assert points_from_u(poly, values) == standard_gauge(moved, 1, 2, n)


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
