from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from usigns import (
    PointConfig,
    Polygon,
    ProjectivePoint,
    RelationViolationError,
    SignPattern,
    all_orderings,
    cross_ratio,
    extended_relations,
    points_from_u,
    realize,
    signs_from_points,
    u_values,
)
from usigns.points import _u_terms, standard_gauge

from conftest import random_config, relations_vanish, transformed


def test_projective_point_canonical_form():
    p = ProjectivePoint(Fraction(2), Fraction(6))
    assert (p.x, p.y) == (Fraction(1), Fraction(3))
    assert p.value() == 3
    inf = ProjectivePoint.infinity()
    assert inf.is_infinite() and (inf.x, inf.y) == (0, 1)
    with pytest.raises(ValueError):
        ProjectivePoint(Fraction(0), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        inf.value()


def test_config_rejects_collisions():
    from_values = PointConfig.from_values
    cases = [
        (lambda: from_values([0, 1, 1, 3]), "points 2 and 3 coincide"),
        (lambda: from_values([0, "inf", None, 3]), "points 2 and 3 coincide"),
        # the lowest label pair is named first
        (lambda: from_values([5, 1, 2, 1, 5, "inf", "inf"]), "points 1 and 5 coincide"),
        (lambda: from_values([0, 2, 1, 2, 1]), "points 2 and 4 coincide"),
        (lambda: from_values(["inf", 0, Fraction(1, 2), "inf"]), "points 1 and 4 coincide"),
        (
            lambda: PointConfig((ProjectivePoint(2, 6), ProjectivePoint.finite(3))),
            "points 1 and 2 coincide",
        ),
        (
            lambda: realize(Polygon(5), (1, 2, 3, 4, 5)).permuted((3, 1, 4, 1)),
            "points 2 and 4 coincide",
        ),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def reference_plucker(config, a, b):
    """The determinant of two canonical representatives, in Fractions."""
    p, q = config.point(a), config.point(b)
    return p.x * q.y - p.y * q.x


def reference_cross_ratio(config, i, j, k, l):
    num = reference_plucker(config, i, k) * reference_plucker(config, j, l)
    return num / (reference_plucker(config, i, l) * reference_plucker(config, j, k))


def reference_u_values(config):
    poly = Polygon(config.n)
    return {
        (i, j): reference_cross_ratio(config, i, poly.wrap(i + 1), poly.wrap(j + 1), j)
        for i, j in poly.chords
    }


@pytest.mark.parametrize("n", range(4, 13))
def test_oracle_matches_fraction_reference(n):
    poly = Polygon(n)
    rng = random.Random(6060 + n)
    configs = []
    for trial in range(6):
        config = random_config(rng, n, with_infinity=trial % 2 == 0)
        # the three ways a table is built: from points, reindexed, realized
        configs += [config, config.permuted(rng.sample(range(1, n + 1), n))]
    configs.append(realize(poly, rng.sample(range(1, n + 1), n)))
    for config in configs:
        for _ in range(30):
            quad = rng.sample(range(1, n + 1), 4)
            value = cross_ratio(config, *quad)
            assert type(value) is Fraction
            assert value == reference_cross_ratio(config, *quad)
        vals = u_values(config)
        reference = reference_u_values(config)
        assert list(vals) == list(reference) == list(poly.chords)
        assert vals == reference
        assert all(type(v) is Fraction for v in vals.values())
        assert signs_from_points(config) == SignPattern.from_string(
            n, "".join("+" if reference[c] > 0 else "-" for c in poly.chords)
        )


@pytest.mark.parametrize("n", range(4, 31))
def test_u_terms_match_wrapped_determinants(n):
    # d_ae*d_bc over d_ac*d_be at labels i, i+1, j, j+1, and its value the
    # cross-ratio (i, i+1 | j+1, j) in Fractions
    poly = Polygon(n)
    rng = random.Random(2700 + n)
    configs = [random_config(rng, n, with_infinity=t % 2 == 0) for t in range(4)]
    configs.append(realize(poly, rng.sample(range(1, n + 1), n)))
    for config in configs:
        d = config._dets
        terms = _u_terms(config)
        assert len(terms) == poly.chord_count
        for (i, j), (num, den) in zip(poly.chords, terms):
            a, b, c, e = (poly.wrap(v) - 1 for v in (i, i + 1, j, j + 1))
            assert (num, den) == (d[a][e] * d[b][c], d[a][c] * d[b][e])
            assert Fraction(num, den) == reference_cross_ratio(
                config, i, poly.wrap(i + 1), poly.wrap(j + 1), j
            )


def test_config_table_is_not_state():
    config = random_config(random.Random(77), 7, with_infinity=True)
    stale = PointConfig(config.points)
    object.__setattr__(stale, "_dets", ())
    assert stale == config and hash(stale) == hash(config)
    assert repr(stale) == repr(config) == f"PointConfig(points={config.points!r})"
    blob = pickle.dumps(stale)
    assert blob == pickle.dumps(config)
    for twin in (pickle.loads(blob), copy.deepcopy(stale), copy.copy(stale)):
        assert twin == config
        assert u_values(twin) == u_values(config)
        assert signs_from_points(twin) == signs_from_points(config)


def test_realize_places_labels():
    config = realize(Polygon(5), (1, 4, 2, 5, 3))
    # label 4 sits at position 2, so its value is 2
    assert config.point(4).value() == 2
    assert config.point(1).value() == 1
    with pytest.raises(ValueError):
        realize(Polygon(5), (1, 2, 3, 4, 4))


def test_cross_ratio_example():
    config = PointConfig.from_values([1, 2, 3, 4])
    assert cross_ratio(config, 1, 2, 3, 4) == Fraction(4, 3)
    with pytest.raises(ValueError):
        cross_ratio(config, 1, 2, 3, 3)


def test_cross_ratio_with_infinity():
    config = PointConfig.from_values([0, 1, 5, "inf"])
    # [12|34] = (z1-z3)(z2-z4)/((z1-z4)(z2-z3)) -> (0-5)/(1-5) at infinity
    assert cross_ratio(config, 1, 2, 3, 4) == Fraction(5, 4)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_cross_ratio_identities_random(n):
    rng = random.Random(12345 + n)
    for trial in range(60):
        config = random_config(rng, n, with_infinity=trial % 3 == 0)
        idx = rng.sample(range(1, n + 1), 4)
        i, j, k, l = idx
        w = cross_ratio(config, i, j, k, l)
        assert w == cross_ratio(config, j, i, l, k)
        assert w == cross_ratio(config, k, l, i, j)
        assert w == cross_ratio(config, l, k, j, i)
        assert cross_ratio(config, i, j, l, k) == 1 / w
        assert cross_ratio(config, i, k, j, l) == 1 - w
        if n >= 5:
            m = rng.choice([v for v in range(1, n + 1) if v not in idx])
            assert w == cross_ratio(config, i, j, k, m) * cross_ratio(config, i, j, m, l)


def test_u_values_positive_on_standard_component():
    for n in (4, 5, 6, 7):
        poly = Polygon(n)
        vals = u_values(realize(poly, poly.identity_word))
        assert all(0 < v < 1 for v in vals.values())


def test_u_value_gauge_formula():
    # with z1=0, z2=1, zn=inf the chord into n is the ratio of neighbors
    n = 7
    poly = Polygon(n)
    config = standard_gauge(realize(poly, poly.identity_word), 1, 2, n)
    vals = u_values(config)
    for i in range(2, n - 1):
        zi = config.point(i).value()
        zi1 = config.point(i + 1).value()
        assert vals[(i, n)] == zi / zi1


def test_signs_from_points_examples():
    p5 = Polygon(5)
    assert signs_from_points(realize(p5, (1, 2, 3, 4, 5))).is_all_plus()
    assert str(signs_from_points(realize(p5, (1, 4, 2, 5, 3)))) == "-----"


def test_signs_depend_only_on_circular_order():
    rng = random.Random(99)
    poly = Polygon(6)
    for word in itertools.islice(all_orderings(poly), 12):
        base = signs_from_points(realize(poly, word))
        # a different strictly increasing placement of the same word
        values = sorted(
            {Fraction(rng.randint(-200, 200), rng.randint(1, 9)) for _ in range(20)}
        )[:6]
        placed: list = [None] * 6
        for k, label in enumerate(word):
            placed[label - 1] = values[k]
        other = signs_from_points(PointConfig.from_values(placed))
        assert other == base


def test_pgl_invariance():
    rng = random.Random(4242)
    poly = Polygon(6)
    for trial in range(40):
        config = random_config(rng, 6, with_infinity=trial % 4 == 0)
        while True:
            mat = [
                [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))],
                [Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))],
            ]
            if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] != 0:
                break
        moved = transformed(config, mat)
        assert u_values(moved) == u_values(config)
    with pytest.raises(ValueError):
        transformed(config, [[1, 2], [2, 4]])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relations_vanish_on_realized_configs(n):
    poly = Polygon(n)
    for word in all_orderings(poly):
        assert relations_vanish(poly, u_values(realize(poly, word)))


def test_relations_vanish_perturbation():
    poly = Polygon(5)
    vals = u_values(realize(poly, poly.identity_word))
    assert relations_vanish(poly, vals)
    vals[(1, 3)] += Fraction(1, 10**6)
    assert not relations_vanish(poly, vals)
    vals[(1, 3)] = Fraction(0)
    with pytest.raises(ValueError):
        relations_vanish(poly, vals)


def reference_vanish(poly, vals):
    """Every extended relation as a product of Fractions."""
    for rel in extended_relations(poly):
        prod1 = prod2 = Fraction(1)
        for c in rel.t1:
            prod1 *= Fraction(vals[c])
        for c in rel.t2:
            prod2 *= Fraction(vals[c])
        if prod1 + prod2 != 1:
            return False
    return True


def random_nonzero(rng):
    """A nonzero rational or plain int, either sign."""
    v = 0
    while v == 0:
        v = rng.randint(-30, 30)
    return v if rng.random() < 0.4 else Fraction(v, rng.randint(1, 9))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_relations_vanish_matches_fraction_reference(n):
    poly = Polygon(n)
    rng = random.Random(8080 + n)
    for trial in range(12):
        vals = u_values(random_config(rng, n, with_infinity=trial % 3 == 0))
        # integral values as plain ints, the rest as Fractions
        vals = {c: int(v) if v.denominator == 1 else v for c, v in vals.items()}
        assert relations_vanish(poly, vals) and reference_vanish(poly, vals)
        perturbed = dict(vals)
        c = rng.choice(poly.chords)
        perturbed[c] = random_nonzero(rng)
        assert relations_vanish(poly, perturbed) == reference_vanish(poly, perturbed)
        noise = {c: random_nonzero(rng) for c in poly.chords}
        assert relations_vanish(poly, noise) == reference_vanish(poly, noise)
        # walks that collide: u_in = 1 gives z_{i+1} = z_i, and
        # u_in * u_{i+1,n} = 1 gives z_{i+2} = z_i
        i = rng.randrange(2, n - 2)
        v = random_nonzero(rng)
        collisions = ({**vals, (i, n): 1}, {**noise, (i, n): v, (i + 1, n): 1 / Fraction(v)})
        for colliding in collisions:
            assert not relations_vanish(poly, colliding)
            assert not reference_vanish(poly, colliding)
            with pytest.raises(RelationViolationError):
                points_from_u(poly, colliding)
    # the square's one relation, held and broken by negative values
    square = Polygon(4)
    assert relations_vanish(square, {(1, 3): -3, (2, 4): 4})
    assert relations_vanish(square, {(1, 3): Fraction(-5, 2), (2, 4): Fraction(7, 2)})
    assert not relations_vanish(square, {(1, 3): Fraction(-5, 2), (2, 4): Fraction(-7, 2)})


def test_relations_vanish_rejects_single_perturbation_n12():
    poly = Polygon(12)
    rng = random.Random(1212)
    vals = u_values(realize(poly, tuple(rng.sample(range(1, 13), 12))))
    assert relations_vanish(poly, vals)
    for c in rng.sample(poly.chords, 3):
        bad = dict(vals)
        bad[c] = -bad[c]
        assert not relations_vanish(poly, bad)
        bad[c] = vals[c] * Fraction(10**6 + 1, 10**6)
        assert not relations_vanish(poly, bad)
        bad[c] = 0
        with pytest.raises(ValueError):
            relations_vanish(poly, bad)


def test_points_from_u_square_example():
    poly = Polygon(4)
    config = points_from_u(poly, {(1, 3): Fraction(1, 3), (2, 4): Fraction(2, 3)})
    assert len({(p.x, p.y) for p in config.points}) == 4
    assert config.point(1).value() == 0
    assert config.point(2).value() == 1
    assert config.point(4).is_infinite()
    assert u_values(config)[(1, 3)] == Fraction(1, 3)


def test_points_from_u_rejects_relation_violation():
    poly = Polygon(4)
    with pytest.raises(RelationViolationError):
        points_from_u(poly, {(1, 3): Fraction(1), (2, 4): Fraction(1)})


@pytest.mark.parametrize("n", range(4, 31))
def test_points_from_u_roundtrip(n):
    # the walk returns the gauged configuration, and rejects one value off
    # the walk's u_in or off any chord
    poly = Polygon(n)
    rng = random.Random(3300 + n)
    configs = [realize(poly, word) for word in itertools.islice(all_orderings(poly), 60)]
    configs += [realize(poly, rng.sample(range(1, n + 1), n)) for _ in range(6)]
    configs += [random_config(rng, n, with_infinity=t % 2 == 0) for t in range(4)]
    for config in configs:
        gauged = standard_gauge(config, 1, 2, n)
        vals = u_values(gauged)
        assert points_from_u(poly, vals).points == gauged.points
    for c in ((rng.randrange(2, n - 1), n), rng.choice(poly.chords)):
        bad = dict(vals)
        bad[c] *= Fraction(10**6 + 1, 10**6)
        with pytest.raises(RelationViolationError):
            points_from_u(poly, bad)


def reference_standard_gauge(config, zero, one, infinity):
    """The gauge built with the public constructor, which canonicalizes."""
    d = config._dets
    z, o, f = zero - 1, one - 1, infinity - 1
    return PointConfig(
        tuple(ProjectivePoint(d[f][k] * d[z][o], d[z][k] * d[f][o]) for k in range(config.n))
    )


def test_standard_gauge_matches_public_constructor():
    rng = random.Random(3700)
    cases = [
        (config, triple)
        for config in (random_config(rng, 5, with_infinity=True) for _ in range(3))
        for triple in itertools.permutations(range(1, 6), 3)
    ]
    for n in range(8, 13):
        for _ in range(6):
            config = random_config(rng, n, with_infinity=True)
            cases.append((config, tuple(rng.sample(range(1, n + 1), 3))))
    for config, triple in cases:
        gauged = standard_gauge(config, *triple)
        reference = reference_standard_gauge(config, *triple)
        assert gauged == reference and hash(gauged) == hash(reference)
        for p, q in zip(gauged.points, reference.points):
            assert (p.x, p.y) == (q.x, q.y) and hash(p) == hash(q)
            assert type(p.x) is type(p.y) is Fraction
    config = random_config(rng, 6)
    for triple in ((1, 1, 2), (1, 2, 2), (2, 1, 2)):
        with pytest.raises(ValueError, match="pairwise distinct"):
            standard_gauge(config, *triple)


def test_standard_gauge_fixes_three_points():
    rng = random.Random(5)
    config = random_config(rng, 6)
    gauged = standard_gauge(config, 1, 2, 6)
    assert gauged.point(1).value() == 0
    assert gauged.point(2).value() == 1
    assert gauged.point(6).is_infinite()
    assert u_values(gauged) == u_values(config)


def test_labels_outside_one_to_n_rejected():
    # label 0 used to read point n, and n + 1 raised a bare IndexError
    n = 5
    config = PointConfig.from_values([0, 1, 3, 7, "inf"])
    for bad in (0, -1, n + 1):
        message = rf"label {bad} is not in 1\.\.{n}"
        with pytest.raises(ValueError, match=message):
            config.point(bad)
        with pytest.raises(ValueError, match=message):
            config.permuted((bad, 1, 2, 3, 4))
        with pytest.raises(ValueError, match=message):
            cross_ratio(config, bad, 1, 2, 3)
        with pytest.raises(ValueError, match=message):
            standard_gauge(config, bad, 1, 2)
    assert config.point(n).is_infinite()
    assert config.permuted((5, 4, 3, 2, 1)).point(1).is_infinite()
