from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from typing import Sequence

from usigns import (
    Chord,
    PointConfig,
    Polygon,
    ProjectivePoint,
    RelationViolationError,
    SignedMonomial,
    SignPattern,
    URelation,
    consistent_patterns,
    points_from_u,
)
from usigns.ngon import _check_permutation

# the twelve ordering/pattern pairs of the pentagon, signs over
# (u13, u14, u24, u25, u35)
PENTAGON_TABLE = {
    (1, 2, 3, 4, 5): "+++++",
    (1, 3, 2, 4, 5): "-++++",
    (1, 5, 2, 3, 4): "+-+++",
    (1, 2, 4, 3, 5): "++-++",
    (1, 3, 4, 5, 2): "+++-+",
    (1, 2, 3, 5, 4): "++++-",
    (1, 5, 3, 2, 4): "--+++",
    (1, 5, 2, 4, 3): "+--++",
    (1, 4, 3, 5, 2): "++--+",
    (1, 3, 5, 4, 2): "+++--",
    (1, 3, 2, 5, 4): "-+++-",
    (1, 4, 2, 5, 3): "-----",
}

# unique consistent decagon pattern matching the worked ten-point example
DECAGON_NEGATIVES = ((3, 7), (3, 8), (6, 8), (6, 10), (7, 10))


@lru_cache(maxsize=None)
def consistent_bits(n: int, primitive_only: bool = False) -> frozenset[int]:
    poly = Polygon(n)
    return frozenset(
        p.bits for p in consistent_patterns(poly, primitive_only=primitive_only)
    )


def crosses(poly: Polygon, c1: Chord, c2: Chord) -> bool:
    """Whether two distinct chords cross in the planar drawing.

    True iff one endpoint of c2 lies strictly inside each of the two open
    arcs cut out by c1; chords sharing an endpoint never cross.
    """
    c1 = poly.chord(*c1)
    c2 = poly.chord(*c2)
    if c1 == c2:
        raise ValueError("crossing is only defined for distinct chords")
    i, j = c1
    k, l = c2
    if k in c1 or l in c1:
        return False
    k_inside = i < k < j
    l_inside = i < l < j
    return k_inside != l_inside


def crossing_chords(poly: Polygon, c: Chord) -> tuple[Chord, ...]:
    """All chords crossing c, in canonical order: the independent reference
    for the primitive relation masks."""
    c = poly.chord(*c)
    return tuple(d for d in poly.chords if d != c and crosses(poly, c, d))


def brute_force_pick(pattern: SignPattern) -> tuple[int, int]:
    """The shortest negative chord from first principles: the least (a, b)
    over every orientation of every negative chord that runs along a
    shortest arc."""
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


def cyclic_intervals(poly: Polygon, cuts: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Split 1..n into k cyclic intervals at k >= 4 increasing cut points.

    Interval m runs from cuts[m] to cuts[m+1]-1; the last wraps around to
    cuts[0]-1. Intervals are nonempty, disjoint, and cover 1..n.
    """
    cuts = tuple(cuts)
    n = poly.n
    if len(cuts) < 4:
        raise ValueError("need at least 4 cut points")
    if list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] > n:
        raise ValueError(f"cut points must be strictly increasing in 1..{n}")
    out = []
    for m, a in enumerate(cuts):
        b = cuts[(m + 1) % len(cuts)]
        size = (b - a) % n
        out.append(tuple(poly.wrap(a + t) for t in range(size)))
    return tuple(out)


def dihedral_class(word: Sequence[int]) -> set[tuple[int, ...]]:
    """All 2n rotations/reflections of a word."""
    word = _check_permutation(word)
    n = len(word)
    out = set()
    rev = tuple(reversed(word))
    for w in (word, rev):
        for r in range(n):
            out.add(w[r:] + w[:r])
    return out


def swap_labels(word: Sequence[int], x: int, y: int) -> tuple[int, ...]:
    """``word`` with the entries holding labels x and y exchanged."""
    swap = {x: y, y: x}
    return tuple(swap.get(v, v) for v in word)


def contradicts(pattern: SignPattern, relation: URelation) -> bool:
    """Whether both terms of the relation are negative under the pattern.

    The sign of a product is the parity of its negative factors.
    """
    if pattern.n != relation.n:
        raise ValueError(
            f"pattern is for n={pattern.n}, relation for n={relation.n}"
        )
    poly = Polygon(relation.n)
    m1 = poly.mask(relation.t1)
    m2 = poly.mask(relation.t2)
    return bool((pattern.bits & m1).bit_count() & 1) and bool(
        (pattern.bits & m2).bit_count() & 1
    )


def coarsen(poly: Polygon, cuts: Sequence[int], pattern: SignPattern) -> SignPattern:
    """Project a sign pattern onto the k-gon of a k-interval cyclic partition.

    The k-gon chord between intervals I and J inherits the parity of the
    negative chords among {i, j}, i in I, j in J (all such pairs are chords
    of the n-gon because I and J are non-adjacent). Coarsening a consistent
    pattern yields a consistent pattern on the smaller polygon.
    """
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    intervals = cyclic_intervals(poly, cuts)
    k = len(intervals)
    small = Polygon(k)
    bits = 0
    for idx, (p, q) in enumerate(small.chords):
        mask = poly.mask((i, j) for i in intervals[p - 1] for j in intervals[q - 1])
        if (pattern.bits & mask).bit_count() & 1:
            bits |= 1 << idx
    return SignPattern(k, bits)


def relations_vanish(poly: Polygon, vals) -> bool:
    """Whether every extended u-relation holds exactly on the values, that is,
    whether ``points_from_u`` accepts them."""
    try:
        points_from_u(poly, vals)
    except RelationViolationError:
        return False
    return True


def transformed(config: PointConfig, matrix: Sequence[Sequence[Fraction]]) -> PointConfig:
    """Act on homogeneous coordinates by an invertible 2x2 rational matrix."""
    (a, b), (c, d) = matrix
    if a * d - b * c == 0:
        raise ValueError("matrix is singular")
    return PointConfig(
        tuple(
            ProjectivePoint(a * p.x + b * p.y, c * p.x + d * p.y)
            for p in config.points
        )
    )


def reference_relation(poly, cuts) -> URelation:
    """The extended relation at the cuts, built pair by pair: with intervals
    A, B, C, D read off from the cuts, the sorted A x C and B x D chords."""
    a, b, c, d = cyclic_intervals(poly, cuts)
    t1 = tuple(sorted(poly.chord(i, j) for i in a for j in c))
    t2 = tuple(sorted(poly.chord(k, l) for k in b for l in d))
    return URelation(poly.n, t1, t2, tuple(cuts))


def label_chord(word, a: int, b: int) -> tuple[int, int]:
    """Positional chord of the chart of ``word`` holding labels a and b."""
    pos = {lbl: k + 1 for k, lbl in enumerate(word)}
    i, j = sorted((pos[a], pos[b]))
    return (i, j)


def relabel_pattern(pattern: SignPattern, vertex_map) -> SignPattern:
    """Push a pattern through a vertex relabeling (chord {i,j} -> images)."""
    poly = Polygon(pattern.n)
    bits = 0
    for k, (i, j) in enumerate(poly.chords):
        if pattern.bits >> k & 1:
            c = poly.chord(vertex_map(i), vertex_map(j))
            bits |= 1 << poly.chord_index[c]
    return SignPattern(pattern.n, bits)


def rotate_pattern(pattern: SignPattern, shift: int) -> SignPattern:
    poly = Polygon(pattern.n)
    return relabel_pattern(pattern, lambda v: poly.wrap(v + shift))


def reflect_pattern(pattern: SignPattern) -> SignPattern:
    n = pattern.n
    return relabel_pattern(pattern, lambda v: n + 1 - v)


def reference_elementary_images(poly, k):
    """Images of the adjacent-swap-at-position-k chart change, case by case.

    Five positional cases, indices mod n: chords away from k-1, k, k+1 are
    fixed; a chord into k-1 (resp. k+1) picks up the parallel chord into k;
    a chord into k inverts; and the short chord spanning k flips sign and
    divides by every chord into k.
    """
    n = poly.n
    km1, kp1 = poly.wrap(k - 1), poly.wrap(k + 1)
    special = poly.chord(km1, kp1)
    images = []
    for c in poly.chords:
        i, j = c
        if c == special:
            exps = {special: 1}
            for v in range(1, n + 1):
                if v not in (km1, k, kp1):
                    exps[poly.chord(v, k)] = -1
            images.append(SignedMonomial.make(-1, exps))
        elif k in c:
            other = j if i == k else i
            images.append(SignedMonomial.make(1, {poly.chord(other, k): -1}))
        elif km1 in c:
            other = j if i == km1 else i
            images.append(
                SignedMonomial.make(1, {poly.chord(other, km1): 1, poly.chord(other, k): 1})
            )
        elif kp1 in c:
            other = j if i == kp1 else i
            images.append(
                SignedMonomial.make(1, {poly.chord(other, k): 1, poly.chord(other, kp1): 1})
            )
        else:
            images.append(SignedMonomial.make(1, {c: 1}))
    return tuple(images)


def transport_by_table(bits: int, table) -> int:
    """Sign transport of ``bits`` through a table of (negative-bit, mask of
    the chords with odd exponent) per source chord: the reference that
    ``transport``, read off the rectangle corners, is checked against."""
    out = 0
    for idx, (neg, mask) in enumerate(table):
        if neg ^ ((bits & mask).bit_count() & 1):
            out |= 1 << idx
    return out


def table_from_images(poly, images):
    """Transport table read off full monomials: (negative-bit, mask of the
    chords with odd exponent) per image."""
    index = poly.chord_index
    return tuple(
        (1 if mono.sign < 0 else 0, sum(1 << index[c] for c, e in mono.powers if e & 1))
        for mono in images
    )


@lru_cache(maxsize=None)
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


def random_config(rng: random.Random, n: int, with_infinity: bool = False) -> PointConfig:
    """n distinct random rational points, optionally one at infinity."""
    values: list = []
    seen = set()
    while len(values) < n:
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if v not in seen:
            seen.add(v)
            values.append(v)
    if with_infinity:
        values[rng.randrange(n)] = "inf"
    return PointConfig.from_values(values)
