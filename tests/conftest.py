from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from usigns import Polygon, SignedMonomial, SignPattern, URelation, consistent_patterns
from usigns.ngon import cyclic_intervals
from usigns.points import PointConfig

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


def table_from_images(poly, images):
    """Transport table read off full monomials: (negative-bit, mask of the
    chords with odd exponent) per image."""
    index = poly.chord_index
    return tuple(
        (1 if mono.sign < 0 else 0, sum(1 << index[c] for c, e in mono.powers if e & 1))
        for mono in images
    )


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
