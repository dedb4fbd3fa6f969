"""Primitive and extended u-relations, consistency and enumeration.

Every relation says "product of one chord set plus product of another equals
one". A sign pattern contradicts a relation exactly when both products come
out negative (two negative reals cannot sum to 1; every other sign combination
is achievable), and is consistent when it contradicts no extended relation.

Counting and streaming the consistent patterns run on numpy in
``_enumeration``, one frontier enumerator over a tuple of relation masks that
checks each relation once, when its last chord is set; ``_relation_masks`` is
the one place that turns the relation set chosen into that tuple. The
enumerator is imported on first use: nothing else in the package needs numpy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .ngon import Chord, Polygon, crossing_chords
from .ngon import _cut_runs, _run_bits
from .patterns import SignPattern

# chord bits of the 12-gon (54) are the most a uint64 pattern holds
_ENUMERATION_MAX_N = 12

# a sorted primitive-only stream at n = 11 (415 703 183 patterns, 3.3 GB as
# uint64) does not fit in memory beside its blocks
_PRIMITIVE_STREAM_MAX_N = 10


@dataclass(frozen=True)
class URelation:
    """Two disjoint chord sets t1, t2 with prod(t1) + prod(t2) = 1.

    ``cuts`` records the four generating cut points when the relation came
    from a cyclic 4-interval partition (None for the primitive constructor).
    """

    n: int
    t1: tuple[Chord, ...]
    t2: tuple[Chord, ...]
    cuts: tuple[int, int, int, int] | None = None


def primitive_relation(poly: Polygon, c: Chord) -> URelation:
    """The relation u_c + prod(chords crossing c) = 1."""
    c = poly.chord(*c)
    return URelation(poly.n, (c,), crossing_chords(poly, c))


def primitive_relations(poly: Polygon) -> tuple[URelation, ...]:
    return tuple(primitive_relation(poly, c) for c in poly.chords)


def extended_relation(poly: Polygon, cuts: Sequence[int]) -> URelation:
    """Relation for the 4-interval cyclic partition at the given cut points.

    With intervals A, B, C, D read off from the cuts, the first term is the
    product over A x C chords and the second over B x D chords, each in chord
    order. Cut choices where one side has singleton intervals reproduce
    primitive relations.
    """
    cuts, n = tuple(cuts), poly.n
    if len(cuts) != 4 or list(cuts) != sorted(set(cuts)) or cuts[0] < 1 or cuts[-1] > n:
        raise ValueError(f"need 4 cut points p < q < r < s in 1..{n}, got {cuts}")
    chords = poly.chords
    t1, t2 = (
        tuple(c for k, size, _ in _cut_runs(poly, *cuts, *e) for c in chords[k:k + size])
        for e in ((1, 0), (0, 1))
    )
    return URelation(n, t1, t2, cuts)


def extended_relations(poly: Polygon) -> tuple[URelation, ...]:
    """One relation per choice of 4 cut points, C(n,4) in total."""
    return tuple(
        extended_relation(poly, cuts)
        for cuts in itertools.combinations(range(1, poly.n + 1), 4)
    )


@lru_cache(maxsize=None)
def _relation_masks(n: int, primitive_only: bool) -> tuple[tuple[int, int], ...]:
    """Per distinct relation, its (mask1, mask2) bit masks over canonical
    chord indices, in the order of the relation list, summed from the chord
    runs of the two rectangles at its cuts.

    The extended list has no duplicates, so its row k belongs to the k-th
    cut choice. The primitive relation of chord (i, j) is the one at cuts
    i, i+1, j, j+1 (mod n), with the chord's own term first; the square's two
    primitive relations coincide, and only the first is kept.
    """
    poly = Polygon(n)
    if primitive_only:
        # for j = n the cuts sort to 1, i, i+1, n, and the chord is B x D;
        # the square's two chords share their cuts
        own_second: dict[tuple[int, ...], bool] = {}
        for i, j in poly.chords:
            own_second.setdefault(tuple(sorted((i, i + 1, j, j % n + 1))), j == n)
    else:
        own_second = dict.fromkeys(itertools.combinations(range(1, n + 1), 4), False)
    masks = []
    for cuts, swap in own_second.items():
        m1, m2 = (_run_bits(_cut_runs(poly, *cuts, *e)) for e in ((1, 0), (0, 1)))
        masks.append((m2, m1) if swap else (m1, m2))
    return tuple(masks)


def is_consistent(poly: Polygon, pattern: SignPattern, primitive_only: bool = False) -> bool:
    """Whether no (extended) u-relation has both terms negative."""
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    bits = pattern.bits
    for m1, m2 in _relation_masks(poly.n, primitive_only):
        if (bits & m1).bit_count() & 1 and (bits & m2).bit_count() & 1:
            return False
    return True


def _check_enumerable(n: int, primitive_stream: bool = False) -> None:
    """The enumeration packs each pattern into one uint64, and a stream
    holds all of its patterns at once."""
    if n > _ENUMERATION_MAX_N:
        raise ValueError(
            f"n={n} has more chords than a uint64 holds (n <= {_ENUMERATION_MAX_N})"
        )
    if primitive_stream and n > _PRIMITIVE_STREAM_MAX_N:
        raise ValueError(
            f"the primitive-only patterns of the {n}-gon do not fit in memory "
            f"to be streamed (n <= {_PRIMITIVE_STREAM_MAX_N}); count them instead"
        )


def count_consistent(
    poly: Polygon,
    primitive_only: bool = False,
    *,
    progress=None,
) -> int:
    """Count sign patterns consistent with the chosen relation set.

    ``progress(blocks_done, blocks_total)`` is called after each top-level
    block of the enumeration, the same way in both modes: the calls are
    monotone and the last is (blocks_total, blocks_total). A small n is one
    block; a frontier that outgrows the block size is cut into 16.
    """
    _check_enumerable(poly.n)
    from . import _enumeration

    return _enumeration.count(poly.n, _relation_masks(poly.n, primitive_only), progress)


def consistent_patterns(poly: Polygon, primitive_only: bool = False) -> Iterator[SignPattern]:
    """Stream the consistent patterns in increasing bitmask order.

    The patterns are enumerated and sorted on the first ``next``; a
    primitive-only stream is refused beyond n = 10, where they no longer fit
    in memory.
    """
    _check_enumerable(poly.n, primitive_only)
    from . import _enumeration

    for b in _enumeration.consistent_bits(poly.n, _relation_masks(poly.n, primitive_only)):
        yield SignPattern(poly.n, b)

