"""Primitive and extended u-relations, consistency and enumeration.

Every relation says "product of one chord set plus product of another equals
one". A sign pattern contradicts a relation exactly when both products come
out negative (two negative reals cannot sum to 1; every other sign combination
is achievable), and is consistent when it contradicts no extended relation.

Each relation is the pair of cut rectangles of ``ngon._cut_runs`` at its four
cuts, and ``_relation_terms`` is the one place that lays out a relation set:
both relation lists and the masks of ``_relation_masks`` read it. Counting and
streaming run on numpy in ``_enumeration``, one frontier enumerator over that
tuple of masks that checks each relation once, when its last chord is set; it
is imported on first use, and nothing else in the package needs numpy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .ngon import Chord, Polygon, _cut_runs, _run_bits
from .patterns import SignPattern

# chord bits of the 12-gon (54) are the most a uint64 pattern holds
_ENUMERATION_MAX_N = 12

# a sorted primitive-only stream at n = 11 (415 703 183 patterns, 3.3 GB as
# uint64) does not fit in memory beside its blocks
_PRIMITIVE_STREAM_MAX_N = 10


@dataclass(frozen=True)
class URelation:
    """Two disjoint chord sets t1, t2 with prod(t1) + prod(t2) = 1; ``cuts``
    are the four cut points of an extended relation, None for a primitive one."""

    n: int
    t1: tuple[Chord, ...]
    t2: tuple[Chord, ...]
    cuts: tuple[int, int, int, int] | None = None


def _relation_terms(poly: Polygon, primitive_only: bool) -> Iterator[tuple]:
    """Per relation of the chosen set, in list order, its four cut points and
    the ``_cut_runs`` chord runs of its two terms, in term order.

    An extended relation is one choice of 4 cuts, in ``combinations`` order,
    R1 first. The primitive relation of chord (i, j), u_ij + prod(crossing
    chords), is the one at cuts i, i+1, j, j+1 (mod n), its own term first;
    for j = n those sort to 1, i, i+1, n, the chord is in R2, and R2 is first.
    """
    n = poly.n
    if primitive_only:
        cut_list = ((tuple(sorted((i, i + 1, j, j % n + 1))), j == n) for i, j in poly.chords)
    else:
        cut_list = ((cuts, False) for cuts in itertools.combinations(range(1, n + 1), 4))
    for cuts, own_second in cut_list:
        t1, t2 = (_cut_runs(poly, *cuts, *e) for e in ((1, 0), (0, 1)))
        yield (cuts, t2, t1) if own_second else (cuts, t1, t2)


def _relation_list(poly: Polygon, primitive_only: bool) -> tuple[URelation, ...]:
    chords, relations = poly.chords, []
    for cuts, *terms in _relation_terms(poly, primitive_only):
        t1, t2 = (tuple(c for k, size, _ in run for c in chords[k:k + size]) for run in terms)
        relations.append(URelation(poly.n, t1, t2, None if primitive_only else cuts))
    return tuple(relations)


def primitive_relations(poly: Polygon) -> tuple[URelation, ...]:
    """u_c + prod(chords crossing c) = 1 for each chord c, in chord order."""
    return _relation_list(poly, True)


def extended_relations(poly: Polygon) -> tuple[URelation, ...]:
    """One relation per choice of 4 cut points, C(n,4) in total.

    With intervals A, B, C, D read off from the cuts, the first term is the
    product over A x C chords and the second over B x D chords, each in chord
    order. Cut choices where one side has singleton intervals reproduce
    primitive relations.
    """
    return _relation_list(poly, False)


@lru_cache(maxsize=None)
def _relation_masks(n: int, primitive_only: bool) -> tuple[tuple[int, int], ...]:
    """Per distinct relation, its (mask1, mask2) bit masks over canonical
    chord indices, in the order of the relation list. Only the square has
    two chords with one primitive relation, and only the first is kept."""
    terms = _relation_terms(Polygon(n), primitive_only)
    masks = tuple((_run_bits(t1), _run_bits(t2)) for _, t1, t2 in terms)
    return masks[:1] if n == 4 else masks


def is_consistent(poly: Polygon, pattern: SignPattern) -> bool:
    """Whether no extended u-relation has both terms negative."""
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    bits = pattern.bits
    for m1, m2 in _relation_masks(poly.n, False):
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

    ``progress(share)`` is called after each block of the enumeration, the
    same way in both modes, with the ``Fraction`` of the walk finished: the
    shares strictly increase and the last is exactly 1. A walk that never
    outgrows one block makes one call.
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

