"""Primitive and extended u-relations, consistency, enumeration, coarsening.

Every relation says "product of one chord set plus product of another equals
one". A sign pattern contradicts a relation exactly when both products come
out negative (two negative reals cannot sum to 1; every other sign combination
is achievable), and is consistent when it contradicts no extended relation.

The exhaustive enumeration over all 2^(n(n-3)/2) patterns is the hot path:
it runs on numpy parity tables over the low bits of the pattern index, chunked
so n = 9 (2^27 patterns, 126 relations) stays in the minutes range on one core.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .ngon import Chord, Polygon, crossing_chords, cyclic_intervals
from .patterns import SignPattern

DEFAULT_ENUMERATION_CAP = 9

_CHUNK_BITS = 18

# parity of the popcount of each byte
_BYTE_PARITY = np.array(
    [bin(b).count("1") & 1 for b in range(256)], dtype=np.uint8
)


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

    def term_key(self) -> frozenset[frozenset[Chord]]:
        """Unordered view of the two terms, for symmetry-aware comparison."""
        return frozenset((frozenset(self.t1), frozenset(self.t2)))


def primitive_relation(poly: Polygon, c: Chord) -> URelation:
    """The relation u_c + prod(chords crossing c) = 1."""
    c = poly.chord(*c)
    return URelation(poly.n, (c,), crossing_chords(poly, c))


def primitive_relations(poly: Polygon) -> tuple[URelation, ...]:
    return tuple(primitive_relation(poly, c) for c in poly.chords)


def extended_relation(poly: Polygon, cuts: Sequence[int]) -> URelation:
    """Relation for the 4-interval cyclic partition at the given cut points.

    With intervals A, B, C, D read off from the cuts, the first term is the
    product over A x C chords and the second over B x D chords. Cut choices
    where one side has singleton intervals reproduce primitive relations.
    """
    a, b, c, d = cyclic_intervals(poly, cuts)
    t1 = tuple(sorted(poly.chord(i, j) for i in a for j in c))
    t2 = tuple(sorted(poly.chord(k, l) for k in b for l in d))
    return URelation(poly.n, t1, t2, tuple(cuts))


def extended_relations(poly: Polygon) -> tuple[URelation, ...]:
    """One relation per choice of 4 cut points, C(n,4) in total."""
    return tuple(
        extended_relation(poly, cuts)
        for cuts in itertools.combinations(range(1, poly.n + 1), 4)
    )


@lru_cache(maxsize=None)
def _relation_masks(n: int, primitive_only: bool) -> tuple[tuple[int, int], ...]:
    """Per-relation (mask1, mask2) bit masks over canonical chord indices."""
    poly = Polygon(n)
    rels = primitive_relations(poly) if primitive_only else extended_relations(poly)
    seen = set()
    masks = []
    for r in rels:
        pair = (poly.mask(r.t1), poly.mask(r.t2))
        key = frozenset(pair)
        if key not in seen:
            seen.add(key)
            masks.append(pair)
    return tuple(masks)


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


def is_consistent(poly: Polygon, pattern: SignPattern, primitive_only: bool = False) -> bool:
    """Whether no (extended) u-relation has both terms negative."""
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    bits = pattern.bits
    for m1, m2 in _relation_masks(poly.n, primitive_only):
        if (bits & m1).bit_count() & 1 and (bits & m2).bit_count() & 1:
            return False
    return True


def _parity_table(mask: int, width: int) -> np.ndarray:
    """uint8 array p of length 2**width with p[x] = parity(popcount(x & mask))."""
    x = np.arange(1 << width, dtype=np.uint32) & np.uint32(mask)
    x ^= x >> np.uint32(16)
    x ^= x >> np.uint32(8)
    return _BYTE_PARITY[x & np.uint32(0xFF)]


def _consistent_flags_chunk(
    n: int, primitive_only: bool, low_bits: int, high: int
) -> np.ndarray:
    """Boolean-ish uint8 array over one chunk: 1 where the pattern is consistent.

    Patterns in the chunk share the high bits ``high``; parity of a term over
    the full pattern splits as parity(high part) xor parity(low part).
    """
    masks = _relation_masks(n, primitive_only)
    tables = _parity_tables_low(n, primitive_only, low_bits)
    bad = np.zeros(1 << low_bits, dtype=np.uint8)
    tmp1 = np.empty_like(bad)
    tmp2 = np.empty_like(bad)
    for (m1, m2), (p1, p2) in zip(masks, tables):
        a = (high & (m1 >> low_bits)).bit_count() & 1
        b = (high & (m2 >> low_bits)).bit_count() & 1
        np.bitwise_xor(p1, np.uint8(a), out=tmp1)
        np.bitwise_xor(p2, np.uint8(b), out=tmp2)
        np.bitwise_and(tmp1, tmp2, out=tmp1)
        np.bitwise_or(bad, tmp1, out=bad)
    np.bitwise_xor(bad, np.uint8(1), out=bad)
    return bad


@lru_cache(maxsize=4)
def _parity_tables_low(
    n: int, primitive_only: bool, low_bits: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    low_mask = (1 << low_bits) - 1
    return tuple(
        (_parity_table(m1 & low_mask, low_bits), _parity_table(m2 & low_mask, low_bits))
        for m1, m2 in _relation_masks(n, primitive_only)
    )


def _check_cap(poly: Polygon, cap: int) -> None:
    if poly.n > cap:
        raise ValueError(
            f"n={poly.n} exceeds the enumeration cap {cap}; raise the cap explicitly"
        )


def _chunk_plan(n: int) -> tuple[int, int]:
    """(low_bits, number of chunks) for the 2**m pattern range."""
    m = Polygon(n).chord_count
    low_bits = min(m, _CHUNK_BITS)
    return low_bits, 1 << (m - low_bits)


def count_consistent(
    poly: Polygon,
    primitive_only: bool = False,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    threads: int = 1,
    progress=None,
) -> int:
    """Count sign patterns consistent with the chosen relation set.

    Iterates all 2^(n(n-3)/2) patterns in chunks; ``threads`` workers process
    chunks concurrently but the result is independent of the thread count.
    ``progress`` (chunks_done, chunks_total) is called after each chunk.
    """
    _check_cap(poly, cap)
    low_bits, n_chunks = _chunk_plan(poly.n)

    def work(high: int) -> int:
        return int(
            np.count_nonzero(
                _consistent_flags_chunk(poly.n, primitive_only, low_bits, high)
            )
        )

    total = 0
    if threads > 1 and n_chunks > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for done, part in enumerate(pool.map(work, range(n_chunks)), 1):
                total += part
                if progress is not None:
                    progress(done, n_chunks)
    else:
        for done, high in enumerate(range(n_chunks), 1):
            total += work(high)
            if progress is not None:
                progress(done, n_chunks)
    return total


def consistent_patterns(
    poly: Polygon,
    primitive_only: bool = False,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[SignPattern]:
    """Stream the consistent patterns in increasing bitmask order."""
    _check_cap(poly, cap)
    low_bits, n_chunks = _chunk_plan(poly.n)
    for high in range(n_chunks):
        flags = _consistent_flags_chunk(poly.n, primitive_only, low_bits, high)
        base = high << low_bits
        for low in np.flatnonzero(flags):
            yield SignPattern(poly.n, base + int(low))


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
