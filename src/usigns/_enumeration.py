"""The numpy half of ``relations``: counting and streaming consistent patterns.

Extended-consistent patterns are enumerated by lifting through coarsening.
Merging vertices n-1 and n (``coarsen(poly, range(1, n), pattern)``) sends
every consistent n-pattern to a consistent (n-1)-pattern, because each small
relation is the image of an n-gon relation with the same term parities. The
fibre over a small pattern is a coset of 2^(n-2) lifts, spanned by
- flipping (i, n-1) and (i, n) together, for each i in 2..n-3;
- flipping (1, n-1);
- flipping (n-2, n).
An extended relation with no cut at n keeps n-1 and n in one interval, so
every lift already satisfies it; a lift only has to be checked against the
C(n-1, 3) relations with a cut at n. Lifting level by level from the
triangle's single (empty) pattern yields the n-gon's consistent patterns
while touching only the consistent ones of each smaller polygon.

Coarsening does not preserve primitive-only consistency, so the primitive
count scans all 2^(n(n-3)/2) patterns on numpy parity tables over the low
bits of the pattern index, in chunks. That scan also serves as the test
reference for the lift.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .ngon import Polygon
from .relations import _relation_masks

_CHUNK_BITS = 18

# most uint64 words one lift block gathers
_BLOCK_ENTRIES = 1 << 20


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
    """Per relation, uint8 arrays p1, p2 over x in 0..2**low_bits - 1 with
    p[x] the parity of x & (low bits of the term mask)."""
    x = np.arange(1 << low_bits, dtype=np.uint32)
    low_mask = (1 << low_bits) - 1
    return tuple(
        (
            np.bitwise_count(x & np.uint32(m1 & low_mask)) & 1,
            np.bitwise_count(x & np.uint32(m2 & low_mask)) & 1,
        )
        for m1, m2 in _relation_masks(n, primitive_only)
    )


def _chunk_plan(n: int) -> tuple[int, int]:
    """(low_bits, number of chunks) for the 2**m pattern range."""
    m = Polygon(n).chord_count
    low_bits = min(m, _CHUNK_BITS)
    return low_bits, 1 << (m - low_bits)


def _scanned(n: int, primitive_only: bool) -> Iterator[int]:
    """Brute force: every consistent pattern's bits, in increasing order."""
    low_bits, n_chunks = _chunk_plan(n)
    for high in range(n_chunks):
        flags = _consistent_flags_chunk(n, primitive_only, low_bits, high)
        base = high << low_bits
        for low in np.flatnonzero(flags).tolist():
            yield base + low


@lru_cache(maxsize=None)
def _lift_plan(n: int) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables that lift consistent (n-1)-gon patterns to the n-gon.

    - ``scatter``: (mask, shift) runs that move each small chord's bit up to
      the n-gon chord with the same labels, vertex n-1 standing for the pair.
    - ``fibre``: the 2^(n-2) XOR masks of the coset over one small pattern.
    - ``m1``, ``m2``: the term masks of the C(n-1, 3) extended relations with
      a cut at n, read from the shared table in its cut order.
    - ``ok[r, 2a + c]``: a bitset over the fibre (uint64 words), bit f set when
      the lift by ``fibre[f]`` satisfies relation r, given a scattered pattern
      whose terms under r have parities a and c.
    """
    poly = Polygon(n)
    small = Polygon(n - 1).chords if n > 4 else ()
    runs: dict[int, int] = {}
    for k, c in enumerate(small):
        shift = poly.chord_index[c] - k
        runs[shift] = runs.get(shift, 0) | 1 << k
    scatter = tuple((np.uint64(mask), np.uint64(shift)) for shift, mask in runs.items())
    flips = [poly.mask(((i, n - 1), (i, n))) for i in range(2, n - 2)]
    flips += [poly.mask(((1, n - 1),)), poly.mask(((n - 2, n),))]
    fibre = np.zeros(1, dtype=np.uint64)
    for f in flips:
        fibre = np.concatenate((fibre, fibre ^ np.uint64(f)))
    cuts = itertools.combinations(range(1, n + 1), 4)
    rows = [row for row, c in zip(_relation_masks(n, False), cuts) if c[-1] == n]
    m1, m2 = np.array(rows, dtype=np.uint64).T.copy()
    odd1 = np.bitwise_count(fibre & m1[:, None]) & 1
    odd2 = np.bitwise_count(fibre & m2[:, None]) & 1
    ok = np.zeros((len(rows), 4, max(64, len(fibre))), dtype=bool)
    for a, c in itertools.product((0, 1), repeat=2):
        ok[:, 2 * a + c, : len(fibre)] = ((a ^ odd1) & (c ^ odd2)) == 0
    ok = np.packbits(ok, axis=2, bitorder="little").view("<u8")
    for table in (fibre, m1, m2, ok):
        table.setflags(write=False)  # shared by every caller of the cache
    return scatter, fibre, m1, m2, ok


def _lift(n: int, small: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(base, allowed) per block of the consistent (n-1)-gon patterns ``small``.

    ``base[s]`` is small pattern s scattered onto the n-gon; bit f of row
    ``allowed[s]`` is set when ``base[s] ^ fibre[f]`` is consistent. A block's
    gather holds at most _BLOCK_ENTRIES words.
    """
    scatter, _, m1, m2, ok = _lift_plan(n)
    rows = np.arange(len(m1))
    step = max(1, _BLOCK_ENTRIES // (ok.shape[0] * ok.shape[2]))
    for start in range(0, len(small), step):
        block = small[start : start + step]
        base = np.zeros_like(block)
        for mask, shift in scatter:
            base |= (block & mask) << shift
        key = np.bitwise_count(base[:, None] & m1) & 1
        key <<= 1
        key |= np.bitwise_count(base[:, None] & m2) & 1
        yield base, np.bitwise_and.reduce(ok[rows, key], axis=1)


def _expand(n: int, base: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The n-gon patterns a (base, allowed) block of ``_lift`` stands for."""
    fibre = _lift_plan(n)[1]
    s, f = np.nonzero(np.unpackbits(allowed.view(np.uint8), axis=1, bitorder="little"))
    return base[s] ^ fibre[f]


def _lifted(n: int, progress=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``_lift`` blocks of the consistent extended n-gon patterns, lifted level
    by level from the single (empty) pattern of the triangle."""
    level = np.zeros(1, dtype=np.uint64)
    for m in range(4, n):
        level = np.concatenate([_expand(m, *block) for block in _lift(m, level)])
        if progress is not None:
            progress(m - 3, n - 3)
    yield from _lift(n, level)
    if progress is not None:
        progress(n - 3, n - 3)


def count(n: int, primitive_only: bool, progress=None) -> int:
    """The number of consistent n-gon patterns; see ``count_consistent``."""
    if not primitive_only:
        blocks = _lifted(n, progress)
        return sum(int(np.bitwise_count(allowed).sum()) for _, allowed in blocks)
    low_bits, n_chunks = _chunk_plan(n)
    total = 0
    for high in range(n_chunks):
        total += int(np.count_nonzero(_consistent_flags_chunk(n, True, low_bits, high)))
        if progress is not None:
            progress(high + 1, n_chunks)
    return total


def consistent_bits(n: int, primitive_only: bool) -> Iterable[int]:
    """The bits of every consistent n-gon pattern, in increasing order."""
    if primitive_only:
        return _scanned(n, True)
    blocks = [_expand(n, *block) for block in _lifted(n)]
    return np.sort(np.concatenate(blocks)).tolist()
