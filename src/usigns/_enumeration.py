"""The numpy half of ``relations``: counting, streaming and writing consistent
patterns.

One frontier enumerator runs on any tuple of relation masks, each relation a
(mask1, mask2) pair of term bit masks over the canonical chord order, as
``relations._relation_masks`` builds them. It sets the chords one at a time
in star order: by smaller endpoint, ascending, and within that by larger
endpoint, descending. Each relation is checked once, at the step that sets
the last of its chords, so a pattern survives to the end exactly when it
contradicts no relation; the chord order only decides how large the frontier
of partial patterns grows. In star order the extended frontier never exceeds
the final count (checked for n <= 11).

The check at a step reads term parities off per-byte tables built once per
plan: for each group of up to ``_GROUP`` closing relations and each byte of
the pattern word their terms touch, a 256-entry table of the parities of
every byte value against each term. A partial pattern's parities are the
XOR of its bytes' table entries, a few gathers over the frontier per group
however many relations close at the step.

Frontiers are finished depth-first off one stack, and one that outgrows
``_BLOCK_ENTRIES`` patterns is cut in halves, so memory stays bounded at every
n. A count runs every step but the last and counts that step's survivors
without gathering them. It also merges: later checks read a partial pattern
only through its parities against the open relations' terms, so where those
span r < (chords set) dimensions over GF(2), a frontier of over 2^r patterns
keeps one pattern per parity state, weighted (exact int64) by how many it
stands for. A frontier past the block size still takes a step that will merge
it, so it merges whole, once, and not once per half. Primitive plans merge
from n = 6; extended ones never before the last step, so their counts and
every stream do no merge work.

A written pattern is read a byte at a time: each byte that holds chords picks
the eight ``patterns._SIGNS`` characters of its value from one 256-row table.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import BinaryIO, Iterator

import numpy as np

from .ngon import Polygon
from .patterns import _SIGNS

# most patterns one block extends at once
_BLOCK_ENTRIES = 1 << 16

# most relations one parity signature holds: two bits each, in a uint64
_GROUP = 32

# patterns ``write_consistent`` formats per write
_WRITE_ROWS = 1 << 12

# the sign character of a clear and of a set chord bit, from SignPattern's codec
_SIGN_BYTES = np.frombuffer(_SIGNS.encode(), dtype=np.uint8)

# row v: the sign characters of byte value v, its lowest bit first
_SIGN_TABLE = _SIGN_BYTES[
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
]


def _closing(n: int, masks: tuple) -> tuple[list, list]:
    """The n-gon's chords in star order and, per chord d in it, the relations
    of ``masks`` whose last chord is d, as (held, other): the mask of the term
    that holds d, with d removed, and the mask of the other term."""
    poly = Polygon(n)
    order = sorted(range(poly.chord_count), key=lambda k: (poly.chords[k][0], -poly.chords[k][1]))
    rank = {k: s for s, k in enumerate(order)}
    closing: list[list[tuple[int, int]]] = [[] for _ in order]
    for m1, m2 in masks:
        last = max(rank[k] for k in range(poly.chord_count) if (m1 | m2) >> k & 1)
        d = 1 << order[last]
        closing[last].append((m1 ^ d, m2) if m1 & d else (m2 ^ d, m1))
    return order, closing


@lru_cache(maxsize=None)
def _plan(n: int, masks: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple]:
    """The frontier's extension steps and their merge keys, per chord d in
    star order. A step is (bit of d, the ``_parity_tables`` of the relations
    closing at d; see ``_closing``). A key is (r, ``_byte_tables`` of a
    basis) where the terms of the relations open after the step, cut to the
    chords set, have GF(2) rank r below the number of those chords, else None.
    """
    order, closing = _closing(n, masks)
    steps, keys, done = [], [], 0
    for s, (k, rows) in enumerate(zip(order, closing)):
        steps.append((np.uint64(1 << k), _parity_tables(rows)))
        done |= 1 << k
        basis: dict[int, int] = {}  # leading bit -> reduced term mask
        # relations open after the step close at a later d, which done lacks
        for t in (t & done for later in closing[s + 1 :] for pair in later for t in pair):
            while t and t.bit_length() in basis:
                t ^= basis[t.bit_length()]
            if t:
                basis[t.bit_length()] = t
            if len(basis) > s:  # full rank: nothing to merge
                break
        r = len(basis)
        keys.append((r, *_byte_tables(list(basis.values()))) if r <= s else None)
    return tuple(steps), tuple(keys)


def _parity_tables(rows: list[tuple[int, int]]) -> tuple:
    """The closing relations ``rows`` of one step, (held, other) term masks,
    as groups of at most ``_GROUP`` relations: per group its number of
    relations and the ``_byte_tables`` of its held terms, then other terms.
    """
    groups = []
    for s in range(0, len(rows), _GROUP):
        group = rows[s : s + _GROUP]
        terms = [held for held, _ in group] + [other for _, other in group]
        groups.append((len(group), *_byte_tables(terms)))
    return tuple(groups)


def _byte_tables(terms: list[int]) -> tuple:
    """(columns, tables): the bytes of the pattern word, 0 the lowest, that
    any of ``terms`` touches (byte 0 if none does), and per column a table
    whose entry v has bit j set to the parity of v & that byte of terms[j],
    in the narrowest of uint16, uint32 and uint64 that holds len(terms) bits.
    """
    v = np.arange(256, dtype=np.uint64)
    columns = tuple(c for c in range(8) if any(t >> 8 * c & 0xFF for t in terms)) or (0,)
    term_bytes = np.array([[t >> 8 * c & 0xFF for t in terms] for c in columns], dtype=np.uint64)
    odd = np.bitwise_count(term_bytes[:, :, None] & v) & np.uint64(1)
    place = np.arange(len(terms), dtype=np.uint64)[:, None]
    dtype = np.uint16 if len(terms) <= 16 else np.uint32 if len(terms) <= 32 else np.uint64
    tables = np.bitwise_or.reduce(odd << place, axis=1).astype(dtype)
    tables.setflags(write=False)  # shared by every caller of the cache
    return columns, tables


def _read(x: np.ndarray, columns: tuple, tables: np.ndarray) -> np.ndarray:
    """Per pattern of x, the XOR of ``tables[i, byte columns[i]]`` over i."""
    xb = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)  # column c: byte c
    out = tables[0].take(xb[:, columns[0]])
    for table, c in zip(tables[1:], columns[1:]):
        out ^= table.take(xb[:, c])
    return out


def _survivors(x: np.ndarray, groups: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two boolean masks over x: which of x, and which of x | d, no relation
    closing at the step's chord d contradicts.

    Under x (d unset) a closing relation's term holding d has parity p0 and
    its other term parity p1; setting d flips p0. So x is contradicted when
    p0 and p1 are odd, x | d when p1 is odd and p0 even. Per group of
    relations the parities are read off x's bytes through the step's tables
    (see ``_parity_tables``). A step that closes nothing keeps every pattern.
    """
    if not groups:
        every = np.ones(len(x), dtype=bool)
        return every, every
    keep_x = keep_xd = None
    for width, columns, tables in groups:
        signature = _read(x, columns, tables)
        odd = signature >> width  # p1 per relation
        both = odd & signature  # p0 and p1
        ok_x, ok_xd = both == 0, both == odd
        if keep_x is None:
            keep_x, keep_xd = ok_x, ok_xd
        else:
            keep_x &= ok_x
            keep_xd &= ok_xd
    return keep_x, keep_xd


def _extend(x: np.ndarray, w, d: np.uint64, groups: tuple) -> tuple:
    """The patterns among x and x | d that no relation closing at d
    contradicts (see ``_survivors``), with their weights taken from w, if any."""
    if not groups:
        return np.concatenate((x, x | d)), None if w is None else np.concatenate((w, w))
    keep_x, keep_xd = _survivors(x, groups)
    split = np.count_nonzero(keep_x)
    # gathered by index: a boolean index, x[keep_x], took several times as
    # long on the mixed masks of a full block
    index = np.concatenate((keep_x.nonzero()[0], keep_xd.nonzero()[0]))
    del keep_x, keep_xd  # not held through the gather
    y = x.take(index)
    y[split:] |= d
    return y, None if w is None else w.take(index)


def _merge(x: np.ndarray, w, key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One pattern of x per coordinate ``key`` reads, weighted by the int64
    total of w there (w None weighs one a pattern). Patterns at a coordinate
    agree on every open term parity, so later checks treat them alike."""
    r, columns, tables = key
    coordinate = _read(x, columns, tables)
    if w is None:
        total = np.bincount(coordinate, minlength=1 << r)
    else:
        total = np.zeros(1 << r, dtype=np.int64)
        np.add.at(total, coordinate, w)
    held = np.empty(1 << r, dtype=np.uint64)
    held[coordinate] = x
    occupied = total.nonzero()[0]
    return held.take(occupied), total.take(occupied)


def _blocks(steps: tuple, keys=None) -> Iterator[tuple]:
    """The patterns that survive ``steps``, a run of ``_plan`` steps from the
    first, as (share, block, weights): uint64 blocks in no set order, each
    with the ``Fraction`` of the walk it finishes and its weights, None
    without the plan's merge ``keys`` or before a block's first merge. The
    shares of all blocks sum to 1.

    One depth-first stack of frontiers starts from the zero pattern, which
    carries the whole walk, share 1. A frontier popped off it is extended
    and merged wherever it outgrows the 2^r coordinates of a step's key. It
    stops at the last step, or past ``_BLOCK_ENTRIES`` patterns unless the
    step it is about to take has a key that will merge it, leaving it
    smaller than it was; so no extension starts from over twice the size and
    no merge reads over four times it. One that stops short of the last
    step, or ends with over ``_BLOCK_ENTRIES`` patterns, is cut in halves of
    half its share each, so no block yielded holds more.
    """
    stack = [(Fraction(1), 0, np.zeros(1, dtype=np.uint64), None)]
    while stack:
        share, k, x, w = stack.pop()
        while k < len(steps):
            d, groups = steps[k]
            key = keys and keys[k]
            if len(x) > _BLOCK_ENTRIES and not (key and 1 << key[0] < len(x)):
                break
            x, w = _extend(x, w, d, groups)
            if key and 1 << key[0] < len(x):
                x, w = _merge(x, w, key)
            k += 1
        if k < len(steps) or len(x) > _BLOCK_ENTRIES:
            # halves copied, so that one waiting on the stack does not keep x alive
            for h in slice(len(x) // 2), slice(len(x) // 2, None):
                stack.append((share / 2, k, x[h].copy(), None if w is None else w[h].copy()))
        else:
            yield share, x, w
        del x, w  # not held while the next frontier grows


def count(n: int, masks: tuple, progress=None) -> int:
    """The number of n-gon patterns that contradict none of ``masks``; see
    ``count_consistent``. The walk merges patterns where the plan's keys
    allow (see ``_merge``); the last step adds its survivors' weights
    without gathering them. ``progress(done)`` is called after each block,
    with the sum of the shares of the blocks counted so far.
    """
    steps, keys = _plan(n, masks)
    _, groups = steps[-1]
    total = done = 0
    for share, block, w in _blocks(steps[:-1], keys):
        keep_x, keep_xd = _survivors(block, groups)
        if w is None:
            total += np.count_nonzero(keep_x) + np.count_nonzero(keep_xd)
        else:
            total += w.sum(where=keep_x) + w.sum(where=keep_xd)
        del block, w, keep_x, keep_xd  # not held while the next frontier grows
        done += share
        if progress is not None:
            progress(done)
    return int(total)


def _sorted_bits(n: int, masks: tuple) -> np.ndarray:
    """Every n-gon pattern consistent with ``masks`` as one uint64 array, in
    increasing order.

    Each block is copied into one array as it arrives; the array grows in
    place by a quarter when full and is trimmed at the end, so the patterns
    are held once rather than as blocks beside their concatenation.
    """
    bits = np.empty(0, dtype=np.uint64)
    size = 0
    steps, _ = _plan(n, masks)
    for _, block, _ in _blocks(steps):
        end = size + len(block)
        if end > len(bits):
            bits.resize(max(end, len(bits) * 5 // 4), refcheck=False)
        bits[size:end] = block
        size = end
    bits.resize(size, refcheck=False)
    bits.sort()
    return bits


def consistent_bits(n: int, masks: tuple) -> Iterator[int]:
    """The bits of every n-gon pattern consistent with ``masks``, in
    increasing order, turned into ints one slice at a time."""
    bits = _sorted_bits(n, masks)
    for start in range(0, len(bits), _BLOCK_ENTRIES):
        yield from bits[start : start + _BLOCK_ENTRIES].tolist()


def write_consistent(n: int, masks: tuple, fh: BinaryIO) -> int:
    """Write every n-gon pattern consistent with ``masks`` to the binary file
    ``fh``, one ``str(SignPattern)`` line each in increasing order; the
    number written. The lines are read off the patterns' bytes by
    ``_write_lines``.
    """
    bits = _sorted_bits(n, masks)
    _write_lines(bits, Polygon(n).chord_count, fh)
    return len(bits)


def _write_lines(bits: np.ndarray, m: int, fh: BinaryIO) -> None:
    """Write the m-chord patterns ``bits`` to ``fh``, one ``str(SignPattern)``
    line each, ``_WRITE_ROWS`` at a time.

    Each byte of a pattern that holds chords picks its eight sign characters
    from ``_SIGN_TABLE``, gathered as one uint64 per byte; the first m
    characters go into a reused line buffer.
    """
    words = _SIGN_TABLE.view(np.uint64).ravel()  # row v as one 8-byte word
    columns = (m + 7) // 8
    lines = np.full((_WRITE_ROWS, m + 1), ord("\n"), dtype=np.uint8)
    for start in range(0, len(bits), _WRITE_ROWS):
        chunk = bits[start : start + _WRITE_ROWS].astype("<u8", copy=False)
        signs = words.take(chunk.view(np.uint8).reshape(-1, 8)[:, :columns])
        rows = lines[: len(chunk)]
        rows[:, :m] = signs.view(np.uint8)[:, :m]
        fh.write(rows)
