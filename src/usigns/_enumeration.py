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

A frontier that outgrows ``_BLOCK_ENTRIES`` patterns is cut into blocks that
are finished depth-first, so memory stays bounded at every n. A count runs
every step but the last and counts that step's survivors without gathering
them.

A written pattern is read a byte at a time: each of the bytes that hold chords
picks the eight sign characters of its value from one 256-row table.
"""
from __future__ import annotations

from functools import lru_cache
from typing import BinaryIO, Iterator

import numpy as np

from .ngon import Polygon

# most patterns one block extends at once
_BLOCK_ENTRIES = 1 << 16

# most relations one parity signature holds: two bits each, in a uint64
_GROUP = 32

# blocks the frontier is cut into when it first outgrows _BLOCK_ENTRIES; the
# unit of ``progress``
_TOP_BLOCKS = 16

# patterns ``write_consistent`` formats per write
_WRITE_ROWS = 1 << 12

# the sign character of a clear and of a set chord bit, as in SignPattern.__str__
_SIGN_BYTES = np.frombuffer(b"+-", dtype=np.uint8)

# row v: the sign characters of byte value v, its lowest bit first
_SIGN_TABLE = _SIGN_BYTES[
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
]


@lru_cache(maxsize=None)
def _plan(n: int, masks: tuple[tuple[int, int], ...]) -> tuple:
    """The frontier's extension steps: per chord d in star order, (bit of d,
    terms, groups), where ``terms[0, r]`` is the mask of the term of the r-th
    relation closing at d that holds d, with d removed, and ``terms[1, r]``
    is the mask of its other term; ``groups`` are the parity tables of
    ``terms`` (see ``_parity_tables``). A step that closes nothing doubles the
    frontier.
    """
    poly = Polygon(n)
    order = sorted(range(poly.chord_count), key=lambda k: (poly.chords[k][0], -poly.chords[k][1]))
    rank = {k: s for s, k in enumerate(order)}
    closing: list[list[tuple[int, int]]] = [[] for _ in order]
    for m1, m2 in masks:
        last = max(rank[k] for k in range(poly.chord_count) if (m1 | m2) >> k & 1)
        d = 1 << order[last]
        closing[last].append((m1 ^ d, m2) if m1 & d else (m2 ^ d, m1))
    steps = []
    for k, rows in zip(order, closing):
        terms = np.array(rows, dtype=np.uint64).reshape(-1, 2).T.copy()
        terms.setflags(write=False)  # shared by every caller of the cache
        steps.append((np.uint64(1 << k), terms, _parity_tables(rows)))
    return tuple(steps)


def _parity_tables(rows: list[tuple[int, int]]) -> tuple:
    """The closing relations ``rows`` of one step, (held, other) term masks,
    as groups of at most ``_GROUP`` relations: per group (width, columns,
    tables), ``width`` its number of relations.

    ``columns`` are the bytes of the pattern word, 0 the lowest, that any
    term of the group touches, and ``tables[i, v]`` has bit r set to the
    parity of v & byte ``columns[i]`` of the held term of the group's r-th
    relation and bit width + r to that of its other term. The XOR of
    ``tables[i, byte columns[i] of x]`` over i is then x's parity signature.
    It is held in the narrowest of uint16, uint32 and uint64 that takes
    2 * width bits.
    """
    v = np.arange(256, dtype=np.uint64)
    groups = []
    for s in range(0, len(rows), _GROUP):
        group = rows[s : s + _GROUP]
        width = len(group)
        terms = [held for held, _ in group] + [other for _, other in group]
        columns = tuple(c for c in range(8) if any(t >> 8 * c & 0xFF for t in terms))
        term_bytes = np.array([[t >> 8 * c & 0xFF for t in terms] for c in columns], dtype=np.uint64)
        odd = np.bitwise_count(term_bytes[:, :, None] & v) & np.uint64(1)
        place = np.arange(2 * width, dtype=np.uint64)[:, None]
        dtype = np.uint16 if width <= 8 else np.uint32 if width <= 16 else np.uint64
        tables = np.bitwise_or.reduce(odd << place, axis=1).astype(dtype)
        tables.setflags(write=False)
        groups.append((width, columns, tables))
    return tuple(groups)


def _survivors(x: np.ndarray, groups: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two boolean masks over x: which of x, and which of x | d, no relation
    closing at the step's chord d contradicts.

    Under x (d unset) a closing relation's term holding d has parity p0 and
    its other term parity p1; setting d flips p0. So x is contradicted when
    p0 and p1 are odd, x | d when p1 is odd and p0 even. Per group of
    relations the parities are read off x's bytes through the step's tables
    (see ``_parity_tables``): bit r of the signature is p0 of relation r and
    bit width + r its p1. A step that closes nothing keeps every pattern.
    """
    if not groups:
        every = np.ones(len(x), dtype=bool)
        return every, every
    xb = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)  # column c: byte c
    keep_x = keep_xd = None
    for width, columns, tables in groups:
        signature = tables[0].take(xb[:, columns[0]])
        for table, c in zip(tables[1:], columns[1:]):
            signature ^= table.take(xb[:, c])
        odd = signature >> width  # p1 per relation
        both = odd & signature  # p0 and p1
        ok_x, ok_xd = both == 0, both == odd
        if keep_x is None:
            keep_x, keep_xd = ok_x, ok_xd
        else:
            keep_x &= ok_x
            keep_xd &= ok_xd
    return keep_x, keep_xd


def _extend(x: np.ndarray, d: np.uint64, groups: tuple) -> np.ndarray:
    """The patterns among x and x | d that no relation closing at d
    contradicts (see ``_survivors``)."""
    if not groups:
        return np.concatenate((x, x | d))
    keep_x, keep_xd = _survivors(x, groups)
    # gathered by index: a boolean index, x[keep_x], took several times as
    # long on the mixed masks of a full block
    return np.concatenate((x.take(keep_x.nonzero()[0]), x.take(keep_xd.nonzero()[0]) | d))


def _grow(steps: tuple, k: int, x: np.ndarray) -> tuple[int, np.ndarray]:
    """Extend frontier x from step k until the last step or until it
    outgrows ``_BLOCK_ENTRIES``; the step reached and the frontier."""
    while k < len(steps) and len(x) <= _BLOCK_ENTRIES:
        d, _, groups = steps[k]
        x = _extend(x, d, groups)
        k += 1
    return k, x


def _blocks(steps: tuple, progress=None) -> Iterator[np.ndarray]:
    """The patterns that survive ``steps``, a run of ``_plan`` steps from the
    first, in uint64 blocks, in no set order.

    The frontier grows from one zero pattern until it outgrows ``_BLOCK_ENTRIES``,
    then is cut into ``_TOP_BLOCKS`` top-level blocks. Each is finished
    depth-first, a block that outgrows the size again being halved, so no
    block yielded holds more than ``_BLOCK_ENTRIES`` patterns.
    ``progress(done, total)`` is called after each top-level block; a
    frontier that never outgrows the size is one top-level block.
    """
    k, x = _grow(steps, 0, np.zeros(1, dtype=np.uint64))
    tops = np.array_split(x, _TOP_BLOCKS) if k < len(steps) else [x]
    for done, top in enumerate(tops, 1):
        stack = [(k, top)]
        while stack:
            j, y = _grow(steps, *stack.pop())
            if j == len(steps) and len(y) <= _BLOCK_ENTRIES:
                yield y
            else:
                half = len(y) // 2
                stack += [(j, y[half:]), (j, y[:half])]
        if progress is not None:
            progress(done, len(tops))


def count(n: int, masks: tuple, progress=None) -> int:
    """The number of n-gon patterns that contradict none of ``masks``; see
    ``count_consistent``. The last step is counted from its survivors,
    never gathered.
    """
    steps = _plan(n, masks)
    _, _, groups = steps[-1]
    total = 0
    for block in _blocks(steps[:-1], progress):
        keep_x, keep_xd = _survivors(block, groups)
        total += np.count_nonzero(keep_x) + np.count_nonzero(keep_xd)
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
    for block in _blocks(_plan(n, masks)):
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
