"""Transport of sign patterns through chart changes.

A point with chord signs s in the target chart has, for every source chord,
the sign of its monomial image: the map's own sign times the parity of the
negative values raised to odd exponents. That orthant bookkeeping links
dihedral orderings to sign patterns: each ordering corresponds to the unique
standard-chart pattern whose transport into that ordering's chart is the
all-plus orthant.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .ngon import Polygon, _check_permutation
from .monomial import MonomialMap, elementary_map
from .patterns import SignPattern


def _transport_bits(bits: int, table: tuple[tuple[int, int], ...]) -> int:
    out = 0
    for idx, (neg, mask) in enumerate(table):
        if neg ^ ((bits & mask).bit_count() & 1):
            out |= 1 << idx
    return out


def transport(pattern: SignPattern, m: MonomialMap) -> SignPattern:
    """Pull a target-chart sign pattern back to the map's source chart."""
    if pattern.n != m.n:
        raise ValueError(f"pattern is for n={pattern.n}, map for n={m.n}")
    return SignPattern(m.n, _transport_bits(pattern.bits, m.transport_table()))


@lru_cache(maxsize=None)
def _elementary_table(n: int, k: int) -> tuple[tuple[int, int], ...]:
    return elementary_map(Polygon(n), k).transport_table()


def _chain(
    first: tuple[tuple[int, int], ...], then: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Table of transport through ``first`` followed by ``then``.

    Transport is affine over GF(2): row r of the chain XORs the ``first``
    rows that ``then``'s mask_r selects, and the parity of their constants.
    """
    shift = _transport_bits(0, first)
    out = []
    for neg, mask in then:
        row, rest = 0, mask
        while rest:  # over the set bits of mask
            row ^= first[(rest & -rest).bit_length() - 1][1]
            rest &= rest - 1
        out.append((neg ^ ((mask & shift).bit_count() & 1), row))
    return tuple(out)


def _arc_swap_sequence(n: int, p: int, q: int) -> list[int]:
    """Adjacent-swap positions realizing the position transposition (p q),
    walking the cyclic arc upward from p to q: p, p+1, ..., q-1, ..., p."""
    d = (q - p) % n
    up = [(p - 1 + t) % n + 1 for t in range(d)]
    return up + up[-2::-1]


@lru_cache(maxsize=None)
def _transposition_table(n: int, p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Transport table of ``map_for_transposition(Polygon(n), p, q)``, over
    GF(2): that map is the composite of the adjacent swaps along the arc,
    step_1 innermost, so a pattern passes through step_L's elementary table
    first and step_1's last."""
    steps = [_elementary_table(n, k) for k in _arc_swap_sequence(n, p, q)]
    table = steps.pop()
    while steps:
        table = _chain(table, steps.pop())
    return table


def _sort_positions(word: tuple[int, ...]) -> Iterator[int]:
    """First-descent bubble sort; yields each swapped position pair's k."""
    w = list(word)
    n = len(w)
    while True:
        for k in range(n - 1):
            if w[k] > w[k + 1]:
                w[k], w[k + 1] = w[k + 1], w[k]
                yield k + 1
                break
        else:
            return


def _fewest_inversions(word: tuple[int, ...]) -> tuple[int, ...]:
    """The rotation or reflection of a permutation with the fewest
    inversions, i.e. the fewest adjacent swaps to sort; the first one on ties.

    Moving the front entry x of a word of length n to its back adds the
    n - x larger entries before it and drops the x - 1 smaller ones after
    it, so each rotation's count follows from the previous one's.
    """
    n = len(word)
    count = sum(1 for a in range(n) for b in range(a + 1, n) if word[a] > word[b])
    best, fewest = word, count
    for w, count in ((word, count), (word[::-1], n * (n - 1) // 2 - count)):
        for r in range(n):
            if count < fewest:
                best, fewest = w[r:] + w[:r], count
            count += n + 1 - 2 * w[r]
    return best


def sign_of_ordering(poly: Polygon, word: Sequence[int]) -> SignPattern:
    """The standard-chart sign pattern of the component ordered by ``word``.

    This is the unique pattern whose transport through the chart change of
    ``word`` is all-plus. Elementary chart changes are involutive, so the
    pattern is obtained by pushing all-plus forward through a word's
    sorting sequence one adjacent swap at a time. The result depends only on
    the dihedral class of the word, so the member of the class with the
    fewest swaps is the one sorted.
    """
    word = _check_permutation(word)
    if len(word) != poly.n:
        raise ValueError(f"word has length {len(word)}, polygon has n={poly.n}")
    bits = 0
    for k in _sort_positions(_fewest_inversions(word)):
        bits = _transport_bits(bits, _elementary_table(poly.n, k))
    return SignPattern(poly.n, bits)
