"""Transport of sign patterns through chart changes.

A point with chord signs s in the target chart has, for every source chord,
the sign of its monomial image: the map's own sign times the parity of the
negative values raised to odd exponents. That orthant bookkeeping links
dihedral orderings to sign patterns: each ordering corresponds to the unique
standard-chart pattern whose transport into that ordering's chart is the
all-plus orthant, i.e. the signs of the chart change from the standard chart
to the ordering's chart.
"""
from __future__ import annotations

from typing import Sequence

from .ngon import Polygon, _check_permutation
from .monomial import MonomialMap, _odd, _places
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


def sign_of_ordering(poly: Polygon, word: Sequence[int]) -> SignPattern:
    """The standard-chart sign pattern of the component ordered by ``word``.

    This is the unique pattern whose transport through the chart change of
    ``word`` is all-plus: all-plus pulled back through the inverse chart
    change, from the standard chart to the chart of ``word``, whose image
    signs are read off in closed form. u_ij is negative exactly when the
    label pairs {i, i+1} and {j, j+1} (mod n) interlace in the cyclic order
    of ``word``, so the pattern depends only on the word's dihedral class.
    """
    word = _check_permutation(word, poly.n)
    return _interlacing(poly, _places(poly.identity_word, word))


def _interlacing(poly: Polygon, at: Sequence[int]) -> SignPattern:
    """The pattern, in the current chart, of the ordering in which the label
    at chart position k stands at place ``at[k - 1]``: chord (i, j) is
    negative exactly when the places of positions {i, i+1} and {j, j+1}
    (mod n) interlace."""
    # the corners as ``monomial._rows`` reads them, position n + 1 as 1. One
    # ASCII digit per chord, read as one base-2 int, since setting m bits one
    # at a time on an m-bit int costs O(m^2)
    w = [*at, at[0]]
    digits = bytes(48 + _odd(w[i - 1], w[i], w[j - 1], w[j]) for i, j in poly.chords)
    return SignPattern(poly.n, int(digits[::-1], 2))
