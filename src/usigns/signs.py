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

from operator import xor
from typing import Sequence

from .ngon import Polygon, _check_permutation
from .monomial import MonomialMap, _odd, _places, _row_prefixes
from .patterns import SignPattern

# binary digits -> the bit values 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def transport(pattern: SignPattern, m: MonomialMap) -> SignPattern:
    """Pull a target-chart sign pattern back to the map's source chart.

    An image's sign is the map's sign times the parity of the pattern's
    negative chords in each rectangle whose exponent is odd, that is,
    nonzero. ``P[x][y]``, the parity of the negative chords (a, b) with
    a < x and b < y, gives a rectangle's parity from its four corners.
    """
    if pattern.n != m.n:
        raise ValueError(f"pattern is for n={pattern.n}, map for n={m.n}")
    poly = m.poly
    n = poly.n
    bits = format(pattern.bits, f"0{poly.chord_count}b")[::-1].encode().translate(_BIT_VALUES)
    P = [[0] * (n + 2)]
    for row in _row_prefixes(poly, bits, xor, 0):
        P.append(list(map(xor, P[-1], row)))
    end = n + 1
    digits = bytearray()
    for odd, p, q, r, s, e1, e2 in m._row_list:
        if e1:  # R1 = [p, q) x [r, s)
            odd ^= P[q][s] ^ P[p][s] ^ P[q][r] ^ P[p][r]
        if e2:  # R2 = [q, r) x [s, n + 1) and [1, p) x [q, r); P[1] is 0, as no chord has a < 1
            odd ^= P[r][end] ^ P[q][end] ^ P[r][s] ^ P[q][s] ^ P[p][r] ^ P[p][q]
        digits.append(48 + odd)
    return SignPattern(n, int(digits[::-1], 2))


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
    (mod n) interlace, read through ``poly.corners`` as ``monomial._rows``
    reads them."""
    # one ASCII digit per chord, read as one base-2 int, since setting m bits
    # one at a time on an m-bit int costs O(m^2)
    digits = bytes([48 + _odd(at[a], at[b], at[c], at[e]) for a, b, c, e in poly.corners])
    return SignPattern(poly.n, int(digits[::-1], 2))
