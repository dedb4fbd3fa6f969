"""The place reader: chord signs read off the places of an ordering.

Chord (i, j) of a chart is negative exactly when the places, in an ordering,
of the labels at chart positions {i, i+1} and {j, j+1} (mod n) interlace.
``_places`` lists those places, ``_odd`` is the interlacing test at a chord's
four corners, and ``_interlacing`` runs it over ``poly.corners``, one flag per
chord for ``SignPattern._from_flags``. That one rule is behind
``sign_of_ordering``, ``solver.solve``'s certificate and replay, and the image
signs of ``monomial._rows``: an ordering's pattern is the unique
standard-chart pattern whose transport into its chart is all-plus.
"""
from __future__ import annotations

from typing import Sequence

from .ngon import Polygon, _check_permutation
from .patterns import SignPattern


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


def _places(source: Sequence[int], target: Sequence[int]) -> list[int]:
    """Per source position, the target position of the label it holds."""
    position = {label: p for p, label in enumerate(target, 1)}
    return [position[label] for label in source]


def _odd(a: int, b: int, c: int, e: int) -> bool:
    """True if the places {a, b} and {c, e} interlace, that is, if the image
    of the chord with corners A, B, C, E is negative (see ``monomial._rows``);
    XOR, not a sum, since numpy adds bools as logical OR."""
    return (a > e) ^ (b > c) ^ (a > c) ^ (b > e)


def _interlacing(poly: Polygon, at: Sequence[int]) -> SignPattern:
    """The pattern, in the current chart, of the ordering in which the label
    at chart position k stands at place ``at[k - 1]``: chord (i, j) is
    negative exactly when the places of positions {i, i+1} and {j, j+1}
    (mod n) interlace, read through ``poly.corners`` as ``monomial._rows``
    reads them."""
    flags = [_odd(at[a], at[b], at[c], at[e]) for a, b, c, e in poly.corners]
    return SignPattern._from_flags(poly.n, flags)
