"""Combinatorics of the labeled n-gon.

Vertices are labeled 1..n around the polygon; all vertex arithmetic is mod n
mapped back into 1..n. A chord is an unordered pair of non-adjacent vertices,
stored canonically as (i, j) with i < j. The lexicographic order on canonical
chords is the global serialization order used by sign patterns.

A dihedral ordering is a word (a permutation of 1..n) considered up to the 2n
rotations and reflections. The canonical representative starts with 1 and has
its second entry smaller than its last.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Chord = tuple[int, int]

_POLYGONS: dict[int, "Polygon"] = {}


@dataclass(frozen=True, init=False)
class Polygon:
    """The cyclically labeled n-gon, n >= 4, with cached chord tables.

    Interned: ``Polygon(n)`` is one shared instance per n, so each table is
    built once.
    """

    n: int

    def __new__(cls, n: int) -> "Polygon":
        n = operator.index(n)
        poly = _POLYGONS.get(n)
        if poly is None:
            if n < 4:
                raise ValueError(f"need at least 4 vertices, got n={n}")
            poly = super().__new__(cls)
            object.__setattr__(poly, "n", n)
            poly = _POLYGONS.setdefault(n, poly)
        return poly

    def __reduce__(self):
        return Polygon, (self.n,)

    @cached_property
    def chords(self) -> tuple[Chord, ...]:
        """All chords in lexicographic (i, j) order."""
        n = self.n
        out = [
            (i, j)
            for i in range(1, n - 1)
            for j in range(i + 2, n + 1)
            if (i, j) != (1, n)
        ]
        assert len(out) == n * (n - 3) // 2
        return tuple(out)

    @cached_property
    def chord_index(self) -> dict[Chord, int]:
        return {c: k for k, c in enumerate(self.chords)}

    @cached_property
    def pair_index(self) -> tuple[tuple[int, ...], ...]:
        """``pair_index[a][b]`` is the index of the chord {a, b} in either
        orientation, or -1 where a and b (in 0..n) are not a chord. Along a
        row, the chords from one vertex up to higher ones are contiguous."""
        n, index = self.n, self.chord_index
        return tuple(
            tuple(index.get((min(a, b), max(a, b)), -1) for b in range(n + 1))
            for a in range(n + 1)
        )

    @cached_property
    def corners(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per chord (i, j), aligned with ``chords``, the 0-based indices
        (i - 1, i mod n, j - 1, j mod n) of positions i, i + 1, j and j + 1,
        position n + 1 being position 1: the four points of the chord's u."""
        n = self.n
        return tuple([(i - 1, i % n, j - 1, j % n) for i, j in self.chords])

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        """Cyclic length of every chord, aligned with ``chords``."""
        n = self.n
        return tuple(min(j - i, n - (j - i)) for i, j in self.chords)

    def mask(self, chords: Iterable[Chord]) -> int:
        """Bitmask over the canonical chord order of the given chords, in
        either orientation (bit k set = chord k listed)."""
        index = self.chord_index
        bits = 0
        for i, j in chords:
            bits |= 1 << (index[i, j] if (i, j) in index else index[self.chord(i, j)])
        return bits

    @property
    def chord_count(self) -> int:
        return self.n * (self.n - 3) // 2

    def wrap(self, v: int) -> int:
        """Map an integer to the vertex label in 1..n."""
        return (v - 1) % self.n + 1

    def chord(self, a: int, b: int) -> Chord:
        """Canonical form of the chord between vertices a and b.

        Labels outside 1..n are rejected, not wrapped; callers doing cyclic
        arithmetic apply ``wrap`` first.
        """
        if a > b:
            a, b = b, a
        if (a, b) not in self.chord_index:
            raise ValueError(f"({a},{b}) is not a chord of the {self.n}-gon")
        return (a, b)

    def chord_length(self, c: Chord) -> int:
        """Cyclic distance between the endpoints, in 2..n//2."""
        return self.lengths[self.chord_index[self.chord(*c)]]

    @cached_property
    def identity_word(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))


def crosses(poly: Polygon, c1: Chord, c2: Chord) -> bool:
    """Whether two distinct chords cross in the planar drawing.

    True iff one endpoint of c2 lies strictly inside each of the two open
    arcs cut out by c1; chords sharing an endpoint never cross.
    """
    c1 = poly.chord(*c1)
    c2 = poly.chord(*c2)
    if c1 == c2:
        raise ValueError("crossing is only defined for distinct chords")
    i, j = c1
    k, l = c2
    if k in c1 or l in c1:
        return False
    k_inside = i < k < j
    l_inside = i < l < j
    return k_inside != l_inside


def crossing_chords(poly: Polygon, c: Chord) -> tuple[Chord, ...]:
    """All chords crossing c, in canonical order."""
    c = poly.chord(*c)
    return tuple(d for d in poly.chords if d != c and crosses(poly, c, d))


def _check_permutation(word: Sequence[int], n: int | None = None) -> tuple[int, ...]:
    """``word`` as a tuple, if it is a permutation of 1..n (n defaults to its
    length); otherwise a one-line ``ValueError``."""
    word = tuple(word)
    if n is None:
        n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"{word!r} is not a permutation of 1..{n}")
    return word


def canonicalize(word: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of the dihedral class of a word.

    Rotate label 1 to the front, then reflect if the second entry exceeds
    the last. Idempotent and constant on each dihedral orbit.

    >>> canonicalize([2, 3, 4, 5, 1])
    (1, 2, 3, 4, 5)
    >>> canonicalize([1, 5, 4, 3, 2])
    (1, 2, 3, 4, 5)
    """
    word = _check_permutation(word)
    i = word.index(1)
    word = word[i:] + word[:i]
    if len(word) >= 3 and word[1] > word[-1]:
        word = (word[0],) + tuple(reversed(word[1:]))
    return word


def all_orderings(poly: Polygon) -> Iterator[tuple[int, ...]]:
    """All (n-1)!/2 canonical dihedral orderings, lexicographically."""
    rest = range(2, poly.n + 1)
    for p in itertools.permutations(rest):
        if p[0] < p[-1]:
            yield (1,) + p


def ordering_count(poly: Polygon) -> int:
    """(n-1)!/2, the number of dihedral orderings."""
    return math.factorial(poly.n - 1) // 2


def _cut_runs(
    poly: Polygon, p: int, q: int, r: int, s: int, e1: int, e2: int
) -> list[tuple[int, int, int]]:
    """R1^e1 * R2^e2 at cut points p < q < r < s, as runs (first chord
    index, run length, exponent) of chords contiguous in the canonical order,
    in chord order. A rectangle whose exponent is 0 is left out.

    R1 is the rectangle of chords x in [p, q), y in [r, s), and R2 the one of
    x in [q, r), y from s round past n to p - 1: the two terms of the extended
    u-relation R1 + R2 = 1 at those cuts. Each row of a rectangle, one x and
    its run of y's, is one run.
    """
    n, index = poly.n, poly.pair_index
    # in chord order: R2 below p, then R1, then R2 from q up
    runs = []
    if e2:
        runs += [(index[y][q], r - q, e2) for y in range(1, p)]
    if e1:
        runs += [(index[x][r], s - r, e1) for x in range(p, q)]
    if e2:
        runs += [(index[x][s], n + 1 - s, e2) for x in range(q, r)]
    return runs


def _run_bits(runs: Iterable[tuple[int, int, int]]) -> int:
    """Bitmask over the canonical chord order of the chords in ``runs``."""
    return sum(((1 << size) - 1) << k for k, size, _ in runs)
