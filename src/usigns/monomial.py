"""Signed Laurent-monomial coordinate changes between dihedral charts.

A chart is "the n-gon with positions 1..n"; a map sends each chord of its
source chart to a signed monomial in the chords of its target chart. The
formulas are purely positional; the source/target ordering words are carried
as labels, so that composition can refuse mismatched charts and inversion can
walk from the target chart back to the source chart.

Direction convention: a map is a ring map, source-chart variables expressed
in target-chart variables. ``map_for_ordering(word)`` goes from the chart of
``word`` to the standard chart, so evaluating it on standard u-values yields
the u-values of the relabeled configuration.

Everything is exact: exponents are arbitrary-precision integers and signs are
tracked through parity, so compositions can grow without overflow.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .ngon import Chord, Polygon, _check_permutation

Word = tuple[int, ...]


class ChartMismatchError(ValueError):
    """Composition of maps whose charts do not chain."""


@dataclass(frozen=True)
class SignedMonomial:
    """sign * product of chord variables with integer exponents.

    ``powers`` is sorted by chord and omits zero exponents, so equal
    monomials compare equal structurally.
    """

    sign: int
    powers: tuple[tuple[Chord, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    @classmethod
    def make(cls, sign: int, exponents: Mapping[Chord, int]) -> "SignedMonomial":
        powers = tuple(sorted((c, e) for c, e in exponents.items() if e != 0))
        return cls(sign, powers)

    def render(self) -> str:
        if not self.powers:
            return "-1" if self.sign < 0 else "1"
        factors = "*".join(
            f"u[{i},{j}]" + (f"^{e}" if e != 1 else "")
            for (i, j), e in self.powers
        )
        return ("-" if self.sign < 0 else "") + factors


@dataclass(frozen=True)
class MonomialMap:
    """Chart change: image of every source chord as a target-chart monomial.

    ``images`` is aligned with the canonical chord order of the source chart's
    positions; monomial factors refer to target-chart positions.
    """

    n: int
    source: Word
    target: Word
    images: tuple[SignedMonomial, ...]

    @property
    def poly(self) -> Polygon:
        return Polygon(self.n)

    def image(self, c: Chord) -> SignedMonomial:
        poly = self.poly
        return self.images[poly.chord_index[poly.chord(*c)]]

    def is_identity(self) -> bool:
        return all(
            mono.sign == 1 and mono.powers == ((c, 1),)
            for c, mono in zip(self.poly.chords, self.images)
        )

    def render(self) -> str:
        """One line per source chord: "u[i,j] -> <signed monomial>"."""
        return "\n".join(
            f"u[{i},{j}] -> {mono.render()}"
            for (i, j), mono in zip(self.poly.chords, self.images)
        )

    def transport_table(self) -> tuple[tuple[int, int], ...]:
        """(negative-bit, odd-exponent mask) per source chord, for fast sign
        transport through this map."""
        poly = self.poly
        return tuple(
            (1 if mono.sign < 0 else 0, poly.mask(c for c, e in mono.powers if e & 1))
            for mono in self.images
        )


def identity_map(poly: Polygon, word: Sequence[int] | None = None) -> MonomialMap:
    word = poly.identity_word if word is None else _check_permutation(word)
    images = tuple(SignedMonomial.make(1, {c: 1}) for c in poly.chords)
    return MonomialMap(poly.n, word, word, images)


def _elementary_images(poly: Polygon, k: int) -> tuple[SignedMonomial, ...]:
    """Images of the adjacent-swap-at-position-k chart change.

    Five positional cases, indices mod n: chords away from k-1, k, k+1 are
    fixed; a chord into k-1 (resp. k+1) picks up the parallel chord into k;
    a chord into k inverts; and the short chord spanning k flips sign and
    divides by every chord into k.
    """
    n = poly.n
    km1, kp1 = poly.wrap(k - 1), poly.wrap(k + 1)
    special = poly.chord(km1, kp1)
    images = []
    for c in poly.chords:
        i, j = c
        if c == special:
            exps: dict[Chord, int] = {special: 1}
            for v in range(1, n + 1):
                if v not in (km1, k, kp1):
                    exps[poly.chord(v, k)] = -1
            images.append(SignedMonomial.make(-1, exps))
        elif k in c:
            other = j if i == k else i
            images.append(SignedMonomial.make(1, {poly.chord(other, k): -1}))
        elif km1 in c:
            other = j if i == km1 else i
            images.append(
                SignedMonomial.make(1, {poly.chord(other, km1): 1, poly.chord(other, k): 1})
            )
        elif kp1 in c:
            other = j if i == kp1 else i
            images.append(
                SignedMonomial.make(1, {poly.chord(other, k): 1, poly.chord(other, kp1): 1})
            )
        else:
            images.append(SignedMonomial.make(1, {c: 1}))
    return tuple(images)


def _swap_positions(word: Word, k: int, n: int) -> Word:
    """Swap the entries at positions k and k+1 (mod n), 1-indexed."""
    a = k - 1
    b = k % n
    out = list(word)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def elementary_map(poly: Polygon, k: int) -> MonomialMap:
    """Chart change for the adjacent transposition at positions k, k+1 mod n.

    Source chart: the identity word with those two entries swapped; target:
    the standard chart. Composing it with itself gives the identity map.
    """
    if not 1 <= k <= poly.n:
        raise ValueError(f"position k must be in 1..{poly.n}, got {k}")
    source = _swap_positions(poly.identity_word, k, poly.n)
    return MonomialMap(poly.n, source, poly.identity_word, _elementary_images(poly, k))


def compose(outer: MonomialMap, inner: MonomialMap) -> MonomialMap:
    """The map sending c to outer(inner(c)); inner's target must be outer's source."""
    if outer.n != inner.n:
        raise ChartMismatchError(f"sizes differ: {outer.n} vs {inner.n}")
    if outer.source != inner.target:
        raise ChartMismatchError(
            f"charts do not chain: inner targets {inner.target}, outer expects {outer.source}"
        )
    index = inner.poly.chord_index
    outer_images = outer.images
    images = []
    for mono in inner.images:
        sign = mono.sign
        exps: dict[Chord, int] = {}
        for c, e in mono.powers:
            img = outer_images[index[c]]
            if e & 1 and img.sign < 0:
                sign = -sign
            for d, f in img.powers:
                exps[d] = exps.get(d, 0) + e * f
        powers = tuple(sorted((d, x) for d, x in exps.items() if x))
        images.append(SignedMonomial(sign, powers))
    return MonomialMap(outer.n, inner.source, outer.target, tuple(images))


@lru_cache(maxsize=None)
def _elementary_delta(n: int, k: int) -> tuple[int, tuple[tuple[int, tuple], ...]]:
    """The adjacent-swap-at-position-k step as a sparse update of exponent rows.

    Returns the index of the step's special chord (the one image with sign
    -1) and, for each chord d the step does not fix, ``(d, moves)`` with
    ``moves`` the (chord index, exponent) pairs of d's image minus d itself:
    a row with exponent e on d gains e times ``moves``.
    """
    poly = Polygon(n)
    index = poly.chord_index
    special = -1
    delta = []
    for d, mono in enumerate(_elementary_images(poly, k)):
        if mono.sign < 0:
            special = d
        moves = {index[f]: a for f, a in mono.powers}
        moves[d] = moves.get(d, 0) - 1
        if any(moves.values()):
            delta.append((d, tuple((f, a) for f, a in moves.items() if a)))
    return special, tuple(delta)


def _fold(poly: Polygon, source: Word, ks: Iterable[int]) -> MonomialMap:
    """Compose the elementary steps that walk chart ``source`` through the
    adjacent position swaps ``ks``; the map ends at the chart reached.

    Each source chord keeps a dense integer exponent row over the current
    chart's chord indices and a sign; a step substitutes its images into the
    few chords it does not fix, and flips the sign when the row's exponent on
    its special chord is odd.
    """
    n, count = poly.n, poly.chord_count
    rows = [[0] * count for _ in range(count)]
    for i, row in enumerate(rows):
        row[i] = 1
    signs = [1] * count
    target = source
    for k in ks:
        special, delta = _elementary_delta(n, k)
        for i, row in enumerate(rows):
            if row[special] & 1:
                signs[i] = -signs[i]
            # every exponent is read before any is updated
            for e, moves in [(row[d], moves) for d, moves in delta if row[d]]:
                for f, a in moves:
                    row[f] += e * a
        target = _swap_positions(target, k, n)
    chords = poly.chords
    # tuple() of a list, not of a generator: a tuple built from a generator
    # is grown by reallocation, which scattered freed blocks over the
    # allocator's arenas and grew the peak RSS of repeated folds (about 4 MB
    # over a thousand n = 12 maps)
    images = tuple([
        SignedMonomial(sign, tuple([(chords[t], e) for t, e in enumerate(row) if e]))
        for sign, row in zip(signs, rows)
    ])
    return MonomialMap(n, source, target, images)


def _sort_positions(word: Word) -> Iterator[int]:
    """First-descent bubble sort; yields each swapped position pair's k.

    Applied to a transposition word this reproduces the palindromic
    adjacent-swap pattern p, p+1, ..., q-1, ..., p.
    """
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


def _chart_change(poly: Polygon, source: Sequence[int], target: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``source`` to the chart of ``target``.

    The formulas are positional, so relabeling ``source`` by the positions of
    its labels in ``target`` gives a word whose sorting swaps walk ``source``
    to ``target``.
    """
    source, target = _check_permutation(source), _check_permutation(target)
    if len(source) != poly.n or len(target) != poly.n:
        raise ValueError(f"words {source}, {target} do not both have length n={poly.n}")
    position = {label: p for p, label in enumerate(target, 1)}
    return _fold(poly, source, _sort_positions(tuple(position[v] for v in source)))


def map_for_ordering(poly: Polygon, word: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``word`` to the standard chart.

    Built by sorting the word to the identity with adjacent position swaps
    and composing the elementary maps along the way; any valid adjacent-swap
    sorting yields the same map.
    """
    return _chart_change(poly, word, poly.identity_word)


def _arc_swap_sequence(n: int, p: int, q: int) -> list[int]:
    """Adjacent-swap positions realizing the position transposition (p q),
    walking the cyclic arc upward from p to q: p, p+1, ..., q-1, ..., p."""
    d = (q - p) % n
    up = [(p - 1 + t) % n + 1 for t in range(d)]
    return up + up[-2::-1]


def map_for_transposition(poly: Polygon, p: int, q: int) -> MonomialMap:
    """Chart change for swapping the entries at positions p and q.

    Source: identity word with positions p, q swapped; target: the standard
    chart. Decomposed into the 2d-1 adjacent swaps along the arc from p up to
    q (wrapping allowed), so (p, q) and (q, p) take different routes to the
    same map.
    """
    if poly.wrap(p) == poly.wrap(q):
        raise ValueError("positions must differ")
    p, q = poly.wrap(p), poly.wrap(q)
    word = list(poly.identity_word)
    word[p - 1], word[q - 1] = word[q - 1], word[p - 1]
    return _fold(poly, tuple(word), _arc_swap_sequence(poly.n, p, q))


def invert(m: MonomialMap) -> MonomialMap:
    """The two-sided inverse chart change.

    Every chart change is a product of involutive elementary steps, so its
    inverse is the chart change from its target back to its source. A map
    whose images are not the chart change between its own source and target
    labels (for instance one with a non-unimodular exponent matrix) raises
    ``ValueError``.
    """
    inv = _chart_change(m.poly, m.target, m.source)
    if not (compose(m, inv).is_identity() and compose(inv, m).is_identity()):
        raise ValueError("map is not the chart change between its source and target")
    return inv


def evaluate(m: MonomialMap, vals: Mapping[Chord, Fraction]) -> dict[Chord, Fraction]:
    """Evaluate the map at nonzero target-chart values.

    Returns the value of every source chord: sign times the product of the
    target values raised to the image exponents, in exact arithmetic.
    """
    chords = m.poly.chords
    parts = {}
    for c in chords:
        v = Fraction(vals[c])
        if v == 0:
            raise ValueError(f"value of chord {c} is zero")
        parts[c] = (v.numerator, v.denominator)
    out = {}
    for c, mono in zip(chords, m.images):
        num, den = mono.sign, 1
        for d, e in mono.powers:
            p, q = parts[d]
            if e < 0:
                p, q, e = q, p, -e
            num *= p**e
            den *= q**e
        out[c] = Fraction(num, den)
    return out
