"""Signed Laurent-monomial coordinate changes between dihedral charts.

A chart is "the n-gon with positions 1..n"; a map sends each chord of its
source chart to a signed monomial in the chords of its target chart. The
formulas are purely positional; the source/target ordering words are carried
only as labels so that composition can refuse mismatched charts.

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
from typing import Iterator, Mapping, Sequence

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

    def exponents(self) -> dict[Chord, int]:
        return dict(self.powers)

    def __neg__(self) -> "SignedMonomial":
        return SignedMonomial(-self.sign, self.powers)

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

    def exponent_matrix(self) -> list[list[int]]:
        """Rows = source chords, columns = target chords, both canonical."""
        poly = self.poly
        rows = []
        for mono in self.images:
            row = [0] * poly.chord_count
            for c, e in mono.powers:
                row[poly.chord_index[c]] = e
            rows.append(row)
        return rows

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
    target = poly.identity_word
    return MonomialMap(
        poly.n, _swap_positions(target, k, poly.n), target, _elementary_images(poly, k)
    )


def _elementary_step(poly: Polygon, word: Word, k: int) -> MonomialMap:
    """Elementary map whose target chart is ``word`` (source: word with the
    entries at positions k, k+1 swapped)."""
    return MonomialMap(
        poly.n, _swap_positions(word, k, poly.n), word, _elementary_images(poly, k)
    )


def compose(outer: MonomialMap, inner: MonomialMap) -> MonomialMap:
    """The map sending c to outer(inner(c)); inner's target must be outer's source."""
    if outer.n != inner.n:
        raise ChartMismatchError(f"sizes differ: {outer.n} vs {inner.n}")
    if outer.source != inner.target:
        raise ChartMismatchError(
            f"charts do not chain: inner targets {inner.target}, outer expects {outer.source}"
        )
    poly = inner.poly
    index = poly.chord_index
    outer_images = outer.images
    images = []
    for mono in inner.images:
        sign = mono.sign
        exps = [0] * poly.chord_count
        for c, e in mono.powers:
            img = outer_images[index[c]]
            if e & 1 and img.sign < 0:
                sign = -sign
            for d, f in img.powers:
                exps[index[d]] += e * f
        images.append(
            SignedMonomial.make(
                sign, {poly.chords[t]: exps[t] for t in range(len(exps)) if exps[t]}
            )
        )
    return MonomialMap(outer.n, inner.source, outer.target, tuple(images))


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


def map_for_ordering(poly: Polygon, word: Sequence[int]) -> MonomialMap:
    """The chart change from the chart of ``word`` to the standard chart.

    Built by sorting the word to the identity with adjacent position swaps
    and composing the elementary maps along the way; any valid adjacent-swap
    sorting yields the same map.
    """
    word = _check_permutation(word)
    if len(word) != poly.n:
        raise ValueError(f"word has length {len(word)}, polygon has n={poly.n}")
    total: MonomialMap | None = None
    cur = word
    for k in _sort_positions(word):
        step = _elementary_step(poly, _swap_positions(cur, k, poly.n), k)
        total = step if total is None else compose(step, total)
        cur = step.target
    if cur != poly.identity_word:
        raise AssertionError("sorting did not reach the identity word")
    return identity_map(poly) if total is None else total


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
    n = poly.n
    if poly.wrap(p) == poly.wrap(q):
        raise ValueError("positions must differ")
    p, q = poly.wrap(p), poly.wrap(q)
    word = list(poly.identity_word)
    word[p - 1], word[q - 1] = word[q - 1], word[p - 1]
    cur = tuple(word)
    total: MonomialMap | None = None
    for k in _arc_swap_sequence(n, p, q):
        step = _elementary_step(poly, _swap_positions(cur, k, n), k)
        total = step if total is None else compose(step, total)
        cur = step.target
    assert cur == poly.identity_word
    assert total is not None
    return total


def invert(m: MonomialMap) -> MonomialMap:
    """The two-sided inverse chart change.

    The exponent matrix of a well-formed map is unimodular over the integers;
    its inverse gives the exponents, and the sign vector solves a linear
    system over GF(2).
    """
    poly = m.poly
    count = poly.chord_count
    inv_rows = _unimodular_inverse(m.exponent_matrix())
    # signs: for every source chord c, sign(c) * prod over d of delta_d^(e mod 2) = +1
    table = m.transport_table()
    rhs = sum(neg << idx for idx, (neg, _) in enumerate(table))
    delta = _gf2_solve([mask for _, mask in table], rhs, count)
    images = []
    for d in range(count):
        exps = {poly.chords[c]: inv_rows[d][c] for c in range(count) if inv_rows[d][c]}
        sign = -1 if delta >> d & 1 else 1
        images.append(SignedMonomial.make(sign, exps))
    return MonomialMap(m.n, m.target, m.source, tuple(images))


def _unimodular_inverse(matrix: list[list[int]]) -> list[list[int]]:
    """Exact inverse of an integer matrix with determinant +-1."""
    size = len(matrix)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(size)]
        for r, row in enumerate(matrix)
    ]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("exponent matrix is singular; map is malformed")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv_pivot = 1 / aug[col][col]
        aug[col] = [v * inv_pivot for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    if det not in (1, -1):
        raise ValueError(f"exponent matrix is not unimodular (det={det})")
    out = []
    for r in range(size):
        row = []
        for v in aug[r][size:]:
            assert v.denominator == 1
            row.append(int(v))
        out.append(row)
    return out


def _gf2_solve(rows: list[int], rhs: int, width: int) -> int:
    """Solve M x = b over GF(2) by Gauss-Jordan; rows are column bitmasks,
    bit r of rhs is b_r. Requires M invertible (true for unimodular maps)."""
    pivots: dict[int, tuple[int, int]] = {}
    for r, row in enumerate(rows):
        val = rhs >> r & 1
        for col, (prow, pval) in pivots.items():
            if row >> col & 1:
                row ^= prow
                val ^= pval
        if row == 0:
            if val:
                raise ValueError("inconsistent GF(2) system; map is malformed")
            continue
        col = row.bit_length() - 1
        for c2, (prow, pval) in list(pivots.items()):
            if prow >> col & 1:
                pivots[c2] = (prow ^ row, pval ^ val)
        pivots[col] = (row, val)
    if len(pivots) != width:
        raise ValueError("exponent matrix is singular mod 2; map is malformed")
    x = 0
    for col, (row, val) in pivots.items():
        assert row == 1 << col
        if val:
            x |= 1 << col
    return x


def evaluate(m: MonomialMap, vals: Mapping[Chord, Fraction]) -> dict[Chord, Fraction]:
    """Evaluate the map at nonzero target-chart values.

    Returns the value of every source chord: sign times the product of the
    target values raised to the image exponents, in exact arithmetic.
    """
    poly = m.poly
    for c in poly.chords:
        if vals[c] == 0:
            raise ValueError(f"value of chord {c} is zero")
    out = {}
    for c, mono in zip(poly.chords, m.images):
        acc = Fraction(mono.sign)
        for d, e in mono.powers:
            acc *= Fraction(vals[d]) ** e
        out[c] = acc
    return out
