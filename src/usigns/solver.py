"""From a consistent sign pattern to its dihedral ordering.

* ``reconstruct_sign_matrix`` + ``ordering_from_sign_matrix`` rebuild the
  pairwise order of the underlying points directly from the pattern by a
  double recursion on its chord flags, then sort.

* ``solve`` decides with that matrix route and certifies its word by a round
  trip: the pattern is consistent exactly when it is the word's interlacing
  pattern, read off ``at``, the place in the word of each chart position's
  label. It then replays the walk to the all-plus orthant from that ``at``:
  repeatedly pick the shortest negative chord and swap the two labels just
  inside it. A swap moves labels, not their places in the word, so each
  state is read off ``at`` by the same reader, ``signs._interlacing``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ngon import Polygon, canonicalize
from .patterns import SignPattern, shortest_negative, stats
from .signs import _interlacing, _places


class InconsistentPatternError(ValueError):
    """No dihedral ordering has the pattern: the matrix route finds no total
    order of the points, or its word's pattern differs from the input."""


class IntransitiveOrderError(ValueError):
    """The reconstructed pairwise signs do not form a strict total order."""


@dataclass(frozen=True)
class TraceStep:
    chord: tuple[int, int]  # oriented (a, b), positions in the chart before the swap
    swap: tuple[int, int]  # the two labels exchanged
    pattern: SignPattern  # pattern after the swap, in the new chart
    negatives: int
    min_length: int | None

    def render(self) -> str:
        a, b = self.chord
        x, y = self.swap
        length = "-" if self.min_length is None else str(self.min_length)
        return (
            f"chord=({a},{b}) swap=({x},{y}) N={self.negatives} "
            f"l={length} pattern={self.pattern}"
        )


@dataclass(frozen=True)
class SolverTrace:
    initial: SignPattern
    steps: tuple[TraceStep, ...]

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def state_stats(self) -> tuple[tuple[int, int | None], ...]:
        """(negatives, shortest length) for the initial and every later state."""
        return (stats(self.initial),) + tuple(
            (s.negatives, s.min_length) for s in self.steps
        )

    def render(self) -> str:
        return "\n".join(step.render() for step in self.steps)


class IterationLimitError(RuntimeError):
    """Safety net tripped; for consistent input this signals a bug."""

    def __init__(self, message: str, trace: SolverTrace):
        super().__init__(message)
        self.trace = trace


def default_iteration_bound(n: int) -> int:
    return 4 * n**3


def solve(poly: Polygon, pattern: SignPattern) -> tuple[tuple[int, ...], SolverTrace]:
    """Canonical dihedral ordering whose component carries ``pattern``.

    The matrix route proposes the ordering and its interlacing pattern
    certifies it, or ``InconsistentPatternError`` is raised. The trace then
    replays the walk from the same places: each step swaps the labels just
    inside the shortest negative chord, and its pattern is read off the
    places of the chart's labels in the ordering, with no transport table.
    """
    try:
        found = ordering_from_sign_matrix(poly, reconstruct_sign_matrix(poly, pattern))
    except IntransitiveOrderError:
        found = None
    # found is canonical, so a permutation; at[k - 1] is the place of k's label
    at = None if found is None else _places(poly.identity_word, found)
    if at is None or _interlacing(poly, at) != pattern:
        raise InconsistentPatternError(f"no dihedral ordering has the pattern {pattern}")
    bound = default_iteration_bound(poly.n)
    current = pattern
    steps: list[TraceStep] = []
    pick = shortest_negative(current) if current.bits else None
    while pick is not None:
        if len(steps) >= bound:
            raise IterationLimitError(
                f"no all-plus pattern within {bound} iterations",
                SolverTrace(pattern, tuple(steps)),
            )
        a, b = pick
        p = poly.wrap(a + 1)
        x, y = found[at[p - 1] - 1], found[at[b - 1] - 1]
        at[p - 1], at[b - 1] = at[b - 1], at[p - 1]
        current = _interlacing(poly, at)
        pick = shortest_negative(current) if current.bits else None
        length = None if pick is None else (pick[1] - pick[0]) % poly.n
        steps.append(TraceStep((a, b), (x, y), current, current.bits.bit_count(), length))
    return found, SolverTrace(pattern, tuple(steps))


@dataclass(frozen=True)
class SignMatrix:
    """Signs of z_i - z_j for 1 <= i < j <= n under the 0/1/infinity gauge.

    The last column is forced negative (z_n plays infinity) and (1,2) is
    forced negative (z_1 = 0 < 1 = z_2).
    """

    n: int
    entries: tuple[int, ...]  # row-major over pairs i < j

    @staticmethod
    def _pair_index(n: int, i: int, j: int) -> int:
        # pairs (i, j), i < j, ordered lexicographically
        return (i - 1) * n - i * (i - 1) // 2 + j - i - 1

    def sign(self, i: int, j: int) -> int:
        """sgn(z_i - z_j); antisymmetric in its arguments."""
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"need two distinct labels in 1..{self.n}")
        if i < j:
            return self.entries[self._pair_index(self.n, i, j)]
        return -self.entries[self._pair_index(self.n, j, i)]


def reconstruct_sign_matrix(poly: Polygon, pattern: SignPattern) -> SignMatrix:
    """Pairwise point-order signs recovered from a chord sign pattern.

    Row 1 walks forward along chords into the infinite point; each later row
    is filled downward in j from the known boundary column, using the chord
    {i-1, j} whose sign couples four matrix entries. Always produces a
    matrix; whether it is a strict total order is the caller's check.
    """
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    n, f, index = poly.n, pattern._flags(), poly.pair_index
    # neg[i][j] is 1 where z_i < z_j; the last column and (1, 2) keep their 1
    neg = [[1] * (n + 1) for _ in range(n)]
    for j in range(3, n):
        neg[1][j] = neg[1][j - 1] ^ f[index[j - 1][n]]
    for i in range(2, n - 1):
        up, row = neg[i - 1], neg[i]
        for j in range(n - 1, i, -1):
            row[j] = f[index[i - 1][j]] ^ up[j + 1] ^ up[j] ^ row[j + 1]
    entries = tuple(1 - 2 * neg[i][j] for i in range(1, n) for j in range(i + 1, n + 1))
    return SignMatrix(n, entries)


def ordering_from_sign_matrix(poly: Polygon, matrix: SignMatrix) -> tuple[int, ...]:
    """Sort labels 1..n-1 by the matrix comparison, append n, canonicalize.

    Raises IntransitiveOrderError unless the matrix is a strict total order
    on 1..n-1 (it always is when the pattern was realizable).
    """
    if matrix.n != poly.n:
        raise ValueError(f"matrix is for n={matrix.n}, polygon has n={poly.n}")
    n = poly.n
    rank = dict.fromkeys(range(1, n), 0)
    for (i, j), e in zip(itertools.combinations(range(1, n + 1), 2), matrix.entries):
        if j < n and e:  # the larger of z_i, z_j gains a rank
            rank[i if e > 0 else j] += 1
    # a tournament whose scores are 0..n-2 is transitive (Landau), so the
    # ranks alone decide whether the matrix is a strict total order
    if sorted(rank.values()) != list(range(n - 1)):
        raise IntransitiveOrderError(f"comparison ranks {rank} are not a total order")
    order = sorted(rank, key=rank.__getitem__)
    return canonicalize(tuple(order) + (n,))
