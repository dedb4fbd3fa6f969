"""From a consistent sign pattern to its dihedral ordering.

Two independent routes:

* ``solve`` walks the pattern to the all-plus orthant: repeatedly pick the
  shortest negative chord of the current chart's pattern, swap the two labels
  sitting just inside it, and transport the pattern through that chart
  change. The walk decides consistency. If it ends, its word's chart change
  carries the pattern to all-plus, so the pattern is realizable and the word
  is its ordering. If it revisits a pattern, it never ends: the input is
  inconsistent.

* ``reconstruct_sign_matrix`` + ``ordering_from_sign_matrix`` instead rebuild
  the pairwise order of the underlying points directly from the pattern by a
  double recursion, then sort.

``solve`` caches one transport table per (n, p, q) it swaps, with no bound.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ngon import Polygon, canonicalize
from .patterns import SignPattern, shortest_negative, stats
from .signs import _transport_bits, _transposition_table


class InconsistentPatternError(ValueError):
    """The solver's walk revisited a pattern, so the input is not consistent."""


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

    The walk reads one pick per state and decides consistency: it raises
    ``InconsistentPatternError`` once it revisits a pattern. The trace records
    every transposition. Each swapped transposition's transport table stays
    cached, unbounded: about 477 MB at n = 80 (random word, 2 cores, Python 3.11).
    """
    if pattern.n != poly.n:
        raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")
    bound = default_iteration_bound(poly.n)
    word = list(poly.identity_word)
    current = pattern
    visited = {pattern.bits}
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
        x, y = word[p - 1], word[b - 1]
        word[p - 1], word[b - 1] = y, x
        table = _transposition_table(poly.n, p, b)
        current = SignPattern(poly.n, _transport_bits(current.bits, table))
        if current.bits in visited:
            raise InconsistentPatternError(f"walk from {pattern} revisited a pattern")
        visited.add(current.bits)
        pick = shortest_negative(current) if current.bits else None
        length = None if pick is None else (pick[1] - pick[0]) % poly.n
        steps.append(TraceStep((a, b), (x, y), current, current.bits.bit_count(), length))
    return canonicalize(word), SolverTrace(pattern, tuple(steps))


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
    n = poly.n
    P: dict[tuple[int, int], int] = {(1, 2): -1}
    for k in range(1, n):
        P[(k, n)] = -1
    for j in range(3, n):
        P[(1, j)] = P[(1, j - 1)] * pattern.sign((j - 1, n))
    for i in range(2, n - 1):
        for j in range(n - 1, i, -1):
            P[(i, j)] = (
                pattern.sign(poly.chord(i - 1, j))
                * P[(i - 1, j + 1)]
                * P[(i - 1, j)]
                * P[(i, j + 1)]
            )
    entries = tuple(
        P[(i, j)] for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )
    return SignMatrix(n, entries)


def ordering_from_sign_matrix(poly: Polygon, matrix: SignMatrix) -> tuple[int, ...]:
    """Sort labels 1..n-1 by the matrix comparison, append n, canonicalize.

    Raises IntransitiveOrderError unless the matrix is a strict total order
    on 1..n-1 (it always is when the pattern was realizable).
    """
    if matrix.n != poly.n:
        raise ValueError(f"matrix is for n={matrix.n}, polygon has n={poly.n}")
    n = poly.n
    labels = range(1, n)
    rank = {
        i: sum(1 for j in labels if j != i and matrix.sign(j, i) < 0) for i in labels
    }
    # a tournament whose scores are 0..n-2 is transitive (Landau), so the
    # ranks alone decide whether the matrix is a strict total order
    if sorted(rank.values()) != list(range(n - 1)):
        raise IntransitiveOrderError(f"comparison ranks {rank} are not a total order")
    order = sorted(labels, key=rank.__getitem__)
    return canonicalize(tuple(order) + (n,))
