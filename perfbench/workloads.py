"""The three workloads: seeded inputs, one op per input, and its checks.

Each workload yields its inputs in blocks. A block holds a fixed mix of op
kinds (and polygon sizes), shuffled by the seed, so every run sees the same
proportions and the runner can stop on a block boundary. ``run`` is the
timed op; ``check`` runs after the clock has stopped and says whether the
op's outputs are right. Every call into the package goes through ``U.<name>``
at call time so that the traced run's rebinding takes effect.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import usigns as U
import usigns.cli  # noqa: F401  (makes the submodule reachable as U.cli)

# Consistent-pattern counts under the primitive relations. n <= 8 are pinned
# by the acceptance suite; 227525 for n = 9 is the seed's brute-force value.
PRIMITIVE_COUNTS = {6: 74, 7: 697, 8: 10180, 9: 227525}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one benchmark configuration."""

    ns: tuple[int, ...] = (8, 10, 12)  # polygon sizes of roundtrip and charts ops
    n_enum: int = 9  # size of the enumerate workload's count ops
    n_prelude: int = 7  # size of the count ops run beside roundtrip and charts
    n_layer: int = 12  # size of the per-layer timings
    setups: int = 5  # fresh processes timed for setup_s
    count_blocks: int = 150  # count blocks at n_prelude after roundtrip and charts


FULL = Sizes()
SMALL = Sizes(ns=(5, 6, 7), n_enum=6, n_prelude=6, n_layer=7, setups=2, count_blocks=3)


def random_word(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


class Workload:
    """Interface of a workload; ``prepare`` does untimed precomputation."""

    name: str
    kinds: tuple[str, ...]

    def warm(self) -> None:
        """Build the per-n tables the ops use; this is what setup_s times."""

    def prepare(self) -> None:
        """Precompute what the checks compare against (untimed)."""


class Enumerate(Workload):
    """``usigns count`` driven in-process: extended, primitive-only, and
    streamed to a file. Inputs are fixed by n; the seed orders each block."""

    name = "enumerate"
    kinds = ("count", "count_primitive", "stream")

    def __init__(self, n: int, out_dir: Path):
        self.n = n
        self.out = Path(out_dir) / f"stream-n{n}.txt"
        self.expected = U.ordering_count(U.Polygon(n))
        self._stream_lines: frozenset[str] = frozenset()

    def warm(self) -> None:
        """Relation masks and parity tables of both relation sets."""
        for primitive in (False, True):
            next(iter(U.consistent_patterns(U.Polygon(self.n), primitive_only=primitive)))

    def blocks(self, rng: random.Random):
        while True:
            block = [(kind, None) for kind in self.kinds]
            rng.shuffle(block)
            yield block

    def argv(self, kind: str) -> list[str]:
        argv = ["count", str(self.n), "--json"]
        if kind == "count_primitive":
            argv.append("--primitive-only")
        elif kind == "stream":
            argv += ["--out", str(self.out)]
        return argv

    def run(self, kind: str, payload):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = U.cli.main(self.argv(kind))
        return code, out.getvalue()

    def check(self, kind: str, payload, result) -> bool:
        code, stdout = result
        if code != 0:
            return False
        doc = json.loads(stdout.strip().splitlines()[-1])
        want = PRIMITIVE_COUNTS[self.n] if kind == "count_primitive" else self.expected
        if doc["consistent"] != want or doc["realizable"] != self.expected:
            return False
        if kind != "stream":
            return True
        lines = self.out.read_text(encoding="utf-8").splitlines()
        return len(lines) == self.expected and set(lines) == self._stream_lines

    def prepare(self) -> None:
        """{sign_of_ordering(w)} over all orderings: what ``--out`` must hold."""
        poly = U.Polygon(self.n)
        self._stream_lines = frozenset(
            str(U.sign_of_ordering(poly, w)) for w in U.all_orderings(poly)
        )


class Roundtrip(Workload):
    """Ordering -> pattern -> ordering by both solver routes and the oracle;
    one op in four instead feeds a uniformly random pattern."""

    name = "roundtrip"
    kinds = ("roundtrip", "reject")

    def __init__(self, ns: tuple[int, ...]):
        self.ns = ns

    def warm(self) -> None:
        """Relation masks and the solver's transposition tables per n."""
        rng = random.Random(0)
        for _ in range(3):
            for kind, payload in next(self.blocks(rng)):
                self.run(kind, payload)

    def blocks(self, rng: random.Random):
        while True:
            block = []
            for n in self.ns:
                chords = n * (n - 3) // 2
                block += [("roundtrip", random_word(rng, n)) for _ in range(3)]
                block.append(("reject", (n, rng.getrandbits(chords))))
            rng.shuffle(block)
            yield block

    def run(self, kind: str, payload):
        if kind == "roundtrip":
            w = payload
            poly = U.Polygon(len(w))
            s = U.sign_of_ordering(poly, w)
            word, _ = U.solve(poly, s)
            other = U.ordering_from_sign_matrix(poly, U.reconstruct_sign_matrix(poly, s))
            oracle = U.signs_from_points(U.realize(poly, w))
            return s, word, other, oracle
        n, bits = payload
        poly = U.Polygon(n)
        pattern = U.SignPattern(n, bits)
        consistent = U.is_consistent(poly, pattern)
        try:
            word, _ = U.solve(poly, pattern)
        except U.InconsistentPatternError:
            word = None
        return consistent, word

    def check(self, kind: str, payload, result) -> bool:
        if kind == "roundtrip":
            s, word, other, oracle = result
            want = U.canonicalize(payload)
            return word == want and other == want and oracle == s
        n, bits = payload
        consistent, word = result
        if word is None:
            return not consistent
        return consistent and U.sign_of_ordering(U.Polygon(n), word).bits == bits


class Charts(Workload):
    """Chart changes in exact arithmetic: build, invert, transport, evaluate,
    and recover the relabelled points from the evaluated u-values.

    One op is one chart change at each n, in a seeded order: a single
    change's cost depends strongly on its ordering, and the median of ops
    that each cover all sizes varies far less from seed to seed."""

    name = "charts"
    kinds = ("chart",)

    def __init__(self, ns: tuple[int, ...]):
        self.ns = ns

    def warm(self) -> None:
        rng = random.Random(0)
        for kind, payload in next(self.blocks(rng)):
            self.run(kind, payload)

    def blocks(self, rng: random.Random):
        while True:
            changes = []
            for n in self.ns:
                base = U.realize(U.Polygon(n), random_word(rng, n))
                changes.append((random_word(rng, n), base))
            rng.shuffle(changes)
            yield [("chart", tuple(changes))]

    def run(self, kind: str, payload):
        return [self.change(w, base) for w, base in payload]

    @staticmethod
    def change(w, base):
        n = len(w)
        poly = U.Polygon(n)
        m = U.map_for_ordering(poly, w)
        round_trip = U.compose(m, U.invert(m))
        pulled = U.transport(U.sign_of_ordering(poly, w), m)
        moved = base.permuted(w)
        values = U.evaluate(m, U.u_values(base))
        target = U.u_values(moved)
        points = U.points_from_u(poly, values)
        gauge = U.standard_gauge(moved, 1, 2, n)
        return round_trip, pulled, values, target, points, gauge

    def check(self, kind: str, payload, result) -> bool:
        return len(result) == len(payload) and all(
            round_trip.is_identity()
            and pulled.is_all_plus()
            and values == target
            and points == gauge
            for round_trip, pulled, values, target, points, gauge in result
        )


def make(name: str, sizes: Sizes, out_dir: Path) -> Workload:
    if name == "enumerate":
        return Enumerate(sizes.n_enum, out_dir)
    if name == "roundtrip":
        return Roundtrip(sizes.ns)
    if name == "charts":
        return Charts(sizes.ns)
    raise ValueError(f"unknown workload {name!r}")
