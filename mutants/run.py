"""Mutation checks: each named mutation must make the tier-1 tests fail.

A mutation is one exact edit: a file under the repository root, an old text
and the new text that replaces it. For each one the runner copies ``src/``,
``tests/`` and ``pyproject.toml`` into a temporary directory, applies the
edit there and runs the tier-1 tests on the copy, stopping at the first
failure and leaving out the ``stretch`` tests. A mutation is killed when the
tests fail.

Every old text must occur exactly once in its file, so a refactor that moves
the code breaks the list loudly: rewrite the mutation, or remove it and say
why. The runner assumes tier-1 passes on the unmutated tree.

    python mutants/run.py [NAME ...]

With names, only the named mutations run; the old text of every mutation is
still checked, and an unknown name exits 2 with the list of names. It prints
killed or survived per mutation, with its time and the first failing test,
and exits 1 if any mutation survives or any old text does not occur exactly
once.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# a mutation that hangs the tests is reported as killed once this runs out
TIMEOUT_S = 600


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTATIONS = (
    Mutation(
        "odd-first-corner-flipped",
        "src/usigns/monomial.py",
        "return (a > e) ^ (b > c) ^ (a > c) ^ (b > e)",
        "return (a < e) ^ (b > c) ^ (a > c) ^ (b > e)",
    ),
    Mutation(
        "solve-certificate-dropped",
        "src/usigns/solver.py",
        "if at is None or _interlacing(poly, at) != pattern:",
        "if at is None:",
    ),
    Mutation(
        "corners-wrap-to-last-index",
        "src/usigns/ngon.py",
        "(i - 1, i % n, j - 1, j % n) for i, j in self.chords",
        "(i - 1, i % n, j - 1, min(j, n - 1)) for i, j in self.chords",
    ),
    Mutation(
        "corners-middle-two-swapped",
        "src/usigns/ngon.py",
        "(i - 1, i % n, j - 1, j % n) for i, j in self.chords",
        "(i - 1, j - 1, i % n, j % n) for i, j in self.chords",
    ),
    Mutation(
        "walk-multiplies-by-u",
        "src/usigns/points.py",
        "Fraction(z.numerator * u.denominator, z.denominator * u.numerator)",
        "Fraction(z.numerator * u.numerator, z.denominator * u.denominator)",
    ),
    Mutation(
        "points-from-u-skips-u-values",
        "src/usigns/points.py",
        "if any(num * v.denominator != den * v.numerator for (num, den), v in terms):",
        "if False:",
    ),
    Mutation(
        "picker-longest-first",
        "src/usigns/patterns.py",
        "(d, i, j) if j - i == d else (d, j, poly.wrap(j + d))",
        "(-d, i, j) if j - i == d else (-d, j, poly.wrap(j + d))",
    ),
    Mutation(
        "extended-masks-drop-first-relation",
        "src/usigns/relations.py",
        "return masks[:1] if n == 4 else masks",
        "return masks[:1] if n == 4 else masks[0 if primitive_only else 1:]",
    ),
    Mutation(
        "parity-table-halves-swapped",
        "src/usigns/_enumeration.py",
        "terms = [held for held, _ in group] + [other for _, other in group]",
        "terms = [other for _, other in group] + [held for held, _ in group]",
    ),
    Mutation(
        "group-last-relation-dropped",
        "src/usigns/_enumeration.py",
        "terms = [held for held, _ in group] + [other for _, other in group]",
        "terms = [held for held, _ in group[:-1]] + [0] + [other for _, other in group[:-1]] + [0]",
    ),
    Mutation(
        "top-byte-column-skipped",
        "src/usigns/_enumeration.py",
        "for table, c in zip(tables[1:], columns[1:]):",
        "for table, c in zip(tables[1:-1], columns[1:-1]):",
    ),
    Mutation(
        "sign-table-bit-order-big",
        "src/usigns/_enumeration.py",
        'axis=1, bitorder="little")',
        'axis=1, bitorder="big")',
    ),
    Mutation(
        "sign-table-drops-partial-byte",
        "src/usigns/_enumeration.py",
        "columns = (m + 7) // 8",
        "columns = m // 8",
    ),
    Mutation(
        "count-drops-xd-survivors",
        "src/usigns/_enumeration.py",
        "total += np.count_nonzero(keep_x) + np.count_nonzero(keep_xd)",
        "total += np.count_nonzero(keep_x)",
    ),
    Mutation(
        "count-holds-block-while-next-grows",
        "src/usigns/_enumeration.py",
        "\n        del block, w, keep_x, keep_xd  # not held while the next frontier grows",
        "",
    ),
    Mutation(
        "final-block-not-halved",
        "src/usigns/_enumeration.py",
        "if k < len(steps) or len(x) > _BLOCK_ENTRIES:",
        "if k < len(steps):",
    ),
    Mutation(
        "merge-adds-one-per-pattern",
        "src/usigns/_enumeration.py",
        "np.add.at(total, coordinate, w)",
        "np.add.at(total, coordinate, 1)",
    ),
    Mutation(
        "coordinate-skips-last-column",
        "src/usigns/_enumeration.py",
        "coordinate = _read(x, columns, tables)",
        "coordinate = _read(x, columns[:-1], tables[:-1])",
    ),
    Mutation(
        "basis-drops-next-closing-relations",
        "src/usigns/_enumeration.py",
        "for later in closing[s + 1 :]",
        "for later in closing[s + 2 :]",
    ),
    Mutation(
        "halves-drop-weights",
        "src/usigns/_enumeration.py",
        "None if w is None else w[h].copy()))",
        "None))",
    ),
    Mutation(
        "halves-are-views",
        "src/usigns/_enumeration.py",
        "x[h].copy(), None if w is None else w[h].copy()",
        "x[h], None if w is None else w[h]",
    ),
    Mutation(
        "half-keeps-parent-share",
        "src/usigns/_enumeration.py",
        "stack.append((share / 2, k,",
        "stack.append((share, k,",
    ),
    Mutation(
        "cut-ignores-merging-step",
        "src/usigns/_enumeration.py",
        "if len(x) > _BLOCK_ENTRIES and not (key and 1 << key[0] < len(x)):",
        "if len(x) > _BLOCK_ENTRIES:",
    ),
    Mutation(
        "cut-passes-any-key",
        "src/usigns/_enumeration.py",
        "not (key and 1 << key[0] < len(x))",
        "not key",
    ),
    Mutation(
        "cut-at-twice-the-size",
        "src/usigns/_enumeration.py",
        "if len(x) > _BLOCK_ENTRIES and not",
        "if len(x) > 2 * _BLOCK_ENTRIES and not",
    ),
    Mutation(
        "merge-only-within-block-size",
        "src/usigns/_enumeration.py",
        "if key and 1 << key[0] < len(x):",
        "if key and 1 << key[0] < len(x) <= _BLOCK_ENTRIES:",
    ),
    Mutation(
        "walk-merges-with-next-key",
        "src/usigns/_enumeration.py",
        "key = keys and keys[k]",
        "key = keys and keys[min(k + 1, len(keys) - 1)]",
    ),
    Mutation(
        "count-out-empty-path-ignored",
        "src/usigns/cli.py",
        "if args.out is not None:",
        "if args.out:",
    ),
    Mutation(
        "is-consistent-size-guard-dropped",
        "src/usigns/relations.py",
        'raise ValueError(f"pattern is for n={pattern.n}, polygon has n={poly.n}")',
        "pass",
    ),
    Mutation(
        "matrix-size-guard-dropped",
        "src/usigns/solver.py",
        'raise ValueError(f"matrix is for n={matrix.n}, polygon has n={poly.n}")',
        "pass",
    ),
    Mutation(
        "verify-bijection-always-passes",
        "src/usigns/cli.py",
        'yield "bijection", seen == consistent',
        'yield "bijection", True',
    ),
    Mutation(
        "verify-oracle-reads-the-pattern-itself",
        "src/usigns/cli.py",
        "oracle_ok &= signs_from_points(realize(poly, w)) == pattern",
        "oracle_ok &= sign_of_ordering(poly, w) == pattern",
    ),
    Mutation(
        "verify-oracle-skipped",
        "src/usigns/cli.py",
        'yield "oracle", oracle_ok',
        'yield "oracle", True',
    ),
    Mutation(
        "pattern-document-drops-first-chord",
        "src/usigns/cli.py",
        '"chords": poly.chords,',
        '"chords": poly.chords[1:],',
    ),
    Mutation(
        "trace-json-swap-is-chord",
        "src/usigns/cli.py",
        '"chord": step.chord,',
        '"chord": step.swap,',
    ),
    Mutation(
        "relation-json-t2-is-t1",
        "src/usigns/cli.py",
        '"t2": rel.t2,',
        '"t2": rel.t1,',
    ),
    Mutation(
        "replay-swaps-wrong-place",
        "src/usigns/solver.py",
        "at[p - 1], at[b - 1] = at[b - 1], at[p - 1]",
        "at[p - 1], at[b - 2] = at[b - 2], at[p - 1]",
    ),
    Mutation(
        "matrix-pair-sign-flipped-from-n-9",
        "src/usigns/solver.py",
        "neg = [[1] * (n + 1) for _ in range(n)]",
        "neg = [[1] * (n + 1) for _ in range(n)]\n    neg[1][n] ^= n >= 9",
    ),
    Mutation(
        "parity-grid-corner-misread",
        "src/usigns/signs.py",
        "odd ^= P[q][s] ^ P[p][s] ^ P[q][r] ^ P[p][r]",
        "odd ^= P[q][s] ^ P[p][r] ^ P[q][r] ^ P[p][r]",
    ),
    Mutation(
        "transport-drops-wrapped-half",
        "src/usigns/signs.py",
        "P[r][s] ^ P[q][s] ^ P[p][r] ^ P[p][q]",
        "P[r][s] ^ P[q][s]",
    ),
    Mutation(
        "row-quotient-one-place-short",
        "src/usigns/monomial.py",
        "top *= up[x][s] // up[x][r]",
        "top *= up[x][s - 1] // up[x][r]",
    ),
)

# the tier-1 command, without bytecode or cache files in the copy
PYTEST = (
    "-B", "-m", "pytest", "-q", "-x", "-m", "not stretch", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
)


def misplaced(mutations) -> list[str]:
    """One line per mutation whose old text does not occur exactly once."""
    out = []
    for m in mutations:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            out.append(f"{m.name}: old text occurs {found} times in {m.path}")
    return out


def run(m: Mutation) -> tuple[bool, float, str]:
    """(killed, seconds, first failing test or a note) for one mutation."""
    with tempfile.TemporaryDirectory(prefix="usigns-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / m.path
        target.write_text(target.read_text().replace(m.old, m.new))
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        # the copy, not an installed usigns, must be the one the tests import
        where = subprocess.run(
            [sys.executable, "-B", "-c", "import usigns; print(usigns.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        if not where.stdout.startswith(str(copy)):
            raise RuntimeError(f"{m.name}: usigns imports from {where.stdout or where.stderr}")
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST], cwd=copy, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - t0, f"timed out after {TIMEOUT_S} s"
        seconds = time.perf_counter() - t0
    if done.returncode not in (0, 1, 2):
        raise RuntimeError(f"{m.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode != 0, seconds, first.group(1) if first else ""


def main(names: list[str]) -> int:
    known = [m.name for m in MUTATIONS]
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutation: {' '.join(unknown)}; the mutations are:", *known,
              sep="\n  ", file=sys.stderr)
        return 2
    errors = misplaced(MUTATIONS)
    if errors:
        print("\n".join(errors))
        return 1
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    survivors = []
    for m in chosen:
        killed, seconds, first = run(m)
        if not killed:
            survivors.append(m.name)
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8} {seconds:6.1f} s  {m.name}  {first}".rstrip(), flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
