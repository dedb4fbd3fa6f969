"""Command-line surface: relations, count, solve, sign-of, verify, diagram.

Exit codes: 0 success, 1 verification failure, 2 inconsistent input pattern,
3 usage error or an unwritable output file, 141 stdout's reader has gone. All
output is deterministic for fixed flags; nothing is sampled at random.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .ngon import Polygon, all_orderings, canonicalize, ordering_count
from .patterns import SignPattern
from .relations import (
    URelation,
    _ENUMERATION_MAX_N,
    _check_enumerable,
    _relation_masks,
    consistent_patterns,
    count_consistent,
    extended_relations,
    primitive_relations,
)
from .points import realize, signs_from_points
from .signs import sign_of_ordering
from .solver import (
    InconsistentPatternError,
    IntransitiveOrderError,
    IterationLimitError,
    default_iteration_bound,
    ordering_from_sign_matrix,
    reconstruct_sign_matrix,
    solve,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 3
EXIT_STDOUT_CLOSED = 141  # what a shell reports for `yes | head`

# solve prints a full pattern per walk step: a cold solve of a random word
# (2 cores, Python 3.11) printed 0.9 MB in 0.4 s at 17 MB peak at n = 60,
# and 7 MB in 2.9 s at 18 MB peak at n = 100; --json writes its trace one
# step at a time too, and peaked at 17 and 19.5 MB
_SOLVE_MAX_N = 60

# sign-of holds its n(n-3)/2-bit pattern as one int and prints it as one
# line; a cold run on a random word (2 cores, Python 3.11) took 0.4 s and
# 69 MB at n = 1000 and 0.7 s and 136 MB at n = 1500; --json, which also
# lists every chord, took 0.6 s and 80 MB at n = 1000
_SIGN_OF_MAX_N = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Verbatim(argparse.Action):
    """Store the value as typed: argparse (Python 3.11) turns a value of '--' into []."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _product_str(term) -> str:
    return "*".join(f"u[{i},{j}]" for i, j in term)


def _relation_line(rel: URelation) -> str:
    return f"{_product_str(rel.t1)} + {_product_str(rel.t2)} = 1"


def _pattern_document(poly: Polygon, pattern: SignPattern, **extra) -> dict:
    # json writes the library's tuples as it writes lists, with no copy
    return {"n": poly.n, "chords": poly.chords, "signs": str(pattern), **extra}


def _parse_pattern(poly: Polygon, text: str) -> SignPattern:
    return SignPattern.from_string(poly.n, text.strip())


def _parse_word(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"cannot parse ordering {text!r}") from exc


def cmd_relations(args) -> int:
    if not 4 <= args.n <= _ENUMERATION_MAX_N:
        raise ValueError(f"n must be in 4..{_ENUMERATION_MAX_N}, got {args.n}")
    poly = Polygon(args.n)
    rels = primitive_relations(poly) if args.primitive else extended_relations(poly)
    if args.json:
        mode = "primitive" if args.primitive else "extended"
        relations = [{"t1": rel.t1, "t2": rel.t2, "cuts": rel.cuts} for rel in rels]
        print(json.dumps({"n": args.n, "mode": mode, "relations": relations}))
    else:
        for rel in rels:
            print(_relation_line(rel))
    return EXIT_OK


def cmd_count(args) -> int:
    poly = Polygon(args.n)
    # before the warning and the --out file
    _check_enumerable(args.n, args.primitive_only and args.out is not None)
    realizable = ordering_count(poly)
    mode = "primitive" if args.primitive_only else "extended"
    if args.primitive_only and args.n >= 11:
        # n = 11 (415 703 183 patterns): 238 to 294 s cold, 38 to 46 MB peak, on a busy 2-core host
        cost = "about 4 minutes" if args.n == 11 else "far longer than n=11 (unmeasured)"
        print(
            f"warning: --primitive-only at n={args.n} takes {cost} on a 2-core host",
            file=sys.stderr,
        )

    if args.out is not None:
        from . import _enumeration
        masks = _relation_masks(args.n, args.primitive_only)
        try:
            with open(args.out, "wb") as fh:
                count = _enumeration.write_consistent(args.n, masks, fh)
        except OSError as exc:  # even a broken pipe: the file, not stdout
            raise ValueError(exc) from exc
    else:
        progress = None
        if args.n >= 9:
            shown = None

            def progress(share) -> None:  # a Fraction takes % formats from Python 3.12 only
                nonlocal shown
                percent = 100 * share.numerator // share.denominator
                if percent != shown:  # one write per percent, not per block
                    shown = percent
                    print(f"\rdone {percent}%", end="", file=sys.stderr, flush=True)

        count = count_consistent(poly, primitive_only=args.primitive_only, progress=progress)
        if progress is not None:
            print(file=sys.stderr)
    match = count == realizable
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "mode": mode,
                    "consistent": count,
                    "realizable": realizable,
                    "match": match,
                }
            )
        )
    else:
        print(f"n={args.n}")
        print(f"consistent ({mode}): {count}")
        print(f"realizable (n-1)!/2: {realizable}")
        print(f"agreement: {'yes' if match else 'no'}")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.n > _SOLVE_MAX_N:
        raise ValueError(
            f"solve supports n <= {_SOLVE_MAX_N}, got {args.n}: a cold solve prints "
            f"about 0.9 MB in 0.4 s at n = 60, 7 MB in 2.9 s at n = 100"
        )
    poly = Polygon(args.n)
    pattern = _parse_pattern(poly, args.pattern)
    try:
        word, trace = solve(poly, pattern)
    except InconsistentPatternError:
        print("inconsistent", file=sys.stderr)
        return EXIT_INCONSISTENT
    except IterationLimitError as exc:
        print(f"usigns: error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.json:
        head = json.dumps(
            _pattern_document(
                poly,
                pattern,
                ordering=word,
                iterations=trace.iterations,
                iteration_bound=default_iteration_bound(poly.n),
                trace=[],
            )
        )
        # trace, the last key, is written one step at a time, as json.dumps
        # would write the whole list, so no document of every pattern is built
        write = sys.stdout.write
        write(head[:-2])
        for k, step in enumerate(trace.steps):
            entry = {
                "chord": step.chord,
                "swap": step.swap,
                "pattern": str(step.pattern),
                "negatives": step.negatives,
                "min_length": step.min_length,
            }
            write((", " if k else "") + json.dumps(entry))
        write("]}\n")
    else:
        print("ordering:", " ".join(map(str, word)))
        for step in trace.steps:
            print(step.render())
    return EXIT_OK


def cmd_sign_of(args) -> int:
    if args.n > _SIGN_OF_MAX_N:
        raise ValueError(
            f"sign-of supports n <= {_SIGN_OF_MAX_N}, got {args.n}: a cold run takes "
            f"about 0.4 s and 69 MB at n = 1000 (80 MB with --json), 0.7 s and 136 MB at n = 1500"
        )
    poly = Polygon(args.n)
    word = _parse_word(args.ordering)
    pattern = sign_of_ordering(poly, word)  # the one check of the ordering
    if args.json:
        print(json.dumps(_pattern_document(poly, pattern, ordering=canonicalize(word))))
    else:
        print(pattern)
    return EXIT_OK


def _verify_suites(n: int):
    """Yield (suite name, passed) pairs for cmd_verify."""
    poly = Polygon(n)

    consistent = {p.bits for p in consistent_patterns(poly)}
    yield "count", len(consistent) == ordering_count(poly)

    # when the bijection holds, the orderings' patterns are the consistent set
    seen = set()
    solver_ok = matrix_ok = oracle_ok = True
    for w in all_orderings(poly):
        pattern = sign_of_ordering(poly, w)
        seen.add(pattern.bits)
        try:
            solver_ok &= solve(poly, pattern)[0] == w
        except (InconsistentPatternError, IterationLimitError):
            solver_ok = False
        try:
            matrix_ok &= ordering_from_sign_matrix(poly, reconstruct_sign_matrix(poly, pattern)) == w
        except IntransitiveOrderError:
            matrix_ok = False
        oracle_ok &= signs_from_points(realize(poly, w)) == pattern
    yield "bijection", seen == consistent
    yield "solver", solver_ok
    yield "reconstruction", matrix_ok
    yield "oracle", oracle_ok


def cmd_verify(args) -> int:
    if not 4 <= args.n <= 8:
        raise ValueError(f"verify supports n in 4..8, got {args.n}")
    results = dict(_verify_suites(args.n))
    ok = all(results.values())
    if args.json:
        print(json.dumps({"n": args.n, "suites": results, "ok": ok}))
    else:
        for name, passed in results.items():
            print(f"{name}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def render_diagram(poly: Polygon, pattern: SignPattern) -> str:
    """Deterministic SVG of the n-gon with negative chords highlighted."""
    size = 420.0
    cx = cy = size / 2
    radius = 165.0
    n = poly.n

    def corner(v: int, r: float = radius) -> tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * (v - 1) / n
        return cx + r * math.cos(angle), cy + r * math.sin(angle)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    ring = " ".join(f"{corner(v)[0]:.2f},{corner(v)[1]:.2f}" for v in range(1, n + 1))
    lines.append(f'<polygon points="{ring}" fill="none" stroke="#bbbbbb" stroke-width="1"/>')
    for c in poly.chords:
        (x1, y1), (x2, y2) = corner(c[0]), corner(c[1])
        if pattern.is_negative(c):
            style = 'stroke="#c1272d" stroke-width="2.5"'
        else:
            style = 'stroke="#222222" stroke-width="1"'
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>'
        )
    for v in range(1, n + 1):
        x, y = corner(v)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#222222"/>')
        lx, ly = corner(v, radius + 16)
        lines.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="14" font-family="sans-serif" '
            f'text-anchor="middle" dominant-baseline="middle">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_diagram(args) -> int:
    poly = Polygon(args.n)
    pattern = _parse_pattern(poly, args.pattern)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_diagram(poly, pattern))
    except OSError as exc:  # even a broken pipe: the file, not stdout
        raise ValueError(exc) from exc
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="usigns", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("relations", help="list the u-relations of the n-gon")
    p.add_argument("n", type=int)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--extended", action="store_false", dest="primitive", default=False)
    group.add_argument("--primitive", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("count", help="count consistent sign patterns")
    p.add_argument("n", type=int)
    p.add_argument("--primitive-only", action="store_true")
    p.add_argument("--out", help="also stream the consistent patterns to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("solve", help="dihedral ordering from a sign pattern")
    p.add_argument("n", type=int)
    p.add_argument(
        "--pattern", required=True, action=_Verbatim, help="signs over chords, e.g. '-++++'"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sign-of", help="sign pattern of a dihedral ordering")
    p.add_argument("n", type=int)
    p.add_argument("--ordering", required=True, action=_Verbatim, help="labels, e.g. '1,4,2,5,3'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sign_of)

    p = sub.add_parser("verify", help="run the full consistency/solver/oracle check")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("diagram", help="write an SVG of the n-gon sign pattern")
    p.add_argument("n", type=int)
    p.add_argument("--pattern", required=True, action=_Verbatim)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagram)

    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write ``--pattern X`` as ``--pattern=X``, and ``--ordering`` alike:
    argparse reads a value like '-++-' as a flag, but not after '='."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if arg in ("--pattern", "--ordering") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_dash_values(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader has gone: --out files raise ValueErrors
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a quiet exit flush
        return EXIT_STDOUT_CLOSED
    except (ValueError, OSError) as exc:
        print(f"usigns: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
