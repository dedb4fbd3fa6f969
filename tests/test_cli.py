from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import usigns
from usigns import _enumeration
from usigns.cli import main
from usigns.ngon import Polygon, all_orderings, canonicalize
from usigns.patterns import SignPattern
from usigns.points import realize, signs_from_points
from usigns.relations import consistent_patterns, extended_relations, primitive_relations
from usigns.signs import sign_of_ordering
from usigns.solver import (
    InconsistentPatternError,
    IntransitiveOrderError,
    IterationLimitError,
    SolverTrace,
    default_iteration_bound,
    solve,
)


def _package_env() -> dict:
    """The environment of a child Python that imports this package."""
    src = str(Path(usigns.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relations_square(capsys):
    code, out, _ = run(capsys, "relations", "4")
    assert code == 0
    assert out == "u[1,3] + u[2,4] = 1\n"


def test_relations_hexagon_counts(capsys):
    code, out, _ = run(capsys, "relations", "6", "--primitive")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert "u[1,4] + u[2,5]*u[2,6]*u[3,5]*u[3,6] = 1" in lines
    code, out, _ = run(capsys, "relations", "6", "--extended")
    assert len(out.strip().splitlines()) == 15
    # --extended sets the mode it names, the default, and excludes --primitive
    assert run(capsys, "relations", "6") == (code, out, "")
    with pytest.raises(SystemExit) as exc:
        main(["relations", "6", "--extended", "--primitive"])
    assert exc.value.code == 3
    assert "not allowed with argument" in capsys.readouterr().err


def test_relations_json(capsys):
    code, out, _ = run(capsys, "relations", "5", "--json")
    doc = json.loads(out)
    assert doc["n"] == 5 and len(doc["relations"]) == 5
    assert doc["relations"][0]["cuts"] == [1, 2, 3, 4]


def test_relations_range_check(capsys):
    code, _, err = run(capsys, "relations", "13")
    assert code == 3 and "error" in err


def test_count_text_and_json(capsys):
    code, out, _ = run(capsys, "count", "6")
    assert code == 0
    assert "consistent (extended): 60" in out
    assert "realizable (n-1)!/2: 60" in out
    assert "agreement: yes" in out
    code, out, _ = run(capsys, "count", "6", "--primitive-only", "--json")
    doc = json.loads(out)
    assert doc == {
        "n": 6,
        "mode": "primitive",
        "consistent": 74,
        "realizable": 60,
        "match": False,
    }


def test_count_cap(capsys):
    code, out, _ = run(capsys, "count", "10")
    assert code == 0 and "consistent (extended): 181440" in out
    for argv in (("count", "13"), ("count", "13", "--primitive-only")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("usigns: error:")
    # the bound is fixed: the old override flag is unknown
    with pytest.raises(SystemExit) as exc:
        main(["count", "10", "--cap", "10"])
    assert exc.value.code == 3


def test_count_primitive_only_warns_before_brute_force(capsys, monkeypatch):
    # the count itself is replaced, so nothing is enumerated here
    calls = []

    def fake_count(poly, primitive_only=False, **kwargs):
        calls.append((poly.n, primitive_only))
        return 0

    monkeypatch.setattr("usigns.cli.count_consistent", fake_count)
    code, _, err = run(capsys, "count", "11", "--primitive-only")
    assert code == 0 and calls == [(11, True)]
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "n=11 takes about 4 minutes" in warnings[0]
    code, _, err = run(capsys, "count", "12", "--primitive-only", "--json")
    assert code == 0 and "n=12 takes far longer than n=11 (unmeasured)" in err
    for argv in (("count", "10", "--primitive-only"), ("count", "12")):
        code, _, err = run(capsys, *argv)
        assert code == 0 and "warning" not in err
    assert len(calls) == 4


def test_count_primitive_stream_beyond_memory_exit_3(tmp_path, capsys):
    path = tmp_path / "patterns.txt"
    code, out, err = run(capsys, "count", "11", "--primitive-only", "--out", str(path))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error:")
    assert not path.exists()


def test_count_progress_has_one_label(capsys):
    # both modes report the share of the walk done; n = 9 extended fits one
    # block, and n = 9 primitive-only passes the block size only into steps
    # that merge it, so it too is one block; the many-block case is
    # test_relations.py::test_count_progress_counts_blocks
    code, _, err = run(capsys, "count", "9")
    assert code == 0 and err == "\rdone 100%\n"
    code, _, err = run(capsys, "count", "9", "--primitive-only")
    assert code == 0 and err == "\rdone 100%\n"


def test_count_progress_prints_each_percent_once(capsys, monkeypatch):
    # blocks of 32 cut count 9 into far more than 101 blocks, yet each
    # percent is written once: the shown values strictly increase to 100
    monkeypatch.setattr(_enumeration, "_BLOCK_ENTRIES", 32)
    calls = []
    original = usigns.cli.count_consistent

    def counted(poly, primitive_only=False, progress=None):
        def tally(share):
            calls.append(share)
            progress(share)

        return original(poly, primitive_only, progress=tally)

    monkeypatch.setattr("usigns.cli.count_consistent", counted)
    code, out, err = run(capsys, "count", "9")
    assert code == 0 and "agreement: yes" in out and len(calls) > 101
    lines = err.rstrip("\n").split("\r")
    assert lines[0] == "" and all(line.startswith("done ") for line in lines[1:])
    shown = [int(line[len("done ") : -1]) for line in lines[1:]]
    assert all(a < b for a, b in zip(shown, shown[1:])) and lines[-1] == "done 100%"


def test_count_has_no_threads_flag(capsys):
    # count runs no thread pool; an unknown flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["count", "7", "--threads", "2"])
    assert exc.value.code == 3


def test_count_out_file(tmp_path, capsys):
    path = tmp_path / "patterns.txt"
    code, out, _ = run(capsys, "count", "5", "--out", str(path))
    assert code == 0 and "consistent (extended): 12" in out
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    assert lines[0] == "+++++"
    assert set("".join(lines)) <= {"+", "-"}


def test_count_out_leaves_stderr_empty(tmp_path, capsys):
    # progress is reported only by the plain count; streaming prints nothing
    path = tmp_path / "patterns.txt"
    code, out, err = run(capsys, "count", "9", "--out", str(path))
    assert code == 0 and "consistent (extended): 20160" in out
    assert err == ""
    assert len(path.read_text().splitlines()) == 20160


@pytest.mark.parametrize("target", ["missing/patterns.txt", "."])
def test_count_out_unwritable_exit_3(target, tmp_path, capsys):
    # a missing directory, or a directory in place of the file
    code, out, err = run(capsys, "count", "6", "--out", str(tmp_path / target))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error:")


def test_count_out_empty_path_exit_3(tmp_path, capsys, monkeypatch):
    # an empty --out names no file: it is refused, as diagram refuses it,
    # and not read as "no --out"; a primitive stream past the limit is
    # refused for that first
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "count", "5", "--out", "")
    assert code == 3 and out == ""
    assert err == "usigns: error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []
    code, out, err = run(capsys, "count", "11", "--primitive-only", "--out", "")
    assert code == 3 and out == "" and "do not fit in memory" in err


def test_count_out_unwritable_process_exit_3(tmp_path):
    # the exit status and stderr of a real process, not main()'s return value
    out = str(tmp_path / "missing" / "f.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "usigns.cli", "count", "6", "--out", out],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("usigns: error:") and "Traceback" not in proc.stderr


def test_cli_without_enumeration_loads_no_numpy():
    # numpy is imported by the enumeration alone
    script = (
        "import contextlib, io, sys\n"
        "from usigns.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['solve', '5', '--pattern', '-++++'])\n"
        "    main(['sign-of', '5', '--ordering', '1,4,2,5,3'])\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_count_out_full_disk_exit_3(capsys):
    # the file opens, and the write or the flush at close fails
    code, out, err = run(capsys, "count", "6", "--out", "/dev/full")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error:")


def test_count_out_broken_pipe_exit_3(capsys, monkeypatch, tmp_path):
    # a broken pipe while writing the --out file is that file's failure, not stdout's
    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(_enumeration, "write_consistent", broken)
    code, out, err = run(capsys, "count", "6", "--out", str(tmp_path / "f.txt"))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error:")


def test_closed_stdout_exits_141_quietly():
    # the pipe's reader is gone before the process starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "usigns.cli", "relations", "6"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_package_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == ""


def test_reader_closing_mid_line_exits_141_quietly(tmp_path):
    # the reader takes one byte of a 0.5 MB line and closes the pipe while
    # the write is still blocked on it; a child process, since the handler
    # replaces the fd 1 of the process it runs in
    ordering = ",".join(map(str, range(1, 1001)))
    with open(tmp_path / "err.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "usigns.cli", "sign-of", "1000", "--ordering", ordering],
            stdout=subprocess.PIPE,
            stderr=err,
            env=_package_env(),
        )
        try:
            assert len(proc.stdout.read(1)) == 1
        finally:
            proc.stdout.close()
        code = proc.wait(timeout=60)
    assert code == 141 and (tmp_path / "err.txt").read_bytes() == b""


@pytest.mark.parametrize(
    "n, primitive_only",
    [(n, False) for n in range(4, 10)] + [(n, True) for n in range(4, 9)],
)
def test_count_out_matches_sign_pattern_str(n, primitive_only, tmp_path, capsys):
    # the file is formatted in numpy; str(SignPattern) is the reference
    path = tmp_path / "patterns.txt"
    argv = ["count", str(n), "--out", str(path)] + ["--primitive-only"] * primitive_only
    code, _, _ = run(capsys, *argv)
    assert code == 0
    patterns = consistent_patterns(Polygon(n), primitive_only=primitive_only)
    assert path.read_bytes() == "".join(f"{p}\n" for p in patterns).encode()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["8"], "14bd2d3d523d0efd471848ed77ef5b794f07a4f106b7bb10896554392f05ce35"),
        (
            ["8", "--primitive-only"],
            "e41db5a2f74e38d13d42670dce27cdce464952acfbb5f27cdb023d1afb1bdd14",
        ),
        # 20 160 patterns: five write slices, the last one partial
        (["9"], "2dd624e8865f183459481f0168cf4397852d860012da7e7bb442e7c34cfe7e21"),
        # 181 440 patterns over five byte columns: 45 write slices, the last one partial
        (["10"], "26eff3e93706d5089311d1d14e90c3edbe248a79694abfbe844f4ce9b358aa1e"),
    ],
    ids=["8", "8-primitive", "9", "10"],
)
def test_count_out_pinned_digest(argv, digest, tmp_path, capsys):
    path = tmp_path / "patterns.txt"
    code, _, _ = run(capsys, "count", *argv, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "5", "--pattern", "-++++")
    assert code == 0
    assert out.splitlines()[0] == "ordering: 1 3 2 4 5"
    assert "chord=(1,3) swap=(2,3)" in out


def test_solve_all_minus(capsys):
    code, out, _ = run(capsys, "solve", "5", "--pattern", "-----")
    assert code == 0
    assert out.splitlines()[0] == "ordering: 1 3 5 2 4"  # class of 1 4 2 5 3


def test_solve_json_reports_iterations_against_bound(capsys):
    code, out, _ = run(capsys, "solve", "5", "--pattern", "-----", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["ordering"] == [1, 3, 5, 2, 4]
    assert doc["iterations"] == len(doc["trace"]) > 0
    assert doc["iteration_bound"] == 4 * 5**3
    code, out, _ = run(capsys, "solve", "6", "--pattern", "+" * 9, "--json")
    doc = json.loads(out)
    assert (doc["iterations"], doc["trace"], doc["iteration_bound"]) == (0, [], 4 * 6**3)


def test_solve_inconsistent_exit_2(capsys):
    code, out, err = run(capsys, "solve", "6", "--pattern", "--+-+--++")
    assert code == 2
    assert "inconsistent" in err


def test_solve_iteration_limit_exit_2(capsys, monkeypatch):
    def tripped(poly, pattern):
        raise IterationLimitError(
            "no all-plus pattern within 1 iterations", SolverTrace(pattern, ())
        )

    monkeypatch.setattr("usigns.cli.solve", tripped)
    code, out, err = run(capsys, "solve", "5", "--pattern", "-----")
    assert code == 2 and out == ""
    assert err == "usigns: error: no all-plus pattern within 1 iterations\n"


def test_solve_n_bound(capsys, monkeypatch):
    code, out, _ = run(capsys, "solve", "60", "--pattern", "+" * (60 * 57 // 2))
    assert code == 0 and out.startswith("ordering: 1 2 3 ")

    def unparsed(*args):
        raise AssertionError("pattern parsed")

    # refused before the pattern is read
    monkeypatch.setattr("usigns.cli._parse_pattern", unparsed)
    code, out, err = run(capsys, "solve", "61", "--pattern", "+" * (61 * 58 // 2))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error: solve supports n <= 60")


def test_solve_malformed_exit_3(capsys):
    code, _, err = run(capsys, "solve", "5", "--pattern", "-+")
    assert code == 3
    code, _, err = run(capsys, "solve", "5", "--pattern", "abcde")
    assert code == 3


def test_sign_of_text_and_roundtrip(capsys):
    code, out, _ = run(capsys, "sign-of", "5", "--ordering", "1,4,2,5,3")
    assert code == 0 and out.strip() == "-----"
    code, out, _ = run(capsys, "sign-of", "5", "--ordering", "1,2,3,4,5")
    assert out.strip() == "+++++"
    # document round-trips through solve
    code, out, _ = run(capsys, "sign-of", "6", "--ordering", "1,5,3,2,6,4", "--json")
    doc = json.loads(out)
    code, out, _ = run(capsys, "solve", "6", "--pattern", doc["signs"], "--json")
    solved = json.loads(out)
    assert solved["ordering"] == doc["ordering"]


def test_sign_of_reversed_200(capsys):
    # the reversed word is a reflection of the identity: nothing to sort
    ordering = ",".join(str(v) for v in range(200, 0, -1))
    code, out, err = run(capsys, "sign-of", "200", "--ordering", ordering)
    assert code == 0 and err == ""
    assert out == "+" * (200 * 197 // 2) + "\n"


def test_sign_of_random_200(capsys):
    word = random.Random(200).sample(range(1, 201), 200)
    code, out, err = run(capsys, "sign-of", "200", "--ordering", ",".join(map(str, word)))
    assert code == 0 and err == ""
    assert out == f"{signs_from_points(realize(Polygon(200), word))}\n"


def test_sign_of_n_bound(capsys, monkeypatch):
    def unparsed(*args):
        raise ValueError("ordering parsed")

    monkeypatch.setattr("usigns.cli._parse_word", unparsed)
    code, _, err = run(capsys, "sign-of", "1000", "--ordering", "1")
    assert code == 3 and "ordering parsed" in err
    # refused before the ordering is read
    code, out, err = run(capsys, "sign-of", "1001", "--ordering", "1")
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("usigns: error: sign-of supports n <= 1000")


def test_sign_of_malformed(capsys):
    code, _, err = run(capsys, "sign-of", "5", "--ordering", "1,2,3")
    assert code == 3
    code, _, err = run(capsys, "sign-of", "5", "--ordering", "1,2,3,4,x")
    assert code == 3


def _json_doc(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    return json.loads(out)


@pytest.mark.parametrize("n", range(4, 10))
def test_sign_of_json_is_the_library_pattern(n, capsys):
    poly, word = Polygon(n), random.Random(n).sample(range(1, n + 1), n)
    doc = _json_doc(capsys, "sign-of", str(n), "--ordering", ",".join(map(str, word)))
    assert doc == {
        "n": n,
        "chords": [list(c) for c in poly.chords],
        "signs": str(sign_of_ordering(poly, word)),
        "ordering": list(canonicalize(word)),
    }


@pytest.mark.parametrize("n", range(4, 10))
def test_solve_json_trace_is_the_library_trace(n, capsys):
    poly = Polygon(n)
    pattern = sign_of_ordering(poly, random.Random(n).sample(range(1, n + 1), n))
    word, trace = solve(poly, pattern)
    doc = _json_doc(capsys, "solve", str(n), "--pattern", str(pattern))
    assert trace.steps and doc["ordering"] == list(word)
    assert doc["trace"] == [
        {
            "chord": list(step.chord),
            "swap": list(step.swap),
            "pattern": str(step.pattern),
            "negatives": step.negatives,
            "min_length": step.min_length,
        }
        for step in trace.steps
    ]


@pytest.mark.parametrize("n", range(4, 8))
def test_solve_json_streams_the_library_document(n, capsys):
    # stdout is json.dumps of the whole document plus a newline, byte for
    # byte, for every ordering's pattern; the identity's is all-plus, whose
    # trace is empty
    poly = Polygon(n)
    patterns = [sign_of_ordering(poly, w) for w in all_orderings(poly)]
    assert patterns[0].bits == 0
    for pattern in patterns:
        word, trace = solve(poly, pattern)
        doc = {
            "n": n,
            "chords": poly.chords,
            "signs": str(pattern),
            "ordering": word,
            "iterations": trace.iterations,
            "iteration_bound": default_iteration_bound(n),
            "trace": [
                {
                    "chord": step.chord,
                    "swap": step.swap,
                    "pattern": str(step.pattern),
                    "negatives": step.negatives,
                    "min_length": step.min_length,
                }
                for step in trace.steps
            ],
        }
        got = run(capsys, "solve", str(n), "--pattern", str(pattern), "--json")
        assert got == (0, json.dumps(doc) + "\n", "")


@pytest.mark.parametrize("primitive", [False, True])
@pytest.mark.parametrize("n", range(4, 10))
def test_relations_json_are_the_library_relations(n, primitive, capsys):
    poly = Polygon(n)
    rels = primitive_relations(poly) if primitive else extended_relations(poly)
    doc = _json_doc(capsys, "relations", str(n), "--primitive" if primitive else "--extended")
    assert doc["relations"] == [
        {
            "t1": [list(c) for c in rel.t1],
            "t2": [list(c) for c in rel.t2],
            "cuts": None if rel.cuts is None else list(rel.cuts),
        }
        for rel in rels
    ]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_verify_passes(n, capsys):
    code, out, _ = run(capsys, "verify", str(n))
    assert code == 0
    assert "bijection: pass" in out
    assert "solver: pass" in out
    assert "oracle: pass" in out
    assert "FAIL" not in out


def test_verify_n8_sampled_oracle(capsys):
    # every suite runs on every input at n = 8 too
    code, out, _ = run(capsys, "verify", "8")
    assert code == 0
    assert out == (
        "count: pass\nbijection: pass\nsolver: pass\nreconstruction: pass\noracle: pass\n"
    )


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "5", "--json")
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["suites"]["reconstruction"] is True


@pytest.mark.parametrize(
    "error", [IterationLimitError("tripped", None), InconsistentPatternError("tripped")]
)
def test_verify_solver_raising_fails_its_suite(error, capsys, monkeypatch):
    def raising(poly, pattern):
        raise error

    matrix_calls = []
    original = usigns.cli.ordering_from_sign_matrix

    def counting(poly, matrix):
        matrix_calls.append(matrix)
        return original(poly, matrix)

    monkeypatch.setattr("usigns.cli.solve", raising)
    monkeypatch.setattr("usigns.cli.ordering_from_sign_matrix", counting)
    code, out, err = run(capsys, "verify", "5")
    assert code == 1 and err == ""
    assert "solver: FAIL" in out and "count: pass" in out
    # the matrix route is still checked on every consistent pattern
    assert "reconstruction: pass" in out
    assert len(matrix_calls) == 12


def test_verify_matrix_route_raising_fails_its_suite(capsys, monkeypatch):
    def raising(poly, matrix):
        raise IntransitiveOrderError("tripped")

    monkeypatch.setattr("usigns.cli.ordering_from_sign_matrix", raising)
    code, out, err = run(capsys, "verify", "5")
    assert code == 1 and err == ""
    assert "reconstruction: FAIL" in out and "solver: pass" in out


def test_verify_misread_ordering_fails_bijection(capsys, monkeypatch):
    # one chord bit flipped for one ordering: the orderings' patterns are no
    # longer the enumerated consistent set
    original = usigns.cli.sign_of_ordering

    def misread(poly, word):
        pattern = original(poly, word)
        if word == (1, 3, 5, 2, 4):
            return SignPattern(poly.n, pattern.bits ^ 1 << 2)
        return pattern

    monkeypatch.setattr("usigns.cli.sign_of_ordering", misread)
    code, out, err = run(capsys, "verify", "5")
    assert code == 1 and err == ""
    assert "count: pass" in out and "bijection: FAIL" in out


def test_verify_wrong_oracle_fails_its_suite(capsys, monkeypatch):
    # an oracle that reads every configuration as all-plus is right only on
    # the identity ordering; the other suites do not read it
    monkeypatch.setattr("usigns.cli.signs_from_points", lambda config: SignPattern(5, 0))
    code, out, err = run(capsys, "verify", "5")
    assert code == 1 and err == ""
    assert out == (
        "count: pass\nbijection: pass\nsolver: pass\nreconstruction: pass\noracle: FAIL\n"
    )


def test_verify_range(capsys):
    code, _, err = run(capsys, "verify", "9")
    assert code == 3


def test_verify_has_no_threads_flag(capsys):
    # verify is single-threaded; the flag used to be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "5", "--threads", "2"])
    assert exc.value.code == 3


def test_verify_has_no_seed_flag(capsys):
    # nothing is sampled, so there is no seed to set
    with pytest.raises(SystemExit) as exc:
        main(["verify", "5", "--seed", "1"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "5", "--pattern", "-----"],
        ["verify", "5", "--ordering", "9"],
        ["relations", "4", "--pattern=--"],
        ["solve", "5", "--pattern", "+++++", "--ordering", "1,3,2,4,5"],
        ["sign-of", "5", "--ordering", "1,3,2,4,5", "--pattern", "x"],
    ],
)
def test_flag_of_another_subcommand_is_a_usage_error(argv, capsys):
    # --pattern/--ordering are attached with '=' before argparse runs; a
    # subcommand without the option must refuse it rather than run and drop it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert captured.err.splitlines()[-1].startswith("usigns: error: unrecognized")


@pytest.mark.parametrize(
    "argv", [["solve", "5"], ["sign-of", "5"], ["solve", "5", "--pattern"]]
)
def test_missing_pattern_or_ordering_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""
    assert "error: " in captured.err.splitlines()[-1]


@pytest.mark.parametrize("argv", [["--pattern", "--"], ["--pattern=--"]])
def test_double_dash_is_a_pattern_value(argv, capsys):
    # argparse would read a bare '--' as the end of the options
    code, out, err = run(capsys, "solve", "4", *argv)
    assert (code, out, err) == (2, "", "inconsistent\n")
    code, _, err = run(capsys, "sign-of", "5", *[a.replace("pattern", "ordering") for a in argv])
    assert code == 3 and err == "usigns: error: cannot parse ordering '--'\n"


def test_diagram_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    code, _, _ = run(capsys, "diagram", "5", "--pattern", "-++++", "--out", str(out1))
    assert code == 0
    run(capsys, "diagram", "5", "--pattern", "-++++", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    svg = out1.read_text()
    assert svg.count("<line") == 5
    assert svg.count('stroke="#c1272d"') == 1  # exactly the negative chord


def test_diagram_all_plus_uniform(tmp_path, capsys):
    out = tmp_path / "c.svg"
    run(capsys, "diagram", "6", "--pattern", "+++++++++", "--out", str(out))
    svg = out.read_text()
    assert svg.count("<line") == 9
    assert svg.count('stroke="#c1272d"') == 0


def test_diagram_unwritable(capsys):
    code, _, err = run(
        capsys, "diagram", "5", "--pattern", "-++++", "--out", "/nonexistent/x.svg"
    )
    assert code == 3


def test_usage_error_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 3
