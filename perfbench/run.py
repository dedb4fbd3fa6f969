"""Benchmark of the usigns library and CLI: one workload per run.

Run from the repository root, for example:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that yields the per-layer metrics.
Inputs come from ``--seed`` only, every output is checked, and the last line
of standard output is one JSON object (correct, attempted, failed, metrics)
whose metric names and units are those of ``BENCHMARK.json``. The exit code is
0 only when every op passed its check. Load comes from this one process:
``count`` runs with its default single thread and there is no pool.
See README.md beside this file for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("enumerate", "roundtrip", "charts")

# Tail percentile per workload, fixed so that parent and child commits report
# the same percentile: each leaves at least ten ops beyond it at the
# workload's op rate. enumerate runs three to six ops, too few for any
# percentile; its op_tail_ms is the median latency of its slowest command.
TAIL_PCT = {"roundtrip": 99, "charts": 80}

_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import calibrate
with calibrate.Gauge() as gauge:
    t0 = time.perf_counter()
    import usigns
    import workloads
    workloads.make({name!r}, workloads.Sizes(**{sizes!r}), {out!r}).warm()
    t1 = time.perf_counter()
print(t1 - t0, gauge.scale(t1 - t0, t0))
"""


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = root / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


@dataclass
class Loop:
    """Latencies of the ops that passed their check, with the start time of
    each, the host-speed samples taken meanwhile, and tallies."""

    gauge: calibrate.Gauge = field(default_factory=calibrate.Gauge)
    latencies: list[tuple[str, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    blocks: int = 0

    def of(self, *kinds: str) -> list[float]:
        """Latencies of the ops of these kinds, at reference speed."""
        return [self.gauge.scale(dt, t0) for k, dt, t0 in self.latencies if k in kinds]

    def raw(self, *kinds: str) -> list[float]:
        """Latencies of the ops of these kinds, as measured."""
        return [dt for k, dt, _ in self.latencies if k in kinds]

    def busy(self) -> float:
        return sum(dt for _, dt, _ in self.latencies)


def run_loop(workload, rng, *, seconds=None, blocks=None, tracer=None) -> Loop:
    """Run whole blocks of ops until ``blocks`` are done, or until the next
    block would, at the mean block time so far, end after ``seconds``. It
    starts from a collected heap, so that garbage left by earlier work does
    not land on its ops."""
    gc.collect()
    loop = Loop()
    with loop.gauge:
        run_blocks(loop, workload, rng, seconds, blocks, tracer)
    return loop


def run_blocks(loop: Loop, workload, rng, seconds, blocks, tracer) -> None:
    start = perf_counter()
    for block in workload.blocks(rng):
        if blocks is not None and loop.blocks >= blocks:
            break
        elapsed = perf_counter() - start
        if seconds is not None and loop.blocks and elapsed * (loop.blocks + 1) / loop.blocks > seconds:
            break
        for kind, payload in block:
            loop.attempted += 1
            try:
                with contextlib.nullcontext() if tracer is None else tracer.in_op(kind):
                    t0 = perf_counter()
                    result = workload.run(kind, payload)
                    dt = perf_counter() - t0
                ok = workload.check(kind, payload, result)
            except Exception:
                traceback.print_exc()
                ok = False
            if ok:
                loop.latencies.append((kind, dt, t0))
            else:
                loop.failed += 1
                print(f"FAILED {workload.name} {kind} {payload!r}", file=sys.stderr)
        loop.blocks += 1


def setup_times(name: str, sizes, out_dir: Path) -> list[tuple[float, float]]:
    """Fresh-process set-up: ``import usigns`` plus the workload's warm pass,
    as measured and at reference speed (the child gauges the host meanwhile).
    The child imports ``calibrate`` before its clock starts; of what that
    loads, usigns needs only ``bisect`` and ``math``."""
    code = _SETUP_CHILD.format(
        src=str(SRC),
        here=str(HERE),
        name=name,
        sizes=dataclasses.asdict(sizes),
        out=str(out_dir),
    )
    times = []
    for _ in range(sizes.setups):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, scaled = map(float, done.stdout.strip().splitlines()[-1].split())
        times.append((seconds, scaled))
    return times


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Result:
    metrics: dict[str, float]
    loops: list[Loop]
    details: dict

    @property
    def attempted(self) -> int:
        return sum(loop.attempted for loop in self.loops)

    @property
    def failed(self) -> int:
        return sum(loop.failed for loop in self.loops)


def count_prelude(sizes, out_dir: Path):
    """The count commands at n_prelude, run beside roundtrip and charts so
    that every workload reports the count metrics."""
    import workloads

    prelude = workloads.Enumerate(sizes.n_prelude, out_dir)
    prelude.warm()
    prelude.prepare()
    return prelude


def measure_end_to_end(name, seed, seconds, sizes, out_dir) -> Result:
    """Times are at reference speed (see calibrate.py); the result file also
    keeps them as measured."""
    import workloads

    setups = setup_times(name, sizes, out_dir)
    workload = workloads.make(name, sizes, out_dir)
    workload.warm()
    workload.prepare()
    loop = run_loop(workload, random.Random(seed), seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loops = [loop]
    if name != "enumerate":
        prelude = count_prelude(sizes, out_dir)
        loops.append(run_loop(prelude, random.Random(seed), blocks=sizes.count_blocks))
    counts = loops[-1]
    pct = TAIL_PCT.get(name)

    def end_to_end(timed):
        lat = timed(loop)(*workload.kinds)
        if pct is None:
            tail_s, beyond = max(statistics.median(timed(loop)(k)) for k in workload.kinds), 0
        else:
            tail_s, beyond = tail(lat, pct)
        count = timed(counts)
        return {
            "count_s": statistics.median(count("count")),
            "count_primitive_s": statistics.median(count("count_primitive")),
            "stream_s": statistics.median(count("stream")),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
        }, len(lat), beyond

    timed, ops, beyond = end_to_end(lambda run: run.of)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": peak_rss_mb,
        **timed,
    }
    measured = {"setup_s": statistics.median(raw for raw, _ in setups), **end_to_end(lambda run: run.raw)[0]}
    details = {
        "setup_s_samples": setups,
        "ops": ops,
        "op_kinds": {k: len(loop.raw(k)) for k in workload.kinds},
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "count_n": sizes.n_enum if name == "enumerate" else sizes.n_prelude,
        "count_samples_s": {k: counts.of(k) for k in workloads.Enumerate.kinds},
        "gauge_samples": len(loop.gauge.took),
        "gauge_median_s": statistics.median(loop.gauge.took),
        "measured": measured,
    }
    return Result(metrics, loops, details)


def cli_solve_overhead(sizes, rng) -> tuple[float, Loop]:
    """Median ms of ``usigns solve N --json`` beyond its ``solve`` call, over
    a few consistent patterns; each probe's ordering is checked."""
    import tracing
    import workloads

    import usigns as U

    n = sizes.n_layer
    poly = U.Polygon(n)
    words = [workloads.random_word(rng, n) for _ in range(5)]
    spans = tracing.Tracer()
    probes = Loop(attempted=len(words))
    with tracing.instrument(spans):
        for w in words:
            out = io.StringIO()
            pattern = str(U.sign_of_ordering(poly, w))
            with spans.in_op("solve_json"), contextlib.redirect_stdout(out):
                code = U.cli.main(["solve", str(n), "--pattern", pattern, "--json"])
            if code != 0 or json.loads(out.getvalue())["ordering"] != list(U.canonicalize(w)):
                probes.failed += 1
    overhead = statistics.median(
        outer - inner for outer, inner in spans.per_op("solve_json", "cli:main", "solver:solve")
    )
    return overhead * 1e3, probes


def measure_traced(name, seed, seconds, sizes, out_dir) -> Result:
    """Half the time untraced, then the same blocks again under spans; the
    per-layer timings afterwards run with the instrumentation removed."""
    import layers
    import tracing
    import workloads

    workload = workloads.make(name, sizes, out_dir)
    workload.warm()
    workload.prepare()
    plain = run_loop(workload, random.Random(seed), seconds=seconds / 2)
    spans = tracing.Tracer()
    with tracing.instrument(spans):
        traced = run_loop(workload, random.Random(seed), blocks=plain.blocks, tracer=spans)
    loops = [plain, traced]
    counts = spans
    if name != "enumerate":
        prelude = count_prelude(sizes, out_dir)
        counts = tracing.Tracer()
        with tracing.instrument(counts):
            loops.append(run_loop(prelude, random.Random(seed), blocks=1, tracer=counts))

    rng = random.Random(seed)
    solve_json_ms, probes = cli_solve_overhead(sizes, rng)
    loops.append(probes)
    iterations = layers.solver_iterations(sizes, rng)
    metrics = layers.layer_timings(sizes, rng)
    totals = spans.layer_totals()
    for layer in tracing.LAYERS:
        for key, value in totals[layer].items():
            metrics[f"{layer}.{key}"] = value

    def library_s(kind):
        inner = "relations:consistent_patterns" if kind == "stream" else "relations:count_consistent"
        return counts.per_op(kind, "cli:main", inner)

    metrics["relations.count_ext_s"] = statistics.median(i for _, i in library_s("count"))
    metrics["relations.count_prim_s"] = statistics.median(i for _, i in library_s("count_primitive"))
    metrics["relations.stream_s"] = statistics.median(i for _, i in library_s("stream"))
    metrics["cli.count_overhead_s"] = statistics.median(o - i for o, i in library_s("count"))
    metrics["cli.solve_json_ms"] = solve_json_ms
    flat = [(k, it) for k, its in iterations.items() for it in its]
    metrics["solver.iterations_mean"] = statistics.fmean(it for _, it in flat)
    metrics["solver.iterations_max_over_bound"] = max(it / (4 * k**3) for k, it in flat)
    metrics["trace.overhead_ratio"] = traced.busy() / plain.busy()
    metrics["trace.spans"] = len(spans)

    spans_file = out_dir / f"spans-{name}-seed{seed}.npz"
    spans.save(spans_file)
    details = {
        "spans_file": str(spans_file),
        "traced_blocks": plain.blocks,
        "bench.share": totals["bench"]["share"],
        "untraced_busy_s": plain.busy(),
        "traced_busy_s": traced.busy(),
        "solver_iterations": {
            str(k): {"mean": statistics.fmean(its), "max": max(its), "bound": 4 * k**3, "samples": len(its)}
            for k, its in iterations.items()
        },
    }
    return Result(metrics, loops, details)


def measure(name, seed, seconds, trace, sizes, out_dir) -> Result:
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        return measure_traced(name, seed, seconds, sizes, out_dir)
    return measure_end_to_end(name, seed, seconds, sizes, out_dir)


def declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name, seed, seconds, trace, result: Result, facts: dict, out_dir: Path) -> dict:
    """Print the human-readable lines, write the result file, and return the
    contract's JSON object (printed last by the caller)."""
    units = declared_units(trace)
    if set(units) != set(result.metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(result.metrics))}"
        )
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    d = result.details
    print(
        f"workload {name}: {result.attempted} ops attempted, {result.failed} failed, "
        f"error_rate {result.failed / result.attempted:.4f}"
    )
    if not trace:
        if d["op_tail_percentile"] is None:
            print(f"op_tail_ms is the median of the slowest command, over {d['ops']} ops")
        else:
            print(f"op_tail_ms is p{d['op_tail_percentile']} of {d['ops']} ops, {d['op_tail_beyond']} beyond it")
        print(f"count_s, count_primitive_s and stream_s time `usigns count {d['count_n']}`")
        print("times are at reference speed (calibrate.py); as measured: " + " ".join(
            f"{k}={v:.6g}" for k, v in d["measured"].items()
        ))
    else:
        for k, row in d["solver_iterations"].items():
            print(f"solver iterations n={k}: mean {row['mean']:.2f}, max {row['max']} of bound {row['bound']}")
        print(f"tracing overhead: {d['traced_busy_s']:.3f} s traced vs {d['untraced_busy_s']:.3f} s untraced")
    for key, value in result.metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    doc = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
    }
    record = {
        "machine": facts,
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "error_rate": result.failed / result.attempted,
        "details": d,
        **doc,
    }
    path = out_dir / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {path}")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "usigns" / "__init__.py").is_file():
        print(f"perfbench: no usigns sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import usigns

    if Path(usigns.__file__).resolve().parent != SRC / "usigns":
        print(f"perfbench: imported usigns from {usigns.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = measure(args.workload, args.seed, args.seconds, args.trace, workloads.FULL, OUT)
    doc = report(args.workload, args.seed, args.seconds, args.trace, result, machine_facts(args.seed), OUT)
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
