"""Reduced-size self-test of the benchmark (small n, a fraction of a second
per workload): every declared metric is emitted with its unit and every
check passes. Run from the repository root with

    python3 -m pytest perfbench -q
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_emits_every_metric_and_passes_checks(workload, trace, tmp_path):
    result = run.measure(workload, 5, 0.3, trace, workloads.SMALL, tmp_path)
    doc = run.report(workload, 5, 0.3, trace, result, run.machine_facts(5), tmp_path)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert result.failed == 0
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if trace:
        assert sum(values[f"{layer}.share"] for layer in tracing.LAYERS) <= 1 + 1e-9
        assert values["trace.spans"] > 0
        assert (tmp_path / f"spans-{workload}-seed5.npz").is_file()
    else:
        assert all(v > 0 for v in values.values())


def test_gauge_scales_by_the_median_sample_around_an_op():
    gauge = calibrate.Gauge()
    gauge.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    gauge.took = [calibrate.NOMINAL_S * f for f in (1.0, 2.0, 2.0, 50.0, 1.0)]
    # samples at 1 and 2 fall inside [0.5, 2.5]; those at 0 and 3 are the neighbours
    assert gauge.scale(2.0, 0.5) == pytest.approx(2.0 / 2.0)
    # an op between two samples is scaled by both
    assert gauge.scale(0.1, 3.4) == pytest.approx(0.1 / ((50.0 + 1.0) / 2))
    loop = run.run_loop(workloads.Roundtrip(workloads.SMALL.ns), random.Random(2), seconds=0.3)
    assert len(loop.gauge.took) > 5
    assert all(dt > 0 for dt in loop.of("roundtrip", "reject"))


def test_wrong_output_counts_as_failure(monkeypatch):
    roundtrip = workloads.Roundtrip(workloads.SMALL.ns)
    real_run = roundtrip.run

    def corrupted(kind, payload):
        out = real_run(kind, payload)
        if kind == "roundtrip":
            s, word, other, oracle = out
            return s, word[::-1], other, oracle
        return out

    monkeypatch.setattr(roundtrip, "run", corrupted)
    loop = run.run_loop(roundtrip, random.Random(1), blocks=1)
    assert loop.failed == 3 * len(workloads.SMALL.ns)
    assert loop.attempted == 4 * len(workloads.SMALL.ns)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
