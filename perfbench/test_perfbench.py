"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The count test runs every workload twice with tracing, about four
minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads  # also puts the package sources on sys.path
import tracer
from punits import RingElement, cli, oracle, pgroup, zpelin

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "count_computed", "bytes")


def _run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.NOMINAL_PASS_S)
def test_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(HERE.parent, workload, 5, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        results.append(result["metrics"])
    assert results[0].keys() == tracer.METRIC_UNITS.keys()
    counts = [
        {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}
        for metrics in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_tail_percentile_leaves_ten_ops_beyond():
    # 586 checks, 1860 queries, 299 ideal ops per pass
    assert [run.tail_percentile(n) for n in (586, 1860, 299)] == [98, 99, 96]
    assert run.tail_percentile(1) == 1


def test_sampler_leaves_its_time_out():
    sampler = workloads.Sampler()
    sampler.start()
    try:
        while len(sampler.samples) < 4:
            workloads.calibration_kernel()
    finally:
        sampler.stop()
    # the first sample is taken before the pass's clocks start
    assert sampler.cpu == pytest.approx(sum(sampler.samples[1:]))
    assert sampler.wall > 0


def test_uninstall_restores_every_binding():
    bindings = [
        (zpelin, "howell_form"), (oracle, "howell_form"), (oracle, "verify_check"),
        (cli, "verify_check"), (pgroup, "product_index_table"),
        (RingElement, "__mul__"), (RingElement, "__pow__"),
    ]
    before = [getattr(owner, attr) for owner, attr in bindings]
    spans = tracer.Tracer()
    spans.install()
    try:
        assert zpelin.howell_form.__wrapped__ is before[0]
        assert oracle.howell_form is zpelin.howell_form
    finally:
        spans.uninstall()
    assert [getattr(owner, attr) for owner, attr in bindings] == before


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "catalog", 0, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
