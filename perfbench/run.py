"""Run one punits benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Every pass of the workload runs in a fresh worker process
(workloads.py), one after the other, so each pays what a user's fresh
`punits` process pays.  The number of passes fills about --seconds at the
nominal pass times below (at least one), and is the same on every run.
SETUP_PROBES more processes only build the inputs, so that set-up time
(process start to inputs ready) is a median over several processes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones: CPU times
rescaled by the host speed sampled in each process (workloads.Sampler),
which leaves out both the time the host steals from the VM and the hours
in which it runs the same code slower, and peak memory.  With --trace 1
they are the per-layer ones of one more pass run with the span tracer.
The line before it records the run facts, which are not metrics:
machine, versions, CPU steal, the CPU times before rescaling, and the
wall-clock figures (pass and op latencies, set-up).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
SETUP_PROBES = 15
TIMEOUT_S = 170
# Seconds of one pass, fresh process included, on a 2-core Xeon VM.
NOMINAL_PASS_S = {"catalog": 15.0, "catalog-w2": 9.5, "closed-forms": 8.5, "ideals": 12.0}
# CPU seconds of one host-speed sample (workloads.calibration_kernel) that
# CPU times are rescaled to: about what it takes inside a pass on that VM.
REFERENCE_SAMPLE_S = 0.004
UNITS = {"setup_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB"}


def steal_jiffies() -> int:
    """Machine-wide CPU steal so far, from the aggregate line of /proc/stat."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8])


def cpu_model() -> str:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten of one pass's ops
    beyond it (at least 1)."""
    return max(1, int(100 * (1 - 10 / ops_per_pass)))


def tail(values: list[float], pct: int) -> float:
    """The pct-th percentile; a failed catalog pass leaves a single value."""
    return statistics.quantiles(values, n=100)[pct - 1] if len(values) > 1 else values[0]


def worker(args, *extra: str, deadline: float) -> tuple[float, dict]:
    """Run workloads.py once: (monotonic start time, its JSON line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=deadline - start
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(NOMINAL_PASS_S), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "punits" / "__init__.py").is_file():
        print(f"error: no punits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    passes = max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))
    deadline = time.monotonic() + TIMEOUT_S
    steal0 = steal_jiffies()
    setups, setup_walls, runs = [], [], []
    try:
        for i in range(SETUP_PROBES + passes + args.trace):
            traced = i == SETUP_PROBES + passes
            extra = ("--setup-only",) if i < SETUP_PROBES else ("--trace",) if traced else ()
            start, out = worker(args, *extra, deadline=deadline)
            if not traced:  # the traced pass samples no host speed
                setups.append((out["setup_cpu_s"], statistics.median(out["samples"])))
                setup_walls.append(out["ready"] - start)
            if i >= SETUP_PROBES:
                runs.append(out)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    timed = runs[:passes]
    walls = [r["wall_s"] for r in timed]
    op_s = [t for r in timed for t in r["op_s"]]
    ops_per_pass = len(op_s) // passes
    pct = tail_percentile(ops_per_pass)
    # Host speed of each timed pass: its median sample, in CPU seconds.
    sample_s = [statistics.median(r["samples"]) for r in timed]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    if len({r["digest"] for r in runs}) > 1:
        problems.append("passes gave different outputs (traced or not)")

    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        from tracer import METRIC_UNITS

        layer = {**runs[-1]["trace"], "trace.overhead_s": runs[-1]["wall_s"] - statistics.median(walls)}
        metrics = {k: {"value": layer[k], "unit": u} for k, u in METRIC_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(cpu * REFERENCE_SAMPLE_S / s for cpu, s in setups),
            "norm_cpu_s": statistics.median(
                r["cpu_s"] * REFERENCE_SAMPLE_S / s for r, s in zip(timed, sample_s)
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in UNITS.items()}

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        # Wall-clock figures: too noisy under host steal for a bound.
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1000 * statistics.median(op_s),
        "op_tail_ms": 1000 * tail(op_s, pct),
        "op_tail_percentile": pct,
        "ops_per_pass": ops_per_pass,
        "setup_wall_s": statistics.median(setup_walls),
        # CPU figures before rescaling, and the speed samples' medians.
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "setup_cpu_s": statistics.median(cpu for cpu, _ in setups),
        "sample_ms": [1000 * s for s in sample_s],
        "pass_walls_s": [r["wall_s"] for r in runs],
        "traced_pass": bool(args.trace),
        "fail_frac": failed / attempted,
        "problems": problems,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "cpu_model": cpu_model(),
        "steal_jiffies": steal_jiffies() - steal0,
    }
    print(json.dumps({"facts": facts}))
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
