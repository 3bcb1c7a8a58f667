"""The punits benchmark workloads: inputs, one timed pass, output checks.

run.py starts this file in a fresh process for every pass:

    python3 perfbench/workloads.py --workload ideals --seed 3 [--trace]

A pass runs every input of the workload once, in a closed loop: the next
call starts when the last one returns.  The pass is checked, outside the
timed region, against the reference answers in ``reference/``, which
make_reference.py wrote at commit cd49e2d.  With ``--trace`` the span
tracer is installed for the pass and removed before the check; without
it, the host's speed is sampled all through the pass (``Sampler``), and
run.py divides CPU times by it.  The one line printed is a JSON object for
run.py.  With ``--setup-only`` the process only builds its inputs, records
the monotonic clock and its CPU time so far, then samples the host's
speed, so run.py can time set-up more than once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import signal
import sys
import time
import traceback
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from punits import cli, oracle, pgroup, theory, zpelin  # noqa: E402
from punits.pgroup import GroupSpec  # noqa: E402
from punits.ring import RingSpec  # noqa: E402

REFERENCE = HERE / "reference"
OUT = HERE / "out"
# Process CPU seconds between two samples of the host's speed.
SAMPLE_EVERY_S = 0.1
# Speed samples a --setup-only process takes once its inputs are ready.
SETUP_SAMPLES = 30

CATALOG_WORKERS = {"catalog": 1, "catalog-w2": 2}
# (p, largest |lambda|) for the closed-form grid, each at every e below.
CLOSED_FORM_GRID = ((2, 14), (3, 8), (5, 6), (7, 5))
CLOSED_FORM_E = (1, 2, 3)
# (p, lambda, e) instances of the ideal-chain (`dimsub --oracle`) workload.
IDEAL_INSTANCES = (
    (2, (3, 3), 1),
    (2, (6,), 1),
    (2, (2, 2, 2), 1),
    (2, (1,) * 6, 1),
    (2, (4, 2), 2),
    (2, (2, 1, 1), 3),
    (3, (2, 2), 1),
    (3, (4,), 1),
    (3, (1, 1, 1), 2),
    (7, (2,), 1),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(value) -> str:
    """Short digest of a JSON value, independent of key order."""
    return sha256(json.dumps(value, sort_keys=True))[:16]


def load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json") as handle:
        return json.load(handle)


def partitions(n: int, largest: int | None = None):
    """Partitions of n as descending tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def instance_key(group: GroupSpec, e: int) -> str:
    return f"{group.to_text()};e={e}"


# The calibration kernel's state, made at import, before any pass.
_KERNEL_TABLE = dict.fromkeys(range(256), 0)
_KERNEL_ARRAY = np.arange(1 << 12, dtype=np.int64)


def calibration_kernel() -> int:
    """Fixed work that mixes interpreter code (dict and integer operations)
    with numpy integer array arithmetic, as the workloads do.  It is the
    benchmark's own code, so its speed is the host's alone.  It keeps no
    object it makes and makes no large block, so a sample in the middle of
    a pass leaves the pass's heap as it found it."""
    table, acc = _KERNEL_TABLE, 0
    for i in range(8000):
        k = i * 7919 % 256
        table[k] = (table[k] + i) & 255
        acc = (acc * 31 + k) % 1000003
    x = _KERNEL_ARRAY
    for _ in range(96):
        np.multiply(x, 31, out=x)
        np.add(x, 7, out=x)
        np.remainder(x, 1000003, out=x)
    return acc + int(x[-1])


class Sampler:
    """Samples the host's speed while a pass runs.

    Every SAMPLE_EVERY_S of process CPU time, SIGPROF makes the main thread
    run calibration_kernel once; a sample is the thread CPU time it took.
    The host runs the same instructions up to about 30 % slower or faster
    over minutes and hours (a busy neighbour core), and the samples see
    that where the pass runs, all through it.  ``cpu`` and ``wall`` sum the
    time spent in timer samples, which the pass's figures leave out.

    Samples go into arrays made up front, so that no object made in a
    sample outlives it among the program's own.  A worker's 170 s timeout
    bounds a process at about 1700 samples."""

    def __init__(self) -> None:
        self._samples = np.zeros(1 << 14)
        self._spent = np.zeros(2)  # thread CPU and wall seconds in timer samples
        self._count = np.zeros(1, dtype=np.int64)

    @property
    def samples(self) -> list[float]:
        return self._samples[: self._count[0]].tolist()

    @property
    def cpu(self) -> float:
        return float(self._spent[0])

    @property
    def wall(self) -> float:
        return float(self._spent[1])

    def take(self) -> float:
        """One sample: run the kernel, keep its thread CPU time."""
        cpu0 = time.thread_time()
        calibration_kernel()
        cpu = time.thread_time() - cpu0
        self._samples[self._count[0]] = cpu
        self._count += 1
        return cpu

    def _sample(self, signum, frame) -> None:
        wall0 = time.perf_counter()
        self._spent += (self.take(), time.perf_counter() - wall0)

    def start(self) -> None:
        """Take one sample now, before the pass's clocks start, so that
        even a pass shorter than SAMPLE_EVERY_S has one; then arm SIGPROF."""
        self.take()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


SAMPLER = Sampler()


def closed_loop(calls, begin_op):
    """Make each call when the last one has returned: (answers, seconds of
    each call, less the time of speed samples taken in it).  A call that
    raises answers None, which fails its check."""
    answers, op_s = [], []
    for i, call in enumerate(calls):
        begin_op(i)
        start, sampled = time.perf_counter(), SAMPLER.wall
        try:
            answers.append(call())
        except Exception:  # a raising op is a failed op; the loop goes on
            traceback.print_exc()
            answers.append(None)
        op_s.append(time.perf_counter() - start - (SAMPLER.wall - sampled))
    return answers, op_s


# --------------------------------------------------------------------------
# Catalog: the default suite through run_suite, then emit_report as JSON.

# Fields of the suite JSON that depend on the seed: derived check seeds and
# the count of exceptional lemma9 candidates, which are drawn at random.
_SEED_DEPENDENT = ("seed", "exceptional")


def _strip_seeded(value):
    if isinstance(value, dict):
        return {k: _strip_seeded(v) for k, v in value.items() if k not in _SEED_DEPENDENT}
    if isinstance(value, list):
        return [_strip_seeded(v) for v in value]
    return value


def catalog_check_digests(suite_json: str) -> dict[str, tuple[str, str]]:
    """Per check: (verdict, digest of its seed-independent content and of
    its instance's closed forms), keyed by instance and check id."""
    out = {}
    for inst in json.loads(suite_json)["instances"]:
        group = GroupSpec(inst["group"]["p"], tuple(inst["group"]["lambda"]))
        header = {"v_order": inst["v_order"], "invariants": inst["invariants"]}
        for check in inst["checks"]:
            key = f"{instance_key(group, inst['e'])}|{check['id']}"
            out[key] = (check["verdict"], digest(_strip_seeded([header, check])))
    return out


class Catalog:
    def __init__(self, seed: int, workers: int) -> None:
        self.seed = seed
        self.config = cli.default_suite_config(workers=workers, seed=seed)
        ref = load_reference("catalog")
        self.suite_sha256 = ref["suite_sha256"].get(str(seed))
        self.checks = ref["checks"]

    def _suite(self):
        reports = cli.run_suite(self.config)
        text = cli.emit_report(reports, "json")
        return text, [c.wall_time for r in reports for c in r.checks]

    def run(self, begin_op):
        """The suite is one client call; its ops are the checks, timed by
        their own VerificationReport.wall_time."""
        (answer,), suite_s = closed_loop([self._suite], begin_op)
        return (None, suite_s) if answer is None else answer

    def check(self, text) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) for one pass's suite JSON."""
        if text is None:
            return len(self.checks), len(self.checks), []
        problems = []
        if self.suite_sha256 is not None and sha256(text) != self.suite_sha256:
            problems.append(f"suite JSON sha256 differs from the seed-{self.seed} reference")
        got = catalog_check_digests(text)
        failed = sum(
            1
            for key, (verdict, dig) in got.items()
            if verdict != "pass" or self.checks.get(key) != dig
        )
        missing = len(self.checks.keys() - got.keys())
        if missing:
            problems.append(f"{missing} reference checks missing from the suite")
        return len(got) + missing, failed + missing, problems

    def digest(self, text) -> str:
        return sha256(text or "")


# --------------------------------------------------------------------------
# Closed forms: one `punits invariants --format json` query per op.


def closed_form_queries() -> list[tuple[GroupSpec, int]]:
    return [
        (GroupSpec(p, lam), e)
        for p, top in CLOSED_FORM_GRID
        for n in range(1, top + 1)
        for lam in partitions(n)
        for e in CLOSED_FORM_E
    ]


def closed_form_answer(text: str) -> list:
    inst = json.loads(text)["instances"][0]
    pairs = [[d["order_exp"], d["multiplicity"]] for d in inst["invariants"]]
    return [inst["v_order"]["exp"], pairs]


def closed_form_query(group: GroupSpec, e: int) -> str:
    """What `punits invariants --format json` prints for (G, e)."""
    rep = theory.structure_report(group, e)
    instance = cli.InstanceReport(
        group=group, e=e, v_order_exp=rep.v_order_exp, invariants=rep.v_invariants
    )
    return cli.emit_report([instance], "json")


def closed_form_digest(keys, texts) -> str:
    return sha256("".join(t or "" for _, t in sorted(zip(keys, texts))))


class ClosedForms:
    def __init__(self, seed: int) -> None:
        self.queries = closed_form_queries()
        random.Random(seed).shuffle(self.queries)
        self.keys = [instance_key(g, e) for g, e in self.queries]
        ref = load_reference("closed_forms")
        self.answers = ref["answers"]
        self.all_sha256 = ref["all_sha256"]

    def run(self, begin_op):
        return closed_loop([partial(closed_form_query, g, e) for g, e in self.queries], begin_op)

    def check(self, texts) -> tuple[int, int, list[str]]:
        failed = sum(
            1
            for key, text in zip(self.keys, texts)
            if text is None or closed_form_answer(text) != self.answers[key]
        )
        problems = []
        if self.digest(texts) != self.all_sha256:
            problems.append("closed-form outputs differ from the reference bytes")
        return len(texts), failed, problems

    def digest(self, texts) -> str:
        return closed_form_digest(self.keys, texts)


# --------------------------------------------------------------------------
# Ideals: nilpotency_index, then verify_check("lemma3", n) for n up to it.


def ideal_ops(nilpotency: dict[str, int]) -> list[tuple[str, RingSpec, int]]:
    """(key, ring, n) per op; n = 0 asks for the nilpotency index."""
    ops = []
    for p, lam, e in IDEAL_INSTANCES:
        rs = RingSpec(GroupSpec(p, lam), e)
        key = instance_key(rs.group, e)
        ops.append((key, rs, 0))
        ops.extend((f"{key}|n={n}", rs, n) for n in range(1, nilpotency[key] + 1))
    return ops


def ideal_answer(rs: RingSpec, n: int):
    """One op of the ideals workload, as a JSON value."""
    if n == 0:
        return zpelin.nilpotency_index(rs)
    rep = oracle.verify_check("lemma3", rs, {"n": n})
    return [rep.verdict, rep.predicted, rep.observed]


class Ideals:
    def __init__(self, seed: int) -> None:
        ref = load_reference("ideals")
        self.answers = ref["answers"]
        self.ops = ideal_ops(ref["nilpotency"])
        random.Random(seed).shuffle(self.ops)

    def run(self, begin_op):
        return closed_loop([partial(ideal_answer, rs, n) for _, rs, n in self.ops], begin_op)

    def check(self, answers) -> tuple[int, int, list[str]]:
        failed = 0
        for (key, _, n), answer in zip(self.ops, answers):
            if n == 0:
                ok = answer == self.answers[key]
            else:
                ok = answer is not None and answer[0] == "pass" and digest(answer) == self.answers[key]
            failed += not ok
        return len(answers), failed, []

    def digest(self, answers) -> str:
        return digest(sorted(zip((k for k, _, _ in self.ops), answers)))


def build(workload: str, seed: int):
    if workload in CATALOG_WORKERS:
        return Catalog(seed, CATALOG_WORKERS[workload])
    if workload == "closed-forms":
        return ClosedForms(seed)
    if workload == "ideals":
        return Ideals(seed)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# The client loop.


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _no_op(i: int) -> None:
    pass


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    """Build the inputs, then run and check one pass of the workload."""
    work = build(workload, seed)
    ready = time.monotonic()
    setup_cpu = time.process_time()
    begin_op = _no_op
    if trace:
        import tracer

        spans = tracer.Tracer()
        spans.install()
        begin_op = lambda i: setattr(spans, "op", i)  # noqa: E731
    else:
        SAMPLER.start()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        out, op_s = work.run(begin_op)
    finally:
        if trace:
            spans.uninstall()
        else:
            SAMPLER.stop()
    wall = time.perf_counter() - start - SAMPLER.wall
    cpu = _cpu_s() - cpu0 - SAMPLER.cpu
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = work.check(out)
    result = {
        "ready": ready,
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "cpu_s": cpu,
        "samples": SAMPLER.samples,
        "peak_rss_mb": rss_mb,
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": work.digest(out),
        "numpy": np.__version__,
    }
    if trace:
        layer = spans.metrics()
        # Read from the lru_cache itself, now that its name is unwrapped.
        layer["pgroup.product_index_table.misses"] = pgroup.product_index_table.cache_info().misses
        OUT.mkdir(exist_ok=True)
        spans.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
        result["trace"] = layer
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        build(args.workload, args.seed)
        ready, setup_cpu = time.monotonic(), time.process_time()
        for _ in range(SETUP_SAMPLES):
            SAMPLER.take()
        print(json.dumps({"ready": ready, "setup_cpu_s": setup_cpu, "samples": SAMPLER.samples}))
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
