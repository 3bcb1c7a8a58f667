"""The suite runner's fan-out over forked processes.

``run_suite`` runs its planned instances in a pool of min(workers,
instances, CPUs) forked processes, or one after another when that is 1.
These tests pin the pool size without starting a pool (a stand-in
executor runs the tasks in this process), and then, with at most two
real processes, that a failure in a pool process reaches the command line
as it does with one worker, that no child process outlives a run, that a
BLAS call before the fork does not hang the children, and that importing
punits loads none of the pool machinery.

No test here starts more than two processes.
"""

import concurrent.futures
import dataclasses
import hashlib
import json
import multiprocessing
import os
import textwrap
import time

import pytest

from punits import cli, oracle
from punits.cli import SuiteConfig, SuiteInstance, main, run_suite
from punits.pgroup import GroupSpec

from .helpers import SUITE_SHA256, fresh_python

_INSTANCES = (
    SuiteInstance(GroupSpec(2, (1,)), 2),
    SuiteInstance(GroupSpec(2, (1,)), 3),
    SuiteInstance(GroupSpec(3, (1,)), 2),
)

_CONFIG = {
    "instances": [
        {"p": 2, "lambda": [1], "e": 2},
        {"p": 2, "lambda": [1], "e": 3},
        {"p": 3, "lambda": [1], "e": 2},
    ],
    "checks": ["theorem2", "lemma2"],
}


class _SpyPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and runs the tasks here, so that no process is started."""

    sizes: list = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def spy(monkeypatch):
    monkeypatch.setattr(_SpyPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    return _SpyPool.sizes


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(_CONFIG))
    return str(path)


@pytest.mark.parametrize(
    "workers, cpus, size",
    [
        (100000, 2, 2),  # bounded by the CPUs
        (100000, 8, 3),  # bounded by the instances
        (2, 8, 2),  # bounded by the workers
        (1, 8, None),
        (100000, 1, None),
        (100000, None, None),  # CPU count unknown
    ],
)
def test_pool_size(spy, monkeypatch, workers, cpus, size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial = run_suite(SuiteConfig(_INSTANCES))
    assert run_suite(SuiteConfig(_INSTANCES, workers=workers)) == serial
    assert spy == ([] if size is None else [size])


def test_no_pool_without_fork(spy, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delattr(os, "fork")
    run_suite(SuiteConfig(_INSTANCES, workers=4))
    assert spy == []


def test_one_instance_verify_makes_no_pool(spy, capsys):
    code, out, _ = _run(
        capsys, "verify", "--p", "2", "--lambda", "1", "--e", "2", "--workers", "2",
        "--format", "json",
    )
    assert code == 0 and json.loads(out)["summary"]["all_pass"]
    assert spy == []


def test_pool_reports_equal_serial_ones(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_suite(SuiteConfig(_INSTANCES))
    pooled = run_suite(SuiteConfig(_INSTANCES, workers=2))
    assert multiprocessing.active_children() == []
    assert pooled == serial
    assert cli.emit_report(pooled) == cli.emit_report(serial)


def _patch_lemma2(monkeypatch, run):
    """Make lemma2 call run(units) on the e = 3 instance alone."""
    check = oracle.CHECKS["lemma2"]

    def patched(units, params, seed):
        if units.rs.e == 3:
            run(units)
        return check.run(units, params, seed)

    monkeypatch.setitem(oracle.CHECKS, "lemma2", dataclasses.replace(check, run=patched))


def test_raising_check_reads_as_with_one_worker(monkeypatch, capsys, config_path):
    def boom(units):
        raise ValueError(f"injected failure on e = {units.rs.e}")

    _patch_lemma2(monkeypatch, boom)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one = _run(capsys, "suite", "--config", config_path, "--workers", "1")
    two = _run(capsys, "suite", "--config", config_path, "--workers", "2")
    assert multiprocessing.active_children() == []
    assert one == two == (2, "", "error: injected failure on e = 3\n")


def test_dying_pool_process_is_one_error_line(monkeypatch, capsys, config_path):
    parent = os.getpid()

    def die(units):
        if os.getpid() == parent:  # never end the test process itself
            raise AssertionError("the check ran outside the pool")
        os._exit(3)

    _patch_lemma2(monkeypatch, die)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    start = time.monotonic()
    code, out, err = _run(capsys, "suite", "--config", config_path, "--workers", "2")
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    assert (code, out) == (2, "")
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_bug_in_a_check_keeps_its_traceback(monkeypatch, config_path, workers):
    # Exit 2 means refused input or budget; an internal error is not that.
    def bug(units):
        raise NotImplementedError(f"injected bug on e = {units.rs.e}")

    _patch_lemma2(monkeypatch, bug)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(NotImplementedError, match="injected bug on e = 3"):
        main(["suite", "--config", config_path, "--workers", workers])
    assert multiprocessing.active_children() == []


def test_blas_call_before_the_fork():
    # OpenBLAS keeps threads of its own once called; with them on, a child
    # forked after a BLAS call in the parent must still finish its
    # products.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    code = """
        import os
        import sys
        import numpy as np
        from punits.cli import main

        os.cpu_count = lambda: 2  # a pool of two also on a one-CPU host
        a = np.arange(40000, dtype=np.float64).reshape(200, 200)
        a @ a
        sys.exit(main(["suite", "--workers", "2"]))
        """
    proc = fresh_python("-c", textwrap.dedent(code), env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == SUITE_SHA256


def test_import_leaves_the_pool_machinery_unloaded():
    # A one-worker run, and importing punits, must not pay for the pool.
    code = """
        import sys
        import punits
        from punits import cli
        from punits.pgroup import GroupSpec

        def loaded():
            return [m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")]

        assert loaded() == [], loaded()
        cli.run_suite(cli.SuiteConfig((cli.SuiteInstance(GroupSpec(2, (1,)), 2),) * 2))
        assert loaded() == [], loaded()
        """
    proc = fresh_python("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stderr
