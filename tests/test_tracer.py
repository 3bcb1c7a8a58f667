"""The benchmark's span tracer still finds the bindings it wraps.

perfbench/tracer.py wraps public punits functions from outside, by module
attribute.  A binding that moves or disappears would leave its spans
empty without any error, so this runs a small suite and a one-shot check
under the tracer and asserts that the spans the benchmark reads appear
and that uninstalling puts every binding back.
"""

import importlib.util
from pathlib import Path

from punits import cli, oracle
from punits.cli import SuiteConfig, SuiteInstance
from punits.pgroup import GroupSpec
from punits.ring import RingSpec

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracer) -> dict:
    """Every attribute the tracer may replace, by (owner, name)."""
    out = {}
    for _, owner, attr, _ in tracer.TARGETS:
        for holder in (*tracer.MODULES, owner):
            if attr in vars(holder):
                out[(holder.__name__, attr)] = vars(holder)[attr]
    return out


def test_tracer_spans_the_suite_and_restores_every_binding():
    tracer = _load_tracer()
    before = _bindings(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        config = SuiteConfig(
            instances=(
                SuiteInstance(GroupSpec(2, (1,)), 2),
                SuiteInstance(GroupSpec(3, (1,)), 1),
            ),
        )
        reports = cli.run_suite(config)
        one_shot = oracle.verify_check("lemma3", RingSpec(GroupSpec(2, (2,)), 1), {"n": 1})
    finally:
        spans.uninstall()
    assert all(r.all_pass() for r in reports) and one_shot.passed
    names = {span[3] for span in spans.spans}
    for name in ("cli.run_suite", "oracle.verify_check.theorem2", "oracle.verify_check.lemma3"):
        assert name in names
    assert _bindings(tracer) == before
