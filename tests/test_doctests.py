import doctest
import re
from pathlib import Path

import pytest

import punits.cli
import punits.pgroup
import punits.theory
import punits.zpelin

from .helpers import fresh_python

ROOT = Path(__file__).resolve().parents[1]


def test_cli_doctests():
    failures, _ = doctest.testmod(punits.cli)
    assert failures == 0


def test_pgroup_doctests():
    failures, _ = doctest.testmod(punits.pgroup)
    assert failures == 0


def test_theory_doctests():
    failures, _ = doctest.testmod(punits.theory)
    assert failures == 0


def test_zpelin_doctests():
    failures, _ = doctest.testmod(punits.zpelin)
    assert failures == 0


def test_readme_library_quick_start():
    # The python blocks of the README's "Library quick start", in order and
    # in one namespace, so that an API move breaks this before the README.
    readme = ROOT / "README.md"
    section = readme.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    # The README's demo scripts, each in a fresh interpreter on this
    # checkout's sources, so that an API move breaks this before them.
    proc = fresh_python(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr.decode()
