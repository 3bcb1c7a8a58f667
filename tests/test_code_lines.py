"""The definition of a code line that ``tools/code_lines.py`` counts."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Each line that counts ends in "# +"; 9 of them.
_SAMPLE = '''"""Module docstring,
on two lines."""

import os  # +
"""A string statement that is no docstring."""  # +

# A comment-only line.


class A:  # +
    """Class docstring."""

    x = """a string assigned,  # +
    on two lines"""  # +

    def f(self):  # +
        """Function docstring,

        with a blank line."""
        return (1 +  # +
                2)  # +

    async def g(self):  # +
        """Async function docstring."""
'''


def test_code_line_definition():
    # Blank, comment-only and docstring lines are not counted; a line that
    # ends in a comment and every line of a multi-line token are.
    assert code_lines.code_lines(_SAMPLE) == 9 == _SAMPLE.count("# +")


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\n\nx = 1\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["9", "a.py"], ["1", "sub/b.py"], ["10", "total"]]
