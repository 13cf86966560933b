"""The code line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment


class A:
    """Class docstring."""

    x = 1  # code with a trailing comment

    def f(self, a,
          b):
        """Function docstring,
        also over two lines.
        """
        s = """a string that is
        not a docstring"""
        return (a +
                b)
'''


def test_counts_lines_that_start_a_code_token():
    # class A, x = 1, def f(...), b):, s = ..., return (a +, b)
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
    assert code_lines.code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [["7", str(tmp_path / "a.py")],
                                              ["1", str(tmp_path / "sub" / "b.py")],
                                              ["8", "total"]]
