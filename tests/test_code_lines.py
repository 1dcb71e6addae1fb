"""tools/code_lines.py counts the lines that hold code and nothing else."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

# a comment line
import os  # a trailing comment counts as code


def f(x):
    """Function docstring."""

    text = """a string that is
not a docstring"""
    return (x,
            text)


class C:
    """Class docstring
    on two lines."""
    y = 1
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, the two string lines, the two return lines, class, y
    assert code_lines.code_lines(SNIPPET) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split() == ["9", "total"]
