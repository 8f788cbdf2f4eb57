"""The code-line counter skips docstrings, comments and blank lines."""

from code_lines import count_code_lines, main

# 8 code lines: the import, the def, both lines of the string that is no
# docstring, both lines of the return, the class and its assignment
SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def f(x):
    """A function docstring."""

    y = """a string that is not a docstring
    spans two lines"""
    return (x +
            y)


class K:
    """A class docstring."""

    z = 1
'''


def test_counter_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    assert count_code_lines(SOURCE) == 8
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == ["     8  a.py", "     1  b.py", "     9  total"]
