"""scripts/code_lines.py counts the lines that hold code, not docstrings,
comments or blank lines, in each module of ROOT/src/gkhyper."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# 10 code lines: the def, class and method lines, the three lines of the
# assigned string, the two statements with a comment after them, the string
# statement that is not the first in its body, and the return
MODULE = '''"""Module docstring,
over two lines."""

# a comment-only line


def f(x):
    """Function docstring."""
    text = """a string that is
not a docstring
# and not a comment"""
    y = x + 1  # a comment after code
    # another comment-only line

    z = y * 2  # a comment after code
    "a string statement after the first"
    return text, z


class C:
    """Class docstring,
    over two lines.
    """

    def m(self):
        """Method docstring."""
'''


def test_code_lines_counts_a_known_module(tmp_path):
    package = tmp_path / "src" / "gkhyper"
    package.mkdir(parents=True)
    (package / "known.py").write_text(MODULE)
    (package / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["0  empty.py", "10  known.py", "10  total"]
