"""``tools/code_lines.py``, the line count that CHANGES.md and the ROADMAP cite."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(a,
      b):
    """A function docstring."""
    return os.path.join(
        a, b)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    """Of the fixture's 13 lines, the two of the module docstring, the
    function docstring, the comment line and the four blank lines are not
    code lines; the import with its trailing comment and each line of the
    two multi-line statements are."""
    one = tmp_path / "one.py"
    one.write_text(FIXTURE)
    two = tmp_path / "two.py"
    two.write_text("x = 1\n\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(one), str(two)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["13", "5", str(one)],
        ["2", "1", str(two)],
        ["15", "6", "total"],
    ]
