"""Total lines and code lines of Python files.

    python3 tools/code_lines.py src/cqpkit/semantics.py
    python3 tools/code_lines.py src/cqpkit/*.py

Prints one row per file, ``total code path``, and a last row with the sums
when more than one file is given. A code line holds a token that is not a
comment and lies outside every module, class or function docstring; blank
lines, comment lines and docstring lines are not code lines. Each line of
a statement that spans several lines is a code line, and so is each line
of a string literal that is not a docstring.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.Module) -> list[tuple]:
    """``(start, end)`` positions of the docstring of the module and of
    every class and function in it."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of the Python ``source``."""
    spans = _docstring_spans(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in spans):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    totals = [0, 0]
    for path in argv:
        with open(path, encoding="utf-8") as f:
            lines, code = count(f.read())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path}")
    if len(argv) > 1:
        print(f"{totals[0]:6d} {totals[1]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
