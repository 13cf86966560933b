"""Count the code lines of Python files.

A code line is one on which a token starts that is not a comment, a
docstring or whitespace (newlines, indentation).  A statement spread over
several lines counts each line that starts a token, and a multi-line string
that is not a docstring counts once.  Docstrings are the string statements
that open a module, class or function.

    python tools/code_lines.py [PATH ...]     # default: src

Prints the count of each .py file under the given files and directories,
then the total.  Reads only those files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) of the first token of every docstring in `tree`."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    docs = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _BLANK or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.add(tok.start[0])
    return len(lines)


def _files(paths):
    for p in map(Path, paths):
        yield from sorted(p.rglob("*.py")) if p.is_dir() else [p]


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in _files(paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
