#!/usr/bin/env python3
"""Print the size of the package source: non-blank lines of src, code lines
of src and the number of public names in wallclimber.__all__.

A code line holds a token of code. Blank lines, comment lines and the lines
of module, class and function docstrings do not count; `ast` finds the
docstrings and `tokenize` the tokens. The script only prints.

Usage: python tools/src_size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    """The numbers of the lines of `text` that hold code, docstrings left out."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings


def main():
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))]
    non_blank = sum(1 for text in texts for line in text.splitlines() if line.strip())
    sys.dont_write_bytecode = True  # leave no __pycache__ in src
    sys.path.insert(0, str(SRC))
    import wallclimber

    print(f"src non-blank lines: {non_blank}")
    print(f"src code lines: {sum(len(code_lines(text)) for text in texts)}")
    print(f"public names (wallclimber.__all__): {len(wallclimber.__all__)}")


if __name__ == "__main__":
    main()
