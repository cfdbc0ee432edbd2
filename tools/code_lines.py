"""Print the code lines of each Python module under a directory, and their
total: lines that hold a token other than a comment or a docstring.

Usage: python tools/code_lines.py [DIR]   (DIR defaults to src/rlsa)
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path) -> int:
    """The number of lines of ``path`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(root) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/rlsa")
