"""Print the code lines of each module of `src/gkhyper`, and their total.

Usage: python3 scripts/code_lines.py [ROOT]

ROOT is the checkout to count (default: the one holding this script). A code
line is a line of a module's source that holds a token other than a comment,
and is not part of a docstring: the string that opens a module, class or
function body, as `ast.get_docstring` reads it. So blank lines, comment-only
lines and docstrings do not count; a line of any other string does. Each
module prints as `<count>  <module>`, in name order, then `<total>  total`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    total = 0
    for path in sorted((root / "src" / "gkhyper").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count}  {path.name}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
