"""Count code lines in src/orbitcodes, standard library only.

A code line is a physical line that holds a token other than a comment or a
newline, outside the docstrings of modules, classes and functions: blank
lines, comment lines and docstring lines do not count, and every line of a
continued expression or a multi-line string that is not a docstring does.

Run it from the repository root:

    python tests/code_lines.py

It prints one "count module" line per module and a final total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitcodes"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment or a newline,
    outside module, class and function docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
