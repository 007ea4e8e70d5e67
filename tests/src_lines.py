"""Print each src module's raw lines and code lines, and their totals.

A code line holds at least one token that is not a comment and lies
outside every docstring; blank, comment and docstring lines are left out.
This is the count that ROADMAP.md and CHANGES.md report as "src code lines".
pytest does not collect this file (its name does not start with ``test``).

    python3 tests/src_lines.py [src-dir]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            code.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count(path.read_text(encoding="utf-8"))
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
