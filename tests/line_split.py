"""Split the lines of each module of src/hybridnoc into code, docstring,
comment and blank lines, and print the counts and their totals.

A line inside a module, class or function docstring counts as docstring,
the blank lines inside it included.  Outside docstrings, a line that holds
any token but a comment is code (so a multi-line string literal is code), a
line with only a comment is comment, and an empty line is blank.

Run it from the repository root with `python3 tests/line_split.py`, or give
the package directory as its one argument.  It uses only the standard
library.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(path: Path) -> dict:
    """Counts of code, docstring, comment and blank lines of one module."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for lineno in range(1, len(source.splitlines()) + 1):
        if lineno in docs:
            counts["docstring"] += 1
        elif lineno in code:
            counts["code"] += 1
        elif lineno in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "hybridnoc"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<18}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = split(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<18}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<18}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
