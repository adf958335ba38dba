"""Count the code lines and the statements of the package's modules.

A code line is a non-blank line that holds something other than a
comment or a docstring.  A statement is a node of the module's syntax
tree that is a statement, other than a docstring, so joining two
statements on one line lowers the first count but not the second.  For
each module, and in total, the script prints both counts next to the
physical line count that ``wc -l`` reports.

    python3 tools/loc.py [file-or-directory ...]    (default: src/chebconvex)
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

#: Tokens that end a statement or change the indentation.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of the Python source ``text`` spanned by a
    token other than a comment, a docstring or layout.  A docstring is a
    string that makes up a whole statement."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type in _LAYOUT):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def statements(text: str) -> int:
    """The number of statements of the Python source ``text``, at any
    depth, other than docstrings: a docstring is a string that makes up a
    whole statement, as :func:`code_lines` reads it."""
    return sum(isinstance(node, ast.stmt) and not (
        isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)) for node in ast.walk(ast.parse(text)))


def main(argv: list) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent
                                        / "src" / "chebconvex"]
    files = sorted(p for r in roots for p in ([r] if r.is_file() else r.glob("*.py")))
    totals = [0, 0, 0]
    print(f"{'code':>6} {'stmts':>6} {'wc -l':>6}  file")
    for path in files:
        text = path.read_text()
        counts = code_lines(text), statements(text), text.count("\n")
        totals = [t + c for t, c in zip(totals, counts)]
        print(" ".join(f"{c:>6}" for c in counts) + f"  {os.path.relpath(path)}")
    print(" ".join(f"{t:>6}" for t in totals) + "  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
