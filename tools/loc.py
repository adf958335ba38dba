"""Count the code lines of the package's modules.

A code line is a non-blank line that holds something other than a
comment or a docstring.  For each module, and in total, the script
prints that count next to the physical line count that ``wc -l``
reports.

    python3 tools/loc.py [file-or-directory ...]    (default: src/chebconvex)
"""

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


def main(argv: list) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent
                                        / "src" / "chebconvex"]
    files = sorted(p for r in roots for p in ([r] if r.is_file() else r.glob("*.py")))
    total_code = total_wc = 0
    print(f"{'code':>6} {'wc -l':>6}  file")
    for path in files:
        text = path.read_text()
        code, wc = code_lines(text), text.count("\n")
        total_code += code
        total_wc += wc
        print(f"{code:>6} {wc:>6}  {os.path.relpath(path)}")
    print(f"{total_code:>6} {total_wc:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
