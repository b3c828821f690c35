"""Count the code lines and file lines of each Python module in a directory.

Code lines leave out blank lines, comments and docstrings: a line counts
when a token other than those sits on it. A docstring here is any
statement that is a string literal alone. File lines are all lines.

    python3 tools/code_lines.py src/aersnn
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(path: Path) -> tuple[int, int]:
    """(code lines, file lines) of one module."""
    data = path.read_bytes()
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.tokenize(io.BytesIO(data).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows), len(data.splitlines())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total_code = total_file = 0
    for path in sorted(root.rglob("*.py")):
        code, lines = count_lines(path)
        total_code += code
        total_file += lines
        print(f"{code:6d} {lines:6d}  {path.relative_to(root)}")
    print(f"{total_code:6d} {total_file:6d}  total (code lines, file lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
