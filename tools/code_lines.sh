#!/usr/bin/env bash
# Count the code lines of each src/homeomatch module and their total.
#
# Usage: tools/code_lines.sh [CHECKOUT]
#
# CHECKOUT defaults to the checkout that holds this script.  A code line is
# a line that holds part of a Python token other than a comment; blank
# lines, comment lines and the lines of docstrings (the string that opens a
# module, class or function body) are left out.  Prints one `count module`
# line per module, sorted by name, then `count total`, as `wc -l` does.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [CHECKOUT]" >&2
    exit 2
fi
root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
src="$root/src/homeomatch"
if [ ! -d "$src" ]; then
    echo "$0: no directory $src" >&2
    exit 2
fi

python3 - "$src" <<'EOF'
import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


total = 0
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    count = code_lines(path)
    total += count
    print(f"{count:6d} {path.name}")
print(f"{total:6d} total")
EOF
