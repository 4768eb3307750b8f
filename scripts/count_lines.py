"""Count the lines of each module of src/mvlab.

    python scripts/count_lines.py

Prints, per module and in total, its lines as `wc -l` counts them and its
code lines: lines holding a Python token, not counting blank lines,
comments or docstrings (found through the module's AST).  Standard library
only.
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mvlab"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return len({tok.start[0] for tok in tokens if tok.type not in SKIP} - docstrings)


total = [0, 0]
print(f"{'module':<20} {'wc -l':>6} {'code':>6}")
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    counts = [text.count("\n"), code_lines(text)]
    total = [t + c for t, c in zip(total, counts)]
    print(f"{path.name:<20} {counts[0]:>6} {counts[1]:>6}")
print(f"{'total':<20} {total[0]:>6} {total[1]:>6}")
