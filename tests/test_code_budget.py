"""The package stays within its code-line budget.

A code line is a line of ``src/hiroute`` that starts a ``tokenize`` token
other than a comment, NL, NEWLINE, INDENT, DEDENT or ENDMARKER, outside the
module, class and function docstrings. Blank lines, comments and docstrings
are free, so trimming prose does not pass for a simpler design.
"""
import ast
import io
import os
import tokenize

import hiroute

# the bar of at most 2,391 code lines, the count when the budget was set
BUDGET = 2391

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    starts = {
        tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in NOT_CODE
    }
    return len(starts - docstrings)


def module_code_lines() -> dict[str, int]:
    """Each module of the package and its code-line count, most lines first."""
    root = os.path.dirname(hiroute.__file__)
    counts = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                counts[name] = code_lines(fh.read())
    return dict(sorted(counts.items(), key=lambda item: -item[1]))


def test_counts_code_not_prose():
    source = '''"""Module doc."""
# a comment

def f(x):
    """Function doc,
    on two lines."""
    y = (x +
         1)  # trailing
    return y
'''
    assert code_lines(source) == 4


def test_package_within_budget():
    counts = module_code_lines()
    where = ", ".join(f"{name} {lines}" for name, lines in counts.items())
    assert sum(counts.values()) <= BUDGET, where
