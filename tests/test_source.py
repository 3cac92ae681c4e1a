"""Source checks on the package modules that need no linter.

Run as a script, it prints the code lines of each package module and their
total: python tests/test_source.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

import gropes

# __init__.py imports names to re-export them, so it is not checked.
MODULES = sorted(p for p in Path(gropes.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads, with their lines."""
    tree = ast.parse(source)
    bound: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A quoted annotation reads the names inside its string.
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                parsed = ast.parse(n.value, mode="eval")
                read |= {m.id for m in ast.walk(parsed) if isinstance(m, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound if name not in read]


def test_unused_imports_finds_an_unread_name():
    source = "import json\nfrom typing import Iterator, Mapping\nx: 'Mapping[str, int]' = {}\n"
    assert unused_imports(source) == ["line 1: json", "line 2: Iterator"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text()) == []


def code_lines(source: str) -> int:
    """Lines that hold part of a token other than a comment or a docstring."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in layout or tok.type == tokenize.COMMENT:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    source = (
        '"""A module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = (\n"
        "    1,  # a trailing comment\n"
        ")\n"
        'y = """a string\nover two lines"""\n'
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return x\n"
    )
    # x = ( / 1, / ) / y = """... / ...""" / def f(): / return x
    assert code_lines(source) == 7


if __name__ == "__main__":
    package = sorted(Path(gropes.__file__).parent.glob("*.py"))
    counts = {p.name: code_lines(p.read_text()) for p in package}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
