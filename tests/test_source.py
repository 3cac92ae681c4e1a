"""Source checks on the package modules that need no linter.

Run as a script, it prints the code lines of each package module and their
total: python tests/test_source.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
import types
from pathlib import Path

import pytest

import gropes

PACKAGE = sorted(Path(gropes.__file__).parent.glob("*.py"))
# __init__.py imports names to re-export them, so it is not checked for unread imports.
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def blank_line_faults(source: str) -> list[str]:
    """Runs of more than two blank lines, and blank lines at the end, with their lines."""
    faults, run = [], 0
    lines = source.split("\n")
    for number, line in enumerate(lines, 1):
        if line.strip():
            if run > 2:
                faults.append(f"line {number}: {run} blank lines before it")
            run = 0
        else:
            run += 1
    # A file ends in one newline, which split reads as one empty last line.
    if run > 1:
        faults.append(f"end: {run - 1} blank lines")
    return faults


def test_blank_line_faults_finds_long_runs_and_a_blank_end():
    assert blank_line_faults("a\n\n\nb\n") == []
    faults = blank_line_faults("a\n\n\n\nb\n\n")
    assert faults == ["line 5: 3 blank lines before it", "end: 1 blank lines"]


@pytest.mark.parametrize("module", PACKAGE, ids=lambda p: p.name)
def test_module_has_no_long_blank_runs_and_no_blank_end(module):
    assert blank_line_faults(module.read_text()) == []


def referenced_names(source: str) -> set[str]:
    """Names the module reads, each outside the top-level definition of that name."""
    names: set[str] = set()
    for top in ast.parse(source).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                names.add(node.id)
    return names


def test_referenced_names_skips_a_definition_reading_itself():
    source = "def f(n):\n    return f(n - 1) + g(n)\n\ndef g(n):\n    return n\n"
    assert referenced_names(source) == {"g", "n"}


def test_every_exported_name_has_a_user():
    """Package code outside the name's definition, a gp.<name> benchmark call, or README code.

    README code is inline: a name in a fenced example alone has no user.
    """
    root = Path(__file__).resolve().parent.parent
    used = set().union(*(referenced_names(p.read_text()) for p in MODULES))
    for bench in sorted((root / "perfbench").glob("*.py")):
        used |= set(re.findall(r"\bgp\.(\w+)", bench.read_text()))
    prose = re.sub(r"```.*?```", "", (root / "README.md").read_text(), flags=re.S)
    for span in re.findall(r"`([^`]*)`", prose):
        used |= set(re.findall(r"\w+", span))
    public = {
        name for name, value in vars(gropes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - used) == []


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
    counts = {p.name: code_lines(p.read_text()) for p in PACKAGE}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
