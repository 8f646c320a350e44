"""Every name the package exports has a user besides the tests.

A name imported in ``colluder_lab/__init__.py`` must be referenced by
another module of the package (outside its own definition), referenced by
the benchmark under ``perfbench/``, or named as code in the README.  A name
that only tests use belongs in ``tests/conftest.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "colluder_lab"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


class _References(ast.NodeVisitor):
    """Names a module uses: loaded names, attributes, imported names and string
    constants (a tracer names what it wraps by strings), except a definition's
    uses of its own name."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _use(self, name: str) -> None:
        if name not in self._defining:
            self.names.add(name)

    def _define(self, node) -> None:
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self._use(alias.name)

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)  # a bare string is a docstring, not a use

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._use(node.value)


def referenced_names(paths) -> set[str]:
    refs = _References()
    for path in paths:
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    return refs.names


def readme_code() -> str:
    """The README's code: its fenced blocks and inline code spans."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return "\n".join(blocks + spans)


def test_every_export_has_a_user_besides_the_tests():
    in_package = referenced_names(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    in_benchmark = referenced_names((ROOT / "perfbench").rglob("*.py"))
    code = readme_code()
    unused = [name for name in exported_names()
              if name not in in_package and name not in in_benchmark
              and not re.search(rf"\b{re.escape(name)}\b", code)]
    assert unused == []

