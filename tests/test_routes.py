"""No route without a reader: every module-level function and class of
`sermtl` is referenced by the program (``src/``), its tools (``tools/``) or its
benchmark (``perfbench/``), other than by its own definition. Tests do not
count, so an API that only tests call is flagged.

A reference is a name, an attribute, an imported name, or a string literal
equal to the name (`perfbench/spans.py` names what it patches in strings).
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sermtl"
READERS = ("src", "tools", "perfbench")


def _names(node: ast.AST) -> set[str]:
    """The names that ``node`` and everything under it refers to."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _definitions(tree: ast.Module) -> list[ast.stmt]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _unread() -> list[str]:
    """``module.name`` of each definition of the package that nothing else refers to."""
    files = sorted(path for reader in READERS for path in (ROOT / reader).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in files}
    # what each file refers to outside each of its top-level definitions
    outside: dict[tuple[Path, str | None], set[str]] = {}
    for path, tree in trees.items():
        own = _definitions(tree)
        outside[path, None] = set().union(*(_names(node) for node in tree.body if node not in own))
        for node in own:
            outside[path, node.name] = _names(node)
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(trees[path]):
            read = any(node.name in names for (where, owner), names in outside.items()
                       if not (where == path and owner == node.name))
            if not read:
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_has_a_reader():
    assert _unread() == []
