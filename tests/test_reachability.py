"""Every top-level function and class of src/ebg is reached from outside
its own definition: by the package itself, by the benchmark in
perfbench/, or by the fixture builders in tests/fixtures/.  A name that
only its own tests reach is code no command runs, so it fails here."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ebg"


def _mentions(node: ast.AST) -> set[str]:
    """Names, attribute names and string constants used inside ``node``.

    Strings count because perfbench/ looks functions up by name.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _defined_name(statement: ast.stmt) -> str | None:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return statement.name
    return None


def unreached_definitions(package: Path, readers: list[Path]) -> list[str]:
    """``module.name`` of each top-level def or class of ``package`` that
    no statement of ``readers`` mentions, save its own definition."""
    definitions = []  # (path, name)
    mentions = []  # (path, enclosing top-level definition or None, names)
    for path in readers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            name = _defined_name(statement)
            if path.parent == package and name and not name.startswith("__"):
                definitions.append((path, name))
            mentions.append((path, name, _mentions(statement)))
    return [
        f"{path.stem}.{name}"
        for path, name in definitions
        if not any(
            name in names and (where, owner) != (path, name) for where, owner, names in mentions
        )
    ]


def test_every_definition_is_reached_from_outside_its_tests():
    readers = sorted(PACKAGE.glob("*.py"))
    readers += sorted((ROOT / "perfbench").glob("*.py"))
    readers += sorted((ROOT / "tests" / "fixtures").glob("*.py"))
    assert unreached_definitions(PACKAGE, readers) == []
