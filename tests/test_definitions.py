"""Every function, method and class of the package has a reader.

A definition in src/quantperm counts as used when its name appears
anywhere in src/, tests/ or perfbench/ as a name, an attribute, an
imported name, or a whole string constant (perfbench's tracer names
the functions it wraps in strings).  Dunder methods are called by the
interpreter and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _definitions():
    """(file:line qualified name, name) of every def and class in the package."""
    for path, tree in _trees("src/quantperm"):
        stack = [(node, "") for node in tree.body]
        while stack:
            node, outer = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = outer + node.name
                yield f"{path.name}:{node.lineno} {qual}", node.name
                stack.extend((child, qual + ".") for child in node.body)


def _references():
    names = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_definition_is_referenced():
    used = _references()
    dead = [
        where
        for where, name in _definitions()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []
