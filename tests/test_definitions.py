"""Every function, method, class and import of the package has a reader.

A definition in src/quantperm counts as used when its name appears
anywhere in src/, tests/ or perfbench/ as a name, an attribute, an
imported name, or a whole string constant (perfbench's tracer names
the functions it wraps in strings).  Dunder methods are called by the
interpreter and are exempt.  A name a module of the package or of
tests/ imports counts as used when that module reads it as a name; the
package's __init__.py is exempt, as its imports are re-exports.

A module-level function or class must also have a reader beyond its
unit tests: the package exports it, src/ or perfbench/ reads it, or the
acceptance tests do.  And no function of the package calls itself.
"""

from __future__ import annotations

import ast
import sys
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


def _references(trees):
    names = set()
    for _, tree in trees:
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
    used = _references(_trees("src", "tests", "perfbench"))
    dead = [
        where
        for where, name in _definitions()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []


def test_every_import_is_read():
    unread = []
    for path, tree in _trees("src/quantperm", "tests"):
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def test_every_module_level_definition_is_read_beyond_its_unit_tests():
    init = ROOT / "src/quantperm/__init__.py"
    exported = _references([(init, ast.parse(init.read_text(encoding="utf-8")))])
    acceptance = ROOT / "tests/test_acceptance.py"
    read = _references(
        [(path, tree) for path, tree in _trees("src", "perfbench") if path != init]
        + [(acceptance, ast.parse(acceptance.read_text(encoding="utf-8")))]
    )
    test_only = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in _trees("src/quantperm")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in exported | read
    ]
    assert test_only == []


def test_the_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares no dependencies, and every import of the
    # package is paid again by each fresh process that loads it
    foreign = []
    for path, tree in _trees("src/quantperm"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


def test_no_function_of_the_package_calls_itself():
    # a function that calls itself nests one frame per step, so its depth
    # grows with its input and a large enough input ends in RecursionError
    recursive = []
    for path, tree in _trees("src/quantperm"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == node.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == node.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    recursive.append(f"{path.name}:{call.lineno} {node.name}")
    assert recursive == []
