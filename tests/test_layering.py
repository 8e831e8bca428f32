"""Source checks on the package: module boundaries, explicit invariants
and dead code.

No module imports or reads another module's underscore name, no `assert`
statement is left in the package (python -O removes them, so an invariant
must raise explicitly), and every function, class and method the package
defines is referenced by name somewhere in src/, tests/ or bench/.
"""
import ast
from pathlib import Path

import toricsing

PACKAGE = Path(toricsing.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parents[1]


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private(name):
    return name.startswith("_") and not _dunder(name)


def _violations(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    sibling_modules = set()  # local names bound to modules of the package
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append("line %d: assert statement" % node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("toricsing")
        ):
            for alias in node.names:
                if node.module is None:
                    sibling_modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(
                        "line %d: imports %s.%s" % (node.lineno, node.module, alias.name)
                    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and _private(node.attr)
        ):
            found.append("line %d: reads %s.%s" % (node.lineno, node.value.id, node.attr))
    return found


def test_modules_are_found():
    assert {p.stem for p in MODULES} >= {"chain", "cli", "lattice", "surfaces"}


def test_no_private_cross_module_use_and_no_asserts():
    bad = {p.name: v for p in MODULES if (v := _violations(p))}
    assert bad == {}


def _definitions(path):
    """Module-level functions and classes, and the non-dunder methods."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not _dunder(item.name):
                    yield "%s.%s" % (node.name, item.name)


def _referenced_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_definition_is_referenced():
    sources = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    used = _referenced_names(sources)
    unused = [
        "%s.%s" % (path.stem, name)
        for path in MODULES
        for name in _definitions(path)
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == []
