"""Source checks on the package: module boundaries and explicit invariants.

No module imports or reads another module's underscore name, and no
`assert` statement is left in the package (python -O removes them, so an
invariant must raise explicitly).
"""
import ast
from pathlib import Path

import toricsing

PACKAGE = Path(toricsing.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


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
