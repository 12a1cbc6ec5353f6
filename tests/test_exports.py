"""Every public name is on a route the library, its scripts or its
benchmark takes.

A name listed in a module's ``__all__`` or exported by
``subdiff/__init__.py`` must be read, as a name or an attribute, somewhere
in ``src/``, ``scripts/`` or ``perfbench/`` outside those export lists.  A
name only the tests read is a second implementation nothing runs: it goes,
or it moves to ``tests/oracles.py`` if a test needs it as a reference.
"""
import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TREES = ("src", "scripts", "perfbench")
PACKAGE_INIT = os.path.join("src", "subdiff", "__init__.py")


def _modules():
    for tree in TREES:
        for folder, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path, encoding="utf-8") as fh:
                        yield (os.path.relpath(path, ROOT),
                               ast.parse(fh.read(), filename=path))


def _all_list(module):
    for node in module.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "__all__"):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_export_has_a_caller():
    exported, referenced = set(), set()
    for path, module in _modules():
        exported |= _all_list(module)
        if path == PACKAGE_INIT:
            exported |= {alias.asname or alias.name
                         for node in ast.walk(module)
                         if isinstance(node, ast.ImportFrom)
                         for alias in node.names}
            continue
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(exported - referenced)
    assert not unused, f"exported, and read only by tests: {unused}"
