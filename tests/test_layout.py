"""Layout guard: `src/corb` holds only code that the library itself calls.

A module-level function that no `corb` module references (as a name or an
attribute) is called only from the tests, or from nowhere. Such a helper
belongs in `tests/` as an oracle, or is deleted. `__init__.py` re-exports do
not count as references.
"""

import ast
import pathlib

import corb

SRC = pathlib.Path(corb.__file__).parent


def _module_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_module_function_has_a_library_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            referenced |= _references(tree)
    unused = [f"{name}:{fn}" for name, tree in trees.items()
              for fn in _module_defs(tree) if fn not in referenced]
    assert not unused, "functions no corb module calls: " + ", ".join(unused)
