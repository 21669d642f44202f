"""Layout guards.

`src/corb` holds only code that the library itself calls: a module-level
function that no `corb` module references (as a name or an attribute) is
called only from the tests, or from nowhere. Such a helper belongs in
`tests/` as an oracle, or is deleted. `__init__.py` re-exports do not count
as references.

The README's "Spec strings" section documents every name and key of the
spec tables, with the key's type.
"""

import ast
import pathlib
import re

import corb
from corb.gatesets import _FAMILIES
from corb.noise import _CHANNELS

SRC = pathlib.Path(corb.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TYPE_NAMES = {int: "int", float: "float", str: "file"}


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


def _spec_rows() -> dict[str, str]:
    """Table rows of the README's "Spec strings" section, by spec name."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Spec strings\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `([a-z-]+)[:`]", line)
        if match:
            rows[match.group(1)] = line.split("|")[1]
    return rows


def test_readme_documents_every_spec_name_and_key():
    rows = _spec_rows()
    assert sorted(rows) == sorted([*_FAMILIES, *_CHANNELS])
    for name, entry in [*_FAMILIES.items(), *_CHANNELS.items()]:
        if entry.keys is None:
            assert f"`{name}:<file>`" in rows[name]
        for key, kind in (entry.keys or {}).items():
            assert f"{key}=<{TYPE_NAMES[kind]}>" in rows[name], (name, key)
