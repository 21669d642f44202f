"""Layout guards.

`src/corb` holds only code that the library itself calls: a module-level
function, or a method of a class, that no `corb` module references (as a
name or an attribute) is called only from the tests, or from nowhere. Such
a helper belongs in `tests/` as an oracle, or is deleted. `__init__.py`
re-exports do not count as references. Dunder methods, which Python calls
(`__post_init__`, the dataclass hook, among them), need no reference.

Every import of a `corb` module (other than the re-exports of
`__init__.py`) and of a test module is used by that module.

The README's "Spec strings" section documents every name and key of the
spec tables, with the key's type; every int key has a least value.
"""

import ast
import pathlib
import re

import corb
from corb.gatesets import _FAMILIES
from corb.noise import _CHANNELS

SRC = pathlib.Path(corb.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent
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


def _methods(tree: ast.Module) -> list[str]:
    """Class.method of every method that is not a dunder."""
    return [f"{node.name}.{item.name}" for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _library() -> tuple[dict[str, ast.Module], set[str]]:
    """The tree of each `corb` module, and every name the modules reference."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            referenced |= _references(tree)
    return trees, referenced


def test_every_module_function_has_a_library_caller():
    trees, referenced = _library()
    unused = [f"{name}:{fn}" for name, tree in trees.items()
              for fn in _module_defs(tree) if fn not in referenced]
    assert not unused, "functions no corb module calls: " + ", ".join(unused)


def test_every_method_has_a_library_caller():
    trees, referenced = _library()
    unused = [f"{name}:{method}" for name, tree in trees.items()
              for method in _methods(tree) if method.split(".")[1] not in referenced]
    assert not unused, "methods no corb module calls: " + ", ".join(unused)


# perfbench/spans.py traces the engine through these attributes of
# corb.fitting (its TARGETS), which corb.fitting itself never calls.
TRACED_IMPORTS = {"corb/fitting.py:run_coherent_rb", "corb/fitting.py:run_standard_rb"}


def _imported(tree: ast.Module) -> list[str]:
    """Every name an import statement binds, at any depth."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_is_used():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    unused = []
    for path in paths + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        where = f"{path.parent.name}/{path.name}:"
        unused += [where + name for name in _imported(tree)
                   if name not in used and where + name not in TRACED_IMPORTS]
    assert not unused, "imports no code uses: " + ", ".join(unused)


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


def test_every_int_spec_key_has_a_minimum():
    """Every int key is a dimension or a count, so each has a least value
    that parsing checks."""
    for name, entry in [*_FAMILIES.items(), *_CHANNELS.items()]:
        ints = {key for key, kind in (entry.keys or {}).items() if kind is int}
        assert ints == set(entry.minima or {}), name
