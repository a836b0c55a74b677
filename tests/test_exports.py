"""The package exports only what the package, its scripts or its README use,
and each of its modules reads every name it imports.

Code that only tests read belongs in `tests/helpers.py`, not in `src/`.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlrc"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _referenced() -> set[str]:
    """Every name the package modules read, and every name the scripts
    import or read; a definition is not a reference."""
    names = set()
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    for path in sorted(PACKAGE.glob("*.py")) + scripts:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and path in scripts:
                names.add(node.name)
    return names


def test_every_export_is_used_outside_the_tests():
    referenced = _referenced()
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in _exported()
              if name not in referenced and not re.search(rf"\b{name}\b", readme)]
    assert unused == [], f"exported, but read only by tests: {unused}"


def _defined() -> list[tuple[str, str]]:
    """(module, name) for every top-level def, class and constant of the
    package modules, dunder names aside."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(path.stem, name) for name in names if not name.startswith("__")]
    return out


def _methods() -> list[tuple[str, str]]:
    """(class, name) for every public method and property of FieldSpec and
    GridCodeRecord."""
    out = []
    for path in (PACKAGE / "gf.py", PACKAGE / "grid_codes.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in ("FieldSpec", "GridCodeRecord"):
                out += [(node.name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def _benchmark_strings() -> set[str]:
    """Every string constant of the benchmark, which wraps FieldSpec's
    arithmetic methods by name."""
    return {node.value for path in sorted((ROOT / "perfbench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_definition_is_read_outside_the_tests():
    referenced = _referenced()
    readme = (ROOT / "README.md").read_text()
    wrapped = _benchmark_strings()
    methods = [(cls, name) for cls, name in _methods() if name not in wrapped]
    unread = [f"{module}.{name}" for module, name in _defined() + methods
              if name not in referenced and not re.search(rf"\b{name}\b", readme)]
    assert unread == [], f"defined in src/qlrc, but read only by tests: {unread}"


def _imported(tree: ast.Module) -> list[str]:
    """The names a module's top-level imports bind, __future__ aside."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in _imported(tree) if name not in read]
    assert unread == [], f"imported in src/qlrc, but never read: {unread}"
