"""Every public top-level function, class and constant of the package
must be used somewhere.

A name counts as used when the syntax tree of a module under
``src/stabkit`` or of a file under ``tests/`` loads it, as a plain name
or as an attribute, f-strings and annotations included.  Definitions,
imports, strings and comments are not uses, and the package
``__init__`` only re-exports, so it does not count.  A name nothing uses
is a dead export: delete it rather than keep it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "stabkit"
MODULES = [p for p in sorted(PKG.glob("*.py")) if p.name != "__init__.py"]


def public_definitions():
    """(module path, name) for each public top-level definition."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [(path, name) for name in names if not name.startswith("_")]
    return out


def loaded_names():
    """Every name the modules and the tests load."""
    files = MODULES + [p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name]
    seen = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                seen.add(node.attr)
    return seen


def test_definitions_are_found():
    names = {name for _, name in public_definitions()}
    assert {"StabilityConditionHandle", "hn_decompose", "mass", "DEFAULT_CAP", "Mat2"} <= names


def test_every_public_name_is_used():
    seen = loaded_names()
    dead = [f"{path.stem}.{name}" for path, name in public_definitions() if name not in seen]
    assert dead == []
