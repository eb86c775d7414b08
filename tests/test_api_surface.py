"""Every public top-level function, class and constant of the package,
and every public method and property of its classes, must be used
somewhere, and no public function may be a bare alias.

A name counts as used when the syntax tree of a module under
``src/stabkit`` or of a file under ``tests/`` loads it, as a plain name
or as an attribute, f-strings and annotations included.  Definitions,
imports, strings and comments are not uses, and neither is a
function's load of itself: a recursive call by plain name, or through
``self`` or ``cls``.  A name nothing uses is a dead export: delete it
rather than keep it.

A use in the tests alone is not enough for a function: every public
top-level function and public method must be loaded by a module under
``src/stabkit``, or be on ``NO_SRC_CALLER`` with a one-line reason.  A
function only the tests call is deleted and its tests moved onto the
code it wrapped.  The allow-list holds at most four entries:
``stabspace.invert``, ``quivrep.euler_form``,
``session.SessionDocument.to_canonical`` and ``cli._Parser.error``.

The package ``__init__`` binds no public name but ``__version__``: each
name has one home, the module that defines it, and is imported from
there.

An alias wrapper is a public top-level function whose body, after an
optional docstring, is one ``return f(...)`` passing exactly its own
parameters, in any order.  Call ``f`` instead.

A test file must load every name it imports; ``from __future__``
imports are exempt.

Only ``session`` knows the layout of a session document: no other
module holds a string literal that starts with a document section, so a
constructor's JSON pointer is relative to its own arguments.  No module
catches ``Exception``, so a programming error is never reported as bad
input.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "stabkit"
MODULES = [p for p in sorted(PKG.glob("*.py")) if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def test_package_root_binds_only_the_version():
    bound = []
    for node in ast.parse((PKG / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
            bound += [t.id for t in node.targets]
        else:
            bound.append(ast.unparse(node).splitlines()[0])
    assert bound == ["__version__"]


def public_functions(files=MODULES):
    """(module path, name) for each public top-level function, and
    (module path, Class.name) for each public method or property defined
    in the body of a top-level class."""
    out = []
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((path, node.name))
            elif isinstance(node, ast.ClassDef):
                out += [(path, f"{node.name}.{m.name}") for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def public_members():
    return [(path, name) for path, name in public_functions() if "." in name]


def loaded(node) -> str | None:
    """The name a node loads, as a plain name or as an attribute."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def calls_itself(node, name: str) -> bool:
    """Whether node, inside the definition of name, loads that same
    function: as a plain name, or as an attribute of self or cls."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls") and loaded(node) == name
    return loaded(node) == name


def loaded_names(files):
    """Every name the files load, not counting a function's loads of
    itself."""
    uses = Counter()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            uses[loaded(node)] += 1
            if isinstance(node, ast.FunctionDef):
                uses[node.name] -= sum(calls_itself(n, node.name) for n in ast.walk(node))
    return {name for name, count in uses.items() if name and count > 0}


USERS = MODULES + [p for p in TESTS if p.name != Path(__file__).name]


def test_definitions_are_found():
    names = {name for _, name in public_definitions()}
    assert {"StabilityConditionHandle", "hn_decompose", "mass", "DEFAULT_CAP", "Mat2"} <= names


def test_every_public_name_is_used():
    seen = loaded_names(USERS)
    dead = [f"{path.stem}.{name}" for path, name in public_definitions() if name not in seen]
    assert dead == []


def test_members_are_found():
    names = {name for _, name in public_members()}
    assert {"FormalComplex.shifted", "GLtildeElement.is_identity", "PhaseKey.cmp"} <= names


def test_every_public_member_is_used():
    seen = loaded_names(USERS)
    dead = [f"{path.stem}.{name}" for path, name in public_members() if name.split(".")[1] not in seen]
    assert dead == []


NO_SRC_CALLER = {
    "stabspace.invert": "the group inverse of mul_sequential, for a user composing plane actions",
    "quivrep.euler_form": "the Euler form <a, b> = hom - ext^1 on dimension vectors; the tests define ext^1 by it",
    "session.SessionDocument.to_canonical": "the canonical form a user writes back; parse_session reads it unchanged",
    "cli._Parser.error": "argparse calls it on a malformed argument",
}


def without_src_caller(files):
    """module.name of each public function or method that no file in
    files loads outside its own definition."""
    seen = loaded_names(files)
    return [f"{path.stem}.{name}" for path, name in public_functions(files) if name.split(".")[-1] not in seen]


def test_every_public_function_has_a_caller_in_src():
    assert len(NO_SRC_CALLER) <= 4
    assert sorted(without_src_caller(MODULES)) == sorted(NO_SRC_CALLER)


def test_a_wrapper_without_a_caller_in_src_is_reported(tmp_path):
    # planted defect: a one-line public wrapper that only a test would call
    lib = tmp_path / "lib.py"
    lib.write_text("def _core(x):\n    return x + 1\n\n\ndef wrapper(x):\n    return _core(x)\n")
    assert without_src_caller([lib]) == ["lib.wrapper"]
    user = tmp_path / "user.py"
    user.write_text("from lib import wrapper\n\nVALUE = wrapper(1)\n")
    assert without_src_caller([lib, user]) == []


def test_a_recursive_call_is_not_a_caller(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Walk:\n    def down(self, n):\n        return self.down(n - 1) if n else 0\n\n\n"
                   "def count(n):\n    return count(n - 1) + 1 if n else 0\n")
    assert without_src_caller([lib]) == ["lib.Walk.down", "lib.count"]


def alias_wrappers():
    """module.name of each public top-level function that only forwards
    its own parameters to another callable."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
                continue
            call = body[0].value
            passed = list(call.args) + [k.value for k in call.keywords]
            params = [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
            if all(isinstance(a, ast.Name) for a in passed) and sorted(a.id for a in passed) == sorted(params):
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_alias_wrappers():
    assert alias_wrappers() == []


def unused_test_imports():
    """file:name for each name a test file imports but never loads."""
    out = []
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{path.name}:{name}" for name in bound if name not in loaded]
    return out


def test_every_test_import_is_used():
    assert unused_test_imports() == []


DOCUMENT_SECTION = re.compile(r"/(quiver|reps|charges|complexes|testsets|paths|field|D)(/|$)")


def test_only_session_knows_the_document_layout():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and path.name != "session.py":
                if DOCUMENT_SECTION.match(node.value):
                    found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"))
                       for t in caught):
                    found.append(f"{path.name}:{node.lineno} catches {ast.unparse(node.type or ast.Name('*'))}")
    assert found == []
