"""Every name a module under src/arrac imports is used in that module,
every private module-level name is used somewhere under src/arrac, every
public module-level function and class is used there too or exported by
``arrac`` or ``arrac.qlang``, no import hides inside a function but the ones
cli.py defers past start-up, and only core.py calls ``object.__new__``.

A stdlib-only scan with ``ast``.  ``from __future__`` imports are exempt,
and so are the names a package ``__init__.py`` lists in a literal ``__all__``:
those imports are the package's re-exports.  A computed ``__all__`` exempts
no names.
"""

import ast
from pathlib import Path

import arrac
import arrac.qlang

SRC = Path(__file__).resolve().parent.parent / "src" / "arrac"


def _names_in_strings(annotation) -> set:
    """Names used inside the string parts of an annotation, such as "Value"."""
    return {
        name.id
        for node in ast.walk(annotation)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for name in ast.walk(ast.parse(node.value, mode="eval"))
        if isinstance(name, ast.Name)
    }


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.AnnAssign):
            used.update(_names_in_strings(node.annotation))
        elif isinstance(node, ast.arguments):
            for arg in node.posonlyargs + node.args + node.kwonlyargs + [node.vararg, node.kwarg]:
                if arg is not None and arg.annotation is not None:
                    used.update(_names_in_strings(arg.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_names_in_strings(node.returns))
        elif isinstance(node, ast.Assign) and path.name == "__init__.py":
            if (any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    and isinstance(node.value, (ast.List, ast.Tuple))):
                exported.update(ast.literal_eval(node.value))
    return sorted(
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_no_unused_imports_under_src():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(statement) -> list:
    """The names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unused_definitions(select) -> tuple:
    """How many module-level names under src/arrac ``select(statement)``
    lists, and where each one that no other statement refers to is defined."""
    defined = {}  # name -> the places that define it
    used = set()
    for path in sorted(SRC.rglob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            names = select(statement)
            for name in names:
                defined.setdefault(name, []).append(f"{path.relative_to(SRC.parent)}:{statement.lineno}")
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                elif isinstance(node, ast.alias):
                    ref = node.name
                else:
                    continue
                # a definition that refers to itself does not count as a use
                if ref not in names:
                    used.add(ref)
    unused = sorted(f"{place}: {name}" for name, places in defined.items()
                    if name not in used for place in places)
    return len(defined), unused


def test_every_private_module_level_name_is_used():
    count, unused = _unused_definitions(lambda s: [n for n in _defined(s) if _private(n)])
    assert count > 50
    assert unused == []


def test_every_public_module_level_name_is_used_or_exported():
    """A public function or class that no code under src/arrac names, and
    that neither arrac nor arrac.qlang exports, is kept only for its tests."""
    exported = set(arrac.__all__) | set(arrac.qlang.__all__)
    count, unused = _unused_definitions(
        lambda s: [s.name]
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _private(s.name) and s.name not in exported
        else []
    )
    assert count > 40
    assert unused == []


# The modules cli.py imports only in the commands that need them, so that
# start-up loads none of them.  Any other import inside a function hides an
# import cycle.
_DEFERRED = {"from . import manifest", "from . import relbridge", "import csv"}


def test_only_cli_defers_imports_to_a_function():
    nested = {
        f"{path.relative_to(SRC.parent)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (path == SRC / "cli.py" and ast.unparse(node) in _DEFERRED)
    }
    assert sorted(nested) == []


def test_only_core_builds_an_object_past_its_constructor():
    # object.__new__ skips a class's checks: core.py's trusted constructors
    # are the one place allowed to call it
    callers = sorted(
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )
    assert callers and all(c.startswith("arrac/core.py:") for c in callers), callers

