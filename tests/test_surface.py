"""Every public top-level function and class in the package, and every
public member of its classes, has a caller, and every module-level import
in the package, tests and tools is used; and the package's sources stay
within their tracked size.

A name counts as called when a chain of references reaches it from a
root: the command line (the module-level code of the package modules,
which builds the command table), the acceptance gates in
``tests/test_acceptance.py``, or the benchmark in ``perfbench/``,
including the dotted names its ``layers.GROUPS`` table resolves.  A
reference made only from inside a function or class that is itself
unreached does not count, so a helper kept alive by dead code fails
along with it.

Class members count as names of their own: a method, property,
staticmethod or classmethod without a leading ``_`` must be reached, and
each member's body is an edge from its name.  Dunders are reached along
with their class, together with the class's bases, decorators and
class-level statements.

References are matched by name, across modules, which can keep a name
alive by a same-named reference elsewhere but never flags a name that is
used.  So the rule cannot see a dead operator dunder (``__neg__`` is
called as ``-x``, never by name), nor a member whose name a local
variable or another definition shadows (``scale``, ``det``,
``transpose``, ``facets``); finding those takes a line trace of the
program's traffic.  ``__init__.py`` is not counted: the package exports
no names, and callers import from the modules.

The sources are parsed with ``ast``; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "quintic_mirror"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _group_names() -> set:
    """The attribute paths in the ``GROUPS`` literal of perfbench/layers.py."""
    tree = _parse(_ROOT / "perfbench" / "layers.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GROUPS" for t in node.targets
        ):
            groups = ast.literal_eval(node.value)
            return {
                part
                for targets in groups.values()
                for _module, path in targets
                for part in path.split(".")
            }
    raise AssertionError("perfbench/layers.py has no GROUPS table")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uncalled() -> list:
    roots = _group_names() | _names(_parse(_ROOT / "tests" / "test_acceptance.py"))
    for path in sorted((_ROOT / "perfbench").glob("*.py")):
        roots |= _names(_parse(path))
    public = []
    edges = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if not isinstance(node, _DEFS):
                roots |= _names(node)
                continue
            if not node.name.startswith("_"):
                public.append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                edges.setdefault(node.name, set()).update(_names(node))
                continue
            # the class edge: bases, decorators, class-level statements, dunders
            own = edges.setdefault(node.name, set())
            for part in (*node.bases, *node.keywords, *node.decorator_list):
                own |= _names(part)
            for member in node.body:
                if isinstance(member, _DEFS) and not _is_dunder(member.name):
                    edges.setdefault(member.name, set()).update(_names(member))
                    if not member.name.startswith("_"):
                        public.append(f"{path.stem}.{node.name}.{member.name}")
                else:
                    own |= _names(member)
    reached = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges.get(name, ()))
    return [q for q in public if q.rpartition(".")[2] not in reached]


def test_every_public_name_has_a_caller() -> None:
    assert _uncalled() == []


def test_package_exports_no_names() -> None:
    tree = _parse(_PACKAGE / "__init__.py")
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def _unused_imports(path: Path) -> list:
    """Names bound by module-level imports of path that nothing else in it references."""
    tree = _parse(path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.partition(".")[0])
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [f"{path.relative_to(_ROOT)}: {name}" for name in bound if name not in used]


def test_every_module_level_import_is_used() -> None:
    paths = [*_PACKAGE.glob("*.py"), *(_ROOT / "tests").glob("*.py"), *(_ROOT / "tools").glob("*.py")]
    assert [line for path in sorted(paths) for line in _unused_imports(path)] == []


# the package's tracked size: physical lines of its modules, as `wc -l` counts them
MAX_SOURCE_LINES = 3300


def test_package_sources_stay_within_their_line_budget() -> None:
    lines = sum(path.read_bytes().count(b"\n") for path in _PACKAGE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES
