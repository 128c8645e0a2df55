"""Every public top-level function and class in the package has a caller.

A name counts as called when a chain of references reaches it from a
root: the command line (the module-level code of the package modules,
which builds the command table), the acceptance gates in
``tests/test_acceptance.py``, or the benchmark in ``perfbench/``,
including the dotted names its ``layers.GROUPS`` table resolves.  A
reference made only from inside a function or class that is itself
unreached does not count, so a helper kept alive by dead code fails
along with it.  References are matched by name, across modules, which
can keep a name alive by a same-named reference elsewhere but never
flags a name that is used.  ``__init__.py`` is not counted: the package
exports no names, and callers import from the modules.

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
            if isinstance(node, _DEFS):
                edges.setdefault(node.name, set()).update(_names(node))
                if not node.name.startswith("_"):
                    public.append(f"{path.stem}.{node.name}")
            else:
                roots |= _names(node)
    reached = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(edges.get(name, ()))
    return [q for q in public if q.partition(".")[2] not in reached]


def test_every_public_name_has_a_caller() -> None:
    assert _uncalled() == []


def test_package_exports_no_names() -> None:
    tree = _parse(_PACKAGE / "__init__.py")
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1
