"""Every module-level import of the package, the tests and the benchmark
scripts is used, every name a package module exports is bound, and every
module-level function, class and assigned name of the package is named
somewhere else.

No linter runs on this repository, so this catches what a deletion most
often leaves behind: an import that nothing reads, an ``__all__`` entry
for a name that is gone, or a helper or constant that nothing reads any
more.
``dlde/__init__.py`` is exempt from the first check, as it exists to bind
names.  The modules are parsed, not imported: importing ``dlde.__main__``
runs the CLI.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """The names that the module-level imports of ``path`` bind but that
    its code never reads and its ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_module_level_imports_are_used():
    paths = [*ROOT.glob("src/dlde/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("benchmarks/*.py")]
    unused = {
        str(p.relative_to(ROOT)): names
        for p in sorted(paths)
        if p.name != "__init__.py" and (names := _unused_imports(p))
    }
    assert unused == {}


def _unbound_exports(path: Path) -> list[str]:
    """The names in the ``__all__`` of ``path`` that its module level does
    not bind by an import, a definition or an assignment."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_exported_names_are_bound():
    paths = sorted(ROOT.glob("src/dlde/*.py"))
    unbound = {str(p.relative_to(ROOT)): names for p in paths if (names := _unbound_exports(p))}
    assert unbound == {}


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and assigned name
    of ``tree``, except ``__all__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id != "__all__":
                        yield n.id, node


def test_package_definitions_are_named_elsewhere():
    # a text match, so that a name in a string counts, as the hooks that
    # benchmarks/tracing.py names in INSTRUMENTS do
    paths = sorted([*ROOT.glob("src/dlde/*.py"), *ROOT.glob("tests/*.py"),
                    *ROOT.glob("benchmarks/*.py")])
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in paths}
    orphans = []
    for path in sorted(ROOT.glob("src/dlde/*.py")):
        for name, node in _definitions(ast.parse("\n".join(lines[path]))):
            own = range(node.lineno - 1, node.end_lineno)
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for p in paths for i, line in enumerate(lines[p])
                       if not (p == path and i in own)):
                orphans.append(f"{path.relative_to(ROOT)}: {name}")
    assert orphans == []
